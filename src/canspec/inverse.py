"""Recovery of the system weight from an admissible spectral measure.

The pipeline inverts the sectioned quadratic form at a family of
bandwidths ``s``.  At each ``s`` one two-column solve recovers a
sine-type and a cosine-type component on the support of the measure;
their 2x2 measure Gram over pi is the integrated weight ``N`` up to the
position of type ``s``, the chain point ``zeta``.  It runs in two steps.
First the slice table, one row per bandwidth from ``s = 0``: ``s``,
``zeta``, ``N11``, ``N12``, ``N22`` and the sine-norm residual.  Then the
weight from that table alone: one interpolant of the integrated weight
over the chain points, differenced on a uniform position grid, gives the
weight as its derivative in position.  One section is alive at a time:
the full-bandwidth section is released before its slopes are evaluated,
and each slice keeps only its row.  The interpolant is a monotone cubic
(PCHIP) written out here, equal to SciPy's ``PchipInterpolator`` to the
bit, and the special functions of the tail sums are written out too, so
that this module loads only ``scipy.linalg``.

Windowed measures lose slowly decaying tails in every measure sum.  All
sums here are completed with the free lattice model at the fitted type
``SpectralMeasure.type`` (atom parity fixes the sign pattern of the cosine
data), which is exact on the free fixture and a recorded heuristic
otherwise.  The model tails are summed to infinity in closed form, in one
array pass over the frequencies ``0``, ``s`` and ``2s``: a short explicit
head plus an Euler-Maclaurin remainder, whose integral is a scaled
exponential integral.  The resonant row at ``0`` is the Hurwitz zeta
``zeta(2, q)``, its remainder the zeta's asymptotic series.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .forward import _BERNOULLI
from .model import (
    PSD_SLACK,
    GridConfig,
    Hamiltonian,
    InvariantViolation,
    NumericalError,
    ReconstructionResult,
    SpectralMeasure,
    ValidationError,
)
from .pwspace import apply_inverse, build_operator

__all__ = [
    "RecoveryPipeline",
    "recentering_moment",
    "boundary_cosine_values",
    "lattice_tail_sums",
]


#: Explicit terms of a lattice sum before its analytic remainder.  They move
#: the remainder's start ``q`` past 64, where ``_EM_ORDER`` Bernoulli
#: corrections reach roundoff for every phase.
_LATTICE_TERMS = 64
_EM_ORDER = 25

def _scaled_e1(z: complex) -> complex:
    """Scaled exponential integral ``exp(z) E1(z)`` for ``Re z >= 0``, ``z != 0``.

    For ``|z| <= 2`` the series ``E1(z) = -gamma - log z - sum_k (-z)^k /
    (k k!)`` (DLMF 6.6.2), to 24 terms; beyond, the even part of the
    continued fraction ``exp(z) E1(z) = 1/(z + 1 - 1/(z + 3 - 4/(z + 5 -
    ...)))`` (DLMF 6.9.1) by the modified Lentz method (Numerical Recipes,
    3rd ed., section 5.2), to roundoff.
    """
    if abs(z) <= 2.0:
        term, total = 1.0, 0.0
        for k in range(1, 25):
            term *= -z / k
            total += term / k
        return cmath.exp(z) * (-np.euler_gamma - cmath.log(z) - total)
    b = z + 1.0
    value = d = 1.0 / b
    # C_1 = b_1 + 1/C_0 with the start C_0 -> 0; stop within two ulps of 1
    c, delta, n = math.inf, 0.0, 0
    while abs(delta - 1.0) > 4e-16:
        n += 1
        b += 2.0
        d = 1.0 / (b - n * n * d)
        c = b - n * n / c
        delta = c * d
        value *= delta
    return value


def _em_correction_matrix() -> np.ndarray:
    """``K`` with ``sum_k B_2k/(2k) f_(2k-1) = (a^i) @ K @ (q^-(j+2))``.

    The Taylor coefficients of ``F(x) = exp(1j a x) / (q + x)^2`` at 0 are
    the convolution ``f_m = sum_(i+j=m) (1j a)^i/i! (-1)^j (j + 1)/q^(j+2)``;
    the corrections weight the odd ``m < 2 _EM_ORDER``, so ``K_ij`` is
    ``1j^i (-1)^j (j + 1) B_(i+j+1)/((i + j + 1) i!)`` for odd ``i + j``,
    else 0.
    """
    i = np.arange(2 * _EM_ORDER)
    weights = np.zeros(4 * _EM_ORDER)
    weights[1 : 2 * _EM_ORDER : 2] = [
        num / (2 * k * den) for k, (num, den) in enumerate(_BERNOULLI[1 : _EM_ORDER + 1], 1)
    ]
    rows = 1j**i / np.array([float(math.factorial(k)) for k in i])
    columns = (-1.0) ** i * (i + 1)
    return weights[i[:, None] + i[None, :]] * rows[:, None] * columns[None, :]


_EM_MATRIX = _em_correction_matrix()
_EM_POWERS = np.arange(2 * _EM_ORDER)


def _lerch_remainder(theta: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``sum_{i >= 0} exp(1j theta i) / (q + i)^2`` for ``|theta| <= pi`` and large ``q``.

    One row per phase ``theta``, one column per start ``q``.  Euler-Maclaurin
    on ``F(x) = exp(1j theta x) / (q + x)^2``: the integral ``1/q + 1j a
    exp(z) E1(z)`` at ``z = -1j a q``, ``a = |theta|`` (:func:`_scaled_e1`,
    with no sine or cosine integrals, so nothing cancels against ``pi/2``),
    ``F(0)/2`` and the Bernoulli corrections ``B_2k/(2k) f_(2k-1)``, where
    ``f`` are the Taylor coefficients of ``F`` at 0 (one fixed matrix
    product, :func:`_em_correction_matrix`).  The corrections shrink like
    ``(theta/2pi)^2k`` plus powers of ``1/q`` uniformly in ``theta``; at
    resonance (``theta = 0``) this is the asymptotic series of the Hurwitz
    zeta ``zeta(2, q)``, so nothing grows as ``theta`` approaches it.
    """
    a = np.abs(theta)[:, None]
    # a exp(z) E1(z) -> 0 like a log(a q): at resonance the integral is 1/q alone
    scaled = [[_scaled_e1(complex(0.0, -x)) if x else 0.0 for x in row] for row in a * q]
    corrections = (a**_EM_POWERS @ _EM_MATRIX) @ ((1.0 / q[:, None]) ** (_EM_POWERS + 2)).T
    value = 1j * a * np.array(scaled) + (1.0 / q + 0.5 / q**2) - corrections
    return np.where(theta[:, None] < 0, np.conj(value), value)


def _lattice_rows(omega: np.ndarray, first: np.ndarray, step: float) -> np.ndarray:
    """``sum_{i >= 0} exp(1j omega tau_i) / tau_i^2`` on the lattices ``tau_i = first + step i``.

    One row per frequency ``omega``, one column per entry of ``first``, in
    one array pass: the phases ``exp(1j omega first) exp(1j omega step i)``,
    ``_LATTICE_TERMS`` explicit terms as one matrix product, then
    :func:`_lerch_remainder` with the phase per step ``omega * step``
    reduced to ``[-pi, pi)``.  A row at ``omega = 0`` is the Hurwitz zeta
    ``zeta(2, first/step)/step^2``.
    """
    tau = first[:, None] + step * np.arange(_LATTICE_TERMS)
    start = np.exp(1j * np.multiply.outer(omega, first))
    turn = np.exp(1j * np.multiply.outer(omega * step, np.arange(_LATTICE_TERMS + 1)))
    theta = np.remainder(omega * step + np.pi, 2.0 * np.pi) - np.pi
    end = (first + step * _LATTICE_TERMS) / step
    return start * (
        turn[:, :-1] @ tau.T**-2.0 + turn[:, -1:] * _lerch_remainder(theta, end) / step**2
    )


def lattice_tail_sums(s: float, first: np.ndarray, step: float):
    """Model sums of ``sin^2``, ``(cos - 1)^2`` and ``sin (cos - 1)`` at ``s tau`` over ``tau^2``.

    One lattice ``tau_i = first + step i``, ``i >= 0``, per entry of the
    1-d array ``first``; each sum is an array of that shape.  With
    ``sin^2 = (1 - cos 2st)/2``, ``(cos st - 1)^2 = 3/2 + cos(2st)/2 - 2 cos
    st`` and ``sin st (cos st - 1) = sin(2st)/2 - sin st`` every sum combines
    ``sum exp(1j omega tau_i)/tau_i^2`` at ``omega = 0``, ``s`` and ``2s``:
    one :func:`_lattice_rows` pass, whose resonant ``0`` row is the Hurwitz
    zeta.
    """
    zero, one, two = _lattice_rows(np.array([0.0, s, 2.0 * s]), first, step)
    return (
        0.5 * (zero.real - two.real),
        1.5 * zero.real + 0.5 * two.real - 2.0 * one.real,
        0.5 * two.imag - one.imag,
    )


def recentering_moment(mu: SpectralMeasure) -> float:
    """Measure moment ``(1/pi) * sum_{t != 0} mass / (t (1 + t^2))``.

    Summation runs over atoms ordered by ``|t|`` so that near-symmetric
    pairs cancel early.
    """
    t = mu.positions
    m = mu.masses
    nz = t != 0.0
    terms = m[nz] / (t[nz] * (1.0 + t[nz] ** 2))
    order = np.argsort(np.abs(t[nz]), kind="stable")
    return float(math.fsum(terms[order])) / np.pi


def boundary_cosine_values(
    positions: np.ndarray,
    masses: np.ndarray,
    c: float,
    moment: float,
    slope_values: np.ndarray,
) -> np.ndarray:
    """Cosine-type component at the full bandwidth on the given atoms.

    Away from the origin the value is
    ``(1/t) * (pi / (t * mass * slope) - 1)``; at the origin it is
    ``pi * (moment + c) / mass0 - slope0 * mass0 / pi`` with the origin
    entries of ``masses`` and ``slope_values``.  The pi factors
    keep the origin branch consistent with masses normalized as
    reciprocal squared kernel norms (Laurent expansion of the Weyl
    function at its origin pole).  A vanishing slope at a nonzero atom
    signals a discretization failure (the slope equals a nonzero
    derivative of the structure function there).
    """
    vals = np.empty_like(positions)
    zero = positions == 0.0
    bad = (~zero) & (slope_values == 0.0)
    if np.any(bad):
        raise NumericalError(
            f"sine-component slope vanished at t={positions[bad][:3]!r}; "
            "the sectioned operator is under-resolved"
        )
    t = positions[~zero]
    vals[~zero] = (np.pi / (t * masses[~zero] * slope_values[~zero]) - 1.0) / t
    m0 = masses[zero]
    vals[zero] = np.pi * (moment + c) / m0 - slope_values[zero] * m0 / np.pi
    return vals


def _free_model(s: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Free-model components ``sin(st)/t`` and ``(cos(st) - 1)/t``, ``s`` and ``0`` at ``t = 0``.

    On a lattice ``pi k / s`` the cosine component is ``((-1)^k - 1) / t``
    exactly: ``cos`` rounds to ``+-1`` there.
    """
    t_safe = np.where(t == 0.0, 1.0, t)
    sine = np.where(t == 0.0, s, np.sin(s * t) / t_safe)
    cosine = np.where(t == 0.0, 0.0, (np.cos(s * t) - 1.0) / t_safe)
    return sine, cosine


def _top_eigenprojection(h11, h12, half_gap):
    """``2 v v^T`` for the top eigenvector ``v`` of trace-2 cells.

    A cell ``[[h11, h12], [h12, 2 - h11]]`` has eigenvalues ``1 +- g`` with
    ``g = half_gap``, and ``(cell - I) / g`` is the reflection
    ``v v^T - w w^T``, so the projection is ``I + (cell - I) / g``.
    """
    u = (h11 - 1.0) / half_gap
    return 1.0 + u, h12 / half_gap, 1.0 - u


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, zeroed or capped to preserve shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    away = np.sign(d) != np.sign(m0)
    steep = ~away & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(away, 0.0, np.where(steep, 3.0 * m0, d))


def _pchip(x: np.ndarray, y: np.ndarray, xnew: np.ndarray) -> np.ndarray:
    """Monotone cubic Hermite interpolant of the columns of ``y``, at ``xnew`` in ``[x_0, x_n]``.

    The slopes of Fritsch and Carlson (SIAM J. Numer. Anal. 17, 1980): a
    weighted harmonic mean of the adjacent secants inside, zero where they
    change sign or one is flat.  Every operation, evaluation order included,
    is that of SciPy's ``PchipInterpolator``, so the values agree to the bit.
    Needs at least three strictly increasing knots.
    """
    h = np.diff(x)[:, None]
    m = np.diff(y, axis=0) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1 = t / h, (m - d[:-1]) / h - t
    i = np.minimum(np.searchsorted(x, xnew, side="right") - 1, len(x) - 2)
    u = (xnew - x[i])[:, None]
    u2 = u * u
    # PPoly's sum starts from +0.0, which turns a knot value of -0.0 into +0.0
    return (((0.0 + y[i]) + d[i] * u) + c1[i] * u2) + c0[i] * (u2 * u)


class RecoveryPipeline:
    """Recovery of one measure, one bandwidth slice at a time.

    ``RecoveryPipeline(mu, c, cfg).run()`` recovers the trace-2 weight whose
    spectral measure is ``mu``.  ``c`` is the additive Herglotz constant of
    the Weyl function, which the atoms alone do not determine: ``canspec
    inverse`` and round trips pass the measure's own ``mu.herglotz_c``.
    ``__init__`` builds the full-bandwidth boundary data (slope data,
    boundary cosine values, the cosine weights on the in-core completion
    lattice), releasing the full-bandwidth section before the slopes; each
    slice builds and solves its own section from it.  ``run`` takes two
    steps, the slice table and the assembly from it, with one section
    alive at a time.  Nothing else is kept, so a pipeline does not change
    after ``__init__``.
    """

    def __init__(self, mu: SpectralMeasure, c: float, cfg: GridConfig):
        self.mu = mu
        self.c = float(c)
        if not np.isfinite(self.c):
            raise ValidationError(f"additive Herglotz constant c={self.c!r} must be finite")
        self.cfg = cfg
        self.a = cfg.bandwidth
        self.lattice = mu.type
        self.r_eff = float(np.max(np.abs(mu.positions)))

        half_a = cfg.basis_half_size(self.a)
        self.a_edge = np.pi * half_a / self.a
        a_op = build_operator(mu, self.a, half_a)
        rhs = np.zeros(a_op.basis.size)
        rhs[a_op.basis.center] = np.sqrt(np.pi * self.a)
        a_coeffs = apply_inverse(a_op, rhs)
        # the slopes need only the basis: the section is released before them
        a_basis = a_op.basis
        del a_op

        # the trusted core: the full-bandwidth basis reach plus half a lattice
        # spacing; it always holds the origin atom, so its slope is an entry here
        core = self.a_edge + 0.5 * np.pi / self.lattice
        self.core_mask = np.abs(mu.positions) <= core

        pts, masses = mu.positions[self.core_mask], mu.masses[self.core_mask]
        self.moment = recentering_moment(mu)
        # a finite c or bandwidth far beyond the measure's scale overflows
        # here; the masses are positive, so a finite measure norm of the
        # cosine data also means finite values
        with np.errstate(over="ignore", invalid="ignore"):
            self.slope_values = a_basis.derivatives_at(pts).T @ a_coeffs
            self.boundary_cosine = boundary_cosine_values(
                pts, masses, self.c, self.moment, self.slope_values
            )
            norm = np.sum(masses * self.boundary_cosine**2)
        if not np.isfinite(norm):
            raise NumericalError(
                f"boundary cosine data overflowed at c={self.c!r}, bandwidth {self.a!r}"
            )
        # the boundary cosine data as pairing weights on all atoms, zero off the core
        self.core_weights = np.zeros(mu.positions.size)
        self.core_weights[self.core_mask] = masses * self.boundary_cosine

        # The model measure is the atoms plus the free lattice beyond their
        # reach (the Gram completion).  Its cosine pairing is completed the
        # same way: [core atoms] + [full-lattice closed form, the model at the
        # basis nodes] - [completion lattice in the core], each lattice point
        # with its mass times the model cosine data, paired with the lattice
        # block of the sinc matrix each section forms for the Gram.
        points = mu.completion_lattice[0]
        model_cosine = (np.pi / self.lattice) * _free_model(self.lattice, points)[1]
        self.core_lattice_cosine = np.where(np.abs(points) <= core, model_cosine, 0.0)

    # -- tails ----------------------------------------------------------

    def _model_tails(self, s: float) -> np.ndarray:
        """Lattice-model tail of the 2x2 measure Gram beyond the window.

        The model continues the atoms to infinity over
        :attr:`~canspec.model.SpectralMeasure.tail_lattices` (alternating
        masses correlate with the alternating component values).  One
        :func:`lattice_tail_sums` pass sums the four lattices as an array;
        the diagonal holds their mass-weighted squared sine and cosine sums,
        the off-diagonal the side- and mass-weighted cross sum.
        """
        side, first, mass = self.mu.tail_lattices.T
        sine2, cosine2, cross = lattice_tail_sums(s, first, 2.0 * np.pi / self.lattice)
        off = (side * mass) @ cross
        return np.array([[mass @ sine2, off], [off, mass @ cosine2]])

    # -- slices ----------------------------------------------------------

    def slice_at(self, s: float) -> tuple[tuple, np.ndarray]:
        """Slice table row ``s, zeta, N11, N12, N22, residual`` and the (sine, cosine) values.

        ``N = norms / pi`` save ``N11 = sine(0)``; the residual is that of the
        reproducing identity ``(1/pi) ||sine||^2 = sine(0)``.
        """
        s = float(s)
        if not 0.0 < s <= self.a * (1 + 1e-12):
            raise ValidationError(f"bandwidth s={s!r} outside (0, {self.a!r}]")
        op = build_operator(self.mu, s, self.cfg.basis_half_size(s), self.core_lattice_cosine)
        phi = op.atom_matrix

        # Two columns, one solve; ``model`` holds their free-model coefficients.
        # Sine: the kernel at the origin.  Cosine: the boundary cosine data
        # paired with the inverted kernels, tail-completed as core atoms plus
        # the full-lattice model coefficients (the model at the basis nodes)
        # minus the pairing of the completion lattice in the core.
        model = np.zeros((op.basis.size, 2))
        model[op.basis.center, 0] = np.sqrt(np.pi * s)
        model[:, 1] = np.sqrt(np.pi / s) * _free_model(s, op.basis.nodes)[1]
        rhs = model.copy()
        rhs[:, 1] += phi @ self.core_weights
        rhs[:, 1] -= op.lattice_pairing
        coeffs = apply_inverse(op, rhs)
        sine_at_zero = float(np.sqrt(s / np.pi) * coeffs[op.basis.center, 0])

        # Values on the support are the free-model closed forms plus the
        # sectioned evaluation of the coefficient deviation from the model.
        # The model's full sampling series sums exactly (no basis-tail
        # truncation); the deviation decays fast and lives in the section.
        t = self.mu.positions
        masses = self.mu.masses[:, None]
        free = np.column_stack(_free_model(s, t))
        values = free + phi.T @ (coeffs - model)
        norms = values.T @ (masses * values) + self._model_tails(s)

        # data-driven amplitude correction of the model tails: the measured
        # difference between computed values and the free-model pattern in
        # the outer (still basis-covered) band extrapolates into the tail
        # under the shared quadratic decay.  Exact zero on the free fixture.
        edge = np.pi * op.basis.half_size / s
        band = (np.abs(t) > 0.5 * self.r_eff) & (np.abs(t) <= edge)
        if np.any(band):
            weight = (1.0 / self.r_eff) / (2.0 / self.r_eff - 1.0 / edge)
            vb, fb, mb = values[band], free[band], masses[band]
            norms += weight * (vb.T @ (mb * vb) - fb.T @ (mb * fb))

        zeta = 0.5 * sine_at_zero + norms[1, 1] / (2.0 * np.pi)
        n12, n22 = norms[0, 1] / np.pi, norms[1, 1] / np.pi
        residual = abs(norms[0, 0] / np.pi - sine_at_zero)
        return (s, zeta, sine_at_zero, n12, n22, residual), values

    # -- full recovery ----------------------------------------------------

    def run(self) -> ReconstructionResult:
        """The slice table, each row filled as its slice is computed, then the weight from it."""
        cfg = self.cfg
        table = np.zeros((cfg.s_samples, 6))
        for row, s in zip(table[1:], cfg.s_grid):
            row[:] = self.slice_at(s)[0]
        s_grid, zetas, h11_int, _, n22, residuals = table.T

        if np.any(np.diff(zetas) <= 0):
            raise NumericalError(
                "recovered position table is not strictly increasing; "
                "refine the grids or enlarge the measure window"
            )
        ell = float(zetas[-1])
        r_grid = np.linspace(0.0, ell, cfg.r_samples)
        dr = r_grid[1] - r_grid[0]
        integrated = _pchip(zetas, table[:, 2:4], r_grid)
        h11, h12 = np.diff(integrated, axis=0).T / dr
        h22 = 2.0 - h11

        # eigenvalue clamping onto the PSD cone, trace pinned at 2; the
        # threshold keeps unprojected cells within the segment-PSD slack
        half_gap = np.sqrt(((h11 - h22) / 2.0) ** 2 + h12**2)
        lam_min = 1.0 - half_gap
        needs = lam_min < -0.25 * PSD_SLACK
        projection = np.where(needs, -lam_min, 0.0)
        h11[needs], h12[needs], h22[needs] = _top_eigenprojection(
            h11[needs], h12[needs], half_gap[needs]
        )
        bad_fraction = float(np.mean(projection > 1e-2))

        ham = Hamiltonian(r_grid, np.stack([h11, h12, h12, h22], axis=-1).reshape(-1, 2, 2))

        # type of the recovered weight at the chain points (exact: the cells are constant)
        krein = np.concatenate([[0.0], np.cumsum(np.sqrt(ham.determinants()) * dr)])
        krein_err = float(np.max(np.abs(np.interp(zetas, r_grid, krein) - s_grid))) / self.a

        diagnostics = {
            "sine_norm_residual_max": np.max(residuals),
            # 2 zeta = N11 + N22 is how zeta is assembled: roundoff by
            # construction, a check of that arithmetic, not of the chain map
            "definitional_residual_max": np.max(np.abs(2.0 * zetas - h11_int - n22)),
            "psd_projection_max": float(np.max(projection)) if len(projection) else 0.0,
            "psd_projection_bad_fraction": bad_fraction,
            "krein_relative_error": krein_err,
            "recentering_moment": self.moment,
            "bandwidth": self.a,
            "lattice_type": self.lattice,
            "ell": ell,
        }
        if bad_fraction > 0.01:
            plain = {k: v if isinstance(v, int) else float(v) for k, v in diagnostics.items()}
            raise InvariantViolation(
                f"PSD projection exceeded 1e-2 on {bad_fraction:.1%} of cells; "
                f"reconstruction rejected (diagnostics: {plain})"
            )

        return ReconstructionResult(ham, table, diagnostics)

