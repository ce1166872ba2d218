"""Recovery of the system weight from an admissible spectral measure.

The pipeline inverts the sectioned quadratic form at a family of
bandwidths ``s``.  At each ``s`` one two-column solve recovers a
sine-type and a cosine-type component on the support of the measure;
their 2x2 measure Gram over pi is the integrated weight up to the
position of type ``s``, the chain point.  One interpolant of the
integrated weight over the chain points, differenced on a uniform
position grid, gives the weight as its derivative in position.

Windowed measures lose slowly decaying tails in every measure sum.  All
sums here are completed with the free lattice model at the fitted type
``SpectralMeasure.type`` (atom parity fixes the sign pattern of the cosine
data), which is exact on the free fixture and a recorded heuristic
otherwise.  The model tails are summed to infinity in closed form: a
Hurwitz zeta for the non-oscillating part, and a short explicit head plus
an Euler-Maclaurin remainder for the parts oscillating at ``s`` and ``2s``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.special
from scipy.interpolate import PchipInterpolator

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
    "BandwidthSlice",
    "RecoveryPipeline",
    "recentering_moment",
    "boundary_cosine_values",
    "lattice_tail_sums",
]


#: Explicit terms of an oscillating lattice sum before its analytic
#: remainder.  They move the remainder's start ``q`` past 64, where
#: ``_EM_ORDER`` Bernoulli corrections reach roundoff for every phase.
_LATTICE_TERMS = 64
_EM_ORDER = 25


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
    weights[1 : 2 * _EM_ORDER : 2] = scipy.special.bernoulli(2 * _EM_ORDER)[2::2] / np.arange(
        2, 2 * _EM_ORDER + 1, 2
    )
    rows = 1j**i / scipy.special.factorial(i)
    columns = (-1.0) ** i * (i + 1)
    return weights[i[:, None] + i[None, :]] * rows[:, None] * columns[None, :]


_EM_MATRIX = _em_correction_matrix()
_EM_POWERS = np.arange(2 * _EM_ORDER)


def _lerch_remainder(theta: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``sum_{i >= 0} exp(1j theta i) / (q + i)^2`` for ``|theta| <= pi`` and large ``q``.

    One row per phase ``theta``, one column per start ``q``.  Euler-Maclaurin
    on ``F(x) = exp(1j theta x) / (q + x)^2``: the integral (sine and cosine
    integrals), ``F(0)/2`` and the Bernoulli corrections ``B_2k/(2k)
    f_(2k-1)``, where ``f`` are the Taylor coefficients of ``F`` at 0 (one
    fixed matrix product, :func:`_em_correction_matrix`).  The corrections
    shrink like ``(theta/2pi)^2k`` plus powers of ``1/q`` uniformly in
    ``theta``; at resonance (``theta = 0``) this is the asymptotic series of
    the Hurwitz zeta ``zeta(2, q)``, so nothing grows as ``theta``
    approaches it.
    """
    a = np.abs(theta)[:, None]
    x = a * q
    resonant = x == 0.0
    si, ci = scipy.special.sici(np.where(resonant, 1.0, x))
    oscillating = 1j * a * np.exp(-1j * x) * (-ci + 1j * (0.5 * np.pi - si))
    oscillating[resonant] = 0.0  # a * log(a q) -> 0: the integral is 1/q alone
    corrections = (a**_EM_POWERS @ _EM_MATRIX) @ ((1.0 / q[:, None]) ** (_EM_POWERS + 2)).T
    value = oscillating + (1.0 / q + 0.5 / q**2) - corrections
    return np.where(theta[:, None] < 0, np.conj(value), value)


def lattice_tail_sums(s: float, first: np.ndarray, step: float):
    """Model sums of ``sin^2``, ``(cos - 1)^2`` and ``sin (cos - 1)`` at ``s tau`` over ``tau^2``.

    One lattice ``tau_i = first + step i``, ``i >= 0``, per entry of the
    1-d array ``first``; each sum is an array of that shape.  With
    ``sin^2 = (1 - cos 2st)/2``, ``(cos st - 1)^2 = 3/2 + cos(2st)/2 - 2 cos
    st`` and ``sin st (cos st - 1) = sin(2st)/2 - sin st`` every sum is a
    Hurwitz zeta or an oscillating sum ``sum exp(1j omega tau_i)/tau_i^2``
    at ``omega = s`` or ``2s``.  Both frequencies and all lattices are one
    array pass: the phases ``exp(1j omega first) exp(1j omega step i)``,
    ``_LATTICE_TERMS`` explicit terms as one matrix product, then
    :func:`_lerch_remainder` with the phase per step ``omega * step``
    reduced to ``[-pi, pi)``.
    """
    omega = np.array([s, 2.0 * s])
    start = np.exp(1j * np.multiply.outer(omega, first))
    turn = np.exp(1j * np.multiply.outer(omega * step, np.arange(_LATTICE_TERMS + 1)))
    tau = first[:, None] + step * np.arange(_LATTICE_TERMS)
    theta = np.remainder(omega * step + np.pi, 2.0 * np.pi) - np.pi
    end = (first + step * _LATTICE_TERMS) / step
    one, two = start * (
        turn[:, :-1] @ tau.T**-2.0
        + turn[:, -1:] * _lerch_remainder(theta, end) / step**2
    )
    plain = scipy.special.zeta(2.0, first / step) / step**2
    return (
        0.5 * (plain - two.real),
        1.5 * plain + 0.5 * two.real - 2.0 * one.real,
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


@dataclass
class BandwidthSlice:
    """Everything the pipeline computes at one bandwidth ``s``.

    Component values are indexed like the measure atoms.  ``norms`` is their
    tail-completed 2x2 measure Gram; ``norms / pi`` is ``int_0^zeta H``.
    """

    s: float
    sine_at_zero: float
    sine_values: np.ndarray
    cosine_values: np.ndarray
    norms: np.ndarray

    @property
    def zeta(self) -> float:
        return 0.5 * self.sine_at_zero + self.norms[1, 1] / (2.0 * np.pi)

    @property
    def sine_norm_residual(self) -> float:
        """Residual of ``(1/pi) ||sine||^2 = sine(0)`` (reproducing identity)."""
        return abs(self.norms[0, 0] / np.pi - self.sine_at_zero)

    @property
    def definitional_residual(self) -> float:
        """Residual of ``2 zeta = sine(0) + (1/pi) ||cosine||^2``.

        ``zeta`` is assembled from the same two numbers, so this checks that
        arithmetic and is roundoff by construction; it does not certify the
        chain map ``s -> zeta(s)``.
        """
        return abs(2.0 * self.zeta - self.sine_at_zero - self.norms[1, 1] / np.pi)


def _top_eigenprojection(h11, h12, half_gap):
    """``2 v v^T`` for the top eigenvector ``v`` of trace-2 cells.

    A cell ``[[h11, h12], [h12, 2 - h11]]`` has eigenvalues ``1 +- g`` with
    ``g = half_gap``, and ``(cell - I) / g`` is the reflection
    ``v v^T - w w^T``, so the projection is ``I + (cell - I) / g``.
    """
    u = (h11 - 1.0) / half_gap
    return 1.0 + u, h12 / half_gap, 1.0 - u


class RecoveryPipeline:
    """Recovery of one measure, one bandwidth slice at a time.

    ``RecoveryPipeline(mu, c, cfg).run()`` recovers the trace-2 weight whose
    spectral measure is ``mu``.  ``c`` is the additive Herglotz constant of
    the Weyl function; round trips obtain it from the forward solver, raw
    measures must supply it (the measure alone does not determine it).
    ``__init__`` builds the full-bandwidth boundary data (slope data,
    boundary cosine values, the cosine weights on the in-core completion
    lattice); each slice builds and solves its own section from it.
    Nothing else is kept, so a pipeline does not change after ``__init__``.
    """

    def __init__(self, mu: SpectralMeasure, c: float, cfg: GridConfig):
        self.mu = mu
        self.c = float(c)
        if not np.isfinite(self.c):
            raise ValidationError(f"additive Herglotz constant c={self.c!r} must be finite")
        self.cfg = cfg
        self.a = cfg.bandwidth
        if abs(mu.herglotz_b) > 1e-4:
            warnings.warn(
                f"measure carries an estimated linear Herglotz constant b="
                f"{mu.herglotz_b:.3e}; it is ignored by the recovery and may "
                "indicate the measure is outside the admissible class",
                RuntimeWarning,
                stacklevel=2,
            )
        self.lattice = mu.type
        self.r_eff = float(np.max(np.abs(mu.positions)))
        # rows side, first, mass of the model lattices beyond the window
        self.tail_lattices = np.array(mu.tail_lattices(np.pi / self.lattice)).T

        half_a = cfg.basis_half_size(self.a)
        self.a_edge = np.pi * half_a / self.a
        a_op = build_operator(mu, self.a, half_a)
        rhs = np.zeros(a_op.basis.size)
        rhs[a_op.basis.center] = np.sqrt(np.pi * self.a)
        a_coeffs = apply_inverse(a_op, rhs)

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
            self.slope_values = a_op.basis.derivatives_at(pts).T @ a_coeffs
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
        :meth:`~canspec.model.SpectralMeasure.tail_lattices` (alternating
        masses correlate with the alternating component values).  One
        :func:`lattice_tail_sums` call sums the four lattices as an array;
        the diagonal holds their mass-weighted squared sine and cosine
        sums, the off-diagonal the side- and mass-weighted cross sum.
        """
        side, first, mass = self.tail_lattices
        sine2, cosine2, cross = lattice_tail_sums(s, first, 2.0 * np.pi / self.lattice)
        off = (side * mass) @ cross
        return np.array([[mass @ sine2, off], [off, mass @ cosine2]])

    # -- slices ----------------------------------------------------------

    def slice_at(self, s: float) -> BandwidthSlice:
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

        return BandwidthSlice(s, sine_at_zero, values[:, 0], values[:, 1], norms)

    # -- full recovery ----------------------------------------------------

    def run(self) -> ReconstructionResult:
        cfg = self.cfg
        s_grid = np.concatenate([[0.0], cfg.s_grid])
        slices = [self.slice_at(s) for s in cfg.s_grid]
        zetas = np.concatenate([[0.0], [sl.zeta for sl in slices]])
        h11_int = np.concatenate([[0.0], [sl.sine_at_zero for sl in slices]])
        offdiag_int = np.concatenate([[0.0], [sl.norms[0, 1] / np.pi for sl in slices]])

        if np.any(np.diff(zetas) <= 0):
            raise NumericalError(
                "recovered position table is not strictly increasing; "
                "refine the grids or enlarge the measure window"
            )
        ell = float(zetas[-1])
        r_grid = np.linspace(0.0, ell, cfg.r_samples)
        dr = r_grid[1] - r_grid[0]
        integrated = PchipInterpolator(zetas, np.column_stack([h11_int, offdiag_int]))(r_grid)
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
            "sine_norm_residual_max": max(sl.sine_norm_residual for sl in slices),
            "definitional_residual_max": max(sl.definitional_residual for sl in slices),
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

        return ReconstructionResult(ham, np.column_stack([s_grid, zetas]), diagnostics)

