"""Recovery of the system weight from an admissible spectral measure.

The pipeline inverts the sectioned quadratic form at a family of
bandwidths ``s``.  At each ``s`` it recovers two families of values on
the support of the measure: a sine-type component whose value at the
origin equals the integrated top-left weight entry, and a cosine-type
component whose measure norm supplies the rest of the trace.  The
strictly increasing map ``s -> position`` is inverted on a uniform
position grid, and the weight entries appear as derivatives of three
absolutely continuous functions of position.

Windowed measures lose slowly decaying tails in every measure sum.  All
sums here are completed with the free lattice model at the estimated
type (atom parity fixes the sign pattern of the cosine data), which is
exact on the free fixture and a recorded heuristic otherwise.  The model
tails are summed to infinity in closed form: a Hurwitz zeta for the
non-oscillating part, and a short explicit head plus an Euler-Maclaurin
remainder for the parts oscillating at ``s`` and ``2s``.
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
    band_mass_pair,
)
from .pwspace import apply_inverse, build_operator, lattice_points

__all__ = [
    "BandwidthSlice",
    "RecoveryPipeline",
    "recentering_moment",
    "boundary_cosine_values",
    "lattice_tail_sums",
    "zeta",
    "converged_truncation",
    "reconstruct",
]


#: Explicit terms of an oscillating lattice sum before its analytic
#: remainder.  They move the remainder's start ``q`` past 64, where
#: ``_EM_ORDER`` Bernoulli corrections reach roundoff for every phase.
_LATTICE_TERMS = 64
_EM_ORDER = 25
_EM_WEIGHTS = scipy.special.bernoulli(2 * _EM_ORDER)[2::2] / np.arange(2, 2 * _EM_ORDER + 1, 2)


def _lerch_remainder(theta: float, q: float) -> complex:
    """``sum_{i >= 0} exp(1j theta i) / (q + i)^2`` for ``|theta| <= pi`` and large ``q``.

    Euler-Maclaurin on ``F(x) = exp(1j theta x) / (q + x)^2``: the integral
    (sine and cosine integrals), ``F(0)/2`` and the Bernoulli corrections
    ``B_2k/(2k) f_(2k-1)``, where ``f`` are the Taylor coefficients of ``F``
    at 0.  The corrections shrink like ``(theta/2pi)^2k`` plus powers of
    ``1/q`` uniformly in ``theta``; at resonance (``theta = 0``) this is the
    asymptotic series of the Hurwitz zeta ``zeta(2, q)``, so nothing grows
    as ``theta`` approaches it.
    """
    a = abs(theta)
    x = a * q
    integral = 1.0 / q
    if x > 0:
        si, ci = scipy.special.sici(x)
        integral += 1j * a * np.exp(-1j * x) * (-ci + 1j * (0.5 * np.pi - si))
    n = np.arange(2 * _EM_ORDER)
    taylor = np.convolve(
        (1j * a) ** n / scipy.special.factorial(n), (-1.0) ** n * (n + 1) / q ** (n + 2)
    )
    value = integral + 0.5 / q**2 - taylor[1 : n.size : 2] @ _EM_WEIGHTS
    return complex(np.conj(value) if theta < 0 else value)


def _oscillating_sum(omega: float, first: float, step: float) -> complex:
    """``sum_{i >= 0} exp(1j omega tau_i) / tau_i^2`` over ``tau_i = first + step i``.

    ``_LATTICE_TERMS`` explicit terms, then :func:`_lerch_remainder` with
    the phase per step ``omega * step`` reduced to ``[-pi, pi)``.
    """
    tau = first + step * np.arange(_LATTICE_TERMS)
    head = np.sum(np.exp(1j * omega * tau) / tau**2)
    tau_end = first + step * _LATTICE_TERMS
    theta = np.remainder(omega * step + np.pi, 2.0 * np.pi) - np.pi
    tail = np.exp(1j * omega * tau_end) * _lerch_remainder(theta, tau_end / step) / step**2
    return complex(head + tail)


def lattice_tail_sums(s: float, first: float, step: float) -> tuple[float, float, float]:
    """Model sums of ``sin^2``, ``(cos - 1)^2`` and ``sin (cos - 1)`` at ``s tau`` over ``tau^2``.

    The lattice is ``tau_i = first + step i``, ``i >= 0``.  With ``sin^2 =
    (1 - cos 2st)/2``, ``(cos st - 1)^2 = 3/2 + cos(2st)/2 - 2 cos st`` and
    ``sin st (cos st - 1) = sin(2st)/2 - sin st`` every sum is a Hurwitz
    zeta or an oscillating sum at frequency ``s`` or ``2s`` (see
    :func:`_oscillating_sum`).
    """
    plain = scipy.special.zeta(2.0, first / step) / step**2
    one = _oscillating_sum(s, first, step)
    two = _oscillating_sum(2.0 * s, first, step)
    return (
        0.5 * (plain - two.real),
        1.5 * plain + 0.5 * two.real - 2.0 * one.real,
        0.5 * two.imag - one.imag,
    )


def recentering_moment(mu: SpectralMeasure, return_tail_bound: bool = False):
    """Measure moment ``(1/pi) * sum_{t != 0} mass / (t (1 + t^2))``.

    Summation runs over atoms ordered by ``|t|`` so that near-symmetric
    pairs cancel early.  The reported tail bound uses the cubic decay of
    the summand beyond the window.
    """
    t = mu.positions
    m = mu.masses
    nz = t != 0.0
    terms = m[nz] / (t[nz] * (1.0 + t[nz] ** 2))
    order = np.argsort(np.abs(t[nz]), kind="stable")
    value = float(math.fsum(terms[order])) / np.pi
    if return_tail_bound:
        r_eff = float(np.max(np.abs(t)))
        bound = 1.0 / (np.pi * r_eff**2) if r_eff > 0 else np.inf
        return value, bound
    return value


def boundary_cosine_values(
    positions: np.ndarray,
    masses: np.ndarray,
    mass_at_zero: float,
    c: float,
    moment: float,
    slope_values: np.ndarray,
    slope_at_zero: float,
) -> np.ndarray:
    """Cosine-type component at the full bandwidth on the given atoms.

    Away from the origin the value is
    ``(1/t) * (pi / (t * mass * slope) - 1)``; at the origin it is
    ``pi * (moment + c) / mass0 - slope0 * mass0 / pi``.  The pi factors
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
    vals[zero] = (
        np.pi * (moment + c) / mass_at_zero - slope_at_zero * mass_at_zero / np.pi
    )
    return vals


@dataclass
class BandwidthSlice:
    """Everything the pipeline computes at one bandwidth ``s``.

    Component values are indexed like the measure atoms; the measure
    sums combine them with the lattice-model tails beyond the window.
    """

    s: float
    sine_at_zero: float
    sine_values: np.ndarray
    cosine_values: np.ndarray
    norm2_sine: float
    norm2_cosine: float
    cross: float

    @property
    def zeta(self) -> float:
        return 0.5 * self.sine_at_zero + self.norm2_cosine / (2.0 * np.pi)

    @property
    def sine_norm_residual(self) -> float:
        """Residual of ``(1/pi) ||sine||^2 = sine(0)`` (reproducing identity)."""
        return abs(self.norm2_sine / np.pi - self.sine_at_zero)

    @property
    def definitional_residual(self) -> float:
        """Residual of ``2 zeta = sine(0) + (1/pi) ||cosine||^2``."""
        return abs(2.0 * self.zeta - self.sine_at_zero - self.norm2_cosine / np.pi)


class RecoveryPipeline:
    """Shared state for recovering one measure at many bandwidths.

    Builds the full-bandwidth machinery once (slope data, boundary
    cosine values, pairing extensions) and serves per-bandwidth slices.
    """

    def __init__(
        self,
        mu: SpectralMeasure,
        c: float = 0.0,
        cfg: GridConfig | None = None,
        bandwidth: float | None = None,
    ):
        if cfg is None:
            a = bandwidth if bandwidth is not None else mu.lattice_type()
            cfg = GridConfig.for_bandwidth(a, measure_window=mu.window)
        self.mu = mu
        self.c = float(c)
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
        self.lattice = mu.lattice_type()
        self.r_eff = float(np.max(np.abs(mu.positions)))

        half_a = cfg.basis_half_size(self.a)
        self.a_op = build_operator(mu, self.a, half_a)
        rhs = np.zeros(self.a_op.basis.size)
        rhs[self.a_op.basis.center] = np.sqrt(np.pi * self.a)
        self.a_coeffs = apply_inverse(self.a_op, rhs)

        self.a_edge = np.pi * half_a / self.a
        spacing = np.pi / self.lattice
        self.core_mask = np.abs(mu.positions) <= self.a_edge + 0.5 * spacing

        pts = mu.positions[self.core_mask]
        self.slope_values = self.a_op.basis.derivatives_at(pts).T @ self.a_coeffs
        self.slope_at_zero = float(
            (self.a_op.basis.derivatives_at(np.array([0.0])).T @ self.a_coeffs)[0]
        )
        self.moment = recentering_moment(mu)
        self.boundary_cosine = boundary_cosine_values(
            pts,
            mu.masses[self.core_mask],
            mu.mass_at_zero,
            self.c,
            self.moment,
            self.slope_values,
            self.slope_at_zero,
        )

        # model lattice covering the same range as the trusted core.  The
        # full-lattice pairing of the model cosine data has closed-form
        # coefficients (atom parity fixes the sign pattern: consecutive
        # zeros alternate the sign of the cosine-type solution component),
        # so pairings are completed as [core atoms] + [closed form] -
        # [in-core lattice], mirroring the Gram completion.
        m, t_lat = lattice_points(self.a_edge, self.lattice)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(m % 2 == 0, 0.0, -2.0) / t_lat
        vals[m == 0] = 0.0
        self.core_lattice_points = t_lat
        self.core_lattice_values = vals
        self.lattice_weight = np.pi / self.lattice
        self._slices: dict[float, BandwidthSlice] = {}

    # -- tails ----------------------------------------------------------

    def _model_tails(self, s: float) -> tuple[float, float, float]:
        """Lattice-model tails of the measure sums beyond the window.

        The model lattice continues from the outermost atoms on each side
        (inheriting the asymptotic phase of the zero sequence) to infinity.
        Each mass parity is a lattice ``tau_i = B + 2h i`` summed by
        :func:`lattice_tail_sums`.  Returns tails for the squared sine sum,
        the squared cosine sum and their cross sum.
        """
        spacing = np.pi / self.lattice
        step = 2.0 * spacing
        sine = cosine = cross = 0.0
        for side in (1.0, -1.0):
            order = np.argsort(side * self.mu.positions)
            anchor = float((side * self.mu.positions)[order][-1])
            # alternating masses correlate with the alternating component
            # values; continue the parity pattern of the real sequence
            m_next, m_after = band_mass_pair(self.mu.masses[order])
            for mass, first in ((m_next, anchor + spacing), (m_after, anchor + step)):
                sine2, cosine2, cross_sum = lattice_tail_sums(s, first, step)
                sine += mass * sine2
                cosine += mass * cosine2
                cross += side * mass * cross_sum
        return sine, cosine, cross

    def _model_coefficients(self, basis) -> np.ndarray:
        """Closed-form full-lattice pairing of the model cosine data.

        Over the free lattice the pairing reproduces the sampled values of
        the band-limited projection at the basis nodes, which are
        ``((-1)^k - 1) / node`` independently of the bandwidth.
        """
        k = np.arange(-basis.half_size, basis.half_size + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(k % 2 == 0, 0.0, -2.0) / basis.nodes
        c[k == 0] = 0.0
        return np.sqrt(np.pi / basis.s) * c

    # -- slices ----------------------------------------------------------

    def slice_at(self, s: float) -> BandwidthSlice:
        s = float(s)
        if s in self._slices:
            return self._slices[s]
        if not 0.0 < s <= self.a * (1 + 1e-12):
            raise ValidationError(f"bandwidth s={s!r} outside (0, {self.a!r}]")
        half = self.cfg.basis_half_size(s)
        if abs(s - self.a) <= 1e-15 * self.a:
            op = self.a_op
        else:
            op = build_operator(self.mu, s, half)
        rhs = np.zeros(op.basis.size)
        rhs[op.basis.center] = np.sqrt(np.pi * s)
        coeffs = self.a_coeffs if op is self.a_op else apply_inverse(op, rhs)
        sine_at_zero = float(np.sqrt(s / np.pi) * coeffs[op.basis.center])

        # pairing of the boundary cosine data against the inverted kernels,
        # tail-completed: real atoms in the core plus the closed-form
        # full-lattice model coefficients minus the in-core lattice pairing
        core = self.core_mask
        c_model = self._model_coefficients(op.basis)
        y = op.atom_matrix[:, core] @ (self.mu.masses[core] * self.boundary_cosine)
        y = y + c_model
        y = y - op.basis.functions_at(self.core_lattice_points) @ (
            self.lattice_weight * self.core_lattice_values
        )
        beta = apply_inverse(op, y)

        # Values on the support are the free-model closed forms plus the
        # sectioned evaluation of the coefficient deviation from the model.
        # The model's full sampling series sums exactly (no basis-tail
        # truncation); the deviation decays fast and lives in the section.
        t = self.mu.positions
        t_safe = np.where(t == 0.0, 1.0, t)
        phi = op.atom_matrix
        sine_model = np.where(t == 0.0, s, np.sin(s * t) / t_safe)
        cosine_model = np.where(t == 0.0, 0.0, (np.cos(s * t) - 1.0) / t_safe)
        sine_vals = sine_model + phi.T @ (coeffs - rhs)
        cosine_vals = cosine_model + phi.T @ (beta - c_model)

        masses = self.mu.masses
        tail_sine, tail_cosine, tail_cross = self._model_tails(s)

        # data-driven amplitude correction of the model tails: the measured
        # difference between computed values and the free-model pattern in
        # the outer (still basis-covered) band extrapolates into the tail
        # under the shared quadratic decay.  Exact zero on the free fixture.
        edge = np.pi * op.basis.half_size / s
        band = (np.abs(t) > 0.5 * self.r_eff) & (np.abs(t) <= edge)
        if np.any(band):
            t_hi = edge
            weight = (1.0 / self.r_eff) / (2.0 / self.r_eff - 1.0 / t_hi)
            mb = masses[band]
            ds = float(np.sum(mb * (sine_vals[band] ** 2 - sine_model[band] ** 2)))
            dc = float(np.sum(mb * (cosine_vals[band] ** 2 - cosine_model[band] ** 2)))
            dx = float(
                np.sum(
                    mb
                    * (
                        sine_vals[band] * cosine_vals[band]
                        - sine_model[band] * cosine_model[band]
                    )
                )
            )
            tail_sine += weight * ds
            tail_cosine += weight * dc
            tail_cross += weight * dx

        norm2_sine = float(np.sum(masses * sine_vals**2)) + tail_sine
        norm2_cosine = float(np.sum(masses * cosine_vals**2)) + tail_cosine
        cross = float(np.sum(masses * sine_vals * cosine_vals)) + tail_cross

        sl = BandwidthSlice(
            s=s,
            sine_at_zero=sine_at_zero,
            sine_values=sine_vals,
            cosine_values=cosine_vals,
            norm2_sine=norm2_sine,
            norm2_cosine=norm2_cosine,
            cross=cross,
        )
        self._slices[s] = sl
        return sl

    def zeta(self, s: float) -> float:
        """Position of the chain point at bandwidth ``s`` (0 at 0)."""
        if s == 0.0:
            return 0.0
        return self.slice_at(s).zeta

    # -- full recovery ----------------------------------------------------

    def run(self) -> ReconstructionResult:
        cfg = self.cfg
        s_grid = np.concatenate([[0.0], cfg.s_grid])
        slices = [self.slice_at(s) for s in cfg.s_grid]
        zetas = np.concatenate([[0.0], [sl.zeta for sl in slices]])
        h11_int = np.concatenate([[0.0], [sl.sine_at_zero for sl in slices]])
        offdiag_int = np.concatenate([[0.0], [sl.cross / np.pi for sl in slices]])

        if np.any(np.diff(zetas) <= 0):
            raise NumericalError(
                "recovered position table is not strictly increasing; "
                "refine the grids or enlarge the measure window"
            )
        ell = float(zetas[-1])
        r_grid = np.linspace(0.0, ell, cfg.r_samples)
        tau = PchipInterpolator(zetas, s_grid)(r_grid)
        tau[0], tau[-1] = 0.0, self.a

        g1 = PchipInterpolator(s_grid, h11_int)(tau)
        g = PchipInterpolator(s_grid, offdiag_int)(tau)

        dr = r_grid[1] - r_grid[0]
        h11 = np.diff(g1) / dr
        h12 = np.diff(g) / dr
        h22 = 2.0 - h11

        # eigenvalue clamping onto the PSD cone, trace pinned at 2; the
        # threshold keeps unprojected cells within the segment-PSD slack
        half_gap = np.sqrt(((h11 - h22) / 2.0) ** 2 + h12**2)
        lam_min = 1.0 - half_gap
        needs = lam_min < -0.25 * PSD_SLACK
        projection = np.where(needs, np.maximum(-lam_min, 0.0), 0.0)
        if np.any(needs):
            idx = np.nonzero(needs)[0]
            for i in idx:
                m = np.array([[h11[i], h12[i]], [h12[i], h22[i]]])
                evals, evecs = np.linalg.eigh(m)
                v = evecs[:, 1]
                proj = 2.0 * np.outer(v, v)
                h11[i], h12[i], h22[i] = proj[0, 0], proj[0, 1], proj[1, 1]
        bad_fraction = float(np.mean(projection > 1e-2))

        mats = np.empty((len(h11), 2, 2))
        mats[:, 0, 0] = h11
        mats[:, 0, 1] = h12
        mats[:, 1, 0] = h12
        mats[:, 1, 1] = h22
        ham = Hamiltonian(r_grid, mats)

        dets = np.maximum(ham.determinants(), 0.0)
        krein = np.concatenate([[0.0], np.cumsum(np.sqrt(dets) * dr)])
        krein_err = float(np.max(np.abs(krein - tau))) / self.a

        diagnostics = {
            "sine_norm_residual_max": max(sl.sine_norm_residual for sl in slices),
            "definitional_residual_max": max(sl.definitional_residual for sl in slices),
            "psd_projection_max": float(np.max(projection)) if len(projection) else 0.0,
            "psd_projection_bad_fraction": bad_fraction,
            "krein_relative_error": krein_err,
            "recentering_moment": self.moment,
            "bandwidth": self.a,
            "ell": ell,
        }
        if bad_fraction > 0.01:
            raise InvariantViolation(
                f"PSD projection exceeded 1e-2 on {bad_fraction:.1%} of cells; "
                f"reconstruction rejected (diagnostics: {diagnostics})"
            )

        zeta_table = np.column_stack([s_grid, zetas])
        tau_table = np.column_stack([r_grid, tau])
        return ReconstructionResult(ham, zeta_table, tau_table, diagnostics)


def zeta(
    mu: SpectralMeasure,
    s: float,
    bandwidth: float | None = None,
    c: float = 0.0,
    pw_truncation: int = 256,
) -> float:
    """Chain position at bandwidth ``s`` for a one-off query (builds a pipeline)."""
    a = bandwidth if bandwidth is not None else mu.lattice_type()
    cfg = GridConfig.for_bandwidth(
        a, pw_truncation=pw_truncation, measure_window=mu.window
    )
    return RecoveryPipeline(mu, c=c, cfg=cfg).zeta(s)


def converged_truncation(
    mu: SpectralMeasure,
    s: float,
    bandwidth: float | None = None,
    c: float = 0.0,
    start: int = 64,
    tol: float = 1e-5,
    cap: int = 2048,
) -> tuple[int, float]:
    """Double the section half-size until the chain position stabilizes.

    Finite sections of a boundedly invertible form converge; the window
    caps the usable half-size, so the doubling stops there at the latest.
    Returns the accepted half-size and the chain position at it.
    """
    a = bandwidth if bandwidth is not None else mu.lattice_type()
    half = start
    last = None
    while True:
        cfg = GridConfig.for_bandwidth(
            a, pw_truncation=max(half, 8), measure_window=mu.window
        )
        effective = cfg.basis_half_size(s)
        val = RecoveryPipeline(mu, c=c, cfg=cfg).zeta(s)
        if last is not None and abs(val - last) < tol:
            return effective, val
        if effective < cfg.pw_truncation or half >= cap:
            # the window (or the cap) is the binding constraint
            return effective, val
        last = val
        half *= 2


def reconstruct(
    mu: SpectralMeasure,
    c: float = 0.0,
    cfg: GridConfig | None = None,
    bandwidth: float | None = None,
) -> ReconstructionResult:
    """Recover the trace-2 weight whose spectral measure is ``mu``.

    ``c`` is the additive Herglotz constant of the Weyl function; round
    trips obtain it from the forward solver, raw measures must supply it
    (the measure alone does not determine it).  When no grid is given, a
    default one is derived from the measure (bandwidth from the atom
    spacing unless provided).
    """
    return RecoveryPipeline(mu, c=c, cfg=cfg, bandwidth=bandwidth).run()
