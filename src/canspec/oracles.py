"""Fixtures, cross-module identity suites and counterexample probes.

Everything here has an independent check attached: closed forms for the
free weight, the forward solver as an oracle for recovered quantities,
and brute-force quadrature for the diagonal admissibility ratio.  The
suites are the package's ground truth; perturbed fixtures are only
trusted after the free fixture passes at near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    GridConfig,
    Hamiltonian,
    NumericalError,
    ReconstructionResult,
    SpectralMeasure,
    ValidationError,
    normalize_trace,
)
from . import forward
from .inverse import RecoveryPipeline, lattice_tail_sums
from .pwspace import apply_inverse, build_operator

__all__ = [
    "free_fixture",
    "step_fixture",
    "section5_hamiltonian",
    "RoundtripReport",
    "roundtrip",
    "kernel_identity_check",
    "trace_identity_check",
    "chain_data",
    "NonPWReport",
    "nonpw_example",
    "diag_necessary_condition",
]


def free_fixture(ell: float, window: float = 200.0) -> tuple[Hamiltonian, SpectralMeasure, float]:
    """Identity weight on ``[0, ell]`` with its exact spectral measure.

    Atoms sit on the lattice ``pi k / ell`` with the constant mass
    ``pi / ell``; the additive Herglotz constant vanishes.
    """
    H = Hamiltonian.identity(ell)
    spacing = np.pi / ell
    kmax = int(np.floor(window / spacing))
    k = np.arange(-kmax, kmax + 1)
    mu = SpectralMeasure(k * spacing, np.full(k.size, spacing), window)
    return H, mu, 0.0


def step_fixture(w: float = 1.2, trace_normalized: bool = True) -> Hamiltonian:
    """Two-segment diagonal weight ``diag(w, 1/w)`` then ``diag(1/w, w)``."""
    H = Hamiltonian.from_segments(
        [(0.0, 1.0, w, 0.0, 1.0 / w), (1.0, 2.0, 1.0 / w, 0.0, w)]
    )
    if trace_normalized:
        H, _ = normalize_trace(H)
    return H


def section5_hamiltonian(h: float, segments: int) -> Hamiltonian:
    """Diagonal two-valued weight with geometrically shrinking segments.

    Segment ``j`` has length ``3**-j``; odd segments carry the identity,
    even ones ``diag(h, 1/h)``.  The total length approaches ``1/2`` as
    the segment count grows.
    """
    if not 0.0 < h < 1.0:
        raise ValidationError("h must lie in (0, 1)")
    if segments < 1:
        raise ValidationError("need at least one segment")
    lengths = [3.0**-j for j in range(1, segments + 1)]
    mats = [
        np.eye(2) if j % 2 == 1 else np.diag([h, 1.0 / h])
        for j in range(1, segments + 1)
    ]
    return Hamiltonian.from_lengths(lengths, mats)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundtripReport:
    """Forward-then-inverse comparison against the trace-2 input."""

    normalized: Hamiltonian
    measure: SpectralMeasure
    result: ReconstructionResult
    cell_error: np.ndarray  # |recovered - input| per recovered cell, shape (cells, 2, 2)
    sup_error: np.ndarray
    sup_error_interior: np.ndarray
    l1_relative: np.ndarray
    diagnostics: dict

    @property
    def max_l1_relative(self) -> float:
        return float(np.max(self.l1_relative))


def _piecewise_l1(Ha: Hamiltonian, Hb: Hamiltonian) -> np.ndarray:
    """Exact entrywise relative L1 distance of two piecewise-constant weights.

    Entries whose reference integral vanishes (off-diagonal of diagonal
    fixtures) are normalized by the interval length instead.
    """
    ell = min(Ha.ell, Hb.ell)
    edges = np.unique(np.concatenate([Ha.edges, np.clip(Hb.edges, 0.0, ell), [ell]]))
    edges = edges[edges <= ell * (1 + 1e-15)]
    mid = 0.5 * (edges[:-1] + edges[1:])
    d = np.diff(edges)
    va = Ha.sample(np.minimum(mid, Ha.ell * (1 - 1e-15)))
    vb = Hb.sample(np.minimum(mid, Hb.ell * (1 - 1e-15)))
    l1 = np.einsum("n,nij->ij", d, np.abs(va - vb))
    denom = np.maximum(np.einsum("n,nij->ij", d, np.abs(vb)), ell)
    return l1 / denom


#: Fraction of the interval dropped at both ends for the interior sup error.
_INTERIOR = 0.02


def roundtrip(H: Hamiltonian, window: float = 200.0, **grid) -> RoundtripReport:
    """Full forward-then-inverse pass with error accounting.

    Normalizes the trace, computes the spectral measure and its additive
    Herglotz constant, recovers the weight, and compares against the normalized
    input: exact entrywise relative L1 and sup errors over cell midpoints
    (the interior sup drops 2% of the interval at both ends, where
    one-sided effects dominate).  ``window`` is the measure window; the
    ``grid`` keywords (``pw_truncation``, ``s_samples``, ``r_samples``) go to
    :meth:`~canspec.model.GridConfig.for_bandwidth` at the weight's type,
    which supplies the ones left out.
    """
    Ht, _ = normalize_trace(H)
    mu = forward.spectral_measure(Ht, window)
    cfg = GridConfig.for_bandwidth(forward.exponential_type(Ht), measure_window=window, **grid)
    result = RecoveryPipeline(mu, c=mu.herglotz_c, cfg=cfg).run()
    Hr = result.hamiltonian

    mids = 0.5 * (Hr.edges[:-1] + Hr.edges[1:])
    ref = Ht.sample(np.minimum(mids, Ht.ell * (1 - 1e-15)))
    err = np.abs(Hr.matrices - ref)
    sup = err.max(axis=0)
    inner = (mids >= _INTERIOR * Ht.ell) & (mids <= (1 - _INTERIOR) * Ht.ell)
    sup_inner = err[inner].max(axis=0) if np.any(inner) else sup
    l1 = _piecewise_l1(Hr, Ht)

    diagnostics = dict(result.diagnostics)
    diagnostics["ell_error"] = abs(Hr.ell - Ht.ell)
    return RoundtripReport(Ht, mu, result, err, sup, sup_inner, l1, diagnostics)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def _debranges_kernel(H: Hamiltonian, r: float, w: complex, zs: np.ndarray) -> np.ndarray:
    """Reproducing kernel of the chain space at ``r``, evaluated on ``zs``."""
    wbar = np.conj(complex(w))
    tpw, tmw, _, _ = forward.theta_and_derivative(H, r, np.asarray(wbar))
    tp, tm, dp, dm = forward.theta_and_derivative(H, r, zs)
    num = tp * tmw - tm * tpw
    den = zs - wbar
    out = np.empty(zs.shape, dtype=complex)
    far = np.abs(den) > 1e-8
    out[far] = num[far] / (np.pi * den[far])
    if np.any(~far):
        # removable singularity: derivative of the numerator in z
        out[~far] = (dp[~far] * tmw - dm[~far] * tpw) / np.pi
    return out


def kernel_identity_check(H: Hamiltonian, mu: SpectralMeasure, s: float, w: complex = 0.0) -> float:
    """Residual of the inverted-kernel identity at one evaluation point.

    Applying the inverse of the sectioned form to the band-limited kernel
    at ``conj(w)`` must reproduce the chain-space reproducing kernel at
    the position of exponential type ``s``.  The section has the default
    :class:`~canspec.model.GridConfig` half-size, and the comparison runs
    on the 50 consecutive basis nodes around the origin so basis
    truncation does not masquerade as operator error; the returned value
    is the relative sup difference.
    """
    half = GridConfig.for_bandwidth(s, measure_window=mu.window).basis_half_size(s)
    op = build_operator(mu, s, half)
    coeffs = op.basis.kernel_coefficients(np.conj(complex(w)))
    u = apply_inverse(op, coeffs)

    m = min(25, half)
    idx = np.arange(op.basis.center - m, op.basis.center + m)
    nodes = op.basis.nodes[idx]
    # interpolation property of the sampling basis: values at nodes are
    # the coefficients up to the normalization factor
    got = u[idx] * np.sqrt(s / np.pi)

    xi = forward.type_inverse(H, s)
    want = _debranges_kernel(H, xi, w, nodes)
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want)) / scale)


#: Explicit lattice continuation of the trace identities, in measure windows.
_TAIL_SPAN = 128.0


def _weight_integral(H: Hamiltonian, r: float) -> np.ndarray:
    """``int_0^r H``, exact for a piecewise-constant weight."""
    eff = np.clip(np.minimum(H.edges[1:], r) - H.edges[:-1], 0.0, None)
    return np.einsum("n,nij->ij", eff, H.matrices)


def chain_data(H: Hamiltonian, s: float) -> np.ndarray:
    """Exact slice data ``int_0^zeta H`` at the chain point ``zeta = type_inverse(H, s)``.

    The inverse pipeline's slice at bandwidth ``s`` estimates this 2x2
    matrix: ``sine_at_zero`` its ``(0, 0)`` entry and ``norms / pi`` all of it.
    """
    return _weight_integral(H, forward.type_inverse(H, s))


def trace_identity_check(H: Hamiltonian, mu: SpectralMeasure, r: float) -> np.ndarray:
    """Residuals of the three integrated-weight identities at position ``r``.

    The left sides are exact segment integrals of the weight entries; the
    right sides are measure sums of solution components, extended beyond
    the window over :meth:`~canspec.model.SpectralMeasure.tail_lattices`
    with the solver evaluated at the synthetic atoms below ``_TAIL_SPAN``
    windows plus one spacing.  Beyond that span the components follow the
    free model at the exponential type of ``[0, r]``, summed to infinity
    in closed form by :func:`~canspec.inverse.lattice_tail_sums`.
    """
    lhs = _weight_integral(H, r)

    def components(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tp, tm, dp, dm = forward.theta_and_derivative(H, r, ts)
        tp, tm, dp, dm = np.real(tp), np.real(tm), np.real(dp), np.real(dm)
        safe = np.where(ts == 0.0, 1.0, ts)
        f1 = np.where(ts == 0.0, dm, tm / safe)
        f2 = np.where(ts == 0.0, dp, (tp - 1.0) / safe)
        return f1, f2

    f1, f2 = components(mu.positions)
    s11 = float(np.sum(mu.masses * f1 * f1))
    s22 = float(np.sum(mu.masses * f2 * f2))
    s12 = float(np.sum(mu.masses * f1 * f2))

    s = forward.exponential_type(H, r)
    spacing = np.pi / mu.type
    step = 2.0 * spacing
    lattices = mu.tail_lattices(spacing)
    remainders = []
    for side, first, mass in lattices:
        taus = np.arange(first, _TAIL_SPAN * mu.window + spacing, step)
        g1, g2 = components(side * taus)
        s11 += mass * float(np.sum(g1 * g1))
        s22 += mass * float(np.sum(g2 * g2))
        s12 += mass * float(np.sum(g1 * g2))
        remainders.append(first + step * taus.size)
    # model remainders beyond the span: f1 = -sin(st)/t, f2 = (cos st - 1)/t
    side, _, mass = np.array(lattices).T
    sine2, cosine2, cross = lattice_tail_sums(s, np.array(remainders), step)
    s11 += mass @ sine2
    s22 += mass @ cosine2
    s12 -= (side * mass) @ cross

    rhs11 = s11 / np.pi
    rhs22 = s22 / np.pi
    rhs12 = -s12 / np.pi
    return np.array(
        [abs(lhs[0, 0] - rhs11), abs(lhs[1, 1] - rhs22), abs(lhs[0, 1] - rhs12)]
    )


# ---------------------------------------------------------------------------
# non-band-limited growth example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonPWReport:
    """Growth certificate of the structure function along a lacunary sequence.

    ``ratios`` are ``|E| * h^(k/2)`` (bounded below certifies the
    exponential growth); ``lambda_over`` are ``|E| / lambda_k`` whose
    strict growth witnesses that the structure function dominates any
    linear bound, so the generated space matches no band-limited space.
    """

    h: float
    k_list: np.ndarray
    E_values: np.ndarray
    ratios: np.ndarray
    lambda_over: np.ndarray
    partial_product_errors: np.ndarray
    tail_factor_bounds: np.ndarray


def nonpw_example(h: float, k_max: int) -> NonPWReport:
    """Evaluate the growth certificate for the two-valued lacunary weight.

    Requires ``0 < h < 1/9`` and even ``k_max <= 10``.  The infinite
    segment sequence is truncated at ``k_max + 12`` pieces; the recorded
    tail factors bound the multiplicative truncation effect.
    """
    if not 0.0 < h < 1.0 / 9.0:
        raise ValidationError("h must lie in (0, 1/9)")
    if k_max % 2 != 0 or not 2 <= k_max <= 10:
        raise ValidationError("k_max must be even and between 2 and 10")
    j_max = k_max + 12
    H = section5_hamiltonian(h, j_max)
    ks = np.arange(2, k_max + 1, 2)
    evals, prod_errs, tails = [], [], []
    for k in ks:
        lam = np.pi * 3.0**k / 2.0
        r_k = float(H.edges[k])
        # a small h overflows the products; the finiteness check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            M = forward.transfer_entries(H, r_k, np.asarray(lam))
            Mfull = forward.transfer_entries(H, H.ell, np.asarray(lam))
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(Mfull))):
            raise NumericalError("transfer matrix overflowed; reduce k_max or raise h")
        target = np.diag([h ** (-k / 2.0), h ** (k / 2.0)])
        prod_errs.append(float(np.max(np.abs(M - target)) / np.max(np.abs(target))))
        evals.append(float(np.hypot(Mfull[0, 0], Mfull[1, 0])))
        tails.append(float(np.exp(lam / h * 3.0**-j_max / 2.0)))
    evals = np.array(evals)
    lams = np.pi * 3.0**ks.astype(float) / 2.0
    return NonPWReport(
        h=h,
        k_list=ks,
        E_values=evals,
        ratios=evals * h ** (ks / 2.0),
        lambda_over=evals / lams,
        partial_product_errors=np.array(prod_errs),
        tail_factor_bounds=np.array(tails),
    )


# ---------------------------------------------------------------------------
# diagonal necessary condition
# ---------------------------------------------------------------------------


def diag_necessary_condition(
    w, n: int, s: float, num_points: int = 4001, rule: str = "simpson"
) -> float:
    """Normalized iterated-integral ratio for a diagonal weight profile.

    Computes ``(1/a_n(s)) * integral_0^s exp((-1)^n phi) * I_n(t)^2 dt``
    with ``phi = log w``, ``a_n(s) = s^(2n+1) / (n (n!)^2)`` and the
    ``n``-fold alternating-weight iterated integral ``I_n`` built by
    cumulative quadrature (innermost weight ``exp(+phi)``, alternating
    outward).  For admissible diagonal weights the ratio stays bounded
    between positive constants uniformly in ``n`` and ``s``; for
    ``w == 1`` it equals ``n / (2n + 1)`` exactly.  The quadrature runs in
    ``u = t / s`` on ``[0, 1]``: ``I_n`` carries ``s^n`` and the outer
    integral one more ``s``, so the ratio is ``n (n!)^2`` times the
    integral in ``u`` and no power of ``s`` is formed.

    ``w`` is a positive callable on ``[0, s]`` or an array of samples on
    the uniform grid of ``num_points`` points.  ``rule`` selects the
    cumulative quadrature ("simpson" or "trapezoid"; the latter at raised
    resolution serves as the brute-force cross-check).  The quadrature
    rules are SciPy's; ``scipy.integrate`` is imported here, when the
    function runs, so importing this module does not load it.
    """
    from scipy.integrate import cumulative_simpson, cumulative_trapezoid

    if n < 1:
        raise ValidationError("n must be at least 1")
    if n > 20:
        raise ValidationError("n > 20 is numerically unstable in the factorial scaling")
    if not 0.0 < s < np.inf:
        raise ValidationError(f"s={s!r} must be positive and finite")
    u = np.linspace(0.0, 1.0, num_points)
    wv = np.asarray(w(s * u), dtype=float) if callable(w) else np.asarray(w, dtype=float)
    if wv.shape != u.shape:
        raise ValidationError("w samples must match the quadrature grid")
    if not np.all((wv > 0) & (wv < np.inf)):
        raise ValidationError("w must be strictly positive and finite")
    phi = np.log(wv)

    if rule == "simpson":
        def cumint(f):
            return cumulative_simpson(f, x=u, initial=0.0)
    elif rule == "trapezoid":
        def cumint(f):
            return cumulative_trapezoid(f, x=u, initial=0.0)
    else:
        raise ValidationError(f"unknown quadrature rule {rule!r}")

    inner = np.ones_like(u)
    for m in range(1, n + 1):
        sign = 1.0 if m % 2 == 1 else -1.0
        inner = cumint(np.exp(sign * phi) * inner)
    outer_sign = 1.0 if n % 2 == 0 else -1.0
    total = cumint(np.exp(outer_sign * phi) * inner**2)[-1]
    return float(n * math.factorial(n) ** 2 * total)
