"""Direct spectral problem for piecewise-constant canonical systems.

The first-order system ``J X' = z H X`` with a constant 2x2 weight on a
segment has the exact propagator ``exp(d * A)`` with ``A = -z J H``.
Since ``A`` is traceless, the exponential reduces to two entire scalar
functions of ``delta = z**2 det(H) d**2``, which keeps the propagation
spectrally exact at arbitrary ``|z|`` and preserves the determinant.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    ZERO_ATOM_TOL,
    Hamiltonian,
    InvariantViolation,
    NumericalError,
    SpectralMeasure,
    TransferMatrix,
    ValidationError,
)

__all__ = [
    "WeylValue",
    "propagate",
    "transfer_entries",
    "theta_and_derivative",
    "det_residual",
    "find_zeros",
    "spectral_measure",
    "weyl_function",
    "herglotz_constants",
    "exponential_type",
    "type_inverse",
]


# ---------------------------------------------------------------------------
# scalar coefficient functions of the 2x2 exponential
# ---------------------------------------------------------------------------


def _cs(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entire functions ``cos(sqrt(delta))`` and ``sin(sqrt(delta))/sqrt(delta)``.

    A real ``delta`` (real spectral parameter) is nonnegative, since no
    segment determinant is negative, and both functions stay in ``[-1, 1]``;
    only the removable singularity at 0 needs a series.
    ``delta`` is an array of at least one dimension.
    """
    w = np.sqrt(delta)
    c = np.cos(w)
    small = np.abs(delta) < 1e-12
    w[small] = 1.0
    s = np.sin(w) / w
    s[small] = 1.0 - delta[small] / 6.0
    return c, s


def _csd(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """As :func:`_cs` plus ``D = (C - S)/delta`` (needed for z-derivatives).

    ``C - S`` cancels to ``O(delta)`` near 0, so a short series takes over
    below ``|delta| = 1e-4``.
    """
    c, s = _cs(delta)
    small = np.abs(delta) < 1e-4
    d = (c - s) / np.where(small, 1.0, delta)
    x = delta[small]
    d[small] = -1.0 / 3.0 + x / 30.0 - x**2 / 840.0 + x**3 / 45360.0
    return c, s, d


def _effective_lengths(H: Hamiltonian, r: float) -> np.ndarray:
    """Segment lengths clipped to ``[0, r]``."""
    r = float(r)
    if not -1e-15 <= r <= H.ell * (1 + 1e-12) + 1e-15:
        raise ValidationError(f"r={r!r} outside [0, {H.ell!r}]")
    return np.clip(np.minimum(H.edges[1:], r) - H.edges[:-1], 0.0, None)


def _factor_columns(diagonal, scale, K):
    """Columns of ``diagonal I + scale K`` for a block of segments.

    ``diagonal`` and ``scale`` are ``(segments, points)`` arrays and ``K``
    is ``(segments, 2, 2, 1)``.  Returns the two columns, each of shape
    ``(segments, 2, 1, points)``: row ``j`` is the column of segment ``j``
    in the layout that :func:`_propagate` carries.
    """
    F = scale[:, None, None] * K
    F[:, 0, 0] += diagonal
    F[:, 1, 1] += diagonal
    return F[:, :, 0, None], F[:, :, 1, None]


def _grid_phases(z, run, omega, rank_one):
    """``exp(i omega z)`` for a block of segments on a uniform real grid ``z``.

    Cut into runs of ``run = ceil(sqrt(n))`` points, grid point ``k run +
    m`` is ``z[k run] + (z[m] - z[0])``, so its phase is an anchor phase
    ``exp(i omega z[k run])`` times an offset phase ``exp(i omega (z[m] -
    z[0]))``.  Both tables come from ``np.exp`` directly: a segment takes
    ``ceil(n / run) + run`` phases and one complex product per point, and no
    error accumulates along the grid.  Rows where ``rank_one`` holds get
    ``1 + i z`` instead.  ``omega`` and ``rank_one`` are ``(segments, 1)``;
    returns ``(segments, n)``.
    """
    omega = 1j * omega
    phase = np.exp(omega * z[::run])[:, :, None] * np.exp(omega * (z[:run] - z[0]))[:, None, :]
    phase = phase.reshape(omega.shape[0], -1)[:, : z.size]
    phase.imag[rank_one[:, 0]] = z
    return phase


#: Segment-point pairs whose factors :func:`_propagate` evaluates at once.
_BLOCK_PAIRS = 4096


def _propagate(
    H: Hamiltonian, r: float, z, derivative: bool = False, columns: int = 2
) -> tuple[np.ndarray, np.ndarray | None]:
    """Segment product ``M(r, z)`` and, on request, ``dM/dz``.

    Each segment of length ``d`` inside ``[0, r]`` contributes the exact
    factor ``F = C I + S z d K`` with ``K = -J H`` and ``C``, ``S`` from
    :func:`_cs` at ``delta = z**2 det(H) d**2``; its z-derivative is
    ``dF = -z gamma S I + (z**2 gamma D + S) d K`` with ``gamma = det(H)
    d**2`` and ``D`` from :func:`_csd`.

    The one-column pass without the derivative is the zero scan of
    :func:`find_zeros`, on a uniform real grid such as ``np.linspace``
    makes (else :class:`ValueError`).  On real ``z`` the factor is ``cos(omega
    z) I + sin(omega z) K'`` with ``omega = d sqrt(det H)`` and ``K' = K /
    sqrt(det H)``, and ``I + z d K`` on rank one; so the scan takes ``Re e I
    + Im e K'`` with the phases ``e`` of :func:`_grid_phases` (``1 + i z``
    and ``K' = d K`` on rank one), about ``2 sqrt(n)`` exponentials per
    segment in place of ``n`` cosines and ``n`` sines.  Each phase is off by
    the roundoff of its argument, as in :func:`_cs`, plus the grid's
    deviation from uniform, at most ``4 eps max|z|``.

    Block evaluation: the reached segments are cut into blocks of at most
    ``_BLOCK_PAIRS`` segment-point pairs (at least one segment), and the
    scalar functions and the entries of ``F`` (and ``dF``) are evaluated
    for a whole block in a few array operations.  Column recurrence: the
    sequential loop over the block's segments carries the entries of the
    first ``columns`` columns of ``M`` (and of ``dM``) as arrays over the
    points, and updates them with the 2x2 product written out entry by
    entry, so no 2x2 factor is formed per segment.  The cap is a constant
    rather than "all segments" because it bounds memory: the block arrays
    grow with segments times points, and evaluating every segment at once
    raised the peak memory of a 1000-segment spectral measure from 86 to
    196 MiB and made it slower, since the arrays no longer stay in cache.
    At a few thousand pairs the per-block overhead is already small
    against the sequential loop.

    ``columns`` is 2 for the whole matrix or 1 for its first column, the
    only part :func:`theta_and_derivative` and the scan read.  Returns
    arrays of shape ``z.shape + (2, columns)`` (real for real ``z``) and
    ``None`` for the derivative unless it is asked for.
    """
    z = np.asarray(z)
    shape = z.shape + (2, columns)
    dtype = complex if np.iscomplexobj(z) else float
    z = z.reshape(-1)
    z2 = z**2
    tables = columns == 1 and not derivative
    if tables:
        run = math.isqrt(z.size - 1) + 1
        spread = np.abs(z - (z[::run, None] + (z[:run] - z[0])).reshape(-1)[: z.size])
        if dtype is complex or np.any(spread > 4 * np.finfo(float).eps * np.max(np.abs(z))):
            raise ValueError("the one-column scan pass needs a uniform real grid")
    lengths = _effective_lengths(H, r)
    # the segments reached by r are a prefix, each of positive length
    n = int(np.count_nonzero(lengths > 0))
    d = lengths[:n, None]
    det = H.determinants()[:n, None]
    gamma = det * d * d
    h = H.matrices[:n]
    # K = -J H per segment, with a trailing axis for the points
    K = np.stack([h[:, 0, 1], h[:, 1, 1], -h[:, 0, 0], -h[:, 0, 1]], axis=-1)
    K = K.reshape(-1, 2, 2, 1)
    if tables:
        root = np.sqrt(det)
        omega, rank_one = d * root, root == 0.0
        K = K * np.where(rank_one, d, 1.0 / np.where(rank_one, 1.0, root))[..., None, None]
    # M[i, k] is entry (i, k) as an array over the points
    M = np.eye(2)[:, :columns, None]
    dM = np.zeros_like(M)
    rows = max(1, _BLOCK_PAIRS // max(z.size, 1))
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        if tables:
            e = _grid_phases(z, run, omega[block], rank_one[block])
            F = _factor_columns(e.real, e.imag, K[block])
        else:
            delta = z2 * gamma[block]
            c, s, dd = _csd(delta) if derivative else (*_cs(delta), None)
            F = _factor_columns(c, s * z * d[block], K[block])
        dF = ()
        if derivative:
            dk = (z2 * gamma[block] * dd + s) * d[block]
            dF = _factor_columns(-z * gamma[block] * s, dk, K[block])
        # f0, f1: one segment's factor columns, each (2, 1, points); g: its derivative's
        for f0, f1, *g in zip(*F, *dF):
            if g:
                dM = g[0] * M[0] + g[1] * M[1] + (f0 * dM[0] + f1 * dM[1])
            M = f0 * M[0] + f1 * M[1]

    def points_first(A):
        A = np.broadcast_to(A, (2, columns, z.size))
        return np.moveaxis(A, -1, 0).astype(dtype, order="C").reshape(shape)

    return points_first(M), points_first(dM) if derivative else None


def transfer_entries(H: Hamiltonian, r: float, z: np.ndarray) -> np.ndarray:
    """Transfer matrices ``M(r, z)`` for an array of spectral parameters.

    Returns shape ``z.shape + (2, 2)``; real for real ``z``.
    """
    return _propagate(H, r, z)[0]


def propagate(H: Hamiltonian, r: float, z: complex) -> TransferMatrix:
    """Exact transfer matrix of the system at ``(r, z)``.

    The first column solves the Cauchy problem with initial value
    ``(1, 0)``; the determinant equals 1 up to roundoff, which is
    asserted by the returned object.
    """
    M = transfer_entries(H, r, np.asarray(z))
    return TransferMatrix(M, float(r), complex(z))


def theta_and_derivative(
    H: Hamiltonian, r: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First column of ``M(r, z)`` together with its z-derivative.

    The derivative propagates jointly with the matrix (segmentwise
    closed form of the variational system), which keeps it accurate
    enough for Newton refinement and residue-based masses.  Returns
    ``(theta_plus, theta_minus, dtheta_plus, dtheta_minus)`` with the
    shape of ``z``.  Only the first column is propagated.
    """
    M, dM = _propagate(H, r, z, derivative=True, columns=1)
    # [()] turns the 0-d results of a scalar z into scalars
    return M[..., 0, 0][()], M[..., 1, 0][()], dM[..., 0, 0][()], dM[..., 1, 0][()]


def det_residual(H: Hamiltonian, z) -> float:
    """Largest ``|det M(ell, z) - 1|`` over the spectral parameters ``z``.

    The exact segment factors have unit determinant, so this measures the
    roundoff drift of one propagation to the endpoint.
    """
    M = transfer_entries(H, H.ell, np.asarray(z))
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return float(np.max(np.abs(det - 1.0))) if det.size else 0.0


def exponential_type(H: Hamiltonian, r: float | None = None) -> float:
    """Integral of ``sqrt(det H)`` up to ``r`` (default: the endpoint); rank one adds 0."""
    r = H.ell if r is None else float(r)
    eff = _effective_lengths(H, r)
    return float(np.sum(np.sqrt(H.determinants()) * eff))


def type_inverse(H: Hamiltonian, s: float) -> float:
    """Position ``r`` with ``integral_0^r sqrt(det H) = s`` (chain point).

    Exact for piecewise-constant weights: ``r`` lies in the last segment of
    positive type starting at or below ``s``.  Type 0 raises :class:`ValidationError`.
    """
    roots = np.sqrt(H.determinants())
    cum = np.concatenate([[0.0], np.cumsum(roots * H.lengths)])
    total = cum[-1]
    if not total > 0.0:
        raise ValidationError("weight has exponential type 0: no chain points")
    if not -1e-12 <= s <= total * (1 + 1e-12):
        raise ValidationError(f"s={s!r} outside [0, {total!r}]")
    s = min(max(s, 0.0), total)
    i = np.flatnonzero((roots > 0.0) & (cum[:-1] <= s))[-1]
    return float(H.edges[i] + (s - cum[i]) / roots[i])


# ---------------------------------------------------------------------------
# zeros of theta_minus and the spectral measure
# ---------------------------------------------------------------------------


#: Refinement passes before :func:`find_zeros` gives up; plain bisection would
#: take ``log2(step / 1e-14)``, 45 at the default step of a type-pi weight.
_REFINE_PASSES = 64

#: Scan values in the interpolant that seeds each bracket of :func:`find_zeros`,
#: half of them on each side.  ``theta_minus(ell, .)`` is entire of exponential
#: type ``tau`` and the default scan samples it at four times the Nyquist rate,
#: so the interpolant converges geometrically: on a 1000-segment smooth weight
#: the largest seed error over the 398 brackets away from the window ends is
#: 1.5e-2 at the secant point and 9.5e-9 with 16 values (5.3e-6 at an end,
#: where the stencil is one-sided).
_SEED_STENCIL = 16


def _interpolated_seeds(grid, vals, left, secant):
    """Roots of local interpolants of the scan, one per bracket.

    Bracket ``k`` is ``(grid[left[k]], grid[left[k] + 1])``.  Its stencil is
    ``_SEED_STENCIL`` consecutive scan points centered on the bracket and
    shifted inside the grid at its ends (all points if the grid is shorter).
    The barycentric Lagrange interpolant through them, with the equispaced
    weights ``(-1)^j binom(m - 1, j)``, takes six Newton steps from the
    secant point (two already reach roundoff at the default scan step), its
    derivative from the same barycentric sums (Berrut & Trefethen, SIAM
    Rev. 46, 2004).  A root that is not finite or not inside its open
    bracket falls back to the secant point.
    """
    m = min(_SEED_STENCIL, grid.size)
    first = np.clip(left - (m // 2 - 1), 0, grid.size - m)
    idx = first[:, None] + np.arange(m)
    nodes, f = grid[idx], vals[idx]
    w = np.array([(-1) ** j * math.comb(m - 1, j) for j in range(m)], dtype=float)
    t = secant
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(6):
            r = 1.0 / (t[:, None] - nodes)
            a = w * r
            den = np.sum(a, axis=1)
            p = np.sum(a * f, axis=1) / den
            dp = np.sum(a * (p[:, None] - f) * r, axis=1) / den
            t = t - p / dp
    inside = np.isfinite(t) & (t > grid[left]) & (t < grid[left + 1])
    return np.where(inside, t, secant)


def _median(values: np.ndarray) -> float:
    """Bitwise ``np.median`` of a nonempty 1-d array, NaN included, without ``numpy.ma``."""
    n = values.size
    part = np.partition(values, [(n - 1) // 2, n // 2, -1])
    if np.isnan(part[-1]):
        return float("nan")
    return float(part[n // 2] if n % 2 else 0.5 * (part[n // 2 - 1] + part[n // 2]))


def find_zeros(
    H: Hamiltonian, window: float, step: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All real zeros of ``theta_minus(ell, .)`` in ``[-window, window]``.

    Returns ``(zeros, theta_plus, dtheta_minus)``: the sorted zeros and,
    at each of them, ``theta_plus(ell, .)`` and the z-derivative of
    ``theta_minus(ell, .)``, bitwise what :func:`theta_and_derivative`
    gives at the returned zeros.

    A sign-change scan brackets each root and seeds it at the root of a
    local interpolant of the scan values (see :func:`_interpolated_seeds`);
    ``step`` must stay below ``pi / (2 * type)``.  That skips no crossing
    unless a segment is rank one: next to one, zeros can pair up closer than
    the step, and the scan silently misses both (see the exact zero count on
    ROADMAP.md).  The scan is the one-column pass of :func:`_propagate`,
    whose factors come from phase tables, about ``2 sqrt(n)`` exponentials
    per segment for ``n`` scan points.  It agrees with
    :func:`transfer_entries` within ``4 eps (segments + type * window)`` of
    ``max |theta_minus|``, with equal signs wherever ``|theta_minus|``
    exceeds ``1e-9`` of its median (tested).
    Each pass then propagates ``theta_minus`` and its z-derivative once at
    the roots still moving; the sign shrinks each bracket, and a Newton
    step that would leave it becomes the bracket midpoint.  Zeros found on
    the scan grid and the origin (always included) keep the fixed bracket
    ``x +- step``.  A root drops out of the passes once its Newton
    correction is below ``1e-14 (1 + |x|)``; after ``_REFINE_PASSES`` passes
    with roots still moving it raises :class:`NumericalError`.  Each root
    keeps the values of its last evaluation, and only the roots that the
    final Newton step moved are propagated once more.

    A weight of type 0 (every segment rank one) makes ``theta_minus`` a
    polynomial in ``z`` whose zeros no scan step is known to separate, and
    a window too wide for a finite scan grid at ``step`` is rejected too;
    both raise :class:`ValidationError`.
    """
    if not 0.0 < window < np.inf:
        raise ValidationError(f"window={window!r} must be positive and finite")
    ell = H.ell
    lam = exponential_type(H, ell)
    if not lam > 0.0:
        raise ValidationError("weight has exponential type 0 (every segment is rank one)")
    max_step = np.pi / (2.0 * lam)
    if step is None:
        step = 0.5 * max_step
    if not 0.0 < step < np.inf:
        raise ValidationError(f"scan step {step!r} must be positive and finite")
    if step > max_step * (1 + 1e-9):
        raise ValidationError(
            f"scan step {step!r} exceeds pi/(2*type)={max_step!r}; zeros could be skipped"
        )

    count = np.ceil(2 * window / step)
    if not np.isfinite(count):
        raise ValidationError(f"window={window!r} over step={step!r} is not a finite scan")
    n = int(count) + 1
    grid = np.linspace(-window, window, n)
    vals = _propagate(H, ell, grid, columns=1)[0][:, 1, 0]

    scale = max(_median(np.abs(vals)), 1e-300)
    on_zero = np.abs(vals) <= 1e-9 * scale

    sign = np.sign(vals)
    left = np.flatnonzero((sign[:-1] * sign[1:] < 0) & ~on_zero[:-1] & ~on_zero[1:])
    lo, hi = grid[left], grid[left + 1]
    flo, fhi = vals[left], vals[left + 1]
    fixed = np.concatenate([grid[on_zero], [0.0]])
    seeds = _interpolated_seeds(grid, vals, left, lo - flo * (hi - lo) / (fhi - flo))
    x = np.concatenate([seeds, fixed])
    lo = np.concatenate([lo, fixed - step])
    hi = np.concatenate([hi, fixed + step])
    # a zero sign marks a fixed bracket: neither of the tests below moves it
    flo = np.concatenate([flo, np.zeros_like(fixed)])
    # per root: the point of its last evaluation, theta_plus and dtheta_minus
    # there, and where its final Newton step put it
    at, tp, dm, zeros = np.empty((4, x.size))
    moving = np.arange(x.size)
    for _ in range(_REFINE_PASSES):
        tpx, fx, _, dfx = theta_and_derivative(H, ell, x)
        at[moving], tp[moving], dm[moving] = x, tpx, dfx
        same, opposite = fx * flo > 0, fx * flo < 0
        lo, flo = np.where(same, x, lo), np.where(same, fx, flo)
        hi = np.where(opposite, x, hi)
        dx = fx / np.where(np.abs(dfx) < 1e-300, 1e-300, dfx)
        newton = x - dx
        done = np.abs(dx) <= 1e-14 * (1.0 + np.abs(newton))
        # a converged root keeps its place rather than step out of its bracket
        x = np.where((newton >= lo) & (newton <= hi), newton, np.where(done, x, 0.5 * (lo + hi)))
        zeros[moving[done]] = x[done]
        moving, x, lo, hi, flo = (a[~done] for a in (moving, x, lo, hi, flo))
        if not moving.size:
            break
    else:
        raise NumericalError(
            f"zero refinement did not converge in {_REFINE_PASSES} passes near t={x[:3]!r}"
        )
    zeros[np.abs(zeros) < ZERO_ATOM_TOL] = 0.0
    keep = np.flatnonzero(np.abs(zeros) <= window * (1 + 1e-12))
    keep = keep[np.argsort(zeros[keep])]
    # the origin is the only root found twice, and both copies are exactly 0;
    # deduplicated here as np.unique would (it imports numpy.ma)
    keep = keep[np.append(True, zeros[keep][1:] != zeros[keep][:-1])]
    pos, tp, dm = zeros[keep], tp[keep], dm[keep]
    # the kernel's value at a point does not depend on the other points of
    # the call, so this equals a propagation at every returned zero
    moved = pos != at[keep]
    if np.any(moved):
        tp[moved], _, _, dm[moved] = theta_and_derivative(H, ell, pos[moved])

    gaps = np.diff(pos)
    if gaps.size and np.max(gaps) > 1.5 * np.pi / lam:
        warnings.warn(
            "consecutive zeros further apart than 1.5*pi/type; scan step may be too coarse",
            RuntimeWarning,
            stacklevel=2,
        )
    return pos, tp, dm


def spectral_measure(H: Hamiltonian, window: float, step: float | None = None) -> SpectralMeasure:
    """Principal spectral measure of the system, truncated to a window.

    Atoms sit at the real zeros of ``theta_minus(ell, .)``; each mass is
    ``-pi / (theta_plus * d/dz theta_minus)`` at the zero, the reciprocal
    of the reproducing kernel's diagonal value there, from the evaluation
    that :func:`find_zeros` made at the converged zero.  The Herglotz
    constants are estimated and stored on the result.
    """
    if not H.is_compatible():
        raise ValidationError(
            "boundary segment proportional to the lower-right rank-one matrix; "
            "the measure atoms are not defined for such weights"
        )
    zeros, tp, dm = find_zeros(H, window, step)
    masses = -np.pi / (tp * dm)
    if np.any(masses <= 0):
        bad = zeros[masses <= 0]
        raise NumericalError(
            f"nonpositive atom mass near t={bad[:3]!r}: zero refinement or compatibility failure"
        )
    mu = SpectralMeasure(zeros, masses, window)
    b, c = herglotz_constants(H, mu)
    return mu.with_constants(b, c)


@dataclass(frozen=True)
class WeylValue:
    """Weyl function value ``m = phi_minus / theta_minus`` at ``z``."""

    z: complex
    m: complex

    def __post_init__(self):
        if self.z.imag > 0 and self.m.imag <= 0:
            raise InvariantViolation(
                f"Weyl function lost the Herglotz property at z={self.z!r}: m={self.m!r}"
            )


def weyl_function(H: Hamiltonian, z: complex) -> WeylValue:
    """Evaluate the Weyl function in the upper half-plane."""
    z = complex(z)
    if z.imag <= 0:
        raise ValidationError("Weyl function is evaluated for Im z > 0 only")
    M = transfer_entries(H, H.ell, np.asarray(z))
    tm = M[1, 0]
    if tm == 0:
        raise NumericalError("theta_minus vanished off the real axis: propagation failure")
    return WeylValue(z, complex(M[1, 1] / tm))


#: ``B_2k / (2k)`` for ``k = 1..7``: the terms of the digamma's asymptotic series
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def _digamma(z: complex) -> complex:
    """Digamma function ``psi(z)`` for ``Re z > 0``.

    The recurrence ``psi(z) = psi(z + 1) - 1/z`` (DLMF 5.5.2) moves ``z``
    out to ``|z| >= 10``, where ``psi(z) = log z - 1/(2z) - sum_k B_2k /
    (2k z^2k)`` (DLMF 5.11.2) is summed to seven terms; the first omitted
    term is below ``5e-17``.
    """
    shift = 0.0
    while abs(z) < 10.0:
        shift += 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    series = 0.0
    for coef in reversed(_PSI_SERIES):
        series = (series + coef) * w
    return np.log(z) - 0.5 / z - series - shift


def herglotz_constants(H: Hamiltonian, mu: SpectralMeasure) -> tuple[float, float]:
    """Additive and linear Herglotz constants, returned as ``(b, c)``.

    Evaluating the representation at ``z = i`` gives
    ``c = Re m(i)`` and ``b = Im m(i) - (1/pi) * sum mass/(1+t^2)``.
    The sum over atoms outside the window is estimated with the lattice
    continuation :meth:`~canspec.model.SpectralMeasure.tail_lattices` at
    the spacing ``h = pi / type`` of the system's exponential type.  Each
    of its lattices ``first + 2h j`` is summed in closed form,
    ``sum_{j >= 0} 1/(1 + (first + 2h j)^2) = Im psi((first + i)/(2h)) /
    (2h)``, where the digamma ``psi`` comes from the recurrence
    ``psi(z) = psi(z + 1) - 1/z`` (DLMF 5.5.2) and the asymptotic series
    (DLMF 5.11.2), see :func:`_digamma`.  A weight of type 0 has no such
    lattice and raises :class:`ValidationError`.
    """
    lam = exponential_type(H)
    if not lam > 0.0:
        raise ValidationError("weight has exponential type 0: no lattice continues the atoms")
    m_i = weyl_function(H, 1j).m
    c = float(m_i.real)
    window_sum = float(np.sum(mu.masses / (1.0 + mu.positions**2)) / np.pi)
    spacing = np.pi / lam
    step = 2.0 * spacing
    tail = 0.0
    for _, first, mass in mu.tail_lattices(spacing):
        tail += mass * _digamma((first + 1j) / step).imag / (step * np.pi)
    b = float(m_i.imag) - window_sum - tail
    # the hard floor is widened by a fraction of the applied correction:
    # the lattice continuation is a model, and its own error scales with
    # the size of the tail it replaces
    if b < -max(1e-6, 0.05 * tail):
        raise NumericalError(
            f"estimated linear Herglotz constant b={b:.3e} is significantly negative; "
            "the measure window is too small"
        )
    return b, c
