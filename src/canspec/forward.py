"""Direct spectral problem for piecewise-constant canonical systems.

On a segment of constant weight, ``J X' = z H X`` has the exact propagator
``exp(-z d J H)``; its exponent is traceless, so it reduces to two entire
scalar functions of ``delta = z**2 det(H) d**2``, exact at any ``|z|`` and
with determinant 1.  One such pass over a real grid brackets the zeros of
``theta_minus(ell, .)``, the atoms of the spectral measure, and counts them.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ZERO_ATOM_TOL,
    Hamiltonian,
    InvariantViolation,
    NumericalError,
    SpectralMeasure,
    TransferMatrix,
    ValidationError,
    _det_drift,
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
    if not small.any():
        return c, np.sin(w) / w
    w[small] = 1.0
    s = np.sin(w) / w
    s[small] = 1.0 - delta[small] / 6.0
    return c, s


def _effective_lengths(H: Hamiltonian, r: float) -> np.ndarray:
    """Segment lengths clipped to ``[0, r]``."""
    r = float(r)
    if not -1e-15 <= r <= H.ell * (1 + 1e-12) + 1e-15:
        raise ValidationError(f"r={r!r} outside [0, {H.ell!r}]")
    return np.clip(np.minimum(H.edges[1:], r) - H.edges[:-1], 0.0, None)


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


#: Segment-point pairs whose factors :func:`_propagate` evaluates at once: on
#: the derivative and two-column passes, and on the one-column scan.
_BLOCK_PAIRS = 4096
_SCAN_PAIRS = 4 * _BLOCK_PAIRS

#: Most points of a :func:`find_zeros` scan grid, checked before it is made
#: (128 MiB per float array over the grid)
_SCAN_POINTS = 2**24


def _propagate(
    H: Hamiltonian, r: float, z, derivative: bool = False, columns: int = 2
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Segment product ``M(r, z)``, on request ``dM/dz``, and the scan's zero counts.

    A segment of length ``d`` inside ``[0, r]`` contributes the exact factor
    ``F = C I + s K``, ``K = -J H``, with ``C = cos(omega z)``, ``s =
    sin(omega z) / sqrt(det H)`` and ``omega = d sqrt(det H)`` (from
    :func:`_cs` at ``delta = z**2 det(H) d**2``), so ``dF = -det(H) d s I +
    d C K`` (``d K`` on rank one) needs no further scalar function.

    The one-column pass without the derivative is the zero scan of
    :func:`find_zeros`, on a uniform real grid such as ``np.linspace`` makes
    (else :class:`ValueError`).  It takes ``F = Re e I + Im e K / sqrt(det
    H)`` from the phases ``e`` of :func:`_grid_phases` (``1 + i z`` and ``d
    K`` on rank one): about ``2 sqrt(n)`` exponentials per segment in place
    of ``n`` cosines and ``n`` sines, each off by the roundoff of its
    argument plus the grid's deviation from uniform, at most ``4 eps max|z|``.

    The scan also returns Sturm's counts of the zeros of ``theta_minus(r,
    .)`` from 0 to its ends ``z[0]``, ``z[-1]`` (Bailey, Everitt & Zettl,
    SLEIGN2, ACM TOMS 27, 2001): a segment turns ``theta`` by ``floor(omega
    |z| / pi)`` half-turns and less than one more, which crosses
    ``theta_minus = 0`` where its sign before, flipped per half-turn and
    nonzero, differs from its sign after.

    The loop carries the first ``columns`` columns of ``M`` (and ``dM``) over
    the points; ``columns`` is 1 for the scan and :func:`theta_and_derivative`,
    which read only ``theta``.  A block's factors are built once in the layout
    the loop reads, ``A[j, -1, k, i]`` entry ``(i, k)`` of segment ``j``'s
    ``F`` and ``A[j, 0, k, i]`` that of ``dF``; two products and three sums
    give ``M = F M`` and ``dM = (dF M) + (F dM)`` written out, so a point's
    value does not depend on the other points of the call.  ``_BLOCK_PAIRS``
    segment-point pairs per block bound memory (all segments at once raised a
    1000-segment spectral measure's peak from 86 to 196 MiB); the scan's
    thousands of points would leave a segment or two per block, so it takes
    ``_SCAN_PAIRS``, and its factors hold no derivative.

    Returns ``M`` of shape ``z.shape + (2, columns)`` (real for real ``z``),
    then ``dM`` if asked and the two counts from the scan, else ``None``.
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
        # theta_minus at the two ends, from theta = (1, 0) and after each segment
        edges, ends = np.array([0, z.size - 1]), [np.zeros(2)]
    lengths = _effective_lengths(H, r)
    # the segments reached by r are a prefix, each of positive length
    n = int(np.count_nonzero(lengths > 0))
    d = lengths[:n, None]
    det = H.determinants()[:n, None]
    gamma = det * d * d
    h = H.matrices[:n]
    # K = -J H per segment, K[j, k, i] entry (i, k), with axes for M's columns and the points
    K = np.stack([h[:, 0, 1], -h[:, 0, 0], h[:, 1, 1], -h[:, 0, 1]], -1).reshape(-1, 2, 2, 1, 1)
    if tables:
        root = np.sqrt(det)
        omega, rank_one = d * root, root == 0.0
        K = K * np.where(rank_one, d, 1.0 / np.where(rank_one, 1.0, root))[..., None, None, None]
    # M[i, k] is entry (i, k) as an array over the points
    M = np.eye(2)[:, :columns, None]
    dM = np.zeros_like(M)
    rows = max(1, (_SCAN_PAIRS if tables else _BLOCK_PAIRS) // max(z.size, 1))
    factors = np.empty((min(rows, n), 2 if derivative else 1, 2, 2, 1, z.size), dtype)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        if tables:
            e = _grid_phases(z, run, omega[block], rank_one[block])
            c, s = e.real, e.imag
        else:
            c, s = _cs(z2 * gamma[block])
            s = s * z * d[block]
        pairs = [(-(det[block] * d[block]) * s, d[block] * c)] if derivative else []
        A = factors[: len(c)]
        for g, (diagonal, scale) in enumerate(pairs + [(c, s)]):
            np.multiply(scale[:, None, None, None], K[block], out=A[:, g])
            A[:, g, 0, 0, 0] += diagonal
            A[:, g, 1, 1, 0] += diagonal
        for f in A:
            # (dF, F)[k, i] M[k] summed over k: dF M and the new M in one pass
            fM = f * M[:, None]
            fM = fM[:, 0] + fM[:, 1]
            if derivative:
                fdM = f[-1] * dM[:, None]
                dM = fM[0] + (fdM[0] + fdM[1])
            M = fM[-1]
            if tables:
                ends.append(M[1, 0, edges])

    def points_first(A):
        A = np.broadcast_to(A, (2, columns, z.size))
        return np.moveaxis(A, -1, 0).astype(dtype, order="C").reshape(shape)

    counts = None
    if tables:
        half, sign = np.floor(omega * np.abs(z[edges]) / np.pi), np.sign(ends)
        before = sign[:-1] * (-1.0) ** half
        counts = np.sum(half + ((before != sign[1:]) & (before != 0)), axis=0).astype(int)
    return points_first(M), points_first(dM) if derivative else None, counts


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
    M, dM, _ = _propagate(H, r, z, derivative=True, columns=1)
    # [()] turns the 0-d results of a scalar z into scalars
    return M[..., 0, 0][()], M[..., 1, 0][()], dM[..., 0, 0][()], dM[..., 1, 0][()]


def det_residual(H: Hamiltonian, z) -> float:
    """Largest ``|det M(ell, z) - 1| / (1 + |M|^2)`` over the spectral parameters ``z``.

    The exact segment factors have unit determinant, so this measures the
    drift of one propagation to the endpoint, by the rule that
    :class:`~canspec.model.TransferMatrix` applies.
    """
    return float(np.max(_det_drift(transfer_entries(H, H.ell, np.asarray(z))), initial=0.0))


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
#: take ``log2(step / 1e-14)``, 45 at the scan step of a type-pi weight.
_REFINE_PASSES = 64

#: Scan values in the interpolant that seeds each bracket of :func:`find_zeros`,
#: half on each side.  The scan samples the entire ``theta_minus(ell, .)`` at
#: four times the Nyquist rate of its type, so the interpolant converges
#: geometrically: on a 1000-segment smooth weight the largest seed error over the
#: 398 inner brackets is 1.5e-2 at the secant point and 9.5e-9 with 16 values
#: (5.3e-6 at an end, where the stencil is one-sided).
_SEED_STENCIL = 16


def _interpolated_seeds(grid, vals, left, secant):
    """Roots of local interpolants of the scan, one per bracket.

    Bracket ``k`` is ``(grid[left[k]], grid[left[k] + 1])``.  Its stencil is
    ``_SEED_STENCIL`` consecutive scan points centered on the bracket and
    shifted inside the grid at its ends (all points if the grid is shorter).
    The barycentric Lagrange interpolant through them, with the equispaced
    weights ``(-1)^j binom(m - 1, j)``, takes six Newton steps from the
    secant point (two already reach roundoff at the scan step), its
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


def _scan(H: Hamiltonian, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``theta_minus(ell, .)`` on a scan grid symmetric about 0, and its zeros.

    Returns the values, their points on a zero (``|theta_minus| <= 1e-9
    |theta|``) and bounds ``(low, high)`` on the zeros in the grid's span:
    the origin plus the Sturm counts ``N`` of :func:`_propagate` at the ends,
    which count an end on a zero iff ``sign theta_plus = (-1)^N`` there.
    """
    M, _, counts = _propagate(H, H.ell, grid, columns=1)
    tp, tm = M[:, 0, 0], M[:, 1, 0]
    on_zero = np.abs(tm) <= 1e-9 * np.hypot(tp, tm)
    edge = on_zero[[0, -1]]
    low = int(np.sum(counts) - np.sum(edge & (tp[[0, -1]] * (-1.0) ** counts > 0))) + 1
    return tm, on_zero, low, low + int(np.sum(edge))


def find_zeros(H: Hamiltonian, window: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All real zeros of ``theta_minus(ell, .)`` in ``[-window, window]``.

    Returns ``(zeros, theta_plus, dtheta_minus)``: the sorted zeros and,
    at each of them, ``theta_plus(ell, .)`` and the z-derivative of
    ``theta_minus(ell, .)``, bitwise what :func:`theta_and_derivative`
    gives at the returned zeros.

    The sign changes of :func:`_scan` at step ``pi / (4 type)`` bracket the
    roots, the origin among them (``d theta_minus/dz = -int h11 < 0`` there);
    the scan agrees with :func:`transfer_entries` within ``4 eps (segments +
    type * window)`` of ``max |theta_minus|``, with equal signs wherever
    ``|theta_minus| > 1e-9 |theta|`` (tested).  Each bracket is seeded by
    :func:`_interpolated_seeds`, then each pass propagates ``theta_minus``
    and its z-derivative once at the roots still moving: the sign shrinks
    each bracket, and a Newton step that would leave it becomes the bracket
    midpoint (``x +- step`` for a grid point on a zero).  A root stops once
    its Newton correction is below ``1e-14 (1 + |x|)``; roots still moving
    after ``_REFINE_PASSES`` passes raise :class:`NumericalError`.  Each
    root keeps the values of its last evaluation, and only the roots that
    the final Newton step moved are propagated once more.

    The scan misses zeros that pair up closer than its step, as next to
    rank-one segments, so a count outside its Sturm bounds raises
    :class:`NumericalError` naming both.  A weight of type 0, whose
    ``theta_minus`` is a polynomial, and a window whose scan grid would
    exceed ``_SCAN_POINTS`` points raise :class:`ValidationError`.
    """
    if not 0.0 < window < np.inf:
        raise ValidationError(f"window={window!r} must be positive and finite")
    ell = H.ell
    lam = exponential_type(H, ell)
    if not lam > 0.0:
        raise ValidationError("weight has exponential type 0 (every segment is rank one)")
    step = np.pi / (4.0 * lam)
    count = np.ceil(2 * window / step)
    if not count + 1 <= _SCAN_POINTS:
        raise ValidationError(
            f"window={window!r} needs {count + 1:g} scan points at step {step:.3g}, over the "
            f"cap of {_SCAN_POINTS}"
        )
    grid = np.linspace(-window, window, int(count) + 1)
    vals, on_zero, low, high = _scan(H, grid)
    sign = np.sign(vals)
    left = np.flatnonzero((sign[:-1] * sign[1:] < 0) & ~on_zero[:-1] & ~on_zero[1:])
    lo, hi = grid[left], grid[left + 1]
    flo, fhi = vals[left], vals[left + 1]
    fixed = grid[on_zero]
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
    pos, tp, dm = zeros[keep], tp[keep], dm[keep]
    # the kernel's value at a point does not depend on the other points of
    # the call, so this equals a propagation at every returned zero
    moved = pos != at[keep]
    if np.any(moved):
        tp[moved], _, _, dm[moved] = theta_and_derivative(H, ell, pos[moved])

    if not low <= pos.size <= high:
        raise NumericalError(
            f"the scan counts {low if low == high else f'{low} to {high}'} zeros in [-{window:g}, "
            f"{window:g}] by Sturm's rule and found {pos.size}: it missed close zeros"
        )
    return pos, tp, dm


def spectral_measure(H: Hamiltonian, window: float) -> SpectralMeasure:
    """Principal spectral measure of the system, truncated to a window.

    Atoms sit at the real zeros of ``theta_minus(ell, .)``; each mass is
    ``-pi / (theta_plus * d/dz theta_minus)`` at the zero, the reciprocal
    of the reproducing kernel's diagonal value there, from the evaluation
    that :func:`find_zeros` made at the converged zero.  The additive
    Herglotz constant is stored once :func:`herglotz_constants` passes.
    """
    if not H.is_compatible():
        raise ValidationError(
            "boundary segment proportional to the lower-right rank-one matrix; "
            "the measure atoms are not defined for such weights"
        )
    zeros, tp, dm = find_zeros(H, window)
    masses = -np.pi / (tp * dm)
    if np.any(masses <= 0):
        bad = zeros[masses <= 0]
        raise NumericalError(
            f"nonpositive atom mass near t={bad[:3]!r}: zero refinement or compatibility failure"
        )
    # a provisional c: herglotz_constants reads the atoms, never the c
    mu = SpectralMeasure(zeros, masses, window, herglotz_c=0.0)
    c, _ = herglotz_constants(H, mu)
    return replace(mu, herglotz_c=c)


@dataclass(frozen=True)
class WeylValue:
    """Weyl function value ``m = phi_minus / theta_minus`` at ``z``."""

    z: complex
    m: complex

    def __post_init__(self):
        if not np.isfinite(self.m):
            raise NumericalError(f"Weyl function is not finite at z={self.z!r}: m={self.m!r}")
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


#: largest relative error of the tail model at ``z = i`` (calibration in the README)
TAIL_MODEL_TOL = 0.15


def _bernoulli_numbers(n: int) -> tuple[tuple[int, int], ...]:
    """Exact ``B_0, B_2, ..., B_2n`` as reduced ``(numerator, denominator)`` pairs.

    Entry ``k`` is ``B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))`` for ``k >=
    1``, from the tangent numbers ``T_k`` (the derivatives of ``tan`` at 0),
    which the integer recurrence of Brent and Harvey (arXiv:1108.0286,
    Algorithm TangentNumbers) builds in place.
    """
    tangent = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    table = [(1, 1)]
    for k in range(1, n + 1):
        num, den = (-1) ** (k - 1) * 2 * k * tangent[k], 4**k * (4**k - 1)
        g = math.gcd(num, den)
        table.append((num // g, den // g))
    return tuple(table)


#: ``B_2k`` for ``k = 0..25``, the one table of the asymptotic series here
#: and of the Euler-Maclaurin corrections of :mod:`canspec.inverse`
_BERNOULLI = _bernoulli_numbers(25)

#: ``B_2k / (2k)`` for ``k = 1..7``: the terms of the digamma's asymptotic series
#: (int/int division rounds correctly)
_PSI_SERIES = tuple(num / (2 * k * den) for k, (num, den) in enumerate(_BERNOULLI[1:8], 1))


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
    """Additive Herglotz constant and the window's tail residual, as ``(c, r)``.

    A weight that :meth:`~canspec.model.Hamiltonian.is_compatible` accepts
    does not start with a multiple of ``e2 e2^T``, so its Weyl function has
    no linear term (L. de Branges, 1968; C. Remling, *Spectral Theory of
    Canonical Systems*, 2018): ``c = Re m(i)`` and ``Im m(i) = (1/pi) *
    sum mass/(1+t^2)`` over all atoms.  The atoms beyond the window are
    modelled by :attr:`~canspec.model.SpectralMeasure.tail_lattices` at the
    spacing ``h = pi / mu.type``, each lattice ``first + 2h j`` summed in
    closed form as ``Im psi((first + i)/(2h)) / (2h)`` (:func:`_digamma`).
    ``r = (Im m(i) - window sum - tail) / tail`` is the model's relative
    error; above :data:`TAIL_MODEL_TOL`, or on a lone atom, which fits no
    type, the window is too small and raises :class:`NumericalError`.
    """
    if mu.positions.size < 2:
        raise NumericalError(
            f"the tail model beyond window {mu.window:g} needs two atoms; enlarge the window"
        )
    m_i = weyl_function(H, 1j).m
    c = float(m_i.real)
    window_sum = float(np.sum(mu.masses / (1.0 + mu.positions**2)) / np.pi)
    step = 2.0 * np.pi / mu.type
    tail = 0.0
    for _, first, mass in mu.tail_lattices:
        tail += mass * _digamma((first + 1j) / step).imag / (step * np.pi)
    r = (float(m_i.imag) - window_sum - tail) / tail
    if not abs(r) <= TAIL_MODEL_TOL:
        raise NumericalError(
            f"the lattice tail model beyond window {mu.window:g} is off by {r:+.1%} at "
            f"z = i (tolerance {TAIL_MODEL_TOL:.0%}); enlarge the window"
        )
    return c, r
