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
    H: Hamiltonian, r: float, z, derivative: bool = False, columns: int = 2, angle: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Segment product ``M(r, z)`` and, on request, ``dM/dz`` and the Prüfer angle.

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

    The factors are evaluated for blocks of at most ``_BLOCK_PAIRS``
    segment-point pairs in a few array operations; the cap bounds memory
    (all segments at once raised a 1000-segment spectral measure's peak from
    86 to 196 MiB, and ran slower).  The sequential loop carries the first
    ``columns`` columns of ``M`` (and ``dM``) as arrays over the points, with
    the 2x2 product written out; ``columns`` is 1 for the scan and
    :func:`theta_and_derivative`, which read only the first column ``theta``.

    ``angle`` (real ``z``) carries the Prüfer angle of ``theta`` (see
    :func:`_zero_count`): a segment adds ``pi floor(omega |z| / pi)`` (0 on
    rank one) and the turn from ``(-1)^k theta`` before it to ``theta`` after
    it, one ``atan2`` in the turn's direction, in ``[0, pi)`` as a rank-one
    shear's turn is; roundoff near ``pi`` wraps it to near ``-pi``, where
    ``2 pi`` is added back.  It keeps ``theta`` after every segment: few points.

    Returns ``M`` of shape ``z.shape + (2, columns)`` (real for real ``z``),
    then ``dM`` and the angle (shape ``z.shape``), each ``None`` unless asked.
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
    K = np.stack([h[:, 0, 1], h[:, 1, 1], -h[:, 0, 0], -h[:, 0, 1]], axis=-1).reshape(-1, 2, 2, 1)
    if tables:
        root = np.sqrt(det)
        omega, rank_one = d * root, root == 0.0
        K = K * np.where(rank_one, d, 1.0 / np.where(rank_one, 1.0, root))[..., None, None]
    # M[i, k] is entry (i, k) as an array over the points
    M = np.eye(2)[:, :columns, None]
    dM = np.zeros_like(M)
    path = [np.broadcast_to(M, (2, columns, z.size))] if angle else None
    rows = max(1, _BLOCK_PAIRS // max(z.size, 1))
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        if tables:
            e = _grid_phases(z, run, omega[block], rank_one[block])
            F = _factor_columns(e.real, e.imag, K[block])
        else:
            c, s = _cs(z2 * gamma[block])
            s = s * z * d[block]
            F = _factor_columns(c, s, K[block])
        dF = ()
        if derivative:
            dF = _factor_columns(-(det[block] * d[block]) * s, d[block] * c, K[block])
        # f0, f1: one segment's factor columns, each (2, 1, points); g: its derivative's
        for f0, f1, *g in zip(*F, *dF):
            if g:
                dM = g[0] * M[0] + g[1] * M[1] + (f0 * dM[0] + f1 * dM[1])
            M = f0 * M[0] + f1 * M[1]
            if angle:
                path.append(M)

    def points_first(A):
        A = np.broadcast_to(A, (2, columns, z.size))
        return np.moveaxis(A, -1, 0).astype(dtype, order="C").reshape(shape)

    phi = None
    if angle:
        half = np.floor(d * np.sqrt(det) * np.abs(z) / np.pi)
        theta = (np.array(path)[:, :, 0] * [[1.0], [1j]]).sum(axis=1)  # theta_plus + i theta_minus
        turn = -np.sign(z) * np.angle(theta[1:] * np.conj(theta[:-1]) * (-1.0) ** half)
        turn[turn < -0.5 * np.pi] += 2.0 * np.pi
        phi = (-np.sign(z) * np.sum(np.pi * half + turn, axis=0)).reshape(shape[:-2])
    return points_first(M), points_first(dM) if derivative else None, phi


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


def _median(values: np.ndarray) -> float:
    """Bitwise ``np.median`` of a nonempty 1-d array, NaN included, without ``numpy.ma``."""
    n = values.size
    part = np.partition(values, [(n - 1) // 2, n // 2, -1])
    if np.isnan(part[-1]):
        return float("nan")
    return float(part[n // 2] if n % 2 else 0.5 * (part[n // 2 - 1] + part[n // 2]))


def _zero_count(H: Hamiltonian, window: float) -> tuple[int, int]:
    """Bounds ``(low, high)`` on the number of zeros of ``theta_minus(ell, .)`` in ``[-W, W]``.

    The Prüfer angle ``phi(ell, z)`` is 0 at ``z = 0``, strictly monotone in
    ``z`` (``d phi/dz = -int theta^T H theta / |theta(ell)|^2``) and a
    multiple of ``pi`` exactly at the zeros (Bailey, Everitt & Zettl,
    SLEIGN2, ACM TOMS 27, 2001), so ``floor(|phi(-W)| / pi) + floor(|phi(W)|
    / pi) + 1`` zeros lie in the window.  Zeros can sit on its edges (the free
    weight's at ``+-200``), so each end counts ``|phi| -+ 1e-9 (1 + |phi|)``,
    far above the angle's roundoff (below ``2e-16 |phi|`` on the benchmark
    weights) and the ``1e-12`` slack of an edge zero in :func:`find_zeros`.
    """
    phi = np.abs(_propagate(H, H.ell, np.array([-window, window]), columns=1, angle=True)[2])
    ends = (np.maximum(np.floor((phi + e * (1.0 + phi)) / np.pi), 0.0) for e in (-1e-9, 1e-9))
    return tuple(int(np.sum(n)) + 1 for n in ends)


def find_zeros(H: Hamiltonian, window: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All real zeros of ``theta_minus(ell, .)`` in ``[-window, window]``.

    Returns ``(zeros, theta_plus, dtheta_minus)``: the sorted zeros and,
    at each of them, ``theta_plus(ell, .)`` and the z-derivative of
    ``theta_minus(ell, .)``, bitwise what :func:`theta_and_derivative`
    gives at the returned zeros.

    A sign-change scan at step ``pi / (4 type)``, the one-column pass of
    :func:`_propagate`, brackets the roots; it agrees with
    :func:`transfer_entries` within ``4 eps (segments + type * window)`` of
    ``max |theta_minus|``, with equal signs wherever ``|theta_minus|``
    exceeds ``1e-9`` of its median (tested).  Each bracket is seeded by
    :func:`_interpolated_seeds`, then each pass propagates ``theta_minus``
    and its z-derivative once at the roots still moving: the sign shrinks
    each bracket, and a Newton step that would leave it becomes the bracket
    midpoint.  Zeros on the scan grid and the origin (always included) keep
    the bracket ``x +- step``.  A root stops once its Newton correction is
    below ``1e-14 (1 + |x|)``; roots still moving after ``_REFINE_PASSES``
    passes raise :class:`NumericalError`.  Each root keeps the values of its
    last evaluation, and only the roots that the final Newton step moved are
    propagated once more.

    The scan misses zeros that pair up closer than its step, as next to
    rank-one segments, so a count outside the bounds of :func:`_zero_count`
    raises :class:`NumericalError` naming both.  A weight of type 0, whose
    ``theta_minus`` is a polynomial, and a window too wide for a finite scan
    grid raise :class:`ValidationError`.
    """
    if not 0.0 < window < np.inf:
        raise ValidationError(f"window={window!r} must be positive and finite")
    ell = H.ell
    lam = exponential_type(H, ell)
    if not lam > 0.0:
        raise ValidationError("weight has exponential type 0 (every segment is rank one)")
    step = np.pi / (4.0 * lam)
    count = np.ceil(2 * window / step)
    if not np.isfinite(count):
        raise ValidationError(f"window={window!r} over step={step!r} is not a finite scan")
    grid = np.linspace(-window, window, int(count) + 1)
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

    low, high = _zero_count(H, window)
    if not low <= pos.size <= high:
        raise NumericalError(
            f"the Prüfer angle counts {low if low == high else f'{low} to {high}'} zeros in "
            f"[-{window:g}, {window:g}] and the scan found {pos.size}: it missed close zeros"
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
    mu = SpectralMeasure(zeros, masses, window)
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
    """Additive Herglotz constant and the window's tail residual, as ``(c, r)``.

    A weight that :meth:`~canspec.model.Hamiltonian.is_compatible` accepts
    does not start with a multiple of ``e2 e2^T``, so its Weyl function has
    no linear term (L. de Branges, 1968; C. Remling, *Spectral Theory of
    Canonical Systems*, 2018): ``c = Re m(i)`` and ``Im m(i) = (1/pi) *
    sum mass/(1+t^2)`` over all atoms.  The atoms beyond the window are
    modelled by :meth:`~canspec.model.SpectralMeasure.tail_lattices` at
    the spacing ``h = pi / type``, each lattice ``first + 2h j`` summed in
    closed form as ``Im psi((first + i)/(2h)) / (2h)`` (:func:`_digamma`).
    ``r = (Im m(i) - window sum - tail) / tail`` is the model's relative
    error; above :data:`TAIL_MODEL_TOL` the window is too small and raises
    :class:`NumericalError`, and a weight of type 0 :class:`ValidationError`.
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
    r = (float(m_i.imag) - window_sum - tail) / tail
    if not abs(r) <= TAIL_MODEL_TOL:
        raise NumericalError(
            f"the lattice tail model beyond window {mu.window:g} is off by {r:+.1%} at "
            f"z = i (tolerance {TAIL_MODEL_TOL:.0%}); enlarge the window"
        )
    return c, r
