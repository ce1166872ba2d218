"""Direct spectral problem for piecewise-constant canonical systems.

The first-order system ``J X' = z H X`` with a constant 2x2 weight on a
segment has the exact propagator ``exp(d * A)`` with ``A = -z J H``.
Since ``A`` is traceless, the exponential reduces to two entire scalar
functions of ``delta = z**2 det(H) d**2``, which keeps the propagation
spectrally exact at arbitrary ``|z|`` and preserves the determinant.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

from .model import (
    Hamiltonian,
    InvariantViolation,
    NumericalError,
    SpectralMeasure,
    TransferMatrix,
    ValidationError,
    band_mass_pair,
    merge_close_atoms,
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
    "weyl_titchmarsh",
    "quadrature_grid",
    "exponential_type",
    "type_inverse",
]


# ---------------------------------------------------------------------------
# scalar coefficient functions of the 2x2 exponential
# ---------------------------------------------------------------------------


def _cs(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entire functions ``cos(sqrt(delta))`` and ``sin(sqrt(delta))/sqrt(delta)``.

    For real nonnegative ``delta`` (real spectral parameter) both stay in
    ``[-1, 1]``; only the removable singularity at 0 needs a series.
    """
    delta = np.asarray(delta)
    if np.iscomplexobj(delta):
        w = np.sqrt(delta.astype(complex))
    else:
        w = np.sqrt(np.maximum(delta, 0.0)) if np.all(delta >= 0) else np.sqrt(delta.astype(complex))
    small = np.abs(delta) < 1e-12
    w_safe = np.where(small, 1.0, w)
    c = np.cos(w)
    s = np.where(small, 1.0 - delta / 6.0, np.sin(w_safe) / w_safe)
    return c, s


def _csd(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """As :func:`_cs` plus ``D = (C - S)/delta`` (needed for z-derivatives).

    ``C - S`` cancels to ``O(delta)`` near 0, so a short series takes over
    below ``|delta| = 1e-4``.
    """
    delta = np.asarray(delta)
    c, s = _cs(delta)
    small = np.abs(delta) < 1e-4
    delta_safe = np.where(small, 1.0, delta)
    series = -1.0 / 3.0 + delta / 30.0 - delta**2 / 840.0 + delta**3 / 45360.0
    d = np.where(small, series, (c - s) / delta_safe)
    return c, s, d


def _effective_lengths(H: Hamiltonian, r) -> np.ndarray:
    """Segment lengths clipped to ``[0, r]``, shape ``r.shape + (nsegments,)``."""
    r = np.asarray(r, dtype=float)
    if not np.all((r >= -1e-15) & (r <= H.ell * (1 + 1e-12) + 1e-15)):
        raise ValidationError(f"r={r!r} outside [0, {H.ell!r}]")
    return np.clip(np.minimum(H.edges[1:], r[..., None]) - H.edges[:-1], 0.0, None)


def _generators(H: Hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment ``K = -J H`` and ``det H``."""
    h = H.matrices
    K = np.stack([h[:, 0, 1], h[:, 1, 1], -h[:, 0, 0], -h[:, 0, 1]], axis=-1).reshape(-1, 2, 2)
    # determinants within PSD slack of zero behave as rank-one segments
    return K, np.maximum(H.determinants(), 0.0)


def _factor(z: np.ndarray, d, K: np.ndarray, det, derivative: bool):
    """Exact segment factors ``exp(d A)`` at the points ``z`` and, on request, ``dF/dz``.

    ``d`` and ``det`` are scalars or one per point; ``K`` is one generator or one per point.
    """
    eye = np.eye(2)
    z2 = z**2
    gamma = det * d * d
    delta = z2 * gamma
    if derivative:
        c, s, dd = _csd(delta)
    else:
        c, s = _cs(delta)
    F = c[:, None, None] * eye + (s * z * d)[:, None, None] * K
    if not derivative:
        return F, None
    # dF/dz = -z*gamma*S*I + (z^2*gamma*D + S) * d * K
    dF = (-z * gamma * s)[:, None, None] * eye + ((z2 * gamma * dd + s) * d)[:, None, None] * K
    return F, dF


def _propagate(
    H: Hamiltonian, r, z, derivative: bool = False, running: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Segment products ``M(r, z)`` and, on request, ``dM/dz``.

    ``r`` and ``z`` broadcast together; every point multiplies the exact
    segment factors over its own ``[0, r]``.  A segment the point does not
    reach has length 0, whose factor is exactly the identity.  Returns
    arrays of shape ``broadcast + (2, 2)`` (real for real ``z``) and
    ``None`` for the derivative unless it is asked for.  ``running``
    stacks the products at ``edges[:reached]`` and ``r`` on a leading axis.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z)
    shape = np.broadcast_shapes(r.shape, z.shape)
    z = np.broadcast_to(z, shape).reshape(-1)
    if r.ndim:
        r = np.broadcast_to(r, shape).reshape(-1)
    # per-segment lengths of each point, computed once: (nsegments,) or (nsegments, n)
    steps = _effective_lengths(H, r).T
    reached = int(np.count_nonzero(H.edges[:-1] < np.max(r, initial=0.0)))
    K, dets = _generators(H)
    M = np.broadcast_to(np.eye(2), (z.size, 2, 2)).astype(complex if np.iscomplexobj(z) else float)
    dM = np.zeros_like(M) if derivative else None
    trail = [M]
    for d, Kj, detj in zip(steps[:reached], K, dets):
        F, dF = _factor(z, d, Kj, detj, derivative)
        if derivative:
            dM = dF @ M + F @ dM
        M = F @ M
        if running:
            trail.append(M)
    out = shape + (2, 2)
    if running:
        M, out = np.stack(trail), (len(trail),) + out
    return M.reshape(out), None if dM is None else dM.reshape(shape + (2, 2))


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
    shape of ``z``.
    """
    M, dM = _propagate(H, r, z, derivative=True)
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
    """Integral of ``sqrt(det H)`` up to ``r`` (defaults to the endpoint)."""
    r = H.ell if r is None else float(r)
    eff = _effective_lengths(H, r)
    return float(np.sum(np.sqrt(np.maximum(H.determinants(), 0.0)) * eff))


def type_inverse(H: Hamiltonian, s: float) -> float:
    """Position ``r`` with ``integral_0^r sqrt(det H) = s`` (chain point).

    Exact for piecewise-constant weights; requires ``det > 0`` on the
    segment where ``s`` lands.
    """
    roots = np.sqrt(np.maximum(H.determinants(), 0.0))
    cum = np.concatenate([[0.0], np.cumsum(roots * H.lengths)])
    total = cum[-1]
    if not -1e-12 <= s <= total * (1 + 1e-12):
        raise ValidationError(f"s={s!r} outside [0, {total!r}]")
    s = min(max(s, 0.0), total)
    i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(roots) - 1)
    i = max(i, 0)
    if roots[i] == 0.0:
        raise NumericalError("chain point falls on a rank-deficient segment")
    return float(H.edges[i] + (s - cum[i]) / roots[i])


# ---------------------------------------------------------------------------
# zeros of theta_minus and the spectral measure
# ---------------------------------------------------------------------------


#: Refinement passes before :func:`find_zeros` gives up; plain bisection would
#: take ``log2(step / 1e-14)``, 45 at the default step of a type-pi weight.
_REFINE_PASSES = 64


def find_zeros(H: Hamiltonian, window: float, step: float | None = None) -> np.ndarray:
    """All real zeros of ``theta_minus(ell, .)`` in ``[-window, window]``.

    A sign-change scan (``step`` must stay below ``pi / (2 * type)`` so no
    crossing is skipped) brackets each root and seeds it at the secant
    point.  Each pass then propagates ``theta_minus`` and its z-derivative
    once at all roots; the sign shrinks each bracket, and a Newton step
    that would leave it becomes the bracket midpoint.  Zeros found on the
    scan grid and the origin (always included) keep the fixed bracket
    ``x +- step``.  Once every Newton correction is below ``1e-14 (1 +
    |x|)`` the loop stops; after ``_REFINE_PASSES`` passes without that it
    raises :class:`NumericalError`.
    """
    ell = H.ell
    lam = exponential_type(H, ell)
    max_step = np.pi / (2.0 * lam) if lam > 0 else window
    if step is None:
        step = 0.5 * max_step
    if step > max_step * (1 + 1e-9):
        raise ValidationError(
            f"scan step {step!r} exceeds pi/(2*type)={max_step!r}; zeros could be skipped"
        )

    n = int(np.ceil(2 * window / step)) + 1
    grid = np.linspace(-window, window, n)
    vals = transfer_entries(H, ell, grid)[..., 1, 0].real

    scale = max(float(np.median(np.abs(vals))), 1e-300)
    on_zero = np.abs(vals) <= 1e-9 * scale

    sign = np.sign(vals)
    bracket = (sign[:-1] * sign[1:] < 0) & ~on_zero[:-1] & ~on_zero[1:]
    lo, hi = grid[:-1][bracket], grid[1:][bracket]
    flo, fhi = vals[:-1][bracket], vals[1:][bracket]
    fixed = np.concatenate([grid[on_zero], [0.0]])
    x = np.concatenate([lo - flo * (hi - lo) / (fhi - flo), fixed])
    lo = np.concatenate([lo, fixed - step])
    hi = np.concatenate([hi, fixed + step])
    # a zero sign marks a fixed bracket: neither of the tests below moves it
    flo = np.concatenate([flo, np.zeros_like(fixed)])
    for _ in range(_REFINE_PASSES):
        _, fx, _, dfx = theta_and_derivative(H, ell, x)
        fx, dfx = np.real(fx), np.real(dfx)
        same, opposite = fx * flo > 0, fx * flo < 0
        lo, flo = np.where(same, x, lo), np.where(same, fx, flo)
        hi = np.where(opposite, x, hi)
        dx = fx / np.where(np.abs(dfx) < 1e-300, 1e-300, dfx)
        newton = x - dx
        done = np.abs(dx) <= 1e-14 * (1.0 + np.abs(newton))
        # a converged root keeps its place rather than step out of its bracket
        x = np.where((newton >= lo) & (newton <= hi), newton, np.where(done, x, 0.5 * (lo + hi)))
        if np.all(done):
            break
    else:
        raise NumericalError(
            f"zero refinement did not converge in {_REFINE_PASSES} passes near "
            f"t={x[~done][:3]!r}"
        )
    x[np.abs(x) < 1e-12] = 0.0

    ok = np.abs(x) <= window * (1 + 1e-12)
    x = np.sort(x[ok])
    pos, _ = merge_close_atoms(x, np.ones_like(x))
    pos[np.abs(pos) < 1e-12] = 0.0

    gaps = np.diff(pos)
    if lam > 0 and gaps.size and np.max(gaps) > 1.5 * np.pi / lam:
        warnings.warn(
            "consecutive zeros further apart than 1.5*pi/type; scan step may be too coarse",
            RuntimeWarning,
            stacklevel=2,
        )
    return pos


def spectral_measure(H: Hamiltonian, window: float, step: float | None = None) -> SpectralMeasure:
    """Principal spectral measure of the system, truncated to a window.

    Atoms sit at the real zeros of ``theta_minus(ell, .)``; each mass is
    ``-pi / (theta_plus * d/dz theta_minus)`` at the zero, the reciprocal
    of the reproducing kernel's diagonal value there.  The Herglotz
    constants are estimated and stored on the result.
    """
    if not H.is_compatible():
        raise ValidationError(
            "boundary segment proportional to the lower-right rank-one matrix; "
            "the measure atoms are not defined for such weights"
        )
    zeros = find_zeros(H, window, step)
    tp, _, _, dm = theta_and_derivative(H, H.ell, zeros)
    masses = -np.pi / (np.real(tp) * np.real(dm))
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


def herglotz_constants(H: Hamiltonian, mu: SpectralMeasure) -> tuple[float, float]:
    """Additive and linear Herglotz constants, returned as ``(b, c)``.

    Evaluating the representation at ``z = i`` gives
    ``c = Re m(i)`` and ``b = Im m(i) - (1/pi) * sum mass/(1+t^2)``.
    The sum over atoms outside the window is estimated with the free
    lattice model at the system's exponential type (spacing ``h = pi /
    type``), continued from the outermost observed atom ``A`` on each side
    so the asymptotic phase of the zero sequence is inherited.  Asymptotic
    masses may alternate, so the model continues the parity pattern of
    :func:`~canspec.model.band_mass_pair`: the next atoms ``A + h, A + 3h,
    ...`` carry one mass and ``A + 2h, A + 4h, ...`` the other.  Each
    parity is a lattice of spacing ``2h`` summed in closed form,
    ``sum_{j >= 1} 1/(1 + (a + 2h j)^2) = Im psi(1 + (a + i)/(2h)) / (2h)``
    with the digamma function ``psi`` and ``a = A - h`` or ``a = A``.
    """
    m_i = weyl_function(H, 1j).m
    c = float(m_i.real)
    window_sum = float(np.sum(mu.masses / (1.0 + mu.positions**2)) / np.pi)
    spacing = np.pi / exponential_type(H)
    tail = 0.0
    for side in (1.0, -1.0):
        order = np.argsort(side * mu.positions)
        anchor = abs(float(np.max(side * mu.positions)))
        m_next, m_after = band_mass_pair(mu.masses[order])
        for mass, start in ((m_next, anchor - spacing), (m_after, anchor)):
            lattice_sum = scipy.special.psi(1.0 + (start + 1j) / (2.0 * spacing)).imag
            tail += mass * lattice_sum / (2.0 * spacing * np.pi)
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


# ---------------------------------------------------------------------------
# Weyl-Titchmarsh transform by composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def quadrature_grid(H: Hamiltonian, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite 8-point Gauss-Legendre grid aligned with segments on ``[0, r]``."""
    eff = _effective_lengths(H, r)
    d = eff[eff > 0.0][:, None]
    lo = H.edges[: d.shape[0], None]
    return (lo + 0.5 * d * (_GL_NODES + 1.0)).ravel(), (0.5 * d * _GL_WEIGHTS).ravel()


def weyl_titchmarsh(
    H: Hamiltonian,
    r: float,
    X: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    z: complex,
) -> complex:
    """Spectral transform of a vector function on ``[0, r]`` at ``z``.

    Computes ``(1/sqrt(pi)) * integral_0^r <H(t) X(t), Theta(t, conj(z))> dt``
    by segment-aligned Gauss-Legendre quadrature of order 8.  ``X`` is a
    callable returning shape ``(n, 2)`` for an array of positions, or an
    array of samples matching :func:`quadrature_grid` exactly.
    """
    nodes, weights = quadrature_grid(H, r)
    if len(nodes) == 0:
        return 0.0
    if callable(X):
        xv = np.asarray(X(nodes))
    else:
        xv = np.asarray(X)
        if xv.shape != (len(nodes), 2):
            raise ValidationError(
                f"sample grid misalignment: expected {(len(nodes), 2)} samples "
                f"matching quadrature_grid, got {xv.shape}"
            )
    if xv.shape != (len(nodes), 2):
        raise ValidationError(f"X must produce shape {(len(nodes), 2)}, got {xv.shape}")
    hmat = H.sample(nodes)
    hx = np.einsum("nij,nj->ni", hmat, xv)
    # <u, Theta(t, conj(z))> with real-coefficient entire Theta reduces to
    # the bilinear pairing against Theta(t, z).  Each node continues the
    # running product at its segment's left edge by one partial factor.
    seg = np.searchsorted(H.edges, nodes, side="right") - 1
    K, dets = _generators(H)
    F = _factor(np.full(nodes.shape, z), nodes - H.edges[seg], K[seg], dets[seg], False)[0]
    theta = (F @ _propagate(H, r, z, running=True)[0][seg])[:, :, 0]
    integrand = hx[:, 0] * theta[:, 0] + hx[:, 1] * theta[:, 1]
    return complex(np.sum(weights * integrand) / np.sqrt(np.pi))
