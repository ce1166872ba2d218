"""Finite sections of band-limited quadratic forms in a sinc basis.

The orthonormal sampling basis of the bandwidth-``s`` Paley-Wiener space
is ``phi_k(x) = sqrt(pi/s) * sinc_s(x - pi*k/s)``.  The measure-weighted
quadratic form becomes a symmetric Gram matrix over that basis; its
factorization drives the whole recovery pipeline.

Gram matrices assembled over a windowed measure miss the slowly decaying
atom tail.  The missing part is completed with the free lattice model
at the type estimated from the atom spacing (spacing and masses
``pi / L``): the full lattice sum is the identity by the sampling
theorem, so the completion is ``I`` minus the in-window lattice Gram.
The completion is exact on the free fixture and a controlled heuristic
otherwise.

The completed Gram matrix is assembled in Loewner form (Cauchy-like
displacement structure; Gohberg, Kailath & Olshevsky, Math. Comp. 64,
1995).  With ``phi_j(t) = c_j sin(st)/(t - x_j)``, partial fractions make
each off-diagonal entry the divided difference ``c_j c_k (v_j - v_k) /
(x_j - x_k)`` of one vector ``v``: a single matrix-vector product over the
atoms (signed weight: the mass) and the completion lattice (``-pi/L``).
The nodes ``x_k = pi k/s`` and factors ``c_k = (-1)^k sqrt(pi/s)/pi`` make
the factor ``c_j c_k / (x_j - x_k) = (-1)^(j-k) / (pi^2 (j - k))``
independent of ``s``: a Toeplitz matrix, read as a strided view of one
vector.  Node gaps are at least ``pi/s``, so no digits are lost to small
denominators, and the O(nN) product replaces two O(n^2 N) ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import ComparabilityError, SpectralMeasure, ValidationError

__all__ = [
    "PWBasis",
    "PWOperator",
    "sinc_kernel",
    "sinc_kernel_dt",
    "build_operator",
    "lattice_points",
    "completion_lattice",
    "apply_inverse",
    "frame_bounds",
]

_DENSE_LIMIT = 4097  # largest direct factorization; beyond is out of desk scale


def sinc_kernel(s: float, x, t=0.0):
    """Reproducing kernel ``sin(s(x-t)) / (pi (x-t))`` of bandwidth ``s``.

    The removable singularity returns ``s/pi``; a short series takes over
    for ``|x - t| < 1e-4`` to avoid cancellation.
    """
    if s <= 0:
        raise ValidationError("bandwidth must be positive")
    u = np.asarray(x, dtype=float) - np.asarray(t, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    small = np.abs(u) < 1e-4
    w = s * u
    u_safe = np.where(small, 1.0, u)
    out = np.where(
        small, (s / np.pi) * (1.0 - w**2 / 6.0 + w**4 / 120.0), np.sin(w) / (np.pi * u_safe)
    )
    return float(out[0]) if scalar else out


def sinc_kernel_dt(s: float, x, t):
    """Derivative of the kernel in its second argument.

    Equals ``(sin(su) - su*cos(su)) / (pi u^2)`` with ``u = x - t``; odd
    in ``u`` and zero on the diagonal.  Pairing the inverted sine vector
    against this kernel yields the slope data of the recovery pipeline.
    """
    if s <= 0:
        raise ValidationError("bandwidth must be positive")
    u = np.asarray(x, dtype=float) - np.asarray(t, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    small = np.abs(u) < 1e-4
    w = s * u
    u_safe = np.where(small, 1.0, u)
    # a numpy power overflows to inf for a huge bandwidth, where Python's raises
    series = (np.float64(s) ** 3 * u / (3.0 * np.pi)) * (1.0 - w**2 / 10.0 + w**4 / 280.0)
    out = np.where(small, series, (np.sin(w) - w * np.cos(w)) / (np.pi * u_safe**2))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PWBasis:
    """Sampling basis ``phi_k``, ``k = -half_size .. half_size``."""

    s: float
    half_size: int

    def __post_init__(self):
        if self.s <= 0:
            raise ValidationError("bandwidth must be positive")
        if self.half_size < 0:
            raise ValidationError("basis half-size must be nonnegative")

    @property
    def size(self) -> int:
        return 2 * self.half_size + 1

    @property
    def center(self) -> int:
        return self.half_size

    @property
    def nodes(self) -> np.ndarray:
        k = np.arange(-self.half_size, self.half_size + 1)
        return np.pi * k / self.s

    @property
    def _node_factors(self) -> np.ndarray:
        """``c_k = (-1)^k sqrt(pi/s)/pi``, so ``phi_k(x) = c_k sin(sx)/(x - pi k/s)``."""
        k = np.arange(-self.half_size, self.half_size + 1)
        return np.where(k % 2 == 0, 1.0, -1.0) * (np.sqrt(np.pi / self.s) / np.pi)

    def functions_at(self, points: np.ndarray) -> np.ndarray:
        """Matrix ``phi_k(points)``, shape ``(size, len(points))``.

        ``sin(s(x - pi k/s)) = (-1)^k sin(sx)`` leaves one sine per point
        and one division per pair.  Near a node that product loses digits
        (the rounding of ``sx`` is divided by a small distance), so each
        point's nearest node is recomputed with ``sinc_kernel`` wherever
        ``|s(x - node)| < 1``; node spacing ``pi/s`` leaves at most one
        such node per point.
        """
        points = np.atleast_1d(np.asarray(points, dtype=float))
        s, half, nodes = self.s, self.half_size, self.nodes
        scale = np.sqrt(np.pi / s)
        out = points[None, :] - nodes[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # exact hits are redone below
            np.divide(np.sin(s * points), out, out=out)
        out *= self._node_factors[:, None]
        row = np.clip(np.rint(s * points / np.pi), -half, half).astype(int) + half
        near = np.abs(s * (points - nodes[row])) < 1.0
        row = row[near]
        out[row, near] = scale * sinc_kernel(s, points[near], nodes[row])
        return out

    def derivatives_at(self, points: np.ndarray) -> np.ndarray:
        """Matrix ``phi_k'(points)``, shape ``(size, len(points))``.

        ``phi_k'(p) = c_k (s cos(sp)/(p - x_k) - sin(sp)/(p - x_k)^2)`` takes
        one sine and one cosine per point; as in :meth:`functions_at`, each
        point's nearest node within ``|s(p - node)| < 1`` is recomputed
        with ``sinc_kernel_dt``.
        """
        points = np.atleast_1d(np.asarray(points, dtype=float))
        s, half, nodes = self.s, self.half_size, self.nodes
        out = points[None, :] - nodes[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # exact hits are redone below
            np.reciprocal(out, out=out)
            slope = s * np.cos(s * points) - np.sin(s * points) * out
            out *= slope
        out *= self._node_factors[:, None]
        row = np.clip(np.rint(s * points / np.pi), -half, half).astype(int) + half
        near = np.abs(s * (points - nodes[row])) < 1.0
        row = row[near]
        out[row, near] = np.sqrt(np.pi / s) * sinc_kernel_dt(s, nodes[row], points[near])
        return out

    def kernel_coefficients(self, t: complex) -> np.ndarray:
        """Expansion coefficients of ``sinc_s(. - t)``: ``sqrt(pi/s) sinc_s(node - t)``."""
        scale = np.sqrt(np.pi / self.s)
        u = self.nodes - t
        if np.iscomplexobj(np.asarray(t)) and np.imag(t) != 0:
            w = self.s * u
            return scale * np.sin(w) / (np.pi * u)
        return scale * sinc_kernel(self.s, self.nodes, float(np.real(t)))


@dataclass
class PWOperator:
    """Factorized finite section of the measure quadratic form.

    ``gram`` is the (tail-completed) symmetric positive-definite matrix;
    ``atom_matrix`` caches the basis values at the atoms for fast pairings.
    ``lattice_pairing`` is the basis paired with the weights given to
    :func:`build_operator` on the completion lattice, if any.
    """

    basis: PWBasis
    gram: np.ndarray
    atom_matrix: np.ndarray
    _cho: tuple = None
    lattice_pairing: np.ndarray | None = None


def lattice_points(extent: float, lattice_type: float) -> np.ndarray:
    """Points ``pi k / L`` of the free-model lattice.

    The lattice covers ``[-extent, extent]`` plus half a spacing on each
    side.  Each point is the same float in every lattice of this type.
    """
    kmax = int(np.floor((extent + 0.5 * np.pi / lattice_type) * lattice_type / np.pi))
    return np.pi * np.arange(-kmax, kmax + 1) / lattice_type


def completion_lattice(mu: SpectralMeasure, extent: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Points and signed weights of the Gram completion (see :func:`build_operator`).

    The lattice at the type ``L`` of ``mu`` covers the atoms with weight
    ``-pi/L``; zero-weight points extend it to cover ``extent`` too, so
    data given there can be paired with the same sinc matrix.  A lone atom
    has no completion (empty arrays).
    """
    if mu.positions.size < 2:
        return np.empty(0), np.empty(0)
    lam = mu.lattice_type()
    reach = float(np.max(np.abs(mu.positions)))
    points = lattice_points(max(reach, extent), lam)
    inside = np.abs(points) <= lattice_points(reach, lam)[-1]
    return points, np.where(inside, -np.pi / lam, 0.0)


def _weighted_sums(phi: np.ndarray, s: float, points: np.ndarray, weights: np.ndarray):
    """``phi @ (w sin(st))`` and ``phi^2 @ w`` over one point set."""
    return phi @ (weights * np.sin(s * points)), np.square(phi) @ weights


def _divided_differences(v: np.ndarray) -> np.ndarray:
    """``(v_j - v_k) (-1)^(j-k) / (pi^2 (j - k))``, zero on the diagonal.

    The factor is a Toeplitz matrix: row ``j`` of the sliding windows of
    ``T_d``, ``d = -(n-1) .. n-1``, reversed.  ``T_(-d) = -T_d`` exactly, so
    the result is exactly antisymmetric times antisymmetric: symmetric.
    """
    n = v.size
    d = np.arange(1 - n, n)
    factor = np.where(d % 2 == 0, 1.0, -1.0) / (np.pi**2 * np.where(d == 0, 1, d))
    factor[n - 1] = 0.0
    toeplitz = np.lib.stride_tricks.sliding_window_view(factor, n)[:, ::-1]
    out = np.subtract.outer(v, v)
    out *= toeplitz
    return out


def _section(mu: SpectralMeasure, s: float, half_size: int, lattice=None, pairing=None):
    """Basis, Gram matrix, atom matrix and lattice pairing (see ``build_operator``)."""
    basis = PWBasis(float(s), int(half_size))
    n = basis.size
    if n > _DENSE_LIMIT:
        raise ValidationError(
            f"basis size {n} exceeds the dense-factorization limit {_DENSE_LIMIT}"
        )
    outer_node = np.pi * basis.half_size / basis.s
    if outer_node > mu.window * (1 + 1e-12):
        raise ValidationError(
            f"basis node {outer_node:.6g} falls outside the measure window {mu.window:.6g}"
        )
    phi = basis.functions_at(mu.positions)
    v, diag = _weighted_sums(phi, basis.s, mu.positions, mu.masses)
    points, weights = completion_lattice(mu) if lattice is None else lattice
    paired = None
    if points.size:
        phi_lat = basis.functions_at(points)
        v_lat, diag_lat = _weighted_sums(phi_lat, basis.s, points, weights)
        if pairing is not None:
            paired = phi_lat @ pairing
        # the lattice sinc matrix is freed before the n-by-n arrays are made;
        # held until the end, it fragments the heap (+20 MiB peak RSS, free round trip)
        del phi_lat
        v += v_lat
        # window plus lattice first: exactly 0 where the atoms are the lattice
        diag = 1.0 + (diag + diag_lat)
    v /= basis._node_factors
    gram = _divided_differences(v)
    np.fill_diagonal(gram, diag)
    return basis, gram, phi, paired


def build_operator(
    mu: SpectralMeasure, s: float, half_size: int, lattice=None, pairing=None
) -> PWOperator:
    """Assemble and factorize the sectioned quadratic form at bandwidth ``s``.

    The form is ``sum m phi_j phi_k`` over the atoms plus the completion
    ``I - (pi/L) sum phi_j phi_k`` over the lattice (no completion for a
    lone atom).  Give each point the signed weight ``w`` (its mass, or
    ``-pi/L`` on the lattice) and set ``v = (phi @ (w sin(st))) / c``;
    then, by partial fractions, for ``j != k``::

        G_jk = c_j c_k (v_j - v_k) / (x_j - x_k) = (v_j - v_k) (-1)^(j-k) / (pi^2 (j - k)),

    and ``G_jj`` is the weighted sum of ``phi_j^2`` plus the completion's
    ``1``.  The factor after ``v_j - v_k`` does not depend on ``s``.  Node
    gaps are at least ``pi/s``, so the divided difference loses no digits
    to small denominators.  Each entry is built from antisymmetric
    differences and an antisymmetric factor, so ``gram`` is exactly
    symmetric.

    ``lattice`` is the ``(points, weights)`` of :func:`completion_lattice`,
    computed from ``mu`` when not given.  ``pairing``, weights on those
    points, is paired with the lattice sinc matrix the completion forms
    anyway and returned as ``lattice_pairing``.

    The basis nodes must fall inside the measure window.  Factorization
    failure means the discretized form is not boundedly invertible (the
    measure is not comparable on this band at this truncation).
    """
    basis, gram, phi, paired = _section(mu, s, half_size, lattice, pairing)
    try:
        cho = scipy.linalg.cho_factor(gram)
    except scipy.linalg.LinAlgError as exc:
        raise ComparabilityError(
            f"measure not comparable on the bandwidth-{s:g} space at truncation "
            f"{half_size}: factorization failed ({exc})"
        ) from exc
    return PWOperator(basis=basis, gram=gram, atom_matrix=phi, _cho=cho, lattice_pairing=paired)


def apply_inverse(op: PWOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ x = rhs`` for ``rhs`` of shape ``(n,)`` or ``(n, k)``.

    Each column whose back-substitution leaves a relative residual above
    ``1e-12`` gets one step of iterative refinement; one still above
    ``1e-10`` raises ``ComparabilityError``.  A complex ``rhs`` is solved
    as its real and imaginary parts, two real columns of the same block.
    """
    rhs = np.asarray(rhs)
    if rhs.shape[0] != op.gram.shape[0]:
        raise ValidationError("right-hand side size does not match the operator")
    b = rhs.reshape(rhs.shape[0], -1)
    b = np.hstack([b.real, b.imag]) if np.iscomplexobj(b) else b
    x = scipy.linalg.cho_solve(op._cho, b)
    b_norm = np.linalg.norm(b, axis=0)
    res = op.gram @ x - b
    fail = np.linalg.norm(res, axis=0) > 1e-12 * b_norm
    if np.any(fail):
        x[:, fail] -= scipy.linalg.cho_solve(op._cho, res[:, fail])
        rel = np.max(np.linalg.norm(op.gram @ x[:, fail] - b[:, fail], axis=0) / b_norm[fail])
        if rel > 1e-10:
            raise ComparabilityError(f"inverse application failed: relative residual {rel:.3e}")
    if np.iscomplexobj(rhs):
        x = x[:, : x.shape[1] // 2] + 1j * x[:, x.shape[1] // 2 :]
    return x.reshape(rhs.shape)


def frame_bounds(mu: SpectralMeasure, s: float, half_size: int) -> tuple[float, float]:
    """Extreme eigenvalues of the sectioned form: a comparability certificate.

    They bound the ratio of the measure norm to the line norm over the
    truncated band-limited section; stability of the lower bound under
    refinement is the practical substitute for the density condition.
    The section is not factorized, so one that is not positive definite
    reports ``lambda_min <= 0`` instead of raising ``ComparabilityError``.
    """
    _, gram, _, _ = _section(mu, s, half_size)
    # the full spectrum: LAPACK's index-subset drivers fail to
    # converge on sections that equal the identity to roundoff
    evals = scipy.linalg.eigvalsh(gram)
    return float(evals[0]), float(evals[-1])
