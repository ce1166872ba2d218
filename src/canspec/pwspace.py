"""Finite sections of band-limited quadratic forms in a sinc basis.

The orthonormal sampling basis of the bandwidth-``s`` Paley-Wiener space
is ``phi_k(x) = sqrt(pi/s) * sinc_s(x - pi*k/s)``.  The measure-weighted
quadratic form becomes a symmetric Gram matrix over that basis; its
factorization drives the whole recovery pipeline.

Gram matrices assembled over a windowed measure miss the slowly decaying
atom tail.  The missing part is completed with the free lattice model
at the type ``L`` fitted to the atoms, ``SpectralMeasure.type`` (spacing
and masses ``pi / L``): the full lattice sum is the identity by the sampling
theorem, so the completion is ``I`` minus the Gram of the measure's own
``completion_lattice``, the lattice out to the atoms' reach.
The completion is exact on the free fixture and a controlled heuristic
otherwise.

The completed Gram matrix is assembled in Loewner form (Cauchy-like
displacement structure; Gohberg, Kailath & Olshevsky, Math. Comp. 64,
1995).  With ``phi_j(t) = c_j sin(st)/(t - x_j)``, partial fractions make
each off-diagonal entry the divided difference ``c_j c_k (v_j - v_k) /
(x_j - x_k)`` of one vector ``v``: one matrix-vector product each over the
atom block (signed weight: the mass) and the lattice block (``-pi/L``) of
the section's one sinc matrix.  The lattice block is then squared in place;
the atom block is kept, as a view, for ``PWOperator.atom_matrix``.
The nodes ``x_k = pi k/s`` and factors ``c_k = (-1)^k sqrt(pi/s)/pi`` make
the factor ``c_j c_k / (x_j - x_k) = (-1)^(j-k) / (pi^2 (j - k))``
independent of ``s``: a Toeplitz matrix, read as a strided view of one
vector.  Node gaps are at least ``pi/s``, so no digits are lost to small
denominators, and the O(nN) product replaces two O(n^2 N) ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .model import ComparabilityError, NumericalError, SpectralMeasure, ValidationError

__all__ = [
    "PWBasis",
    "PWOperator",
    "sinc_kernel",
    "sinc_kernel_dt",
    "build_operator",
    "apply_inverse",
    "frame_bounds",
]

_DENSE_LIMIT = 4097  # largest direct factorization; beyond is out of desk scale


def sinc_kernel(s: float, x, t=0.0):
    """Reproducing kernel ``sin(s(x-t)) / (pi (x-t))`` of bandwidth ``s``.

    Exactly ``s/pi`` on the diagonal ``w = s(x - t) = 0``; elsewhere the
    closed form cancels nothing and keeps full relative accuracy.
    """
    if not 0.0 < s < np.inf:
        raise ValidationError(f"bandwidth {s!r} must be positive and finite")
    u = np.atleast_1d(np.asarray(x, dtype=float) - np.asarray(t, dtype=float))
    w = s * u
    out = np.sin(w) / (np.pi * np.where(w == 0.0, 1.0, u))
    out[w == 0.0] = s / np.pi
    return float(out[0]) if np.ndim(x) == np.ndim(t) == 0 else out


def sinc_kernel_dt(s: float, x, t):
    """Derivative of the kernel in its second argument.

    Equals ``(sin(w) - w cos(w)) / (pi u^2)`` with ``u = x - t``, ``w = s u``;
    odd in ``u``.  That cancels to ``w^3/3``, so below ``|w| = 1/4`` its series
    through ``w^8`` takes over (both within about 5e-15 there).  Pairing the
    inverted sine vector against it yields the recovery pipeline's slopes.
    """
    if not 0.0 < s < np.inf:
        raise ValidationError(f"bandwidth {s!r} must be positive and finite")
    u = np.atleast_1d(np.asarray(x, dtype=float) - np.asarray(t, dtype=float))
    w = s * u
    small = np.abs(w) < 0.25
    u_safe = np.where(small, 1.0, u)
    w2 = w * w
    series = w * s * s / (3 * np.pi) * (1 - w2 / 10 * (1 - w2 / 28 * (1 - w2 / 54 * (1 - w2 / 88))))
    out = np.where(small, series, (np.sin(w) - w * np.cos(w)) / (np.pi * u_safe**2))
    return float(out[0]) if np.ndim(x) == np.ndim(t) == 0 else out


@dataclass(frozen=True)
class PWBasis:
    """Sampling basis ``phi_k``, ``k = -half_size .. half_size``."""

    s: float
    half_size: int

    def __post_init__(self):
        if not 0.0 < self.s < np.inf:
            raise ValidationError(f"bandwidth {self.s!r} must be positive and finite")
        try:
            if operator.index(self.half_size) < 0:
                raise ValidationError("basis half-size must be nonnegative")
        except TypeError:
            raise ValidationError(f"basis half-size {self.half_size!r} is not an integer") from None

    @property
    def size(self) -> int:
        return 2 * self.half_size + 1

    @property
    def center(self) -> int:
        return self.half_size

    @cached_property
    def nodes(self) -> np.ndarray:
        k = np.arange(-self.half_size, self.half_size + 1)
        nodes = np.pi * k / self.s
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def _node_factors(self) -> np.ndarray:
        """``c_k = (-1)^k sqrt(pi/s)/pi``, so ``phi_k(x) = c_k sin(sx)/(x - pi k/s)``."""
        k = np.arange(-self.half_size, self.half_size + 1)
        factors = np.where(k % 2 == 0, 1.0, -1.0) * (np.sqrt(np.pi / self.s) / np.pi)
        factors.setflags(write=False)
        return factors

    def _differences(self, points):
        """Finite ``points``, ``points - nodes``, and the near-node mask and rows."""
        points = np.atleast_1d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise ValidationError("basis evaluation points must be finite")
        half, nodes = self.half_size, self.nodes
        row = np.clip(np.rint(self.s * points / np.pi), -half, half).astype(int) + half
        near = np.abs(self.s * (points - nodes[row])) < 1.0
        return points, points[None, :] - nodes[:, None], near, row[near]

    def functions_at(self, points: np.ndarray) -> np.ndarray:
        """Matrix ``phi_k(points)``, shape ``(size, len(points))``.

        ``sin(s(x - pi k/s)) = (-1)^k sin(sx)`` leaves one sine per point
        and one division per pair.  Near a node that product loses digits
        (the rounding of ``sx`` is divided by a small distance), so each
        point's nearest node is recomputed with ``sinc_kernel`` wherever
        ``|s(x - node)| < 1``; node spacing ``pi/s`` leaves at most one
        such node per point.
        """
        points, out, near, row = self._differences(points)
        s, nodes = self.s, self.nodes
        with np.errstate(divide="ignore", invalid="ignore"):  # exact hits are redone below
            np.divide(np.sin(s * points), out, out=out)
        out *= self._node_factors[:, None]
        out[row, near] = np.sqrt(np.pi / s) * sinc_kernel(s, points[near], nodes[row])
        return out

    def derivatives_at(self, points: np.ndarray) -> np.ndarray:
        """Matrix ``phi_k'(points)``, shape ``(size, len(points))``.

        ``phi_k'(p) = c_k (s cos(sp)/(p - x_k) - sin(sp)/(p - x_k)^2)`` takes
        one sine and one cosine per point; as in :meth:`functions_at`, each
        point's nearest node within ``|s(p - node)| < 1`` is recomputed
        with ``sinc_kernel_dt``.
        """
        points, out, near, row = self._differences(points)
        s, nodes = self.s, self.nodes
        with np.errstate(divide="ignore", invalid="ignore"):  # exact hits are redone below
            np.reciprocal(out, out=out)
            # s cos(sp) - sin(sp) out, in one temporary
            slope = np.sin(s * points) * out
            out *= np.subtract(s * np.cos(s * points), slope, out=slope)
        out *= self._node_factors[:, None]
        out[row, near] = np.sqrt(np.pi / s) * sinc_kernel_dt(s, nodes[row], points[near])
        return out

    def kernel_coefficients(self, t: complex) -> np.ndarray:
        """Expansion coefficients of ``sinc_s(. - t)``: ``sqrt(pi/s) sinc_s(node - t)``."""
        if not np.isfinite(t):
            raise ValidationError(f"kernel center {t!r} must be finite")
        scale = np.sqrt(np.pi / self.s)
        if np.imag(t) != 0:
            u = self.nodes - t
            return scale * np.sin(self.s * u) / (np.pi * u)
        return scale * sinc_kernel(self.s, self.nodes, float(np.real(t)))


@dataclass
class PWOperator:
    """Factorized finite section of the measure quadratic form.

    ``gram`` is the (tail-completed) symmetric positive-definite matrix,
    ``atom_matrix`` a view of the atom block of the section's sinc matrix.
    ``lattice_pairing`` is the basis paired with the data given to
    :func:`build_operator` on the completion lattice, if any.
    """

    basis: PWBasis
    gram: np.ndarray
    atom_matrix: np.ndarray
    _cho: tuple = None
    lattice_pairing: np.ndarray | None = None


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


def _section(mu: SpectralMeasure, s: float, half_size: int, pairing=None):
    """Basis, Gram matrix, atom matrix and lattice pairing (see ``build_operator``)."""
    basis = PWBasis(float(s), half_size)
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
    points, weights = mu.completion_lattice
    # a bandwidth far beyond the measure's scale overflows s t; the check
    # below turns the non-finite section into an error
    with np.errstate(over="ignore", invalid="ignore"):
        # one sinc matrix per section: the atom block, then the lattice block
        sinc = basis.functions_at(np.concatenate([mu.positions, points]))
        phi, lat = sinc[:, : mu.positions.size], sinc[:, mu.positions.size :]
        v = phi @ (mu.masses * np.sin(basis.s * mu.positions))
        diag = np.square(phi) @ mu.masses
        paired = lat @ pairing if pairing is not None and points.size else None
        if points.size:
            v += lat @ (weights * np.sin(basis.s * points))
            # window plus lattice first: exactly 0 where the atoms are the lattice;
            # the lattice block is not read again, so it is squared in place
            diag = 1.0 + (diag + np.square(lat, out=lat) @ weights)
        v /= basis._node_factors
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(diag))):
        raise NumericalError(f"section at bandwidth {basis.s!r} is not finite")
    gram = _divided_differences(v)
    np.fill_diagonal(gram, diag)
    return basis, gram, phi, paired


def build_operator(mu: SpectralMeasure, s: float, half_size: int, pairing=None) -> PWOperator:
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

    The lattice and its weights are
    :attr:`~canspec.model.SpectralMeasure.completion_lattice`.  One sinc
    matrix holds the atoms and the lattice; ``atom_matrix`` is a view of its
    atom block.  ``pairing``, data on the lattice (the recovery pipeline's
    in-core cosine weights), is paired with its lattice block into
    ``lattice_pairing``.

    The basis nodes must fall inside the measure window.  Factorization
    failure means the discretized form is not boundedly invertible (the
    measure is not comparable on this band at this truncation).
    """
    basis, gram, phi, paired = _section(mu, s, half_size, pairing)
    try:
        cho = scipy.linalg.cho_factor(gram, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ComparabilityError(
            f"measure not comparable on the bandwidth-{s:g} space at truncation "
            f"{half_size}: factorization failed ({exc})"
        ) from exc
    return PWOperator(basis=basis, gram=gram, atom_matrix=phi, _cho=cho, lattice_pairing=paired)


def apply_inverse(op: PWOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ x = rhs`` for real or complex ``rhs`` of shape ``(n,)`` or ``(n, k)``.

    ``rhs`` must be finite; the factor is, since ``build_operator`` raises on
    a section that is not, so LAPACK runs unchecked.  Each column whose
    back-substitution leaves a relative residual above ``1e-12`` gets one
    step of iterative refinement; one still above ``1e-10`` raises
    ``ComparabilityError``.
    """
    rhs = np.asarray(rhs)
    if rhs.shape[0] != op.gram.shape[0]:
        raise ValidationError("right-hand side size does not match the operator")
    if not np.all(np.isfinite(rhs)):
        raise ValidationError("right-hand side is not finite")
    b = rhs.reshape(rhs.shape[0], -1)
    x = scipy.linalg.cho_solve(op._cho, b, check_finite=False)
    b_norm = np.linalg.norm(b, axis=0)
    res = op.gram @ x - b
    fail = ~(np.linalg.norm(res, axis=0) <= 1e-12 * b_norm)
    if np.any(fail):
        x[:, fail] -= scipy.linalg.cho_solve(op._cho, res[:, fail], check_finite=False)
        rel = np.max(np.linalg.norm(op.gram @ x[:, fail] - b[:, fail], axis=0) / b_norm[fail])
        if not rel <= 1e-10:
            raise ComparabilityError(f"inverse application failed: relative residual {rel:.3e}")
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
    evals = scipy.linalg.eigvalsh(gram, check_finite=False)
    return float(evals[0]), float(evals[-1])
