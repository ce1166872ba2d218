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
    "apply_inverse",
    "frame_bounds",
]

_DENSE_LIMIT = 4097  # largest direct factorization; beyond is out of desk scale
_DIRECT_EIG_LIMIT = 2049  # larger sections estimate extremes iteratively


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
    series = (s**3 * u / (3.0 * np.pi)) * (1.0 - w**2 / 10.0 + w**4 / 280.0)
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
        sign = np.where(np.arange(-half, half + 1) % 2 == 0, scale / np.pi, -scale / np.pi)
        out = points[None, :] - nodes[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # exact hits are redone below
            np.divide(np.sin(s * points), out, out=out)
        out *= sign[:, None]
        row = np.clip(np.rint(s * points / np.pi), -half, half).astype(int) + half
        near = np.abs(s * (points - nodes[row])) < 1.0
        row = row[near]
        out[row, near] = scale * sinc_kernel(s, points[near], nodes[row])
        return out

    def derivatives_at(self, points: np.ndarray) -> np.ndarray:
        """Matrix ``phi_k'(points)``, shape ``(size, len(points))``."""
        points = np.atleast_1d(np.asarray(points, dtype=float))
        scale = np.sqrt(np.pi / self.s)
        return scale * sinc_kernel_dt(self.s, self.nodes[:, None], points[None, :])

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
    """

    basis: PWBasis
    gram: np.ndarray
    atom_matrix: np.ndarray
    _cho: tuple = None


def lattice_points(extent: float, lattice_type: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``k`` and points ``pi k / L`` of the free-model lattice.

    The lattice covers ``[-extent, extent]`` plus half a spacing on each
    side.
    """
    kmax = int(np.floor((extent + 0.5 * np.pi / lattice_type) * lattice_type / np.pi))
    k = np.arange(-kmax, kmax + 1)
    return k, np.pi * k / lattice_type


def build_operator(mu: SpectralMeasure, s: float, half_size: int) -> PWOperator:
    """Assemble and factorize the sectioned quadratic form at bandwidth ``s``.

    The basis nodes must fall inside the measure window.  Factorization
    failure means the discretized form is not boundedly invertible (the
    measure is not comparable on this band at this truncation).
    """
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
    gram_window = (phi * mu.masses[None, :]) @ phi.T
    gram_window = 0.5 * (gram_window + gram_window.T)
    if mu.positions.size > 1:
        lam = mu.lattice_type()
        _, lattice = lattice_points(float(np.max(np.abs(mu.positions))), lam)
        phi_lat = basis.functions_at(lattice)
        gram_lat = (np.pi / lam) * (phi_lat @ phi_lat.T)
        # both Gram terms are exactly symmetric, and so is their sum with I
        gram = gram_window + np.eye(n) - 0.5 * (gram_lat + gram_lat.T)
    else:
        gram = gram_window
    try:
        cho = scipy.linalg.cho_factor(gram)
    except scipy.linalg.LinAlgError as exc:
        raise ComparabilityError(
            f"measure not comparable on the bandwidth-{s:g} space at truncation "
            f"{half_size}: factorization failed ({exc})"
        ) from exc
    return PWOperator(basis=basis, gram=gram, atom_matrix=phi, _cho=cho)


def apply_inverse(op: PWOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ x = rhs`` with a relative residual below ``1e-12``.

    One step of iterative refinement is applied if plain back-substitution
    is not accurate enough; complex right-hand sides are supported.
    """
    rhs = np.asarray(rhs)
    if rhs.shape[0] != op.gram.shape[0]:
        raise ValidationError("right-hand side size does not match the operator")
    if np.iscomplexobj(rhs):
        return apply_inverse(op, rhs.real) + 1j * apply_inverse(op, rhs.imag)
    x = scipy.linalg.cho_solve(op._cho, rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return x
    res = op.gram @ x - rhs
    if np.linalg.norm(res) > 1e-12 * rhs_norm:
        x = x - scipy.linalg.cho_solve(op._cho, res)
        res = op.gram @ x - rhs
        if np.linalg.norm(res) > 1e-10 * rhs_norm:
            raise ComparabilityError(
                f"inverse application failed: relative residual "
                f"{np.linalg.norm(res) / rhs_norm:.3e}"
            )
    return x


def frame_bounds(mu: SpectralMeasure, s: float, half_size: int) -> tuple[float, float]:
    """Extreme eigenvalues of the sectioned form: a comparability certificate.

    They bound the ratio of the measure norm to the line norm over the
    truncated band-limited section; stability of the lower bound under
    refinement is the practical substitute for the density condition.
    """
    gram = build_operator(mu, s, half_size).gram
    if gram.shape[0] <= _DIRECT_EIG_LIMIT:
        # the full spectrum: LAPACK's index-subset drivers fail to
        # converge on sections that equal the identity to roundoff
        evals = scipy.linalg.eigvalsh(gram)
        return float(evals[0]), float(evals[-1])
    from scipy.sparse.linalg import eigsh

    lo = eigsh(gram, k=1, which="SA", tol=1e-8)[0][0]
    hi = eigsh(gram, k=1, which="LA", tol=1e-8)[0][0]
    return float(lo), float(hi)
