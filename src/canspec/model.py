"""Core domain types for 2x2 canonical Hamiltonian systems.

A system is described by a piecewise-constant nonnegative 2x2 matrix
weight on a finite interval ``[0, ell]``.  The spectral side is a purely
atomic measure with positive masses plus the additive Herglotz constant
of the Weyl function, whose linear term is 0 on every admissible weight.
All types are immutable after construction and validate their own
consistency, so they can be shared freely between threads.

JSON formats (all floats written with 17 significant digits):

* Hamiltonian: ``{"ell": f, "segments": [{"r0": f, "r1": f,
  "h": [[h11, h12], [h12, h22]]}]}``
* Measure: ``{"window": f, "c": f, "atoms": [{"t": f, "mass": f}]}``; the
  ``"b"`` of an older file is dropped if at most ``1e-4``, else rejected
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "J",
    "PSD_SLACK",
    "DET_TOL",
    "ZERO_ATOM_TOL",
    "ValidationError",
    "NumericalError",
    "ComparabilityError",
    "InvariantViolation",
    "Hamiltonian",
    "SpectralMeasure",
    "TransferMatrix",
    "GridConfig",
    "ReconstructionResult",
    "normalize_trace",
    "load_hamiltonian",
    "save_hamiltonian",
    "dumps_hamiltonian",
    "loads_hamiltonian",
    "load_measure",
    "save_measure",
    "dumps_measure",
    "loads_measure",
]

#: The symplectic structure matrix of the first-order system.
J = np.array([[0.0, -1.0], [1.0, 0.0]])
J.setflags(write=False)

#: Absolute slack allowed on ``det >= 0`` for segment matrices.  Keeps
#: reconstructed Hamiltonians (which carry differentiation noise) valid.
PSD_SLACK = 1e-12

#: Relative tolerance for ``|det M - 1|`` of transfer matrices.
DET_TOL = 1e-10

#: Positions closer to the origin than this are treated as the zero atom.
ZERO_ATOM_TOL = 1e-12

_TILING_TOL = 1e-12


class ValidationError(ValueError):
    """Input data violates a structural contract (bad file, bad segment)."""


class NumericalError(RuntimeError):
    """A numerical stage failed (refinement, factorization, inversion)."""


class ComparabilityError(NumericalError):
    """The discretized quadratic form is not boundedly invertible."""


class InvariantViolation(NumericalError):
    """A computed quantity breached its tolerance."""


def _fmt(x: float) -> str:
    """Format a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Hamiltonian:
    """Piecewise-constant nonnegative matrix weight on ``[0, ell]``.

    Parameters
    ----------
    edges:
        Segment boundaries, shape ``(n + 1,)``, strictly increasing,
        starting at ``0``.
    matrices:
        Segment values, shape ``(n, 2, 2)``, each symmetric with
        ``h11, h22 >= 0``, ``det >= -PSD_SLACK`` and positive trace.
    """

    edges: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float).copy()
        mats = np.asarray(self.matrices, dtype=float).copy()
        if edges.ndim != 1 or edges.size < 2:
            raise ValidationError("edges must be a 1-d array with >= 2 entries")
        if mats.shape != (edges.size - 1, 2, 2):
            raise ValidationError(
                f"matrices shape {mats.shape} does not match {edges.size - 1} segments"
            )
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(mats))):
            raise ValidationError("segment edges and matrices must be finite")
        if abs(edges[0]) > _TILING_TOL:
            raise ValidationError(f"first segment must start at 0, got {edges[0]!r}")
        edges[0] = 0.0
        if np.any(np.diff(edges) <= 0):
            raise ValidationError("segment boundaries must be strictly increasing")
        for i, h in enumerate(mats):
            if abs(h[0, 1] - h[1, 0]) > 0:
                raise ValidationError(f"segment {i}: matrix is not symmetric")
            if h[0, 0] < 0 or h[1, 1] < 0:
                raise ValidationError(f"segment {i}: negative diagonal entry")
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            if det < -PSD_SLACK:
                raise ValidationError(
                    f"segment {i}: matrix is not positive semidefinite (det={det:.3e})"
                )
            if h[0, 0] + h[1, 1] <= 0:
                raise ValidationError(f"segment {i}: zero trace (system not regular)")
        edges.setflags(write=False)
        mats.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "matrices", mats)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, ell: float) -> "Hamiltonian":
        """The free weight: identity matrix on ``[0, ell]``."""
        if ell <= 0:
            raise ValidationError("ell must be positive")
        return cls(np.array([0.0, ell]), np.eye(2)[None, :, :])

    @classmethod
    def from_segments(
        cls, segments: Sequence[tuple[float, float, float, float, float]]
    ) -> "Hamiltonian":
        """Build from ``(r0, r1, h11, h12, h22)`` tuples tiling ``[0, ell]``."""
        if not segments:
            raise ValidationError("empty segment list")
        edges = [segments[0][0]]
        mats = []
        for i, (r0, r1, h11, h12, h22) in enumerate(segments):
            if i > 0 and abs(r0 - edges[-1]) > _TILING_TOL * (1.0 + abs(r0)):
                raise ValidationError(
                    f"segment {i}: tiling gap/overlap at r={r0!r} (previous end {edges[-1]!r})"
                )
            edges.append(r1)
            mats.append([[h11, h12], [h12, h22]])
        return cls(np.array(edges, dtype=float), np.array(mats, dtype=float))

    @classmethod
    def from_lengths(
        cls, lengths: Sequence[float], matrices: Sequence[np.ndarray]
    ) -> "Hamiltonian":
        """Build from segment lengths and their matrix values."""
        edges = np.concatenate([[0.0], np.cumsum(np.asarray(lengths, dtype=float))])
        return cls(edges, np.asarray(matrices, dtype=float))

    # -- accessors ------------------------------------------------------

    @property
    def ell(self) -> float:
        """Right endpoint of the carrier interval."""
        return float(self.edges[-1])

    @property
    def nsegments(self) -> int:
        return self.matrices.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def segments(self) -> list[tuple[float, float, float, float, float]]:
        """Segments as ``(r0, r1, h11, h12, h22)`` tuples."""
        return [
            (
                float(self.edges[i]),
                float(self.edges[i + 1]),
                float(h[0, 0]),
                float(h[0, 1]),
                float(h[1, 1]),
            )
            for i, h in enumerate(self.matrices)
        ]

    def sample(self, rs: np.ndarray) -> np.ndarray:
        """Segment values at an array of positions, shape ``(len(rs), 2, 2)``."""
        rs = np.asarray(rs, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, rs, side="right") - 1, 0, self.nsegments - 1)
        return self.matrices[idx]

    def determinants(self) -> np.ndarray:
        """Segment determinants, exactly 0 on rank-one segments: the one rank-one rule.

        Rank one means ``det <= PSD_SLACK (tr/2)^2``, for trace 2 the slack validation allows.
        """
        h = self.matrices
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        return np.where(det <= PSD_SLACK * (0.5 * self.traces()) ** 2, 0.0, det)

    def traces(self) -> np.ndarray:
        return self.matrices[:, 0, 0] + self.matrices[:, 1, 1]

    def is_compatible(self) -> bool:
        """No end segment proportional to the lower-right rank-one matrix.

        That is, rank one by :meth:`determinants` with ``h11 <= PSD_SLACK h22``.
        Such end segments make the boundary value problem degenerate and
        break the residue formula for the atom masses.
        """
        det, h = self.determinants(), self.matrices
        return all(det[i] > 0.0 or h[i, 0, 0] > PSD_SLACK * h[i, 1, 1] for i in (0, -1))


def normalize_trace(H: Hamiltonian) -> tuple[Hamiltonian, np.ndarray]:
    """Reparametrize so the weight has trace 2 almost everywhere.

    The change of variable keeps the spectral data: each segment of
    length ``d`` and trace ``t`` becomes a segment of length ``d * t / 2``
    with matrix ``2 H / t``.  Returns the new Hamiltonian and the
    monotone time change as ``(r, new_r)`` samples at the old segment
    boundaries (piecewise linear in between).

    Idempotent, and it preserves the integral of ``sqrt(det)``.
    """
    scale = H.traces() / 2.0
    new_lengths = H.lengths * scale
    new_edges = np.concatenate([[0.0], np.cumsum(new_lengths)])
    new_mats = H.matrices / scale[:, None, None]
    time_change = np.column_stack([H.edges, new_edges])
    return Hamiltonian(new_edges, new_mats), time_change


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic spectral measure plus the additive Herglotz constant.

    Atoms are ``masses[i] * delta(positions[i])`` with strictly
    increasing positions inside ``[-window, window]``.  Exactly one atom
    sits at the origin (within ``ZERO_ATOM_TOL``); its presence is part
    of the admissibility class.  ``herglotz_c`` is the additive constant of
    the Weyl function, whose linear term is 0 on every compatible weight.
    The exponential type, :attr:`type`, is fitted to the atoms.
    """

    positions: np.ndarray
    masses: np.ndarray
    window: float
    herglotz_c: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).copy()
        mass = np.asarray(self.masses, dtype=float).copy()
        if pos.ndim != 1 or pos.shape != mass.shape:
            raise ValidationError("positions and masses must be matching 1-d arrays")
        scalars = [self.window, self.herglotz_c]
        if not np.all(np.isfinite(np.concatenate([pos, mass, scalars]))):
            raise ValidationError("positions, masses, window and c must be finite")
        if pos.size == 0:
            raise ValidationError("measure has no atoms")
        if np.any(np.diff(pos) <= 0):
            raise ValidationError("atom positions must be strictly increasing")
        if np.any(mass <= 0):
            raise ValidationError("atom masses must be positive")
        nzero = int(np.count_nonzero(np.abs(pos) < ZERO_ATOM_TOL))
        if nzero != 1:
            raise ValidationError(
                f"measure must carry exactly one atom at the origin, found {nzero}"
            )
        if self.window <= 0:
            raise ValidationError("window must be positive")
        pos[np.abs(pos) < ZERO_ATOM_TOL] = 0.0
        pos.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mass)

    @property
    def zero_index(self) -> int:
        return int(np.nonzero(self.positions == 0.0)[0][0])

    @cached_property
    def type(self) -> float:
        """Exponential type ``L``: pi over the least-squares slope of the atoms, read-only.

        The atoms are zeros of a sine-type function of type ``L``, of density
        ``L/pi`` (B. Ya. Levin, *Lectures on Entire Functions*, 1996).  The slope
        of ``t_k`` against the centred index ``k`` comes first, so that ``L`` is
        ``np.pi`` bitwise on the free measure of type pi.
        """
        n = self.positions.size
        if n < 2:
            raise ValidationError("cannot estimate a type from a single atom")
        k = np.arange(n) - (n - 1) / 2
        return float(np.pi / ((k @ self.positions) / (k @ k)))

    @cached_property
    def completion_lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only points and signed weights of the free-model completion.

        The points ``pi k / L`` at the type ``L`` cover the atoms' reach plus
        half a spacing on each side, each weighted ``-pi/L``; the Gram and the
        cosine pairing of the recovery share them.  A lone atom has none.
        """
        points, weights = np.empty(0), np.empty(0)
        if self.positions.size > 1:
            lam = self.type
            reach = float(np.max(np.abs(self.positions)))
            kmax = int(np.floor((reach + 0.5 * np.pi / lam) * lam / np.pi))
            points = np.pi * np.arange(-kmax, kmax + 1) / lam
            weights = np.full(points.size, -np.pi / lam)
        for array in (points, weights):
            array.setflags(write=False)
        return points, weights

    def tail_lattices(self, spacing: float) -> list[tuple[float, float, float]]:
        """Lattices that continue the atoms beyond the window, as ``(side, first, mass)``.

        On each side (``side`` is ``1.0``, then ``-1.0``) the continuation
        starts from the outermost atom ``A`` at the given spacing ``h``, so
        it inherits the asymptotic phase of the zero sequence.  Asymptotic
        masses may alternate between two values, so it continues the
        parity pattern of the outer band (the outer quarter of the atoms
        sorted outward, 2 to 32 of them): the atoms ``A + h, A + 3h, ...``
        carry the mean mass of the band's other parity and ``A + 2h, A +
        4h, ...`` the mean of the outermost atom's parity.  Each parity is
        the lattice ``|t| = first + 2h i``, ``i >= 0``.
        """
        lattices = []
        for side in (1.0, -1.0):
            order = np.argsort(side * self.positions)
            anchor = float((side * self.positions)[order][-1])
            band = self.masses[order][-min(32, max(2, order.size // 4)) :]
            m_after = float(np.mean(band[-1::-2]))
            m_next = float(np.mean(band[-2::-2])) if band.size > 1 else m_after
            lattices += [(side, anchor + spacing, m_next), (side, anchor + 2.0 * spacing, m_after)]
        return lattices


def _det_drift(M: np.ndarray) -> np.ndarray:
    """``|det M - 1| / (1 + |M|^2)`` (Frobenius norm) of 2x2 matrices ``M[..., :, :]``.

    The roundoff of ``det M`` is ``eps |M|^2``, and ``|M|`` grows like a power
    of ``|z|`` next to rank-one segments.
    """
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return np.abs(det - 1.0) / (1.0 + np.sum(np.abs(M) ** 2, axis=(-2, -1)))


@dataclass(frozen=True)
class TransferMatrix:
    """Fundamental 2x2 solution matrix at ``(r, z)`` with unit determinant."""

    entries: np.ndarray
    r: float
    z: complex

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex).copy()
        if m.shape != (2, 2):
            raise ValidationError("transfer matrix must be 2x2")
        drift = float(_det_drift(m))
        if drift > DET_TOL:
            raise InvariantViolation(
                f"transfer matrix determinant drifted: |det-1|/(1+|M|^2)={drift:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def theta_plus(self) -> complex:
        return complex(self.entries[0, 0])

    @property
    def theta_minus(self) -> complex:
        return complex(self.entries[1, 0])


@dataclass(frozen=True)
class GridConfig:
    """Discretization parameters shared by the recovery pipeline.

    The pipeline inverts the form at the ``s_samples - 1`` bandwidths of
    the uniform grid on ``(0, bandwidth]`` (``s_grid``).
    ``pw_truncation`` caps the half-size of the band-limited basis; the
    effective half-size at bandwidth ``s`` is additionally clamped so
    that all basis nodes stay inside the measure window (roughly
    ``0.95 * window * s / pi``).
    """

    bandwidth: float
    s_samples: int
    pw_truncation: int
    measure_window: float
    r_samples: int

    def __post_init__(self):
        if not 0.0 < self.bandwidth < np.inf:
            raise ValidationError(f"bandwidth {self.bandwidth!r} must be positive and finite")
        for name in ("s_samples", "pw_truncation", "r_samples"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValidationError(f"{name}={getattr(self, name)!r} is not an integer") from None
        if self.s_samples < 3:
            raise ValidationError(f"s_samples={self.s_samples!r} must be at least 3")
        if self.pw_truncation < 8:
            raise ValidationError("pw_truncation must be at least 8")
        if self.r_samples < 9:
            raise ValidationError("r_samples too small")
        object.__setattr__(self, "bandwidth", float(self.bandwidth))

    @cached_property
    def s_grid(self) -> np.ndarray:
        """The bandwidths ``linspace(0, bandwidth, s_samples)[1:]``, read-only."""
        grid = np.linspace(0.0, self.bandwidth, self.s_samples)[1:]
        grid.setflags(write=False)
        return grid

    @classmethod
    def for_bandwidth(
        cls,
        a: float,
        s_samples: int = 129,
        pw_truncation: int = 256,
        measure_window: float = 200.0,
        r_samples: int = 257,
    ) -> "GridConfig":
        """The configuration at bandwidth ``a`` with the default grid sizes."""
        return cls(a, s_samples, pw_truncation, measure_window, r_samples)

    def basis_half_size(self, s: float) -> int:
        """Effective basis half-size at bandwidth ``s``.

        Clamped so every node stays safely inside the measure window; at
        very small bandwidths this may leave only the center function.
        """
        cap = int(np.floor(0.95 * self.measure_window * s / np.pi))
        return max(0, min(self.pw_truncation, cap))


@dataclass(frozen=True)
class ReconstructionResult:
    """Output of the inverse pipeline.

    ``hamiltonian`` is trace-2 piecewise constant on the recovered
    interval; ``zeta_table`` holds the chain points as ``(s, position(s))``
    rows, and ``diagnostics`` carries every residual computed along the way.
    """

    hamiltonian: Hamiltonian
    zeta_table: np.ndarray
    diagnostics: dict


# ---------------------------------------------------------------------------
# JSON serialization (canonical form, 17 significant digits)
# ---------------------------------------------------------------------------


def dumps_hamiltonian(H: Hamiltonian) -> str:
    parts = [f'{{"ell": {_fmt(H.ell)}, "segments": [']
    seg_strs = []
    for r0, r1, h11, h12, h22 in H.segments:
        seg_strs.append(
            f'{{"r0": {_fmt(r0)}, "r1": {_fmt(r1)}, '
            f'"h": [[{_fmt(h11)}, {_fmt(h12)}], [{_fmt(h12)}, {_fmt(h22)}]]}}'
        )
    parts.append(", ".join(seg_strs))
    parts.append("]}")
    return "".join(parts)


def loads_hamiltonian(text: str) -> Hamiltonian:
    try:
        doc = json.loads(text, parse_int=float)  # keeps the sign of "-0"
    except json.JSONDecodeError as exc:
        raise ValidationError(f"cannot parse Hamiltonian JSON: {exc}") from exc
    try:
        ell = float(doc["ell"])
        segments = []
        for seg in doc["segments"]:
            h = seg["h"]
            if abs(float(h[0][1]) - float(h[1][0])) > 0:
                raise ValidationError("segment matrix is not symmetric in file")
            segments.append(
                (float(seg["r0"]), float(seg["r1"]), float(h[0][0]), float(h[0][1]), float(h[1][1]))
            )
    except ValidationError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed Hamiltonian JSON: {exc!r}") from exc
    H = Hamiltonian.from_segments(segments)
    if abs(H.ell - ell) > _TILING_TOL * (1.0 + abs(ell)):
        raise ValidationError(
            f"declared ell={ell!r} does not match last segment end {H.ell!r}"
        )
    return H


def load_hamiltonian(path: str | Path) -> Hamiltonian:
    """Load and validate a Hamiltonian JSON file."""
    return loads_hamiltonian(Path(path).read_text())


def save_hamiltonian(H: Hamiltonian, path: str | Path) -> None:
    Path(path).write_text(dumps_hamiltonian(H) + "\n")


def dumps_measure(mu: SpectralMeasure) -> str:
    atoms = ", ".join(
        f'{{"t": {_fmt(t)}, "mass": {_fmt(m)}}}' for t, m in zip(mu.positions, mu.masses)
    )
    return f'{{"window": {_fmt(mu.window)}, "c": {_fmt(mu.herglotz_c)}, "atoms": [{atoms}]}}'


def loads_measure(text: str) -> SpectralMeasure:
    try:
        doc = json.loads(text, parse_int=float)  # keeps the sign of "-0"
    except json.JSONDecodeError as exc:
        raise ValidationError(f"cannot parse measure JSON: {exc}") from exc
    try:
        pos = np.array([float(a["t"]) for a in doc["atoms"]])
        mass = np.array([float(a["mass"]) for a in doc["atoms"]])
        window = float(doc["window"])
        b = float(doc.get("b", 0.0))
        c = float(doc.get("c", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed measure JSON: {exc!r}") from exc
    if not abs(b) <= 1e-4:  # older files hold estimate noise of a b that is 0 by theorem
        raise ValidationError(
            f"linear Herglotz term b={b!r} needs an initial e2 e2^T interval, which "
            "the recovery cannot represent"
        )
    order = np.argsort(pos)
    return SpectralMeasure(pos[order], mass[order], window, c)


def load_measure(path: str | Path) -> SpectralMeasure:
    """Load and validate a measure JSON file."""
    return loads_measure(Path(path).read_text())


def save_measure(mu: SpectralMeasure, path: str | Path) -> None:
    Path(path).write_text(dumps_measure(mu) + "\n")
