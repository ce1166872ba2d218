"""Benchmark workloads: seeded inputs, the timed call, and output checks.

Every workload calls into canspec through module attributes
(``forward.spectral_measure``, ``oracles.roundtrip``, ...) at call time, so
the wrappers that ``tracing.instrument`` installs see every call.  The
checks use only this file's own arithmetic plus the program's public
results; none of them is retried or relaxed when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from canspec import forward, inverse, model, oracles

# Settings of the criterion-1 free round trip (tests/test_acceptance.py).
FREE_WINDOW = 200.0
FREE_GRID = dict(s_samples=129, pw_truncation=256, measure_window=200.0, r_samples=257)
FREE_INTERIOR = 0.02

FORWARD_SEGMENTS = 1000
FORWARD_WINDOW = 200.0

WIDE_SEGMENTS = 64
WIDE_SETTINGS = dict(window=400.0, pw_truncation=128, s_samples=33, r_samples=65)

# Smooth seeded weights: a few Fourier modes of the log-eigenvalue and of
# the rotation angle.  Random-contrast weights are unusable at 1000
# segments: they localize and the forward solver reports nonpositive masses.
SMOOTH_MODES = 3
SMOOTH_AMPLITUDE = 0.3
SMOOTH_LENGTH = np.pi  # det = 1 before normalization, so the type is pi


def smooth_weight(seed: int, instance: int, segments: int) -> model.Hamiltonian:
    """Trace-normalized weight ``R(th) diag(e^g, e^-g) R(th)^T`` on equal segments.

    ``g`` and ``th`` each sum modes ``k = 1..SMOOTH_MODES`` with amplitude
    ``SMOOTH_AMPLITUDE / k`` and a phase drawn from ``(seed, instance)``.
    The normalization stretches each segment by ``cosh(g)``, which keeps the
    exponential type at ``SMOOTH_LENGTH``.
    """
    rng = np.random.default_rng([seed, instance])
    x = (np.arange(segments) + 0.5) / segments
    k = np.arange(1, SMOOTH_MODES + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(2, SMOOTH_MODES))
    profile = (SMOOTH_AMPLITUDE / k) * np.cos(2.0 * np.pi * k * x[:, None] + phases[:, None, :])
    g, th = profile.sum(axis=2)
    c, s, e = np.cos(th), np.sin(th), np.exp(g)
    h11 = c * c * e + s * s / e
    h22 = s * s * e + c * c / e
    h12 = c * s * (e - 1.0 / e)
    scale = 0.5 * (h11 + h22)
    mats = np.empty((segments, 2, 2))
    mats[:, 0, 0] = h11 / scale
    mats[:, 0, 1] = mats[:, 1, 0] = h12 / scale
    mats[:, 1, 1] = h22 / scale
    lengths = np.full(segments, SMOOTH_LENGTH / segments) * scale
    return model.Hamiltonian.from_lengths(lengths, mats)


# ---------------------------------------------------------------------------
# independent reference arithmetic for the checks
# ---------------------------------------------------------------------------


def exponential_type(H: model.Hamiltonian) -> float:
    dets = H.matrices[:, 0, 0] * H.matrices[:, 1, 1] - H.matrices[:, 0, 1] ** 2
    return float(np.sum(np.sqrt(np.maximum(dets, 0.0)) * np.diff(H.edges)))


def boundary_solution(H: model.Hamiltonian, z: np.ndarray, derivative: bool = False):
    """``theta_minus(ell, z)`` (and its z-derivative) for real ``z``, vectorized.

    Segment factor ``F = cos(w) I + z d sinc(w/pi) K`` with ``w = z d sqrt(det)``
    and ``K = -J H``; its z-derivative is ``d (-sqrt(det) sin(w) I + cos(w) K)``.
    Propagates the first column ``(theta_plus, theta_minus)`` from ``(1, 0)``.
    """
    z = np.asarray(z, dtype=float)
    u, v = np.ones_like(z), np.zeros_like(z)
    du, dv = np.zeros_like(z), np.zeros_like(z)
    for d, h in zip(np.diff(H.edges), H.matrices):
        root = np.sqrt(max(h[0, 0] * h[1, 1] - h[0, 1] ** 2, 0.0))
        w = z * (d * root)
        cw = np.cos(w)
        sw = z * d * np.sinc(w / np.pi)
        ku = h[0, 1] * u + h[1, 1] * v
        kv = -h[0, 0] * u - h[0, 1] * v
        if derivative:
            dku = h[0, 1] * du + h[1, 1] * dv
            dkv = -h[0, 0] * du - h[0, 1] * dv
            sn = np.sin(w)
            du, dv = (
                d * (-root * sn * u + cw * ku) + cw * du + sw * dku,
                d * (-root * sn * v + cw * kv) + cw * dv + sw * dkv,
            )
        u, v = cw * u + sw * ku, cw * v + sw * kv
    return (v, dv) if derivative else v


def relative_l1(ref: model.Hamiltonian, got: model.Hamiltonian) -> float:
    """Largest entrywise ``integral |got - ref| / max(integral |ref|, ell)``.

    Both weights are extended by zero to the longer interval, so a wrong
    recovered length counts as error too.
    """
    ell = max(ref.ell, got.ell)
    cuts = np.unique(np.concatenate([ref.edges, got.edges]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    d = np.diff(cuts)

    def values(H):
        idx = np.searchsorted(H.edges, mid, side="right") - 1
        inside = (idx >= 0) & (idx < H.nsegments)
        out = np.zeros((mid.size, 2, 2))
        out[inside] = H.matrices[idx[inside]]
        return out

    a, b = values(got), values(ref)
    l1 = np.einsum("n,nij->ij", d, np.abs(a - b))
    denom = np.maximum(np.einsum("n,nij->ij", d, np.abs(b)), ell)
    return float(np.max(l1 / denom))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    ok: bool
    err: float  # the workload's accuracy number (result_err)
    detail: dict


@dataclass(frozen=True)
class Workload:
    """One benchmark case.

    ``instances`` inputs are drawn from the seed; a run cycles through them,
    covering each at least once, and ``result_err`` is the mean of their
    accuracy numbers.  The accuracy of a smooth weight varies with its
    phases (about +-25% on ``wide-roundtrip``); the mean over instances keeps
    the figure comparable from seed to seed.
    """

    name: str
    instances: int
    make_input: Callable[[int, int], Any]
    solve: Callable[[Any], Any]
    check: Callable[[Any, Any], Check]
    sizes: Callable[[Any, Any], dict]


def _free_input(seed: int, instance: int) -> model.Hamiltonian:
    return model.Hamiltonian.identity(np.pi)  # no randomness: the seed is ignored


def _free_solve(H):
    mu = forward.spectral_measure(H, FREE_WINDOW)
    cfg = model.GridConfig.for_bandwidth(np.pi, **FREE_GRID)
    return mu, inverse.RecoveryPipeline(mu, c=0.0, cfg=cfg).run()


def _free_check(H, out) -> Check:
    _, result = out
    Hr = result.hamiltonian
    mids = 0.5 * (Hr.edges[:-1] + Hr.edges[1:])
    inner = (mids >= FREE_INTERIOR * np.pi) & (mids <= (1.0 - FREE_INTERIOR) * np.pi)
    sup = float(np.max(np.abs(Hr.matrices[inner] - np.eye(2))))
    s, zeta = result.zeta_table[:, 0], result.zeta_table[:, 1]
    zeta_err = float(np.max(np.abs(zeta - s)))
    definitional = float(result.diagnostics["definitional_residual_max"])
    ok = sup <= 5e-3 and zeta_err <= 1e-4 and definitional <= 1e-6
    return Check(ok, sup, {"zeta_err": zeta_err, "definitional_residual": definitional})


def _roundtrip_sizes(H, out) -> dict:
    mu, result = out
    return {
        "atoms": int(mu.positions.size),
        "slices": int(result.zeta_table.shape[0] - 1),
        "segments": int(H.nsegments),
    }


def _forward_input(seed: int, instance: int) -> model.Hamiltonian:
    return smooth_weight(seed, instance, FORWARD_SEGMENTS)


def _forward_solve(H):
    return forward.spectral_measure(H, FORWARD_WINDOW)


def _forward_check(H, mu) -> Check:
    lam = exponential_type(H)
    # find_zeros scans with step pi/(4 type); count sign changes 4x finer,
    # on each side of the origin, which is always an atom
    h = np.pi / (16.0 * lam)
    n = int(np.ceil(FORWARD_WINDOW / h))
    grid = np.linspace(0.0, FORWARD_WINDOW, n + 1)[1:]
    vals = boundary_solution(H, np.concatenate([-grid[::-1], grid]))
    neg, pos = vals[:n], vals[n:]
    count = 1 + int(np.sum(neg[:-1] * neg[1:] < 0)) + int(np.sum(pos[:-1] * pos[1:] < 0))

    theta, dtheta = boundary_solution(H, mu.positions, derivative=True)
    newton = float(np.max(np.abs(theta / dtheta))) / (np.pi / lam)

    probes = [-FORWARD_WINDOW, mu.positions[0], mu.positions[-1], FORWARD_WINDOW]
    det_res = 0.0
    for z in probes:
        M = forward.propagate(H, H.ell, z).entries
        det_res = max(det_res, abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] - 1.0))
    ok = count == mu.positions.size and det_res <= 1e-10 and bool(np.all(mu.masses > 0))
    return Check(
        ok,
        newton,
        {"atoms": int(mu.positions.size), "sign_changes": count, "det_residual": det_res},
    )


def _forward_sizes(H, mu) -> dict:
    return {"atoms": int(mu.positions.size), "segments": int(H.nsegments)}


def _wide_input(seed: int, instance: int) -> model.Hamiltonian:
    return smooth_weight(seed, instance, WIDE_SEGMENTS)


def _wide_solve(H):
    report = oracles.roundtrip(H, **WIDE_SETTINGS)
    return report.measure, report.result


def _wide_check(H, out) -> Check:
    _, result = out
    l1 = relative_l1(H, result.hamiltonian)
    return Check(l1 <= 0.05, l1, {})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("free-roundtrip", 1, _free_input, _free_solve, _free_check, _roundtrip_sizes),
        Workload(
            "forward-segments", 8, _forward_input, _forward_solve, _forward_check, _forward_sizes
        ),
        Workload("wide-roundtrip", 6, _wide_input, _wide_solve, _wide_check, _roundtrip_sizes),
    )
}
