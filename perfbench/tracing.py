"""Spans around canspec's public functions, installed from outside the package.

Functions are wrapped where their callers look them up: module globals for
``forward`` (its internal calls resolve through them), every module that
imports ``build_operator``/``apply_inverse`` by name, methods on their
classes, and ``pwspace``'s own view of ``scipy.linalg.cho_factor``.  A name
that no longer exists, or whose arguments no longer yield its counts, is
recorded as absent; the metrics that need it are reported as 0 and listed
in the trace file.

Spans live in memory (name, start, end, parent, iteration) and are written
out when the run ends; self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from time import perf_counter

import numpy as np

class Tracer:
    ROOT = "iteration"  # the span around one workload iteration

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.iteration: int | None = None
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a span per call while the tracer is active.

        ``attrs(arguments, result)`` returns extra fields for the span; it runs
        after the span has closed, so its cost is not part of the span.
        """
        sig = inspect.signature(fn) if attrs else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "iteration": tracer.iteration,
            }
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if attrs:
                try:
                    span.update(attrs(sig.bind(*args, **kwargs).arguments, result))
                except (TypeError, KeyError, AttributeError, IndexError):
                    # a changed signature or result loses the counts, never the run
                    if name not in tracer.absent:
                        tracer.absent.append(name)
            return result

        return traced

    def patch(self, name: str, owner, attr: str, also=(), attrs=None) -> None:
        """Replace ``owner.attr`` and the same object in ``also`` by a traced wrapper."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(name)
            return
        wrapped = self.wrap(name, orig, attrs)
        for target in (owner, *also):
            if getattr(target, attr, None) is orig:
                setattr(target, attr, wrapped)
                self._undo.append((target, attr, orig))

    def restore(self) -> None:
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)


class _View:
    """A module seen through a few replaced attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


# ---------------------------------------------------------------------------
# instrumentation of canspec
# ---------------------------------------------------------------------------


def _propagation(a, result):
    """Points propagated (exact, from the z-array size) and segment steps (computed)."""
    H, r = a["H"], a["r"]
    points = int(np.size(a["z"]))
    touched = int(np.count_nonzero(H.edges[:-1] < r))
    return {"points": points, "segment_steps": points * touched}


def _transfer(a, result):
    out = _propagation(a, result)
    M = np.asarray(result)
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    out["det_residual"] = float(np.max(np.abs(det - 1.0))) if det.size else 0.0
    return out


def instrument(tracer: Tracer) -> None:
    from canspec import forward, inverse, oracles, pwspace

    for fn in ("spectral_measure", "find_zeros", "herglotz_constants"):
        attrs = None
        if fn == "spectral_measure":
            attrs = lambda a, mu: {  # noqa: E731
                "atoms": int(mu.positions.size),
                "segments": int(a["H"].nsegments),
            }
        tracer.patch(f"forward.{fn}", forward, fn, attrs=attrs)
    tracer.patch("forward.transfer_entries", forward, "transfer_entries", attrs=_transfer)
    tracer.patch(
        "forward.theta_and_derivative", forward, "theta_and_derivative", attrs=_propagation
    )

    importers = (inverse, oracles)
    tracer.patch(
        "pwspace.build_operator",
        pwspace,
        "build_operator",
        also=importers,
        attrs=lambda a, op: {"n": 2 * int(a["half_size"]) + 1},
    )
    tracer.patch("pwspace.apply_inverse", pwspace, "apply_inverse", also=importers)
    tracer.patch(
        "pwspace.functions_at",
        pwspace.PWBasis,
        "functions_at",
        attrs=lambda a, out: {"points": int(np.size(a["points"])), "pairs": int(np.size(out))},
    )
    scipy = getattr(pwspace, "scipy", None)
    cho = getattr(getattr(scipy, "linalg", None), "cho_factor", None)
    if cho is None:
        tracer.absent.append("pwspace.cholesky")
    else:
        wrapped = tracer.wrap(
            "pwspace.cholesky", cho, attrs=lambda a, out: {"n": int(np.shape(a["a"])[0])}
        )
        pwspace.scipy = _View(scipy, linalg=_View(scipy.linalg, cho_factor=wrapped))
        tracer._undo.append((pwspace, "scipy", scipy))

    pipeline = inverse.RecoveryPipeline
    tracer.patch("inverse.pipeline_init", pipeline, "__init__")
    tracer.patch("inverse.slice_at", pipeline, "slice_at")
    tracer.patch(
        "inverse.run",
        pipeline,
        "run",
        attrs=lambda a, result: {
            key: float(result.diagnostics[key])
            for key in (
                "sine_norm_residual_max",
                "definitional_residual_max",
                "psd_projection_max",
            )
            if key in result.diagnostics
        },
    )
    tracer.patch("oracles.roundtrip", oracles, "roundtrip")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one iteration
# ---------------------------------------------------------------------------

#: name -> (unit, "measured" | "exact" | "computed", spans it needs)
PER_LAYER = {
    "forward.spectral_measure_s": ("s", "measured", ["forward.spectral_measure"]),
    "forward.find_zeros_s": ("s", "measured", ["forward.find_zeros"]),
    "forward.herglotz_constants_s": ("s", "measured", ["forward.herglotz_constants"]),
    "forward.transfer_entries_calls": ("count", "exact", ["forward.transfer_entries"]),
    "forward.transfer_entries_s": ("s", "measured", ["forward.transfer_entries"]),
    "forward.theta_and_derivative_calls": ("count", "exact", ["forward.theta_and_derivative"]),
    "forward.theta_and_derivative_s": ("s", "measured", ["forward.theta_and_derivative"]),
    "forward.propagated_points": (
        "count", "exact", ["forward.transfer_entries", "forward.theta_and_derivative"]
    ),
    "forward.segment_steps": (
        "count", "computed", ["forward.transfer_entries", "forward.theta_and_derivative"]
    ),
    "forward.atoms": ("count", "exact", ["forward.spectral_measure"]),
    "forward.segments": ("count", "exact", ["forward.spectral_measure"]),
    "forward.max_det_residual": ("1", "measured", ["forward.transfer_entries"]),
    "forward.self_s": ("s", "measured", []),
    "pwspace.build_operator_calls": ("count", "exact", ["pwspace.build_operator"]),
    "pwspace.build_operator_s": ("s", "measured", ["pwspace.build_operator"]),
    "pwspace.functions_at_calls": ("count", "exact", ["pwspace.functions_at"]),
    "pwspace.functions_at_s": ("s", "measured", ["pwspace.functions_at"]),
    "pwspace.sinc_pairs": ("count", "exact", ["pwspace.functions_at"]),
    "pwspace.cholesky_s": ("s", "measured", ["pwspace.cholesky"]),
    "pwspace.cholesky_flops": ("flop", "computed", ["pwspace.cholesky"]),
    "pwspace.cholesky_gflops": ("Gflop/s", "measured", ["pwspace.cholesky"]),
    "pwspace.gram_flops": ("flop", "computed", ["pwspace.build_operator", "pwspace.functions_at"]),
    "pwspace.apply_inverse_calls": ("count", "exact", ["pwspace.apply_inverse"]),
    "pwspace.apply_inverse_s": ("s", "measured", ["pwspace.apply_inverse"]),
    "pwspace.basis_size_max": ("count", "exact", ["pwspace.build_operator"]),
    "pwspace.self_s": ("s", "measured", []),
    "inverse.pipeline_init_s": ("s", "measured", ["inverse.pipeline_init"]),
    "inverse.slices": ("count", "exact", ["inverse.slice_at"]),
    "inverse.slice_at_s": ("s", "measured", ["inverse.slice_at"]),
    "inverse.slice_self_s": ("s", "measured", ["inverse.slice_at"]),
    "inverse.assembly_s": ("s", "measured", ["inverse.run"]),
    "inverse.sine_norm_residual_max": ("1", "measured", ["inverse.run"]),
    "inverse.definitional_residual_max": ("1", "measured", ["inverse.run"]),
    "inverse.psd_projection_max": ("1", "measured", ["inverse.run"]),
    "inverse.self_s": ("s", "measured", []),
    "oracles.roundtrip_s": ("s", "measured", ["oracles.roundtrip"]),
    "oracles.roundtrip_self_s": ("s", "measured", ["oracles.roundtrip"]),
    "trace.unattributed_s": ("s", "measured", []),
    "trace.attributed_ratio": ("ratio", "measured", []),
}

TIMES = [name for name, (unit, _, _) in PER_LAYER.items() if unit == "s"]


def iteration_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the spans of one iteration (one root span)."""
    by_id = {s["_id"]: s for s in spans}
    child_time: dict[int, float] = {}
    child_points: dict[int, int] = {}  # points evaluated by a span's functions_at children
    for s in spans:
        parent = s["parent"]
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + s["end"] - s["start"]
            if s["name"] == "pwspace.functions_at":
                child_points[parent] = child_points.get(parent, 0) + s["points"]

    def ancestors(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
            yield s["name"]

    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    total: dict[str, float] = {}
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(s["_id"], 0.0)
        if name not in ancestors(s):  # recursion is counted once
            inclusive[name] = inclusive.get(name, 0.0) + dur
        for key in ("points", "segment_steps", "pairs"):
            if key in s:
                total[f"{name}.{key}"] = total.get(f"{name}.{key}", 0) + s[key]

    def field(name, key, default=0.0):
        vals = [s[key] for s in spans if s["name"] == name and key in s]
        return max(vals) if vals else default

    def module_self(prefix):
        return sum(v for k, v in self_time.items() if k.startswith(prefix + "."))

    propagators = ("forward.transfer_entries", "forward.theta_and_derivative")
    chol_s = inclusive.get("pwspace.cholesky", 0.0)
    chol_flops = sum(s["n"] ** 3 / 3.0 for s in spans if s["name"] == "pwspace.cholesky")
    gram_flops = sum(
        2.0 * s["n"] ** 2 * child_points.get(s["_id"], 0)
        for s in spans
        if s["name"] == "pwspace.build_operator"
    )
    root = inclusive.get(Tracer.ROOT, 0.0)
    attributed = sum(module_self(m) for m in ("forward", "pwspace", "inverse", "oracles"))

    return {
        "forward.spectral_measure_s": inclusive.get("forward.spectral_measure", 0.0),
        "forward.find_zeros_s": inclusive.get("forward.find_zeros", 0.0),
        "forward.herglotz_constants_s": inclusive.get("forward.herglotz_constants", 0.0),
        "forward.transfer_entries_calls": calls.get("forward.transfer_entries", 0),
        "forward.transfer_entries_s": inclusive.get("forward.transfer_entries", 0.0),
        "forward.theta_and_derivative_calls": calls.get("forward.theta_and_derivative", 0),
        "forward.theta_and_derivative_s": inclusive.get("forward.theta_and_derivative", 0.0),
        "forward.propagated_points": sum(total.get(f"{p}.points", 0) for p in propagators),
        "forward.segment_steps": sum(total.get(f"{p}.segment_steps", 0) for p in propagators),
        "forward.atoms": field("forward.spectral_measure", "atoms", default=0),
        "forward.segments": field("forward.spectral_measure", "segments", default=0),
        "forward.max_det_residual": field("forward.transfer_entries", "det_residual"),
        "forward.self_s": module_self("forward"),
        "pwspace.build_operator_calls": calls.get("pwspace.build_operator", 0),
        "pwspace.build_operator_s": inclusive.get("pwspace.build_operator", 0.0),
        "pwspace.functions_at_calls": calls.get("pwspace.functions_at", 0),
        "pwspace.functions_at_s": inclusive.get("pwspace.functions_at", 0.0),
        "pwspace.sinc_pairs": total.get("pwspace.functions_at.pairs", 0),
        "pwspace.cholesky_s": chol_s,
        "pwspace.cholesky_flops": chol_flops,
        "pwspace.cholesky_gflops": _rate(chol_flops, chol_s),
        "pwspace.gram_flops": gram_flops,
        "pwspace.apply_inverse_calls": calls.get("pwspace.apply_inverse", 0),
        "pwspace.apply_inverse_s": inclusive.get("pwspace.apply_inverse", 0.0),
        "pwspace.basis_size_max": field("pwspace.build_operator", "n", default=0),
        "pwspace.self_s": module_self("pwspace"),
        "inverse.pipeline_init_s": inclusive.get("inverse.pipeline_init", 0.0),
        "inverse.slices": calls.get("inverse.slice_at", 0),
        "inverse.slice_at_s": inclusive.get("inverse.slice_at", 0.0),
        "inverse.slice_self_s": self_time.get("inverse.slice_at", 0.0),
        "inverse.assembly_s": self_time.get("inverse.run", 0.0),
        "inverse.sine_norm_residual_max": field("inverse.run", "sine_norm_residual_max"),
        "inverse.definitional_residual_max": field("inverse.run", "definitional_residual_max"),
        "inverse.psd_projection_max": field("inverse.run", "psd_projection_max"),
        "inverse.self_s": module_self("inverse"),
        "oracles.roundtrip_s": inclusive.get("oracles.roundtrip", 0.0),
        "oracles.roundtrip_self_s": self_time.get("oracles.roundtrip", 0.0),
        "trace.unattributed_s": self_time.get(Tracer.ROOT, 0.0),
        "trace.attributed_ratio": attributed / root if root > 0 else 0.0,
    }


def _rate(flops: float, seconds: float) -> float:
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over all traced iterations, and the absent ones.

    Times are medians over iterations; counts, sizes and certificates come
    from the first iteration, so they repeat exactly for a given seed.
    """
    per_iteration: dict[int, list[dict]] = {}
    for sid, s in enumerate(tracer.spans):
        s["_id"] = sid
        per_iteration.setdefault(s["iteration"], []).append(s)
    rows = [iteration_metrics(spans) for _, spans in sorted(per_iteration.items())]
    out = dict(rows[0])
    for name in TIMES:
        out[name] = statistics.median(r[name] for r in rows)
    out["trace.attributed_ratio"] = statistics.median(r["trace.attributed_ratio"] for r in rows)
    out["pwspace.cholesky_gflops"] = _rate(out["pwspace.cholesky_flops"], out["pwspace.cholesky_s"])
    absent = [
        name
        for name, (_, _, needs) in PER_LAYER.items()
        if any(n in tracer.absent for n in needs)
    ]
    for name in absent:
        out[name] = 0.0
    return out, absent
