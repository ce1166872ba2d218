"""canspec benchmark: one workload per run, closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``solve_s``: median wall time of an iteration that passed its check;
* ``setup_s``: median wall time of a fresh interpreter that imports canspec
  and runs one tiny ``canspec forward`` (``setup_probe.py``);
* ``peak_rss_mb``: peak resident memory of this process;
* ``result_err``: the workload's accuracy number (see ``workloads.py``),
  averaged over the workload's seeded instances;
* ``ok_ratio``: iterations that passed their check over iterations attempted.

``--trace 1`` measures the per-layer metrics of ``tracing.py``.  Two thirds
of the time alternate untraced and traced iterations (the ratio of their
medians gives ``trace.overhead_ratio``); the last third is a traced child
with ``OPENBLAS_NUM_THREADS=1``, the single-threaded baseline.  ``--workload all`` runs every workload in its
own process and prints every end-to-end metric with its unit, plus
``fail_ratio``.

The last line of standard output is the JSON result; the lines before it
are for people.  Run records and spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("free-roundtrip", "forward-segments", "wide-roundtrip")
END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "result_err": "1",
    "ok_ratio": "ratio",
}
SETUP_REPEATS = 3  # plus one unmeasured run that fills the caches first
SINGLE_THREAD = (
    "solve_s",
    "forward.self_s",
    "pwspace.functions_at_s",
    "pwspace.cholesky_s",
    "pwspace.cholesky_gflops",
    "pwspace.self_s",
    "inverse.self_s",
)
CHILD_TIMEOUT = 170


def _say(line: str) -> None:
    print(f"# {line}", flush=True)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, by library file name."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    def blas(show):
        try:
            deps = show(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except (AttributeError, KeyError, TypeError):  # informational only
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# set-up: cold start of the command line
# ---------------------------------------------------------------------------

_TINY_WEIGHT = {
    "ell": 2.0,
    "segments": [
        {"r0": 0.0, "r1": 1.0, "h": [[1.2, 0.0], [0.0, 1.0 / 1.2]]},
        {"r0": 1.0, "r1": 2.0, "h": [[1.0 / 1.2, 0.0], [0.0, 1.2]]},
    ],
}


def run_child(cmd: list[str], timeout: float, env=None) -> dict | None:
    """Run a child to its end; its last output line as JSON, or None if it failed."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"perfbench: {cmd[1]} timed out after {timeout} s", file=sys.stderr)
        return None
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        doc = None
    if proc.returncode != 0 or not isinstance(doc, dict):
        sys.stderr.write(proc.stderr)
        return None
    return doc


def _valid_measure(path: Path) -> bool:
    try:
        masses = [a["mass"] for a in json.loads(path.read_text())["atoms"]]
    except (OSError, KeyError, TypeError, ValueError):
        return False
    return min(masses, default=0.0) > 0.0


def measure_setup(repeats: int) -> list[dict]:
    """Wall time of ``repeats`` cold CLI starts, each checked for a valid measure."""
    work = OUT / f"setup-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    weight = work / "H.json"
    weight.write_text(json.dumps(_TINY_WEIGHT))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(weight), str(work)]
    runs = []
    try:
        for i in range(repeats + 1):
            (work / "measure.json").unlink(missing_ok=True)
            t0 = perf_counter()
            probe = run_child(cmd, CHILD_TIMEOUT)
            wall = perf_counter() - t0
            ok = probe is not None and probe.get("rc") == 0 and _valid_measure(work / "measure.json")
            if i > 0:
                runs.append({"wall": wall, "ok": ok, **(probe or {})})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return runs


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_loop(
    wl, inputs, seconds: float, min_iterations: int, tracer=None, alternate=False
) -> list[dict]:
    """Iterate over ``inputs`` cyclically until both limits are met.

    Each iteration times ``wl.solve`` alone, then checks its output.  An
    exception or a failed check counts as a failed iteration; nothing is
    retried or dropped.  With a ``tracer`` every iteration is traced, or with
    ``alternate`` every second one, each input running untraced then traced,
    so drifts in machine speed hit both alike.
    """
    solve = wl.solve if tracer is None else tracer.wrap(tracer.ROOT, wl.solve)
    step = 2 if alternate else 1
    records = []
    start = perf_counter()
    i = 0
    while i < min_iterations or i % step or perf_counter() - start < seconds:
        instance = (i // step) % len(inputs)
        traced = tracer is not None and i % step == step - 1
        rec = {"iteration": i, "instance": instance, "traced": traced, "ok": False, "err": None}
        if traced:
            tracer.iteration, tracer.active = i, True
        t0 = perf_counter()
        try:
            out = solve(inputs[instance])
            rec["seconds"] = perf_counter() - t0
        except Exception:  # a failed iteration is counted, never retried
            rec["seconds"] = perf_counter() - t0
            rec["error"] = traceback.format_exc(limit=3)
            out = None
        finally:
            if tracer is not None:
                tracer.active = False
        if out is not None:
            try:
                check = wl.check(inputs[instance], out)
                rec.update(ok=check.ok, err=check.err, detail=check.detail)
                rec["sizes"] = wl.sizes(inputs[instance], out)
            except Exception:
                rec["error"] = traceback.format_exc(limit=3)
        if rec.get("error"):
            sys.stderr.write(rec["error"])
        del out
        records.append(rec)
        i += 1
    return records


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def solve_times(records: list[dict]) -> list[float]:
    """Times of the passing iterations, or of all when none passed."""
    good = [r["seconds"] for r in records if r["ok"]]
    return good or [r["seconds"] for r in records]


def report_times(label: str, records: list[dict]) -> float:
    times = solve_times(records)
    med = statistics.median(times)
    tail = tail_percentile(times)
    tail_txt = f"p{tail[0]}={tail[1]:.6g}" if tail else "tail percentile n/a (<= 10 samples)"
    passing = sum(r["ok"] for r in records)
    _say(f"{label} median={med:.6g} s over n={len(times)} iterations "
         f"({passing} passing), {tail_txt}")
    return med


def _inputs(wl, seed: int) -> list:
    return [wl.make_input(seed, i) for i in range(wl.instances)]


def _write(name: str, doc: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(json.dumps(doc, indent=1, default=float) + "\n")


def _result(correct, attempted, failed, metrics: dict, units: dict, kinds=None) -> None:
    for name, value in metrics.items():
        kind = (kinds or {}).get(name, "measured")
        _say(f"metric {name} = {value!r} {units[name]}" + (f" [{kind}]" if kinds else ""))
    doc = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(doc), flush=True)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def end_to_end(args, wl, env: dict) -> int:
    setup = measure_setup(SETUP_REPEATS)
    inputs = _inputs(wl, args.seed)
    records = run_loop(wl, inputs, args.seconds, min_iterations=len(inputs))
    failed = sum(not r["ok"] for r in records)
    first_pass = [r["err"] for r in records[: len(inputs)] if r["err"] is not None]
    metrics = {
        "solve_s": report_times("solve_s", records),
        "setup_s": statistics.median(s["wall"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # no instance produced a result: not one accurate digit
        "result_err": statistics.fmean(first_pass) if first_pass else 1.0,
        "ok_ratio": (len(records) - failed) / len(records),
    }
    sizes = next((r["sizes"] for r in records if "sizes" in r), {})
    _say("sizes " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    _say(f"fail_ratio = {failed / len(records)!r} ({failed} of {len(records)} iterations)")
    _write(
        f"result-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env,
         "sizes": sizes, "setup": setup, "iterations": records, "metrics": metrics},
    )
    correct = failed == 0 and all(s["ok"] for s in setup)
    _result(correct, len(records), failed, metrics, END_TO_END)
    return 0


def traced_phase(wl, inputs, seconds: float, alternate=False):
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        records = run_loop(
            wl, inputs, seconds, 2 if alternate else 1, tracer=tracer, alternate=alternate
        )
    finally:
        tracer.restore()
    layers, absent = tracing.layer_metrics(tracer)
    return tracer, records, layers, absent


def single_thread_child(args, wl) -> int:
    """Traced loop only; prints its per-layer metrics as one JSON line."""
    _, records, layers, _ = traced_phase(wl, _inputs(wl, args.seed), args.seconds)
    layers["solve_s"] = statistics.median(solve_times(records))
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({"attempted": len(records), "failed": failed, "metrics": layers}))
    return 0


def per_layer(args, wl, env: dict) -> int:
    import tracing

    third = args.seconds / 3.0
    setup = measure_setup(SETUP_REPEATS)
    inputs = _inputs(wl, args.seed)

    tracer, records, layers, absent = traced_phase(wl, inputs, 2.0 * third, alternate=True)
    plain_s = report_times("untraced solve_s", [r for r in records if not r["traced"]])
    traced_s = report_times("traced solve_s", [r for r in records if r["traced"]])

    child_env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(third), "--phase", "single-thread"]
    # a child that gave no result counts as one failed attempt
    child = run_child(cmd, CHILD_TIMEOUT, env=child_env) or {
        "attempted": 1, "failed": 1, "metrics": {}
    }

    metrics = dict(layers)
    metrics["cli.import_s"] = statistics.median(s.get("import_s", 0.0) for s in setup)
    metrics["cli.command_s"] = statistics.median(s.get("command_s", 0.0) for s in setup)
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    for name in SINGLE_THREAD:
        metrics[f"single_thread.{name}"] = child["metrics"].get(name, 0.0)
    units = {n: u for n, (u, _, _) in tracing.PER_LAYER.items()}
    units.update({"cli.import_s": "s", "cli.command_s": "s", "trace.overhead_ratio": "ratio"})
    units.update({f"single_thread.{n}": units.get(n, "s") for n in SINGLE_THREAD})

    kinds = {n: k for n, (_, k, _) in tracing.PER_LAYER.items()}
    if absent:
        _say("absent (wrapped name missing, reported as 0): " + ", ".join(absent))
    failed = sum(not r["ok"] for r in records) + child["failed"]
    attempted = len(records) + child["attempted"]
    _write(
        f"trace-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env,
         "single_thread_env": {"OPENBLAS_NUM_THREADS": "1"}, "kinds": kinds,
         "absent": absent, "setup": setup, "iterations": records, "metrics": metrics,
         "single_thread": child, "spans": tracer.spans},
    )
    correct = failed == 0 and all(s["ok"] for s in setup)
    _result(correct, attempted, failed, metrics, units, kinds)
    return 0


def all_workloads(args) -> int:
    """Every end-to-end metric of every workload, one process per workload."""
    rows, bad = [], False
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0"]
        doc = run_child(cmd, CHILD_TIMEOUT + 60)
        if doc is None:
            print(f"{name}: no result")
            bad = True
            continue
        for metric, m in doc["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "fail_ratio", doc["failed"] / doc["attempted"], "ratio"))
        bad |= not doc["correct"]
    print(f"{'workload':<18} {'metric':<12} {'value':>14}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<18} {metric:<12} {value:>14.6g}  {unit}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("single-thread",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "canspec" / "__init__.py").is_file():
        print(f"perfbench: no canspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return all_workloads(args)

    import canspec

    if Path(canspec.__file__).resolve().parent != SRC / "canspec":
        print(f"perfbench: imported canspec from {canspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.phase == "single-thread":
        return single_thread_child(args, wl)
    env = environment()
    _say(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    _say("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    return per_layer(args, wl, env) if args.trace else end_to_end(args, wl, env)


if __name__ == "__main__":
    sys.exit(main())
