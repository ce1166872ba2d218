"""Summarize the runs in ``perfbench/out/`` into one result-history entry.

    python3 perfbench/collect.py --rev GIT_REVISION --out perfbench/results/BENCH_<n>.json

For each workload it takes every ``result-*.json`` (one per seed, from
``--trace 0``) and reports each end-to-end metric's median, quartiles and
spread (quartile distance over median, as ``statistics.quantiles`` gives
them), with the workload sizes.  The ``trace-*.json`` files (``--trace 1``)
add the per-layer metrics, as medians over their seeds, and the basis size.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def collect() -> dict:
    workloads: dict[str, dict] = {}
    for path in sorted(OUT.glob("result-*.json")):
        doc = json.loads(path.read_text())
        w = workloads.setdefault(doc["workload"], {"runs": [], "traces": []})
        w["runs"].append(doc)
    for path in sorted(OUT.glob("trace-*.json")):
        doc = json.loads(path.read_text())
        workloads.setdefault(doc["workload"], {"runs": [], "traces": []})["traces"].append(doc)

    entry = {}
    for name, w in sorted(workloads.items()):
        runs, traces = w["runs"], w["traces"]
        row: dict = {"seeds": sorted(r["seed"] for r in runs)}
        if runs:
            row["seconds"] = runs[0]["seconds"]
            row["sizes"] = runs[0]["sizes"]
            row["env"] = runs[0]["env"]
            row["iterations"] = sum(len(r["iterations"]) for r in runs)
            row["failed"] = sum(not i["ok"] for r in runs for i in r["iterations"])
            row["end_to_end"] = {
                m: summary([r["metrics"][m] for r in runs]) for m in runs[0]["metrics"]
            }
        if traces:
            row["trace_seeds"] = sorted(t["seed"] for t in traces)
            row["per_layer"] = {
                m: statistics.median(t["metrics"][m] for t in traces)
                for m in traces[0]["metrics"]
            }
            row["absent"] = sorted({a for t in traces for a in t["absent"]})
            if "sizes" in row:
                row["sizes"]["basis_size_max"] = row["per_layer"]["pwspace.basis_size_max"]
        entry[name] = row
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="git revision the runs measured")
    parser.add_argument("--note", default="", help="what this entry records")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    entry = {"revision": args.rev, "note": args.note, "workloads": collect()}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(entry, indent=1) + "\n")
    for name, row in entry["workloads"].items():
        for metric, s in row.get("end_to_end", {}).items():
            spread = s.get("spread")
            print(f"{name:<18} {metric:<12} median {s['median']:.6g}  n {s['n']}  "
                  f"spread {spread if spread is None else round(spread, 4)}")


if __name__ == "__main__":
    main()
