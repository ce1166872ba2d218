"""The benchmark in ``perfbench/`` still finds everything it traces and passes its checks.

A change that drops a traced function, renames an argument its counts are
read from, or removes a diagnostics key a check reads fails here instead of
only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


#: ``inverse.slice_at`` spans of one traced run, ``s_samples - 1`` of the workload's
#: grid: ``inverse.slices`` and ``inverse.slice_at_s`` read them
SLICES = {"free-roundtrip": 128, "forward-segments": 0, "wide-roundtrip": 32}


@pytest.mark.parametrize("name", list(SLICES))
def test_traced_workload_passes_its_check(perfbench, name):
    tracing, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    data = workload.make_input(0, 0)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        tracer.iteration, tracer.active = 0, True
        check = workload.check(data, workload.solve(data))
    finally:
        tracer.active = False
        tracer.restore()
    assert tracer.absent == []
    assert tracer.spans
    assert sum(span["name"] == "inverse.slice_at" for span in tracer.spans) == SLICES[name]
    assert check.ok, check
