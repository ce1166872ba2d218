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


@pytest.mark.parametrize("name", ["free-roundtrip", "forward-segments", "wide-roundtrip"])
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
    assert check.ok, check
