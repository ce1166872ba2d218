import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from canspec import forward, oracles

# every run draws the same examples, so local runs and CI agree
settings.register_profile("canspec", derandomize=True, deadline=None, database=None)
settings.load_profile("canspec")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def free_pi():
    """Identity weight on [0, pi] with its analytic measure, window 200."""
    return oracles.free_fixture(np.pi, 200.0)


@pytest.fixture(scope="session")
def free_one():
    """Identity weight on [0, 1], window 200*pi (atoms at pi*k)."""
    return oracles.free_fixture(1.0, 200.0 * np.pi)


@pytest.fixture(scope="session")
def step_hamiltonian():
    return oracles.step_fixture(1.2)


@pytest.fixture(scope="session")
def step_measure(step_hamiltonian):
    return forward.spectral_measure(step_hamiltonian, 200.0)


@pytest.fixture(scope="session")
def step_measure_small(step_hamiltonian):
    return forward.spectral_measure(step_hamiltonian, 60.0)


@pytest.fixture(scope="session")
def wide_workload():
    """The wide-roundtrip benchmark module ``perfbench/workloads.py``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.fixture(scope="session")
def wide_hamiltonian(wide_workload):
    """The wide-roundtrip benchmark weight, seed 0, instance 0."""
    return wide_workload.smooth_weight(0, 0, wide_workload.WIDE_SEGMENTS)


@pytest.fixture(scope="session")
def wide_measure(wide_hamiltonian, wide_workload):
    """The wide-roundtrip benchmark measure, seed 0, instance 0 (about 800 atoms)."""
    return forward.spectral_measure(wide_hamiltonian, wide_workload.WIDE_SETTINGS["window"])
