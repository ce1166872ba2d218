"""Direct and inverse spectral computations for 2x2 canonical systems."""

import importlib

from .model import (
    ComparabilityError,
    GridConfig,
    Hamiltonian,
    InvariantViolation,
    NumericalError,
    ReconstructionResult,
    SpectralMeasure,
    TransferMatrix,
    ValidationError,
    load_hamiltonian,
    load_measure,
    normalize_trace,
    save_hamiltonian,
    save_measure,
)
from .forward import (
    WeylValue,
    exponential_type,
    find_zeros,
    herglotz_constants,
    propagate,
    spectral_measure,
    weyl_function,
)

__version__ = "0.1.0"

#: names that load SciPy, imported on first use (PEP 562) so that the
#: forward side starts with NumPy alone
_LAZY = {
    "PWBasis": "pwspace",
    "PWOperator": "pwspace",
    "build_operator": "pwspace",
    "frame_bounds": "pwspace",
    "sinc_kernel": "pwspace",
    "RecoveryPipeline": "inverse",
}

__all__ = [
    "ComparabilityError",
    "GridConfig",
    "Hamiltonian",
    "InvariantViolation",
    "NumericalError",
    "ReconstructionResult",
    "SpectralMeasure",
    "TransferMatrix",
    "ValidationError",
    "WeylValue",
    "PWBasis",
    "PWOperator",
    "RecoveryPipeline",
    "build_operator",
    "exponential_type",
    "find_zeros",
    "frame_bounds",
    "herglotz_constants",
    "load_hamiltonian",
    "load_measure",
    "normalize_trace",
    "propagate",
    "save_hamiltonian",
    "save_measure",
    "sinc_kernel",
    "spectral_measure",
    "weyl_function",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
