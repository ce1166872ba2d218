"""Direct and inverse spectral computations for 2x2 canonical systems."""

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
from .pwspace import PWBasis, PWOperator, build_operator, frame_bounds, sinc_kernel
from .inverse import RecoveryPipeline

__version__ = "0.1.0"

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
