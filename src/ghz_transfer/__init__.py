"""Numerical simulator for coupler-mediated GHZ transfer between two cavities."""

from ghz_transfer.hilbert import (
    DensityMatrix,
    OperatorMatrix,
    QuantumState,
    SystemLayout,
    build_layout,
    embed_operator,
    embed_site_operator,
    mode_annihilation,
    mode_creation,
    partial_trace,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "OperatorMatrix",
    "QuantumState",
    "SystemLayout",
    "build_layout",
    "embed_operator",
    "embed_site_operator",
    "mode_annihilation",
    "mode_creation",
    "partial_trace",
    "__version__",
]
