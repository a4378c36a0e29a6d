"""Numerical simulator for coupler-mediated GHZ transfer between two cavities."""

from ghz_transfer.hilbert import (
    OperatorMatrix,
    QuantumState,
    SystemLayout,
    build_layout,
    embed_operator,
    partial_trace,
)

__version__ = "0.1.0"

__all__ = [
    "OperatorMatrix",
    "QuantumState",
    "SystemLayout",
    "build_layout",
    "embed_operator",
    "partial_trace",
    "__version__",
]
