"""Small constructors that only the tests need."""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ghz_transfer.evolution import EvolutionResult
from ghz_transfer.hilbert import QuantumState, SystemLayout
from ghz_transfer.units import TWO_PI


def two_pi_mhz(value: float) -> float:
    """Angular frequency in rad/s for ``value`` megahertz."""
    return TWO_PI * value * 1e6


def basis_state(layout: SystemLayout, assignments: Mapping[str, int | str] | None = None) -> QuantumState:
    """The product basis state with the given levels; unlisted sites sit at 0."""
    vec = np.zeros(layout.dim, dtype=complex)
    vec[layout.basis_index(assignments or {})] = 1.0
    return QuantumState(vec, layout)


def sampled_states(result: EvolutionResult) -> list[QuantumState]:
    """The sampled states of ``result`` on the whole register, one per sample time."""
    full = np.zeros((len(result.times), result.final.layout.dim), dtype=complex)
    full[:, result.support] = result.samples
    return [QuantumState(amps, result.final.layout) for amps in full]
