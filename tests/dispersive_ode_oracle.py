"""Literal integration of the driven dispersive stage, kept as a test oracle.

The package evolves the stage exactly in its detuned frame
(``evolution.Propagator``). This module integrates the oscillating
Hamiltonian itself, with DOP853 under a step cap that resolves the fast
phases, so the tests can compare the two routes. It integrates through
``evolution.solve_ivp``, which imports ``scipy.integrate`` on its first call;
the name is looked up at call time, so a wrapper installed there sees it.
"""

from __future__ import annotations

import numpy as np

from ghz_transfer import evolution
from ghz_transfer.evolution import EvolutionError
from ghz_transfer.hamiltonians import DispersiveGenerator
from ghz_transfer.hilbert import QuantumState

# phases e^(i delta t) must be sampled many times per cycle by the literal
# integrator; 50 steps per radian of the fastest detuning is the contract
FAST_PHASE_STEPS = 50.0


def integrate(
    state: QuantumState,
    generator: DispersiveGenerator,
    duration: float,
    *,
    tolerance: float = 1e-11,
    max_step: float | None = None,
) -> QuantumState:
    """The state after ``duration``, at relative tolerance ``tolerance`` under the step cap."""
    if duration < 0:
        raise ValueError("the literal integrator only runs forward in time")
    cap = 1.0 / (FAST_PHASE_STEPS * generator.max_detuning)
    if max_step is None:
        max_step = cap
    elif max_step > cap:
        raise ValueError(
            f"max_step {max_step:g} s cannot resolve the fastest phase; "
            f"needs <= {cap:g} s"
        )
    if duration == 0.0:
        return state.copy()
    rtol = max(tolerance, 1e-12)
    sol = evolution.solve_ivp(
        lambda t, y: -1j * generator.apply(t, y),
        (0.0, duration),
        np.array(state.amplitudes, dtype=complex, copy=True),
        method="DOP853",
        rtol=rtol,
        atol=rtol * 1e-2,
        max_step=max_step,
        t_eval=[duration],
    )
    if not sol.success:
        raise EvolutionError(f"integration failed: {sol.message}")
    return QuantumState(sol.y[:, -1].copy(), state.layout)
