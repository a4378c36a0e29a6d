"""Literal integration of the driven dispersive stage, kept as a test oracle.

The package evolves the stage exactly in its detuned frame
(``evolution.Propagator``). This module integrates the oscillating
Hamiltonian itself, with DOP853 under a step cap that resolves the fast
phases, so the tests can compare the two routes. It integrates through
``evolution.solve_ivp``, which imports ``scipy.integrate`` on its first call;
the name is looked up at call time, so a wrapper installed there sees it.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from ghz_transfer import evolution
from ghz_transfer.evolution import EvolutionError
from ghz_transfer.hamiltonians import DispersiveGenerator, drive_terms
from ghz_transfer.hilbert import OperatorMatrix, QuantumState, embed_operator

# phases e^(i delta t) must be sampled many times per cycle by the literal
# integrator; 50 steps per radian of the fastest detuning is the contract
FAST_PHASE_STEPS = 50.0


def max_detuning(generator: DispersiveGenerator) -> float:
    """The fastest phase of the drive, in rad/s."""
    return max(generator.params.delta, generator.params.delta_prime)


def _drive_parts(generator: DispersiveGenerator):
    """A, A^+, B and B^+ on the generator's basis, each summed term by term."""
    layout = generator.layout
    terms, left = drive_terms(layout, generator.params), len(layout.left_spectators)
    a_part, b_part = (
        reduce(add, (embed_operator(layout, term, generator.basis).matrix for term in part))
        for part in (terms[:left], terms[left:])
    )
    return a_part, a_part.getH().tocsr(), b_part, b_part.getH().tocsr()


def hamiltonian_at(generator: DispersiveGenerator, t: float) -> OperatorMatrix:
    """The Hamiltonian H(t) at one instant, as a sparse Hermitian operator on the generator's basis."""
    a_part, a_dag, b_part, b_dag = _drive_parts(generator)
    phase_l = np.exp(1j * generator.params.delta * t)
    phase_r = np.exp(1j * generator.params.delta_prime * t)
    mat = phase_l * a_part + np.conj(phase_l) * a_dag
    mat = mat + phase_r * b_part + np.conj(phase_r) * b_dag
    return OperatorMatrix(mat.tocsr(), generator.layout, hermitian=True, basis=generator.basis)


def drive_action(generator: DispersiveGenerator):
    """``apply(t, amplitudes)``: H(t) @ amplitudes on the generator's basis, never summing the matrix.

    Each of the four parts of :func:`_drive_parts` acts on its own.
    """
    params = generator.params
    a_part, a_dag, b_part, b_dag = _drive_parts(generator)

    def apply(t: float, amplitudes: np.ndarray) -> np.ndarray:
        phase_l = np.exp(1j * params.delta * t)
        phase_r = np.exp(1j * params.delta_prime * t)
        out = phase_l * (a_part @ amplitudes)
        out += np.conj(phase_l) * (a_dag @ amplitudes)
        out += phase_r * (b_part @ amplitudes)
        out += np.conj(phase_r) * (b_dag @ amplitudes)
        return out

    return apply


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
    cap = 1.0 / (FAST_PHASE_STEPS * max_detuning(generator))
    if max_step is None:
        max_step = cap
    elif max_step > cap:
        raise ValueError(
            f"max_step {max_step:g} s cannot resolve the fastest phase; "
            f"needs <= {cap:g} s"
        )
    if duration == 0.0:
        return QuantumState(state.amplitudes.copy(), state.layout, basis=state.basis)
    rtol = max(tolerance, 1e-12)
    apply = drive_action(generator)
    sol = evolution.solve_ivp(
        lambda t, y: -1j * apply(t, y),
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
    return QuantumState(sol.y[:, -1].copy(), state.layout, basis=state.basis)
