"""Time evolution engines for pulse segments.

Three regimes, matched to how the protocol's stages are generated:

* static Hermitian generators (the resonant pulses, the reduced dispersive
  stage): dense eigendecomposition when the register is small enough, a
  Lanczos approximation of the matrix exponential action above that;
* the explicitly time-dependent dispersive stage: either an exact change
  of frame (the oscillating phases come from conjugating a static
  Hamiltonian with a diagonal frame generator, so evolving in that frame
  and undoing it afterwards is exact) or literal integration of the
  Schroedinger equation with a step cap that resolves the fast phases;
* open-system runs: every segment is piecewise constant, so the master
  equation is solved exactly, as the action of the exponential of the
  segment's Liouvillian on the vectorised density matrix.

All routes check norm/trace conservation and raise
:class:`EvolutionError` when the numerics drift; the open-system route
also warns when the density matrix loses positivity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import expm_multiply

from ghz_transfer.hamiltonians import DispersiveGenerator
from ghz_transfer.hilbert import DensityMatrix, OperatorMatrix, QuantumState

__all__ = [
    "EvolutionError",
    "EvolutionResult",
    "LindbladResult",
    "EIGH_DIM_LIMIT",
    "evolve_unitary",
    "evolve_lindblad",
    "lindblad_propagate",
    "krylov_expm_action",
    "checkpoint_fidelity",
]


class EvolutionError(RuntimeError):
    """Raised when an evolution route fails its conservation checks."""


# dense diagonalization is worth it up to here; above, Lanczos stepping
# wins on a single core and does not need the dim^2 memory
EIGH_DIM_LIMIT = 1024

NORM_DRIFT_LIMIT = 1e-9
TRACE_DRIFT_LIMIT = 1e-7
# a density matrix eigenvalue below this is reported as lost positivity
NEGATIVE_WEIGHT_LIMIT = -1e-6

# phases e^(i delta t) must be sampled many times per cycle by the literal
# integrator; 50 steps per radian of the fastest detuning is the contract
FAST_PHASE_STEPS = 50.0


@dataclass
class EvolutionResult:
    """Final state plus optionally sampled intermediate states."""

    final: QuantumState
    times: np.ndarray
    states: list[QuantumState]


@dataclass
class LindbladResult:
    final: DensityMatrix
    times: np.ndarray
    states: list[DensityMatrix]


# ---------------------------------------------------------------------------
# Lanczos action of exp(-i H t)

def _infinity_norm(matrix: sp.csr_matrix) -> float:
    if matrix.nnz == 0:
        return 0.0
    return float(np.max(np.asarray(abs(matrix).sum(axis=1))))


def _lanczos_step(matrix: sp.csr_matrix, vec: np.ndarray, dt: float, m: int, hnorm: float):
    """One exp(-i H dt) vec approximation from an m-dim Krylov space.

    Returns (result, error_estimate). Full reorthogonalization (two passes)
    keeps the basis orthonormal; the breakdown threshold is scaled by the
    operator norm because a closed invariant subspace leaves a residual of
    roundoff times ||H||, not roundoff times ||vec||. Normalizing that dust
    into the basis destroys orthogonality and silently corrupts the
    tridiagonal, so closure must be detected at the operator scale. A
    coupling below the threshold rotates by under hnorm*1e-12*dt anyway, so
    truncating there is exact to working tolerance.
    """
    n = vec.size
    m = min(m, n)
    norm0 = np.linalg.norm(vec)
    if norm0 == 0.0:
        return vec.copy(), 0.0
    breakdown = 1e-12 * hnorm
    V = np.empty((m, n), dtype=complex)
    alpha = np.empty(m)
    beta = np.empty(m)
    V[0] = vec / norm0
    k = m
    exact = False
    w = matrix @ V[0]
    alpha[0] = np.real(np.vdot(V[0], w))
    w = w - alpha[0] * V[0]
    for j in range(1, m):
        # reorthogonalize twice: one pass leaves O(eps*||H||) residue after
        # heavy cancellation, which is exactly the regime near closure
        w = w - V[:j].T @ (V[:j].conj() @ w)
        w = w - V[:j].T @ (V[:j].conj() @ w)
        beta[j - 1] = np.linalg.norm(w)
        if beta[j - 1] <= breakdown:
            k = j
            exact = True
            break
        V[j] = w / beta[j - 1]
        w = matrix @ V[j] - beta[j - 1] * V[j - 1]
        alpha[j] = np.real(np.vdot(V[j], w))
        w = w - alpha[j] * V[j]
    else:
        beta[m - 1] = np.linalg.norm(w)

    # stev, not the default stemr: near-closure steps produce legitimate
    # tiny off-diagonals that stemr's representation trick rejects
    # (LAPACK info=22); implicit QR handles them and m <= 48 keeps it cheap
    evals, evecs = eigh_tridiagonal(alpha[:k], beta[: k - 1], lapack_driver="stev")
    small = evecs @ (np.exp(-1j * dt * evals) * evecs[0])
    result = (small * norm0) @ V[:k]
    if exact:
        return result, 0.0
    return result, float(beta[k - 1] * abs(small[k - 1]) * norm0)


def krylov_expm_action(
    matrix: sp.csr_matrix,
    vec: np.ndarray,
    duration: float,
    *,
    tolerance: float = 1e-11,
    krylov_dim: int = 48,
) -> np.ndarray:
    """exp(-i * matrix * duration) @ vec for Hermitian sparse ``matrix``.

    Substeps so each Krylov solve covers about ten radians of the spectral
    bound, retrying with twice the substeps whenever the a-posteriori
    error estimate misses the budget.
    """
    if duration == 0.0:
        return np.array(vec, dtype=complex, copy=True)
    hnorm = _infinity_norm(matrix)
    if hnorm == 0.0:
        return np.array(vec, dtype=complex, copy=True)
    nsub = max(1, math.ceil(abs(duration) * hnorm / 10.0))
    for _attempt in range(7):
        dt = duration / nsub
        out = np.array(vec, dtype=complex, copy=True)
        budget = tolerance * max(1.0, np.linalg.norm(vec)) / nsub
        ok = True
        for _ in range(nsub):
            out, err = _lanczos_step(matrix, out, dt, krylov_dim, hnorm)
            if err > budget:
                ok = False
                break
        if ok:
            return out
        nsub *= 2
    raise EvolutionError(
        f"Krylov stepping failed to reach tolerance {tolerance:g} "
        f"with {nsub // 2} substeps"
    )


# ---------------------------------------------------------------------------
# static generators

def _eigh_factors(op: OperatorMatrix):
    cache = getattr(op, "_eigh_cache", None)
    if cache is None:
        evals, evecs = np.linalg.eigh(op.to_dense())
        cache = (evals, evecs)
        op._eigh_cache = cache
    return cache


def _static_propagate_eigh(op: OperatorMatrix, amps: np.ndarray, t: float) -> np.ndarray:
    evals, evecs = _eigh_factors(op)
    return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ amps))


def _evolve_static(
    state: QuantumState,
    generator: OperatorMatrix,
    duration: float,
    method: str,
    tolerance: float,
    times: np.ndarray,
) -> EvolutionResult:
    if not generator.hermitian:
        raise EvolutionError("unitary evolution needs a generator flagged hermitian")
    if method == "auto":
        method = "eigh" if generator.layout.dim <= EIGH_DIM_LIMIT else "krylov"
    if method not in ("eigh", "krylov"):
        raise ValueError(f"unknown method {method!r} for a static generator")

    states: list[QuantumState] = []
    if method == "eigh":
        for t in times:
            amps = _static_propagate_eigh(generator, state.amplitudes, float(t))
            states.append(QuantumState(amps, state.layout))
        final_amps = (
            states[-1].amplitudes
            if len(times) and times[-1] == duration
            else _static_propagate_eigh(generator, state.amplitudes, duration)
        )
    else:
        amps = np.array(state.amplitudes, copy=True)
        t_prev = 0.0
        for t in times:
            amps = krylov_expm_action(generator.matrix, amps, float(t) - t_prev, tolerance=tolerance)
            t_prev = float(t)
            states.append(QuantumState(amps.copy(), state.layout))
        final_amps = krylov_expm_action(generator.matrix, amps, duration - t_prev, tolerance=tolerance)
    return EvolutionResult(QuantumState(final_amps, state.layout), times, states)


# ---------------------------------------------------------------------------
# the driven dispersive stage

def _evolve_frame(
    state: QuantumState,
    generator: DispersiveGenerator,
    duration: float,
    inner_method: str,
    tolerance: float,
    times: np.ndarray,
) -> EvolutionResult:
    static = generator.static_hamiltonian()
    g = generator.frame_diagonal()
    # psi_interaction(t) = e^(+i G t) e^(-i H_static t) psi(0)
    base = _evolve_static(state, static, duration, inner_method, tolerance, times)
    states = [
        QuantumState(np.exp(1j * g * float(t)) * s.amplitudes, state.layout)
        for t, s in zip(times, base.states)
    ]
    final = QuantumState(np.exp(1j * g * duration) * base.final.amplitudes, state.layout)
    return EvolutionResult(final, times, states)


def _evolve_ode(
    state: QuantumState,
    generator: DispersiveGenerator,
    duration: float,
    tolerance: float,
    max_step: float | None,
    times: np.ndarray,
) -> EvolutionResult:
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
        states = [state.copy() for _ in times]
        return EvolutionResult(state.copy(), times, states)
    rtol = max(tolerance, 1e-12)
    atol = rtol * 1e-2
    if len(times) and times[-1] == duration:
        t_eval = times
    else:
        t_eval = np.concatenate([times, [duration]])
    sol = solve_ivp(
        lambda t, y: -1j * generator.apply(t, y),
        (0.0, duration),
        np.array(state.amplitudes, dtype=complex, copy=True),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        max_step=max_step,
        t_eval=t_eval,
    )
    if not sol.success:
        raise EvolutionError(f"integration failed: {sol.message}")
    states = [QuantumState(sol.y[:, i].copy(), state.layout) for i in range(len(times))]
    final = QuantumState(sol.y[:, -1].copy(), state.layout)
    return EvolutionResult(final, times, states)


def evolve_unitary(
    state: QuantumState,
    generator: OperatorMatrix | DispersiveGenerator,
    duration: float,
    *,
    method: str = "auto",
    tolerance: float = 1e-11,
    max_step: float | None = None,
    samples: int = 0,
) -> EvolutionResult:
    """Evolve a pure state under one pulse segment.

    ``method`` for static generators: ``auto`` (eigh up to
    ``EIGH_DIM_LIMIT``, Lanczos above), ``eigh``, ``krylov``. For the
    driven dispersive generator: ``auto``/``frame`` evolve in the detuned
    frame (exact, with the same inner static choices), ``eigh``/``krylov``
    force the inner route, ``ode`` integrates the oscillating Hamiltonian
    literally under the fast-phase step cap.

    ``samples > 0`` additionally records that many states on a uniform
    grid over [0, duration], endpoints included.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    times = np.linspace(0.0, duration, samples) if samples else np.empty(0)

    if isinstance(generator, DispersiveGenerator):
        if method in ("auto", "frame"):
            result = _evolve_frame(state, generator, duration, "auto", tolerance, times)
        elif method in ("eigh", "krylov"):
            result = _evolve_frame(state, generator, duration, method, tolerance, times)
        elif method == "ode":
            result = _evolve_ode(state, generator, duration, tolerance, max_step, times)
        else:
            raise ValueError(f"unknown method {method!r} for the driven stage")
    elif isinstance(generator, OperatorMatrix):
        result = _evolve_static(state, generator, duration, method, tolerance, times)
    else:
        raise TypeError(f"cannot evolve under {type(generator).__name__}")

    drift = abs(result.final.norm - state.norm)
    if drift > NORM_DRIFT_LIMIT:
        raise EvolutionError(f"norm drifted by {drift:.3e} during a segment")
    return result


# ---------------------------------------------------------------------------
# open-system evolution

def _liouvillian(h_mat, collapse_mats: list[sp.csr_matrix], dim: int) -> sp.csr_matrix:
    """Master-equation generator acting on the row-major ``rho.ravel()``.

    With H_eff = H - i/2 sum L^+ L the equation reads
    d rho/dt = -i (H_eff rho - rho H_eff^+) + sum L rho L^+, and row-major
    vectorisation turns A rho B into (A kron B^T) vec(rho).
    """
    eye = sp.identity(dim, dtype=complex)
    h_eff = sp.csr_matrix((dim, dim) if h_mat is None else h_mat, dtype=complex)
    if collapse_mats:
        stacked = sp.vstack(collapse_mats, format="csr")  # S^+ S = sum L^+ L
        h_eff = h_eff - 0.5j * (stacked.getH() @ stacked)
    terms = [-1j * sp.kron(h_eff, eye), 1j * sp.kron(eye, h_eff.conj())]
    terms += [sp.kron(l_op, l_op.conj()) for l_op in collapse_mats]
    # one COO assembly sums every term; adding them pairwise as CSR costs
    # a full rebuild per term
    parts = [term.tocoo() for term in terms]
    data = np.concatenate([part.data for part in parts])
    rows = np.concatenate([part.row for part in parts])
    cols = np.concatenate([part.col for part in parts])
    return sp.csr_matrix((data, (rows, cols)), shape=(dim * dim, dim * dim))


def lindblad_propagate(
    h_mat: sp.spmatrix | None,
    collapse_mats: list[sp.csr_matrix],
    rho0: np.ndarray,
    duration: float,
    *,
    samples: int = 0,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """exp(L duration) rho0 for one constant segment, on a dense (d, d) array.

    Layout-free, so callers can evolve a block the dynamics never leave.
    The action of the exponential comes from ``expm_multiply`` (Al-Mohy &
    Higham 2011), which has no step-size tolerance to tune. Returns the
    final matrix plus ``samples`` matrices on a uniform grid over
    [0, duration], endpoints included, all hermitised. Raises
    :class:`EvolutionError` when the trace drifts; a negative eigenvalue of
    the final matrix beyond tolerance triggers a warning, not an error.
    """
    if duration < 0:
        raise ValueError("open-system evolution only runs forward")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    dim = rho0.shape[0]
    vec = np.asarray(rho0, dtype=complex).ravel()
    if duration == 0.0:
        grid = [vec] * samples
        final_vec = vec
    else:
        gen = _liouvillian(h_mat, collapse_mats, dim)
        if samples > 1:
            grid = expm_multiply(gen, vec, start=0.0, stop=duration, num=samples, endpoint=True)
            final_vec = grid[-1]
        else:
            grid = [vec] * samples  # a one-point grid is just t = 0
            final_vec = expm_multiply(gen * duration, vec)

    def hermitised(v: np.ndarray) -> np.ndarray:
        mat = v.reshape(dim, dim)
        return 0.5 * (mat + mat.conj().T)

    final = hermitised(final_vec)
    drift = abs(np.trace(final).real - np.trace(rho0).real)
    if drift > TRACE_DRIFT_LIMIT:
        raise EvolutionError(f"trace drifted by {drift:.3e} during open evolution")
    min_eig = float(np.linalg.eigvalsh(final)[0])
    if min_eig < NEGATIVE_WEIGHT_LIMIT:
        warnings.warn(f"density matrix developed negative weight {min_eig:.3e}", stacklevel=2)
    return final, [hermitised(v) for v in grid]


def evolve_lindblad(
    rho: DensityMatrix,
    hamiltonian: OperatorMatrix | None,
    collapse_ops: list[OperatorMatrix],
    duration: float,
    *,
    samples: int = 0,
) -> LindbladResult:
    """Evolve under d rho/dt = -i[H, rho] + sum_k (L rho L^+ - 1/2 {L^+L, rho}).

    ``hamiltonian=None`` means pure decay (H = 0), which is how ramp
    windows are modelled. The layout-bound face of
    :func:`lindblad_propagate`, which does the work and the checks.
    """
    if hamiltonian is not None and not hamiltonian.hermitian:
        raise EvolutionError("Lindblad evolution needs a hermitian Hamiltonian")
    final, mats = lindblad_propagate(
        None if hamiltonian is None else hamiltonian.matrix,
        [op.matrix.tocsr() for op in collapse_ops],
        rho.matrix,
        duration,
        samples=samples,
    )
    layout = rho.layout
    return LindbladResult(
        DensityMatrix(final, layout),
        np.linspace(0.0, duration, samples),
        [DensityMatrix(m, layout) for m in mats],
    )


def checkpoint_fidelity(state: QuantumState | DensityMatrix, oracle: QuantumState) -> float:
    """Fidelity |<oracle|state>|^2, or <oracle|rho|oracle> for mixed states."""
    if isinstance(state, DensityMatrix):
        return float(np.real(state.expectation(oracle)))
    return float(abs(oracle.overlap(state)) ** 2)
