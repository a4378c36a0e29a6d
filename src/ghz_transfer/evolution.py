"""Time evolution engines for pulse segments.

Every segment is piecewise constant, and every route a run takes is exact:

* static Hermitian generators (the resonant pulses, the reduced dispersive
  stage): a pulse couples only a handful of levels, so the generator's
  sparsity pattern splits into tiny connected components (Rabi pairs; at
  most 4, 9 and 16 states in the dispersive window at n = 2, 3, 4). The
  route is compile, then apply: :meth:`Propagator.compile` diagonalises
  the components a seed set meets, one batched eigendecomposition per
  component size, and :meth:`Propagator.apply` rotates a state on them;
* the explicitly time-dependent dispersive stage: the same route in the
  detuned frame, which is exact because the oscillating phases come from
  conjugating a static Hamiltonian with a diagonal frame generator.
  Literal integration under a step cap that resolves the fast phases
  (``method="ode"``) and Lanczos (:func:`krylov_expm_action`) stay as
  references. Only the literal integrator needs ``scipy.integrate``, which
  drags in ``scipy.optimize`` and ``scipy.special`` (about 0.3 s of
  import), so :func:`solve_ivp` imports it on its first call;
* open-system runs (:func:`lindblad_propagate`, the one open-system
  entry point, layout-free): the action of the exponential of the
  segment's Liouvillian on the vectorised density matrix of a block.
  The Liouvillian with H = 0 lives in a :class:`Dissipator` that a run
  builds once per block and passes to every ramp and segment: a ramp
  evolves under it as it is, a segment adds its one H term.

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
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from ghz_transfer.hamiltonians import DispersiveGenerator
from ghz_transfer.hilbert import DensityMatrix, OperatorMatrix, QuantumState

__all__ = [
    "EvolutionError",
    "EvolutionResult",
    "Dissipator",
    "Propagator",
    "evolve_unitary",
    "lindblad_propagate",
    "krylov_expm_action",
    "checkpoint_fidelity",
]


class EvolutionError(RuntimeError):
    """Raised when an evolution route fails its conservation checks."""


NORM_DRIFT_LIMIT = 1e-9
TRACE_DRIFT_LIMIT = 1e-7
# a density matrix eigenvalue below this is reported as lost positivity
NEGATIVE_WEIGHT_LIMIT = -1e-6

# phases e^(i delta t) must be sampled many times per cycle by the literal
# integrator; 50 steps per radian of the fastest detuning is the contract
FAST_PHASE_STEPS = 50.0


@dataclass
class EvolutionResult:
    """Final state plus optionally sampled intermediate states.

    ``samples[i]`` holds the amplitudes at ``times[i]`` on the basis
    indices ``support``; every amplitude off the support is exactly zero.
    """

    final: QuantumState
    times: np.ndarray
    support: np.ndarray
    samples: np.ndarray  # (len(times), len(support))

    @property
    def states(self) -> list[QuantumState]:
        full = np.zeros((len(self.times), self.final.layout.dim), dtype=complex)
        full[:, self.support] = self.samples
        return [QuantumState(amps, self.final.layout) for amps in full]


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
# exact pure-state propagation: compile a step, then apply it

@dataclass
class Propagator:
    """exp(-i H t), compiled on the connected components of H's pattern that meet a seed set.

    ``support`` is their union, closed under H with no threshold because
    the pattern alone decides connectivity, grouped by component size with
    each component's states consecutive. ``groups`` holds one ``(slice of
    the support, eigenvalues (k, s), eigenvectors (k, s, s))`` per size s,
    and ``frame`` a frame generator's diagonal on the support, or None.
    """

    support: np.ndarray
    groups: list
    frame: np.ndarray | None = None

    @classmethod
    def compile(cls, generator: OperatorMatrix | DispersiveGenerator, seed: np.ndarray) -> Propagator:
        """The step of ``generator`` from the basis indices ``seed``.

        A driven generator compiles its detuned frame:
        psi_interaction(t) = e^(+i G t) e^(-i H_static t) psi(0).
        """
        frame = None
        if isinstance(generator, DispersiveGenerator):
            frame = generator.frame_diagonal()
            generator = generator.static_hamiltonian()
        elif not isinstance(generator, OperatorMatrix):
            raise TypeError(f"cannot evolve under {type(generator).__name__}")
        elif not generator.hermitian:
            raise EvolutionError("unitary evolution needs a generator flagged hermitian")
        matrix = generator.matrix
        _, labels = connected_components(abs(matrix), directed=False)  # reads the pattern only
        support = np.flatnonzero(np.isin(labels, labels[seed]))
        _, comp, counts = np.unique(labels[support], return_inverse=True, return_counts=True)
        order = np.lexsort((comp, counts[comp]))  # by size, then component, then index
        support, sizes = support[order], counts[comp][order]
        groups = []
        for size, start, count in zip(*np.unique(sizes, return_index=True, return_counts=True)):
            part = slice(start, start + count)
            sub = matrix[support[part]][:, support[part]].tocoo()  # one diagonal block each
            blocks = np.zeros((count // size, size, size), dtype=complex)
            np.add.at(blocks, (sub.row // size, sub.row % size, sub.col % size), sub.data)
            groups.append((part, *np.linalg.eigh(blocks)))
        return cls(support, groups, None if frame is None else frame[support])

    def apply(self, state: QuantumState, duration: float, times: np.ndarray) -> EvolutionResult:
        """The state at ``times`` and ``duration``, every time in one array operation."""
        grid = np.append(times, duration)
        initial = state.amplitudes[self.support]
        amps = np.empty((grid.size, self.support.size), dtype=complex)
        # einsum, not matmul: its summation order does not depend on the BLAS
        # thread count, so neither do the bytes of a report
        for part, evals, evecs in self.groups:
            coeff = np.einsum("kji,kj->ki", evecs.conj(), initial[part].reshape(evals.shape))
            phased = np.exp(-1j * evals * grid[:, None, None]) * coeff
            amps[:, part] = np.einsum("kij,tkj->tki", evecs, phased).reshape(grid.size, -1)
        if self.frame is not None:
            amps *= np.exp(1j * self.frame * grid[:, None])
        final = np.zeros(state.layout.dim, dtype=complex)
        final[self.support] = amps[-1]
        return EvolutionResult(QuantumState(final, state.layout), times, self.support, amps[:-1])


# ---------------------------------------------------------------------------
# the literal integrator of the driven dispersive stage

def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call."""
    from scipy.integrate import solve_ivp as integrate

    return integrate(*args, **kwargs)


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
    everywhere = np.arange(state.layout.dim)
    if duration == 0.0:
        return EvolutionResult(
            state.copy(), times, everywhere, np.tile(state.amplitudes, (len(times), 1))
        )
    rtol = max(tolerance, 1e-12)
    atol = rtol * 1e-2
    sol = solve_ivp(
        lambda t, y: -1j * generator.apply(t, y),
        (0.0, duration),
        np.array(state.amplitudes, dtype=complex, copy=True),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        max_step=max_step,
        t_eval=np.union1d(times, [duration]),  # the grid's end is ``duration`` exactly
    )
    if not sol.success:
        raise EvolutionError(f"integration failed: {sol.message}")
    final = QuantumState(sol.y[:, -1].copy(), state.layout)
    return EvolutionResult(final, times, everywhere, sol.y[:, : len(times)].T.copy())


def evolve_unitary(
    state: QuantumState,
    generator: Propagator | OperatorMatrix | DispersiveGenerator,
    duration: float,
    *,
    method: str = "auto",
    tolerance: float = 1e-11,
    max_step: float | None = None,
    samples: int = 0,
) -> EvolutionResult:
    """Evolve a pure state under one pulse segment.

    ``method="auto"`` is exact: a compiled :class:`Propagator` is applied
    as given, and a generator is first compiled on the state's nonzero
    amplitudes. ``"ode"`` integrates the driven generator's oscillating
    Hamiltonian literally, at relative tolerance ``tolerance`` under the
    fast-phase step cap (``max_step``); it is kept as the reference for
    the frame route.

    ``samples > 0`` additionally records that many states on a uniform
    grid over [0, duration], endpoints included.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    times = np.linspace(0.0, duration, samples) if samples else np.empty(0)
    if method == "ode" and isinstance(generator, DispersiveGenerator):
        result = _evolve_ode(state, generator, duration, tolerance, max_step, times)
    elif method != "auto":
        raise ValueError(f"unknown method {method!r} for {type(generator).__name__}")
    elif isinstance(generator, Propagator):
        result = generator.apply(state, duration, times)
    else:
        result = Propagator.compile(generator, np.flatnonzero(state.amplitudes)).apply(state, duration, times)

    drift = abs(result.final.norm - state.norm)
    if drift > NORM_DRIFT_LIMIT:
        raise EvolutionError(f"norm drifted by {drift:.3e} during a segment")
    return result


# ---------------------------------------------------------------------------
# open-system evolution

class Dissipator(tuple):
    """A block's collapse matrices, plus the Liouvillian they give with H = 0.

    Iterates as the matrices themselves, held as CSR. ``generator`` is
    D = sum L kron L^* - 1/2 (K kron I + I kron K^*) with K = sum L^+ L,
    built once on a ``dim``-state block (an empty channel list cannot
    supply the size): a ramp evolves under D itself, and a segment adds
    only its H terms to it (:func:`_liouvillian`).
    """

    def __new__(cls, collapse_mats, dim: int):
        self = super().__new__(cls, [l_op.tocsr() for l_op in collapse_mats])
        eye = sp.identity(dim, dtype=complex, format="csr")
        damping = sp.csr_matrix((dim, dim), dtype=complex)
        if self:
            stacked = sp.vstack(self, format="csr")  # S^+ S = sum L^+ L
            damping = stacked.getH() @ stacked
        self.generator = _summed(
            [-0.5 * sp.kron(damping, eye), -0.5 * sp.kron(eye, damping.conj())]
            + [sp.kron(l_op, l_op.conj()) for l_op in self]
        )
        return self


def _summed(terms) -> sp.csr_matrix:
    """The sum of sparse ``terms`` in one COO to CSR pass, entries added in list order."""
    parts = [term.tocoo() for term in terms]
    data = np.concatenate([part.data for part in parts])
    rows = np.concatenate([part.row for part in parts])
    cols = np.concatenate([part.col for part in parts])
    return sp.csr_matrix((data, (rows, cols)), shape=parts[0].shape)


def _liouvillian(h_mat, dissipator: Dissipator) -> sp.csr_matrix:
    """Master-equation generator acting on the row-major ``rho.ravel()``.

    d rho/dt = -i [H, rho] + D rho, and row-major vectorisation turns
    A rho B into (A kron B^T) vec(rho), so the generator is the shared D
    (``h_mat=None``, a ramp) or D - i (H kron I) + i (I kron H^*).
    """
    if h_mat is None:
        return dissipator.generator
    eye = sp.identity(h_mat.shape[0], dtype=complex, format="csr")
    return _summed([dissipator.generator, -1j * sp.kron(h_mat, eye), 1j * sp.kron(eye, h_mat.conj())])


def lindblad_propagate(
    h_mat: sp.spmatrix | None,
    dissipator: Dissipator,
    rho0: np.ndarray,
    duration: float,
    *,
    samples: int = 0,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """exp(L duration) rho0 for one constant segment, on a dense (d, d) array.

    L is d rho/dt = -i[H, rho] + sum_k (L_k rho L_k^+ - 1/2 {L_k^+ L_k, rho});
    ``h_mat=None`` means pure decay (H = 0), which is how ramp windows are
    modelled. Layout-free, so callers can evolve a block the dynamics never
    leave. The channels come as a :class:`Dissipator`; a caller that
    evolves several segments under the same channels passes one to all of
    them, so a ramp builds nothing and a segment only its H term.
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
        gen = _liouvillian(h_mat, dissipator)
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


def checkpoint_fidelity(state: QuantumState | DensityMatrix, oracle: QuantumState) -> float:
    """Fidelity |<oracle|state>|^2, or <oracle|rho|oracle> for mixed states."""
    if isinstance(state, DensityMatrix):
        return float(np.real(state.expectation(oracle)))
    return float(abs(oracle.overlap(state)) ** 2)
