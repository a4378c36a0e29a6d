"""Time evolution engines for pulse segments.

Every segment is piecewise constant, and each dynamics has one exact route,
whatever the caller samples:

* static Hermitian generators (the resonant pulses, the reduced dispersive
  stage): a pulse couples only a handful of levels, so the generator's
  sparsity pattern splits into tiny connected components (Rabi pairs; at
  most 4, 9 and 16 states in the dispersive window at n = 2, 3, 4). The
  route is compile, then apply: :meth:`Propagator.compile` diagonalises
  the components a seed set meets, one batched eigendecomposition per
  component size, and :meth:`Propagator.apply` rotates a state on them
  and returns it on that support, never on the register;
* the explicitly time-dependent dispersive stage: the same route in the
  detuned frame, which is exact because the oscillating phases come from
  conjugating a static Hamiltonian with a diagonal frame generator.
  Lanczos (:func:`krylov_expm_action`) stays as a reference; the literal
  integration of the oscillating Hamiltonian is a test oracle, which
  integrates through :func:`solve_ivp`. That forwarder imports
  ``scipy.integrate``, which drags in ``scipy.optimize`` and
  ``scipy.special`` (about 0.3 s of import), only on its first call;
* open-system runs (:func:`lindblad_propagate`, the one open-system
  entry point, layout-free): the action of the exponential of the
  segment's Liouvillian on the d^2 real coordinates of a block's density
  matrix (Re rho_ij for i <= j, Im rho_ij for i < j), under a real
  generator. Its H = 0 part D lives in a :class:`Dissipator` that a run
  builds once per block and passes to every ramp and segment; a segment
  adds its folded H part to it. The action is the truncated Taylor
  method of Al-Mohy & Higham 2011: a plan (:class:`TaylorPlan`) from the
  paper's theta_m table on the exact 1-norm, tL - mu I formed in one pass
  over a copy of L's entries, and the Taylor products, whose stop test
  reads max|out| only when an upper bound on it lets the test pass. Every
  entry and every break is scipy's, so a step equals ``expm_multiply``'s
  bit for bit whenever scipy plans from the table alone, at a 1-norm up
  to about 63.36 (a transmon-preset run at n <= 4 stays below 19). A
  sampled grid steps from point to point under one plan and restarts
  from the initial state every ``GRID_RESTART`` points.

The run path loads only numpy and ``scipy.sparse``: the components, the
Taylor table and the stepping are here, and the Lanczos reference imports
its tridiagonal eigensolver on its first call.

All routes check norm/trace conservation and raise
:class:`EvolutionError` when the numerics drift, NaN included; the
open-system route also warns when the density matrix loses positivity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ghz_transfer.hamiltonians import DispersiveGenerator
from ghz_transfer.hilbert import OperatorMatrix, QuantumState

__all__ = [
    "EvolutionError",
    "EvolutionResult",
    "Dissipator",
    "Propagator",
    "Distinct",
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


@dataclass
class EvolutionResult:
    """Final state plus optionally sampled intermediate states.

    ``final`` is a :class:`QuantumState` on the step's support, and
    ``samples[i]`` holds the amplitudes at ``times[i]`` on the same basis,
    ``final.basis``.
    """

    final: QuantumState
    times: np.ndarray
    samples: np.ndarray  # (len(times), len(final.basis))


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
    truncating there is exact to working tolerance. ``scipy.linalg`` is
    imported on the first call, so only this reference route loads it.
    """
    from scipy.linalg import eigh_tridiagonal

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

class Distinct(NamedTuple):
    """A float array as its distinct values, told apart by their bits, and a compact map back: the array is
    ``values[inverse]``, and ``inverse`` has the smallest unsigned type that holds a place among the values."""

    values: np.ndarray
    inverse: np.ndarray

    @classmethod
    def of(cls, array: np.ndarray) -> Distinct:
        bits, inverse = np.unique(np.ascontiguousarray(array, dtype=np.float64).view(np.uint64), return_inverse=True)
        return cls(bits.view(np.float64), inverse.astype(np.min_scalar_type(max(bits.size - 1, 0))))


@dataclass
class Propagator:
    """exp(-i H t), compiled on the connected components of H's pattern that meet a seed set.

    ``support`` is their union, closed under H with no threshold because
    the pattern alone decides connectivity, grouped by component size with
    each component's states consecutive. ``groups`` holds one ``(slice of
    the support, eigenvectors (k, s, s))`` per size s; ``eigenvalues`` holds
    every component's eigenvalues on the support, and ``frame`` a frame
    generator's diagonal there, or None, each as its :class:`Distinct`
    values, since a step's spectrum repeats a few values many times.
    """

    support: np.ndarray
    groups: list
    eigenvalues: Distinct
    frame: Distinct | None = None

    @classmethod
    def compile(cls, generator: OperatorMatrix | DispersiveGenerator, seed: np.ndarray) -> Propagator:
        """The step of ``generator`` from the basis indices ``seed``, found on the generator's basis.

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
        matrix, basis = generator.matrix, generator.basis
        at = np.searchsorted(basis, seed)  # the seed's places in the basis; one past its end matches no index
        if np.any(np.append(basis, -1)[at] != seed):
            raise ValueError("the seed leaves the generator's basis")
        labels = _components(matrix)
        met = np.zeros(labels.size, dtype=bool)  # the components the seed meets, by label
        met[labels[at]] = True
        support = np.flatnonzero(met[labels])
        _, comp, counts = np.unique(labels[support], return_inverse=True, return_counts=True)
        order = np.lexsort((comp, counts[comp]))  # by size, then component, then index
        support, sizes = support[order], counts[comp][order]
        place = np.full(matrix.shape[0], -1)
        place[support] = np.arange(support.size)
        row = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))  # each stored entry's, as tocoo gives it
        row, col, data = place[row], place[matrix.indices], matrix.data
        groups, eigenvalues = [], [np.empty(0)]
        for size, start, count in zip(*np.unique(sizes, return_index=True, return_counts=True)):
            mine = (row >= start) & (row < start + count)  # so is the column: one component
            r, c = row[mine] - start, col[mine] - start  # one diagonal block each
            blocks = np.zeros((count // size, size, size), dtype=complex)
            np.add.at(blocks, (r // size, r % size, c % size), data[mine])
            evals, evecs = np.linalg.eigh(blocks)
            groups.append((slice(start, start + count), evecs))
            eigenvalues.append(evals.ravel())
        frame = None if frame is None else Distinct.of(frame[support])
        return cls(basis[support], groups, Distinct.of(np.concatenate(eigenvalues)), frame)

    def apply(self, state: QuantumState, duration: float, times: np.ndarray) -> EvolutionResult:
        """The state at ``times`` and ``duration``, every time in one array operation, on ``support``.

        Weight ``state`` holds off the support is dropped, which the caller's norm check sees.
        """
        grid = np.append(times, duration)
        initial = state.on(self.support)
        amps = np.empty((grid.size, self.support.size), dtype=complex)
        # one phase per distinct value and time, gathered where each value stands: exp and the products are
        # elementwise, so each entry has the bits of its own exp
        phases = np.exp(np.multiply(-1j * self.eigenvalues.values, grid[:, None]))
        turns = None if self.frame is None else np.exp(np.multiply(1j * self.frame.values, grid[:, None]))
        # einsum, not matmul: its summation order does not depend on the BLAS
        # thread count, so neither do the bytes of a report. Each group's phases,
        # then its frame phases, are gathered into one (times, group) buffer, and
        # its rotation is written straight into its columns of ``amps``.
        for part, evecs in self.groups:
            shape = evecs.shape[:2]
            coeff = np.einsum("kji,kj->ki", evecs.conj(), initial[part].reshape(shape))
            phased = np.take(phases, self.eigenvalues.inverse[part].reshape(shape), axis=1)
            phased *= coeff
            rotated = np.einsum("kij,tkj->tki", evecs, phased, out=amps[:, part].reshape(phased.shape))
            if turns is not None:  # "clip" writes into ``out`` unbuffered; every place is in range
                rotated *= np.take(turns, self.frame.inverse[part].reshape(shape), axis=1, out=phased, mode="clip")
        # a copy: a view would keep the whole grid alive as long as the final state
        return EvolutionResult(QuantumState(amps[-1].copy(), state.layout, basis=self.support), times, amps[:-1])


def _components(matrix: sp.csr_matrix) -> np.ndarray:
    """Each index's connected component in the undirected pattern of ``matrix``, named by its smallest index.

    Every stored entry is an edge, whatever its value. Each round hooks the
    larger root of every edge whose ends disagree onto the smaller one, and
    pointer jumping then takes every label to its root; a label never
    exceeds its index, so the root left in each component is its smallest
    index.
    """
    row, col = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr)), matrix.indices  # as tocoo gives them
    labels = np.arange(matrix.shape[0])
    while True:
        a, b = labels[row], labels[col]
        apart = a != b
        if not apart.any():
            return labels
        np.minimum.at(labels, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call."""
    from scipy.integrate import solve_ivp as integrate

    return integrate(*args, **kwargs)


def evolve_unitary(
    state: QuantumState,
    generator: Propagator | OperatorMatrix | DispersiveGenerator,
    duration: float,
    *,
    samples: int = 0,
) -> EvolutionResult:
    """Evolve a pure state under one pulse segment.

    A compiled :class:`Propagator` is applied as given, and a generator is
    first compiled on the state's nonzero amplitudes. The final state is on
    the step's support. ``samples > 0`` additionally records that many
    states on a uniform grid over [0, duration], endpoints included.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    times = np.linspace(0.0, duration, samples) if samples else np.empty(0)
    if not isinstance(generator, Propagator):
        generator = Propagator.compile(generator, state.basis[np.flatnonzero(state.amplitudes)])
    result = generator.apply(state, duration, times)
    # weight the step dropped from the input shows: the input's norm is taken over all it holds
    drift = abs(result.final.norm - state.norm)
    if not drift <= NORM_DRIFT_LIMIT:  # NaN fails too
        raise EvolutionError(f"norm drifted by {drift:.3e} during a segment")
    return result


# ---------------------------------------------------------------------------
# open-system evolution, in real Hermitian coordinates

# expm_multiply's tolerance in double precision: the unit roundoff
TAYLOR_TOL = 2.0**-53
# a sampled grid steps each point from the one before, and every GRID_RESTART-th
# from the initial state in one step, so no point carries the rounding of more steps
GRID_RESTART = 16


def _coordinates(rho: np.ndarray) -> np.ndarray:
    """The d^2 real coordinates of the Hermitian part of a (d, d) ``rho``, row-major on a (d, d) grid.

    Re rho_ij (i <= j) sits at (i, j) and Im rho_ij (i < j) at (j, i), each
    taken from (rho_ij + rho_ji^*) / 2, which is rho_ij itself, bitwise,
    when ``rho`` is exactly Hermitian.
    """
    re, im = rho.real, rho.imag  # real arithmetic: a complex product would flip zeros' signs
    return np.where(_upper(rho.shape[0]), 0.5 * (re + re.T), 0.5 * (im.T - im)).ravel()


def _density(coords: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian (dim, dim) matrix with real coordinates ``coords``.

    :func:`_coordinates` of it gives ``coords`` back bitwise.
    """
    grid = coords.reshape(dim, dim)
    across, upper = grid.T.copy(), _upper(dim)  # one strided pass, not two
    imag = np.where(upper, across, -grid)
    imag.flat[:: dim + 1] = 0.0
    rho = np.empty((dim, dim), dtype=complex)
    rho.real = np.where(upper, grid, across)
    rho.imag = imag
    return rho


def _upper(dim: int) -> np.ndarray:
    """The contiguous (dim, dim) mask of i <= j."""
    return ~np.tri(dim, k=-1, dtype=bool)


def _folded(i, j, k, l, z, dim: int):
    """Real entries (rows, cols, values) of the complex Liouvillian entries z at ((i, j), (k, l)), i <= j.

    With (re, im) the coordinates of rho_kl's upper triangle entry, rho_kl
    is re + i im for k < l and re - i im for k > l, so a + ib adds
    a re -+ b im to Re (L rho)_ij and b re +- a im to Im (L rho)_ij (upper
    signs for k < l): at most four real entries, fewer where i = j (Im is
    no coordinate) or k = l (no im). Exact zeros are dropped.
    """
    a, b = z.real, z.imag
    lo, hi = np.minimum(k, l), np.maximum(k, l)
    flip = k > l
    off_out, off_in = i < j, lo < hi
    both = off_out & off_in
    re_row, im_row = i * dim + j, j * dim + i
    re_col, im_col = lo * dim + hi, hi * dim + lo
    parts = [
        (re_row, re_col, a),
        (re_row[off_in], im_col[off_in], np.where(flip, b, -b)[off_in]),
        (im_row[off_out], re_col[off_out], b[off_out]),
        (im_row[both], im_col[both], np.where(flip, -a, a)[both]),
    ]
    rows, cols, vals = (np.concatenate(column) for column in zip(*parts))
    keep = vals != 0
    return rows[keep], cols[keep], vals[keep]


def _ranges(starts: np.ndarray, stops: np.ndarray):
    """For each entry e, every m in [starts[e], stops[e]): the pairs (e, m), concatenated."""
    counts = stops - starts
    owner = np.repeat(np.arange(counts.size), counts)
    offset = np.repeat(np.cumsum(counts) - counts - starts, counts)
    return owner, (np.arange(owner.size) - offset).astype(starts.dtype)


def _sided(g: sp.spmatrix, dim: int):
    """Complex entries (i, j, k, l, z) of rho -> G rho + rho G^+ on the rows i <= j, group by group.

    That map is (G kron I) + (I kron G^*): G_ik at ((i, j), (k, j)) and
    G_jl^* at ((i, j), (i, l)). The diagonal of G gives one entry per row,
    G_ii + G_jj^*.
    """
    coo = g.tocoo()
    coo.sum_duplicates()
    row, col, val = coo.row.astype(np.int32), coo.col.astype(np.int32), coo.data
    on = row == col
    if on.any():
        diag = np.zeros(dim, dtype=complex)
        diag[row[on]] = val[on]
        i, j = (index.astype(np.int32) for index in np.triu_indices(dim))
        yield i, j, i, j, diag[i] + diag[j].conj()
    row, col, val = row[~on], col[~on], val[~on]
    entry, j = _ranges(row, np.full_like(row, dim))
    yield row[entry], j, col[entry], j, val[entry]
    entry, i = _ranges(np.zeros_like(row), row + 1)
    yield i, row[entry], i, col[entry], val[entry].conj()


def _sandwiched(l_op: sp.spmatrix):
    """Complex entries (i, j, k, l, z) of rho -> L rho L^+ on the rows i <= j.

    That map is L kron L^*: L_ik L_jl^* at ((i, j), (k, l)).
    """
    coo = l_op.tocoo()
    row, col = coo.row.astype(np.int32), coo.col.astype(np.int32)
    p, q = np.nonzero(row[:, None] <= row[None, :])
    return row[p], row[q], col[p], col[q], coo.data[p] * coo.data[q].conj()


def _assembled(parts, dim: int) -> sp.csr_matrix:
    """The canonical real (dim^2, dim^2) CSR matrix of the iterable of folded ``parts``, duplicates summed.

    Diagonal entries are summed densely as the parts arrive: the damping and
    every dephasing channel put most of D's terms there, so they never
    queue up as separate entries.
    """
    size = dim * dim
    diagonal = np.zeros(size)
    pieces = [(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0))]
    for rows, cols, vals in parts:
        on = rows == cols
        if on.any():
            diagonal += np.bincount(rows[on], weights=vals[on], minlength=size)
            rows, cols, vals = rows[~on], cols[~on], vals[~on]
        pieces.append((rows, cols, vals))
    stored = np.flatnonzero(diagonal).astype(np.int32)
    pieces.append((stored, stored, diagonal[stored]))
    del diagonal
    rows, cols, vals = (np.concatenate(column) for column in zip(*pieces))
    del pieces  # before CSR conversion allocates
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def _dissipation(channels, dim: int):
    """The folded entries of D rho = sum L rho L^+ - 1/2 {K, rho}, K = sum L^+ L, one group at a time."""
    if not channels:
        return
    stacked = sp.vstack(channels, format="csr")  # S^+ S = sum L^+ L
    for group in _sided(-0.5 * (stacked.getH() @ stacked), dim):
        yield _folded(*group, dim)
    for l_op in channels:
        yield _folded(*_sandwiched(l_op), dim)


# theta_m: the largest 1-norm of A for which m Taylor terms of e^A reach TAYLOR_TOL
# (Al-Mohy & Higham 2011): m <= 30 from table A.3 of Higham & Al-Mohy (2010), the
# rest from table 3.1; the values expm_multiply uses
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


class TaylorPlan(NamedTuple):
    """How a step runs its Taylor loop on tL - mu I (Al-Mohy & Higham 2011).

    ``mu`` = tr(tL) / N shifts the spectrum, and the action runs ``substeps``
    Taylor series of at most ``degree`` terms each on tL - mu I.
    """

    mu: float
    degree: int
    substeps: int


# condition (3.13) of the paper for one column, m_max = 55, p_max = 8 and ell = 2,
# evaluated in expm_multiply's order: 2 ell p_max (p_max + 3) theta_55 / (1 m_max)
_TABLE_BOUND = 352 * (_THETA[55] / float(1 * 55))


def _degree_and_substeps(norm: float, magnitude: sp.csc_matrix | None = None) -> tuple[int, int]:
    """Code fragment (3.1) of Al-Mohy & Higham 2011 for A = tL - mu I, whose exact 1-norm is ``norm``.

    Up to condition (3.13)'s bound ``_TABLE_BOUND`` (about 63.36), or
    without ``magnitude`` (|A| transposed): the (m, ceil(norm / theta_m))
    with the fewest products m s, the first in table order on a tie; (0, 1)
    for the zero matrix. That is ``expm_multiply``'s plan, and it meets the
    tolerance at any 1-norm. Above the bound, the fragment's loop over
    p = 2..8 with alpha_p = max(d_p, d_p+1), where d_p is the p-th root of
    the largest column sum of |A|^p: an upper bound on ||A^p||_1^(1/p),
    which scipy estimates from below with random vectors. So the plan is
    deterministic, never takes fewer products than scipy's, and is scipy's
    wherever its estimates reach the bound (a pulse generator over the
    dispersive stage at n = 2).
    """
    if norm == 0:
        return 0, 1
    if norm <= _TABLE_BOUND or magnitude is None:
        # min keeps the first of equal costs, as the fragment's strict comparison does
        return min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()), key=lambda plan: plan[0] * plan[1])
    sums, d = np.ones(magnitude.shape[0]), {}
    for p in range(1, 10):
        sums = magnitude @ sums  # the column sums of |A|^p
        d[p] = sums.max() ** (1.0 / p)
    plans = (
        (m, math.ceil(max(d[p], d[p + 1]) / theta))
        for p in range(2, 9)
        for m, theta in _THETA.items()
        if m >= p * (p - 1) - 1
    )
    degree, substeps = min(plans, key=lambda plan: plan[0] * plan[1])
    return degree, max(substeps, 1)


def _stepper(gen: sp.csr_matrix, duration: float):
    """``expm_multiply``'s tL - mu I for the canonical L = ``gen`` and t = ``duration``, its plan and its 1-norm.

    One copy of L's entries, with a zero inserted where a row stores no
    diagonal entry (D has none for the ground state's population), is
    scaled by t and shifted by mu = tr(tL) / N at the diagonal places, mu
    summed over the array scipy's ``trace()`` sums; an explicit zero left
    where t L_ii = mu adds nothing to a product or a column sum. The
    1-norm is the transposed matvec on |entries| that ``abs(A).sum(axis=0)``
    runs, the same additions in order. L's arrays are only read.
    """
    size, indices, indptr = gen.shape[0], gen.indices, gen.indptr
    # the diagonal of a matrix of each entry's place plus one: each row's diagonal place, or -1
    places = sp.csr_matrix((np.arange(1, gen.nnz + 1, dtype=indices.dtype), indices, indptr), shape=gen.shape)
    place = places.diagonal() - 1
    missing = np.flatnonzero(place < 0)
    owner, entry = _ranges(indptr[missing], indptr[missing + 1])  # a missing entry goes where its column sorts
    place[missing] = indptr[missing] + np.bincount(owner[indices[entry] < missing[owner]], minlength=missing.size)
    data = np.insert(gen.data, place[missing], 0.0)
    data *= duration
    ahead = np.cumsum(np.bincount(missing + 1, minlength=size + 1), dtype=indptr.dtype)  # inserted before each row
    indices, indptr, place = np.insert(indices, place[missing], missing), indptr + ahead, place + ahead[:-1]
    diagonal = data[place]
    mu = diagonal.sum() / float(size)
    data[place] = diagonal - mu
    magnitude = sp.csc_matrix((np.abs(data), indices, indptr), shape=gen.shape)  # |tL - mu I| transposed
    norm = (magnitude @ np.ones(size)).max()
    plan = TaylorPlan(mu, *_degree_and_substeps(norm, magnitude))
    return sp.csr_matrix((data, indices, indptr), shape=gen.shape), plan, norm


def _taylor(shifted: sp.csr_matrix, plan: TaylorPlan, vec: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^(t mu) e^(t (A - mu I)) vec for A - mu I = ``shifted``: ``expm_multiply``'s loop, on real infinity norms.

    ``t`` is the time factor of scipy's loop, which ``expm_multiply`` sets
    to 1.0 (it has scaled A already); a grid point takes t = k to step k
    grid spacings at once from one shifted matrix. The stop test reads
    max|out| only when it passes on an upper bound of it, exact at each
    substep and each read: a test that fails on the bound fails on the
    exact value too, so every break, and every bit, is scipy's.
    """
    eta = np.exp(t * plan.mu / float(plan.substeps))
    out = vec.copy()
    term = vec
    modulus = np.empty(vec.size)
    for _ in range(plan.substeps):
        c1 = bound = np.abs(term, out=modulus).max()  # np.linalg.norm(term, np.inf), as expm_multiply takes it
        for j in range(plan.degree):
            term = shifted @ term
            np.multiply(t / float(plan.substeps * (j + 1)), term, out=term)
            c2 = np.abs(term, out=modulus).max()
            out += term
            bound = (bound + c2) * (1.0 + 4 * 2.0**-53)  # |fl(o + x)| <= (|o| + |x|)(1 + u); 4u: its own roundings
            if c1 + c2 <= TAYLOR_TOL * bound:
                bound = np.abs(out, out=modulus).max()
                if c1 + c2 <= TAYLOR_TOL * bound:
                    break
            c1 = c2
        np.multiply(eta, out, out=out)
        term = out
    return out


def _expm_action(gen: sp.csr_matrix, duration: float, vec: np.ndarray):
    """exp(duration gen) vec and its plan: ``expm_multiply(gen * duration, vec)``, bit for bit, up to its bound."""
    shifted, plan, _ = _stepper(gen, duration)
    return _taylor(shifted, plan, vec), plan


def _grid(gen: sp.csr_matrix, duration: float, vec: np.ndarray, samples: int):
    """The real coordinates of the inner points 1 .. samples - 2 of a uniform grid over [0, duration], one at a time.

    Each point is one step of h = duration / (samples - 1) from the one
    before, under the one plan for h, except every ``GRID_RESTART``-th,
    which is one step of k h from ``vec`` on the same shifted matrix. Only
    ``vec`` and the current point are held.
    """
    if samples < 3:
        return
    shifted, step, width = _stepper(gen, duration / (samples - 1))
    point = vec
    for k in range(1, samples - 1):
        if k % GRID_RESTART:
            point = _taylor(shifted, step, point)
        else:  # k steps of h from rho0 in one, so rounding builds up over GRID_RESTART steps at most
            point = _taylor(shifted, TaylorPlan(step.mu, *_degree_and_substeps(k * width)), vec, k)
        yield point


class Dissipator:
    """The real Liouvillian a block's collapse matrices give with H = 0.

    ``generator`` is D rho = sum L rho L^+ - 1/2 {K, rho} with K = sum L^+ L
    on a ``dim``-state block (an empty channel list cannot supply the size),
    acting on the real coordinates of :func:`_coordinates`. It is folded
    entry by entry from the channel matrices, with no complex Liouvillian
    and no change of basis, and built once: a ramp evolves under D itself,
    and a segment merges only its H part into it (:func:`_real_liouvillian`).
    ``generator`` is all it holds: not the channel matrices, and nothing a
    step derives from it, so a propagation leaves it as it was.
    """

    def __init__(self, collapse_mats, dim: int):
        if dim * dim >= 2**31:
            raise ValueError(f"a {dim}-state block has too many real coordinates to index")
        self.generator = _assembled(_dissipation([l_op.tocsr() for l_op in collapse_mats], dim), dim)


def _real_liouvillian(h_mat, dissipator: Dissipator) -> sp.csr_matrix:
    """The real master-equation generator, canonical (sorted, no duplicates).

    d rho/dt = -i [H, rho] + D rho: the shared D itself (``h_mat=None``, a
    ramp), or D plus the H part -i H rho + i rho H folded on its own and
    merged by one sparse addition.
    """
    if h_mat is None:
        return dissipator.generator
    dim = h_mat.shape[0]
    h_part = _assembled((_folded(*group, dim) for group in _sided(-1j * sp.csr_matrix(h_mat), dim)), dim)
    return dissipator.generator + h_part


def lindblad_propagate(
    h_mat: sp.spmatrix | None,
    dissipator: Dissipator,
    rho0: np.ndarray,
    duration: float,
    *,
    samples: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """exp(L duration) rho0 for one constant segment, on a dense Hermitian (d, d) array, and sampled populations.

    L is d rho/dt = -i[H, rho] + sum_k (L_k rho L_k^+ - 1/2 {L_k^+ L_k, rho});
    ``h_mat=None`` means pure decay (H = 0), how ramp windows are modelled.
    Layout-free, so callers can evolve a block the dynamics never leave.
    The state evolves as its d^2 real coordinates (:func:`_coordinates`)
    and the final matrix is rebuilt from them, so it is Hermitian by
    construction; a ``rho0`` that is not exactly Hermitian evolves as
    (rho0 + rho0^+) / 2. ``dissipator`` holds the real D, which a caller
    passes to every segment under the same channels. The final matrix is
    one step of :func:`_expm_action`, planned from this call's generator
    (rho0's coordinates unchanged at duration 0). Also returns the
    (samples, d) populations on a uniform grid over [0, duration],
    endpoints included: rho0's, :func:`_grid`'s inner points and the final
    matrix's, so ``samples`` never moves the final state. Raises
    :class:`EvolutionError` when the trace drifts (NaN included). Warns,
    without raising, when the final matrix has an eigenvalue below
    ``NEGATIVE_WEIGHT_LIMIT``: a Cholesky factorisation of
    rho - LIMIT I decides that, and ``eigvalsh`` runs only when it fails.
    """
    if duration < 0:
        raise ValueError("open-system evolution only runs forward")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    dim = rho0.shape[0]
    vec = _coordinates(np.asarray(rho0))
    gen = _real_liouvillian(h_mat, dissipator)
    final_vec, _ = _expm_action(gen, duration, vec)
    populations = np.empty((samples, dim))
    if samples:
        populations[0] = vec[:: dim + 1]
    if samples > 1:  # the grid ends on the final state itself, so sampling cannot move it
        populations[-1] = final_vec[:: dim + 1]
    for k, point in enumerate(_grid(gen, duration, vec, samples), 1):
        populations[k] = point[:: dim + 1]  # a copy: a view would keep the whole point

    final = _density(final_vec, dim)
    drift = abs(np.trace(final).real - np.trace(rho0).real)
    if not drift <= TRACE_DRIFT_LIMIT:
        raise EvolutionError(f"trace drifted by {drift:.3e} during open evolution")
    margin = final.copy()
    margin.flat[:: dim + 1] -= NEGATIVE_WEIGHT_LIMIT
    try:
        np.linalg.cholesky(margin)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(final)[0])
        if min_eig < NEGATIVE_WEIGHT_LIMIT:
            warnings.warn(f"density matrix developed negative weight {min_eig:.3e}", stacklevel=2)
    return final, populations


def checkpoint_fidelity(state: QuantumState | OperatorMatrix, oracle: QuantumState) -> float:
    """Fidelity |<oracle|state>|^2, or <oracle|rho|oracle> for a density matrix."""
    if isinstance(state, OperatorMatrix):
        return float(np.real(state.expectation(oracle)))
    return float(abs(oracle.overlap(state)) ** 2)
