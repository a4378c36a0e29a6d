"""Tensor-product Hilbert space of the two-cavity transfer register.

The register is two microwave cavities joined by one two-level coupler
qubit. Cavity L hosts qudits ``q1 .. qn``, cavity R hosts qudits
``q1p .. qnp``; every qudit keeps three levels (g, e, f) and each cavity
mode is truncated at a configurable Fock cutoff.

Basis ordering contract (version tag ``ghz-layout-v1``): tensor factors are
ordered

    left qudits q1..qn, coupler A, right qudits q1p..qnp, mode a (cavity L),
    mode b (cavity R)

with the first factor the slowest-varying index, so the flat basis index is
the mixed-radix number built from the per-factor levels in that order.
Operators are stored sparse (CSR), pure states as dense vectors; a
density matrix is an operator, on the register or on a basis. Every
operator is one Kronecker product of local factors (:func:`embed_operator`),
or a sum of such products, assembled in one pass from the local factors'
entries, on the whole register or on a basis: a sorted array of flat
indices, such as the states :func:`reachable` finds from a seed through
the same local factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LEVELS",
    "BASIS_ORDERING_TAG",
    "SystemLayout",
    "build_layout",
    "QuantumState",
    "OperatorMatrix",
    "level_ket",
    "transition_op",
    "annihilation_op",
    "embed_operator", "LocalMoves", "local_moves", "reachable",
    "partial_trace",
]

#: Qudit level symbols. The coupler uses the first two.
LEVELS = {"g": 0, "e": 1, "f": 2}

BASIS_ORDERING_TAG = "ghz-layout-v1"

QUDIT_DIM = 3
COUPLER_DIM = 2


@dataclass(frozen=True)
class SystemLayout:
    """Shape of the register: qudit counts and Fock truncations.

    Parameters
    ----------
    n_left, n_right : int
        Number of qudits in cavity L and cavity R. At least one each; the
        transfer qubits are ``q1`` and ``q1p``, the rest are spectators.
    fock_cutoff_left, fock_cutoff_right : int
        Highest retained Fock level of each mode (so the factor dimension
        is cutoff + 1). The protocol drives either cavity to two photons,
        so a cutoff below 3 leaves no headroom to detect truncation error.

    Examples
    --------
    >>> layout = build_layout(1, 1, 3, 3)
    >>> layout.dim
    288
    >>> build_layout(3, 3).dim
    36450
    """

    n_left: int
    n_right: int
    fock_cutoff_left: int = 4
    fock_cutoff_right: int = 4

    def __post_init__(self) -> None:
        if self.n_left < 1 or self.n_right < 1:
            raise ValueError("each cavity must hold at least one qudit")
        if self.fock_cutoff_left < 3 or self.fock_cutoff_right < 3:
            raise ValueError(
                "Fock cutoff below 3 cannot represent the two-photon swap "
                "and leaves no top level to monitor truncation leakage"
            )

    @property
    def left_qudits(self) -> tuple[str, ...]:
        return tuple(f"q{i}" for i in range(1, self.n_left + 1))

    @property
    def right_qudits(self) -> tuple[str, ...]:
        return tuple(f"q{i}p" for i in range(1, self.n_right + 1))

    @property
    def left_spectators(self) -> tuple[str, ...]:
        return self.left_qudits[1:]

    @property
    def right_spectators(self) -> tuple[str, ...]:
        return self.right_qudits[1:]

    @cached_property
    def site_names(self) -> tuple[str, ...]:
        """All tensor factors, slowest index first."""
        return self.left_qudits + ("A",) + self.right_qudits + ("cavL", "cavR")

    @cached_property
    def factor_dims(self) -> tuple[int, ...]:
        return (
            (QUDIT_DIM,) * self.n_left
            + (COUPLER_DIM,)
            + (QUDIT_DIM,) * self.n_right
            + (self.fock_cutoff_left + 1, self.fock_cutoff_right + 1)
        )

    @property
    def dim(self) -> int:
        out = 1
        for d in self.factor_dims:
            out *= d
        return out

    def site_dim(self, site: str) -> int:
        return self.factor_dims[self.factor_index(site)]

    def factor_index(self, site: str) -> int:
        try:
            return self.site_names.index(site)
        except ValueError:
            raise KeyError(f"unknown site {site!r}; sites are {self.site_names}") from None

    def basis_index(self, assignments: Mapping[str, int | str]) -> int:
        """Flat index of the product basis state with the given levels.

        Sites not mentioned sit in their ground/vacuum level. Qudit levels
        may be given as ``"g"/"e"/"f"`` or as integers; photon numbers as
        integers.
        """
        levels = [0] * len(self.factor_dims)
        for site, value in assignments.items():
            pos = self.factor_index(site)
            level = LEVELS[value] if isinstance(value, str) else int(value)
            if not 0 <= level < self.factor_dims[pos]:
                raise ValueError(f"level {value!r} out of range for site {site!r}")
            levels[pos] = level
        return int(np.ravel_multi_index(levels, self.factor_dims))

    def level_index_array(self, site: str, indices: np.ndarray | None = None) -> np.ndarray:
        """Level of ``site`` for every flat basis index, shape ``(dim,)``, or for ``indices``.

        This is the workhorse for diagonal operators and population
        extraction: ``pops[k] = sum(|psi|^2 [levels == k])``.
        """
        pos = self.factor_index(site)
        idx = np.arange(self.dim) if indices is None else np.asarray(indices)
        return (idx // math.prod(self.factor_dims[pos + 1 :])) % self.factor_dims[pos]

    def to_dict(self) -> dict:
        return {
            "n_left": self.n_left,
            "n_right": self.n_right,
            "fock_cutoff_left": self.fock_cutoff_left,
            "fock_cutoff_right": self.fock_cutoff_right,
        }


def build_layout(
    n_left: int,
    n_right: int,
    fock_cutoff_left: int = 4,
    fock_cutoff_right: int = 4,
) -> SystemLayout:
    """Construct and validate a :class:`SystemLayout`."""
    return SystemLayout(n_left, n_right, fock_cutoff_left, fock_cutoff_right)


def level_ket(dim: int, level: int | str) -> np.ndarray:
    """Unit column vector for one local level."""
    idx = LEVELS[level] if isinstance(level, str) else int(level)
    vec = np.zeros(dim, dtype=complex)
    vec[idx] = 1.0
    return vec


def transition_op(dim: int, to_level: int | str, from_level: int | str) -> np.ndarray:
    """Local operator |to><from| on a ``dim``-level site."""
    return np.outer(level_ket(dim, to_level), level_ket(dim, from_level).conj())


def annihilation_op(dim: int) -> np.ndarray:
    """Local photon annihilation operator truncated to ``dim`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


@dataclass
class QuantumState:
    """Dense state vector bound to a layout.

    ``amplitudes`` has shape ``(layout.dim,)`` and complex dtype; the basis
    ordering is the layout's (see module docstring).
    """

    amplitudes: np.ndarray
    layout: SystemLayout

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, layout dim is {self.layout.dim}"
            )
        self.amplitudes = amps

    @classmethod
    def from_basis(cls, layout: SystemLayout, assignments: Mapping[str, int | str] | None = None) -> "QuantumState":
        vec = np.zeros(layout.dim, dtype=complex)
        vec[layout.basis_index(assignments or {})] = 1.0
        return cls(vec, layout)

    @classmethod
    def from_product(
        cls,
        layout: SystemLayout,
        site_vectors: Mapping[str, Sequence[complex]] | None = None,
        photons: tuple[int, int] = (0, 0),
    ) -> "QuantumState":
        """Product state from per-site local vectors.

        Unlisted qudits and the coupler sit in g; the cavities hold the
        given photon-number states.
        """
        return cls(_product_amplitudes(layout, site_vectors, photons), layout)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "QuantumState":
        return QuantumState(self.amplitudes / self.norm, self.layout)

    def overlap(self, other: "QuantumState") -> complex:
        """Inner product <self|other>."""
        _require_same_layout(self.layout, other.layout)
        # numpy, not BLAS: a threaded BLAS dot rounds differently per thread count
        return complex(np.sum(self.amplitudes.conj() * other.amplitudes))

    def copy(self) -> "QuantumState":
        return QuantumState(self.amplitudes.copy(), self.layout)


def _product_amplitudes(layout: SystemLayout, site_vectors, photons, support=None) -> np.ndarray:
    """:meth:`QuantumState.from_product`'s amplitudes, everywhere or on the indices ``support``.

    Each is a product of one entry per factor, multiplied left to right as
    a ``np.kron`` chain does, so both give the same bits.
    """
    vectors = {**(site_vectors or {}), "cavL": level_ket(layout.site_dim("cavL"), photons[0])}
    vectors["cavR"] = level_ket(layout.site_dim("cavR"), photons[1])
    factors = []
    for site, dim in zip(layout.site_names, layout.factor_dims):
        factors.append(np.asarray(vectors.get(site, level_ket(dim, 0)), dtype=complex))
        if factors[-1].shape != (dim,):
            raise ValueError(f"local vector for {site!r} must have dim {dim}")
    unknown = set(vectors) - set(layout.site_names)
    if unknown:
        raise KeyError(f"unknown sites {sorted(unknown)}")
    if support is None:  # an open grid: the products broadcast to the full tensor
        levels = np.ix_(*(np.arange(dim) for dim in layout.factor_dims))
    else:
        levels = np.unravel_index(support, layout.factor_dims)
    amps = factors[0][levels[0]]
    for factor, level in zip(factors[1:], levels[1:]):
        amps = amps * factor[level]
    return amps.ravel()


@dataclass
class OperatorMatrix:
    """Sparse operator bound to a layout, with a Hermiticity claim.

    Its rows and columns stand for the sorted flat indices ``basis``, or
    for the whole register when ``basis`` is None. A density matrix is one
    too: a lindblad run ends in the Hermitian operator on its block.
    The ``hermitian`` flag is asserted at construction time (defect above
    1e-12 raises), so downstream consumers can trust it. A builder whose
    matrix is Hermitian bit for bit by the way it was formed (X + X^+ plus
    a real diagonal, or a product of exactly Hermitian factors) passes
    ``by_construction=True``, which skips that check.
    """

    matrix: sp.csr_matrix
    layout: SystemLayout
    hermitian: bool = False
    by_construction: InitVar[bool] = False
    basis: np.ndarray | None = field(default=None, compare=False)

    _HERMITICITY_TOL = 1e-12

    def __post_init__(self, by_construction: bool) -> None:
        mat = sp.csr_matrix(self.matrix, dtype=complex)
        size = self.layout.dim if self.basis is None else len(self.basis)
        if mat.shape != (size, size):
            raise ValueError(f"operator shape {mat.shape} does not match its basis of {size} states")
        self.matrix = mat
        if self.hermitian and not by_construction and self.hermiticity_defect() > self._HERMITICITY_TOL:
            raise ValueError(
                f"operator flagged hermitian has defect {self.hermiticity_defect():.3e}"
            )

    def hermiticity_defect(self) -> float:
        diff = self.matrix - self.matrix.getH()
        if diff.nnz == 0:
            return 0.0
        return float(np.max(np.abs(diff.data)))

    def apply(self, state: QuantumState) -> QuantumState:
        """The operator times ``state``; on a ``basis``, it acts as P O P for P the projector onto it."""
        _require_same_layout(self.layout, state.layout)
        if self.basis is None:
            return QuantumState(self.matrix @ state.amplitudes, self.layout)
        amplitudes = np.zeros(self.layout.dim, dtype=complex)
        amplitudes[self.basis] = self.matrix @ state.amplitudes[self.basis]
        return QuantumState(amplitudes, self.layout)

    def expectation(self, state: QuantumState) -> complex:
        """<state| O |state>, with O as :meth:`apply` takes it; real part only when the operator is hermitian.

        For a density matrix and a pure target, that is the fidelity <psi|rho|psi>.
        """
        _require_same_layout(self.layout, state.layout)
        amplitudes = state.amplitudes if self.basis is None else state.amplitudes[self.basis]
        # numpy, not BLAS: a threaded BLAS dot rounds differently per thread count
        value = complex(np.sum(amplitudes.conj() * (self.matrix @ amplitudes)))
        return value.real if self.hermitian else value


def embed_operator(layout: SystemLayout, factors: Mapping[str, np.ndarray], basis=None) -> OperatorMatrix:
    """The product of local operators on distinct sites, identity elsewhere, on ``basis``.

    ``factors`` maps site names (qudits, the coupler ``A``, the modes
    ``cavL``/``cavR``) to square matrices of the site's dimension;
    ``basis`` is a sorted array of the flat indices kept (None: all). The
    result is the ``kron`` chain of the layout's factors restricted to the
    basis, built column by column from the factors (:func:`local_moves`):
    each value is the product of one entry per factor, identities' ones
    included, in factor order, as the chain multiplies them. The CSR is
    canonical (sorted int32 indices) and bit-identical to the chain's. The
    claimed Hermiticity is that of the factors: when each is exactly its
    own conjugate transpose, so is the result, bit for bit.
    """
    codes = np.arange(layout.dim) if basis is None else np.asarray(basis)
    moves = local_moves(layout, [factors])
    rows, moved, (touched, picked) = _moved(layout, moves, codes)
    values = dict(zip(touched.tolist(), moves.entries[picked].transpose(1, 0, 2)))
    data = values.get(0, np.ones(rows.shape, dtype=complex))
    for pos in range(1, len(layout.factor_dims)):
        data = data * values.get(pos, 1.0)
    rows, cols, data = rows[moved], np.broadcast_to(np.arange(codes.size), rows.shape)[moved], data[moved]
    if basis is not None:  # each row's place in the basis, or none
        at = np.minimum(np.searchsorted(codes, rows), codes.size - 1)
        inside = codes[at] == rows
        rows, cols, data = at[inside], cols[inside], data[inside]
    order = np.lexsort((cols, rows))  # canonical: row by row, each row's columns increasing
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=codes.size))))
    mat = sp.csr_matrix((data[order], cols[order], indptr), shape=(codes.size, codes.size))
    herm = all(np.array_equal(m, m.conj().T) for m in map(np.asarray, factors.values()))
    return OperatorMatrix(mat, layout, hermitian=herm, by_construction=True, basis=basis)


class LocalMoves(NamedTuple):
    """A sum of products of maps, one per factor, each a local matrix with one entry per column at most.

    Map f of product m sends level l of factor f to ``targets[m, f, l]``
    (-1: no entry) with the entry ``entries[m, f, l]``. ``+`` adds sums.
    """

    targets: np.ndarray  # (products, factors, levels)
    entries: np.ndarray

    def __add__(self, other: LocalMoves) -> LocalMoves:
        return LocalMoves(*(np.concatenate(pair) for pair in zip(self, other)))


def local_moves(layout: SystemLayout, terms: Iterable[Mapping[str, np.ndarray]]) -> LocalMoves:
    """The sum of ``terms``, products of local factors as :func:`embed_operator` takes them, as maps.

    The k-th map of a factor holds the k-th nonzero of each of its columns,
    so a factor with none leaves its term no product.
    """
    levels, products = max(layout.factor_dims), []
    for factors in terms:
        per_factor = []
        for site, local in factors.items():
            pos, d, local = layout.factor_index(site), layout.site_dim(site), np.asarray(local, dtype=complex)
            if local.shape != (d, d):
                raise ValueError(f"local operator must be {d}x{d} for factor {site!r}")
            col, row = np.nonzero(local.T)  # column by column
            rank = np.arange(col.size) - np.searchsorted(col, col)  # the place among its column's nonzeros
            maps = []
            for k in range(rank.max(initial=-1) + 1):
                target, value = np.full(levels, -1), np.ones(levels, dtype=complex)
                target[col[rank == k]] = row[rank == k]
                value[:d] = local[target[:d], np.arange(d)]
                maps.append((pos, target, value))
            per_factor.append(maps)
        products += itertools.product(*per_factor)
    # a factor no term names is the identity, whose ones are real, as in sp.identity
    targets = np.tile(np.arange(levels), (len(products), len(layout.factor_dims), 1))
    entries = np.ones(targets.shape, dtype=complex)
    for m, product in enumerate(products):
        for pos, target, value in product:
            targets[m, pos], entries[m, pos] = target, value
    return LocalMoves(targets, entries)


def reachable(layout: SystemLayout, seed: np.ndarray, moves: LocalMoves) -> np.ndarray:
    """The smallest sorted set of flat indices that holds ``seed`` and is closed under ``moves``.

    It grows breadth first, every product of maps on the whole frontier at
    once, so nothing the size of the register is formed.
    """
    reached = frontier = np.unique(np.asarray(seed, dtype=np.int64))
    while frontier.size:
        images, moved, _ = _moved(layout, moves, frontier)
        images = np.unique(images[moved])
        at = np.minimum(np.searchsorted(reached, images), reached.size - 1)
        frontier = images[reached[at] != images]
        reached = np.union1d(reached, frontier)
    return reached


def _moved(layout: SystemLayout, moves: LocalMoves, codes: np.ndarray):
    """Where each product of ``moves`` sends each of the flat indices ``codes``, and whether it sends it
    anywhere, both (product, code); then the factors some product does not leave as the identity, and
    the index of the map entries they pick."""
    codes = np.asarray(codes, dtype=np.int64)
    identity = (moves.targets == np.arange(moves.targets.shape[2])).all(axis=2) & (moves.entries == 1).all(axis=2)
    touched = np.flatnonzero(~identity.all(axis=0))
    dims = np.array(layout.factor_dims)[touched, None]
    strides = np.array([math.prod(layout.factor_dims[pos + 1 :]) for pos in touched], dtype=np.int64)[:, None]
    levels = codes // strides % dims  # (factor, code)
    picked = (slice(None), touched[:, None], levels)
    to = moves.targets[picked]
    return codes + ((to - levels) * strides).sum(axis=1), (to >= 0).all(axis=1), (touched, picked)


def partial_trace(obj: QuantumState | OperatorMatrix, keep_sites: Iterable[str]) -> np.ndarray:
    """Trace out everything except ``keep_sites``.

    Parameters
    ----------
    obj : QuantumState or OperatorMatrix
        A pure state, or a density matrix on the register or on its ``basis``.
    keep_sites : iterable of str
        Factor names to keep, in the order the reduced matrix should use.
        Cavity factors ``cavL``/``cavR`` are allowed.

    Returns
    -------
    numpy.ndarray
        Dense matrix of dimension ``prod(site dims kept)``.
    """
    layout = obj.layout
    keep = tuple(keep_sites)
    if len(set(keep)) != len(keep):
        raise ValueError("keep_sites contains duplicates")
    positions = [layout.factor_index(s) for s in keep]
    dims = layout.factor_dims
    keep_dim = math.prod(dims[p] for p in positions)

    if isinstance(obj, QuantumState):
        tensor = obj.amplitudes.reshape(dims)
        rest = [i for i in range(len(dims)) if i not in positions]
        mat = tensor.transpose(positions + rest).reshape(keep_dim, -1)
        return mat @ mat.conj().T
    if not isinstance(obj, OperatorMatrix):
        raise TypeError(f"cannot partial-trace a {type(obj).__name__}")
    # over the stored entries: one survives when its row and column agree on every traced-out level
    entries = obj.matrix.tocoo()
    rows, cols = entries.row, entries.col
    if obj.basis is not None:  # places in the basis, as register indices
        rows, cols = obj.basis[rows], obj.basis[cols]
    row_levels, col_levels = np.unravel_index(rows, dims), np.unravel_index(cols, dims)
    same = np.ones(entries.nnz, dtype=bool)
    for i in set(range(len(dims))) - set(positions):
        same &= row_levels[i] == col_levels[i]
    row = col = np.zeros(entries.nnz, dtype=np.int64)
    for p in positions:
        row, col = row * dims[p] + row_levels[p], col * dims[p] + col_levels[p]
    reduced = np.zeros((keep_dim, keep_dim), dtype=complex)
    np.add.at(reduced, (row[same], col[same]), entries.data[same])
    return reduced


def _require_same_layout(a: SystemLayout, b: SystemLayout) -> None:
    if a != b:
        raise ValueError(f"layout mismatch: {a} vs {b}")
