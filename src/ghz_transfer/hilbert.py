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
Operators are stored sparse (CSR), pure states as dense vectors, each on
the basis it carries; a density matrix is an operator. Every operator is
one Kronecker product of local factors (:func:`embed_operator`), or a sum
of such products, assembled in one pass from the local factors' entries
on a basis: sorted flat indices, such as all of them (the register) or the
states :func:`reachable` finds from a seed through the same factors. A
state's basis holds distinct flat indices in an order of its own, such as
a step's support; states and operators meet through :meth:`QuantumState.on`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

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
    "embed_operator", "embed_sum", "LocalMoves", "local_moves", "reachable",
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

    def level_index_array(self, site: str, indices: np.ndarray) -> np.ndarray:
        """Level of ``site`` for each of the flat basis indices ``indices``.

        This is the workhorse for diagonal operators and population
        extraction: ``pops[k] = sum(|psi|^2 [levels == k])``.
        """
        pos = self.factor_index(site)
        return (np.asarray(indices) // math.prod(self.factor_dims[pos + 1 :])) % self.factor_dims[pos]

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
    """Dense state vector bound to a layout, on a basis.

    ``amplitudes`` stands for the distinct flat indices ``basis`` (see the
    module docstring), in that order. Every amplitude off the basis is
    exactly zero.
    """

    amplitudes: np.ndarray
    layout: SystemLayout
    basis: np.ndarray = field(kw_only=True, compare=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        self.basis = _checked_basis(self.basis, self.layout, increasing=False)
        if amps.shape != self.basis.shape:
            raise ValueError(f"amplitude vector has shape {amps.shape}, its basis has {self.basis.size} states")
        self.amplitudes = amps

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def on(self, indices: np.ndarray) -> np.ndarray:
        """The amplitudes at the flat indices ``indices``, zero where the state has none."""
        order = np.argsort(self.basis)  # then one sentinel past the end, which matches no index
        keys, values = np.append(self.basis[order], -1), np.append(self.amplitudes[order], 0)
        at = np.searchsorted(keys[:-1], indices)
        return np.where(keys[at] == indices, values[at], 0)

    def overlap(self, other: "QuantumState") -> complex:
        """Inner product <self|other>, on the smaller basis of the two, ``self``'s when they are the same size."""
        _require_same_layout(self.layout, other.layout)
        if other.basis.size < self.basis.size:
            mine, theirs = self.on(other.basis), other.amplitudes
        else:
            mine, theirs = self.amplitudes, other.on(self.basis)
        # numpy, not BLAS: a threaded BLAS dot rounds differently per thread count
        return complex(np.sum(mine.conj() * theirs))


def _product_amplitudes(layout: SystemLayout, site_vectors, photons, support) -> np.ndarray:
    """The product state of per-site local vectors on the flat indices ``support``.

    Unlisted qudits and the coupler sit in g, the modes in ``photons``. Each
    amplitude is a product of one entry per factor, multiplied left to right
    as a ``np.kron`` chain does, so both give the same bits.
    """
    vectors = {**site_vectors, "cavL": level_ket(layout.site_dim("cavL"), photons[0])}
    vectors["cavR"] = level_ket(layout.site_dim("cavR"), photons[1])
    factors = []
    for site, dim in zip(layout.site_names, layout.factor_dims):
        factors.append(np.asarray(vectors.get(site, level_ket(dim, 0)), dtype=complex))
        if factors[-1].shape != (dim,):
            raise ValueError(f"local vector for {site!r} must have dim {dim}")
    unknown = set(vectors) - set(layout.site_names)
    if unknown:
        raise KeyError(f"unknown sites {sorted(unknown)}")
    levels = np.unravel_index(support, layout.factor_dims)
    amps = factors[0][levels[0]]
    for factor, level in zip(factors[1:], levels[1:]):
        amps = amps * factor[level]
    return amps


@dataclass
class OperatorMatrix:
    """Sparse operator bound to a layout, with a Hermiticity claim.

    Its rows and columns stand for the sorted flat indices ``basis``. A
    density matrix is one too: a lindblad run ends in the Hermitian
    operator on its block.
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
    basis: np.ndarray = field(kw_only=True, compare=False)

    _HERMITICITY_TOL = 1e-12

    def __post_init__(self, by_construction: bool) -> None:
        mat = sp.csr_matrix(self.matrix, dtype=complex)
        self.basis = _checked_basis(self.basis, self.layout, increasing=True)
        if mat.shape != (self.basis.size,) * 2:
            raise ValueError(f"operator shape {mat.shape} does not match its basis of {self.basis.size} states")
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
        """The operator times ``state``, as a state on the operator's basis.

        On a ``basis``, it acts as P O P for P the projector onto it.
        """
        _require_same_layout(self.layout, state.layout)
        return QuantumState(self.matrix @ state.on(self.basis), self.layout, basis=self.basis)

    def expectation(self, state: QuantumState) -> complex:
        """<state| O |state>, with O as :meth:`apply` takes it; real part only when the operator is hermitian.

        For a density matrix and a pure target, that is the fidelity <psi|rho|psi>.
        """
        _require_same_layout(self.layout, state.layout)
        amplitudes = state.on(self.basis)
        # numpy, not BLAS: a threaded BLAS dot rounds differently per thread count
        value = complex(np.sum(amplitudes.conj() * (self.matrix @ amplitudes)))
        return value.real if self.hermitian else value


def embed_operator(layout: SystemLayout, factors: Mapping[str, np.ndarray], basis: np.ndarray) -> OperatorMatrix:
    """The product of local operators on distinct sites, identity elsewhere, on the sorted flat indices ``basis``.

    ``factors`` maps site names (qudits, the coupler ``A``, the modes ``cavL``/``cavR``) to square matrices of
    the site's dimension. The canonical CSR (sorted int32 indices) is bit-identical to the restricted ``kron``
    chain: each value is the product of one entry per factor in factor order, times 1.0 for each run of identity
    factors, as the chain multiplies by one merged identity. It is claimed Hermitian when every factor is exactly
    its own conjugate transpose, as the result then is.
    """
    matrix = _csr(*_entries(layout, local_moves(layout, [factors]), np.asarray(basis))[:3], len(basis))
    herm = all(np.array_equal(m, m.conj().T) for m in map(np.asarray, factors.values()))
    return OperatorMatrix(matrix, layout, hermitian=herm, by_construction=True, basis=basis)


def embed_sum(layout: SystemLayout, moves: LocalMoves, basis: np.ndarray, *, diagonal=None, each: bool = False):
    """The sum of the products of ``moves``, plus ``diagonal`` if given, on ``basis``, as one canonical CSR.

    Each product has :func:`embed_operator`'s values, and no two store an entry in the same place. The sum
    keeps what scipy's sparse add of their matrices keeps: each value plus 0 (a -0.0 part becomes +0.0), and
    no exact zero. With ``each``, a list of one CSR per product instead, each with its own values.

    >>> layout, up = build_layout(1, 1, 3, 3), {"A": transition_op(2, "e", "g"), "cavL": annihilation_op(4)}
    >>> moves = local_moves(layout, [up, {site: local.conj().T for site, local in up.items()}])  # |e><g| a + h.c.
    >>> h, parts = embed_sum(layout, moves, np.arange(288)), embed_sum(layout, moves, np.arange(288), each=True)
    >>> h.nnz, (h != h.getH()).nnz, h.has_canonical_format, [part.nnz for part in parts]
    (216, 0, True, [108, 108])
    """
    rows, cols, data, product = _entries(layout, moves, np.asarray(basis))
    if each:
        mine = (product == m for m in range(len(moves.targets)))  # each product's entries
        return [_csr(rows[m], cols[m], data[m], len(basis)) for m in mine]
    if diagonal is not None:
        places = np.arange(len(basis))
        rows, cols, data = np.append(rows, places), np.append(cols, places), np.append(data, diagonal)
    data = data + 0j
    kept = data != 0
    return _csr(rows[kept], cols[kept], data[kept], len(basis))


def _entries(layout: SystemLayout, moves: LocalMoves, codes: np.ndarray):
    """The stored entries of the products of ``moves`` on the sorted flat indices ``codes``: row and column place,
    value and product. Each run of products that act on the same factors is moved at once, so that no array spans
    a factor the run leaves alone (over every product at once they grow as n squared); only entries are joined."""
    acts, parts = _acts(moves), [(np.empty(0, np.int64),) * 2 + (np.empty(0, complex), np.empty(0, np.int64))]
    for members in np.split(np.arange(len(acts)), np.flatnonzero((acts[1:] != acts[:-1]).any(axis=1)) + 1):
        touched = np.flatnonzero(acts[members[:1]].any(axis=0))
        images, moved, levels = _moved(layout, moves.targets[members], codes, touched)
        which, cols = np.nonzero(moved)
        images = images[which, cols]
        at = np.minimum(np.searchsorted(codes, images), codes.size - 1)  # each row's place in the basis, or none
        which, cols, at = (part[codes[at] == images] for part in (which, cols, at))
        # the kron chain's products at the stored entries: factor by factor, and 1.0 for each run of identities
        data, after = np.ones(cols.size, dtype=complex), 0
        for pos, value in zip(touched.tolist(), moves.entries[members[which], touched[:, None], levels[:, cols]]):
            data, after = value if pos == 0 else (data if pos == after else data * 1.0) * value, pos + 1
        data = data if after == len(layout.factor_dims) else data * 1.0
        parts.append((at, cols, data, members[which]))
    return tuple(map(np.concatenate, zip(*parts)))


def _csr(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, size: int) -> sp.csr_matrix:
    """The canonical CSR of entries in distinct places: row by row, each row's columns increasing."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=size))))
    order = np.argsort(rows * size + cols)
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(size, size))


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
    reached = frontier = _distinct(np.asarray(seed, dtype=np.int64))
    touched = np.flatnonzero(_acts(moves).any(axis=0))
    while frontier.size:
        images, moved, _ = _moved(layout, moves.targets, frontier, touched)
        images = _distinct(images[moved])
        at = np.minimum(np.searchsorted(reached, images), reached.size - 1)
        frontier = images[reached[at] != images]
        reached = np.sort(np.concatenate((reached, frontier)))  # disjoint, so this is their union
    return reached


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, increasing, by sorting: ``np.unique`` hashes, some 50 times slower on numpy 2.4."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _acts(moves: LocalMoves) -> np.ndarray:
    """(product, factor): whether the product's map on the factor is not the identity."""
    return ~((moves.targets == np.arange(moves.targets.shape[2])).all(axis=2) & (moves.entries == 1).all(axis=2))


def _moved(layout: SystemLayout, targets: np.ndarray, codes: np.ndarray, touched: np.ndarray):
    """Where each product of the maps ``targets`` sends each of the flat indices ``codes``, and whether it sends
    it anywhere, both (product, code), through the factors ``touched``, which hold every factor some product does
    not leave as the identity; then each touched factor's level of each code."""
    codes = np.asarray(codes, dtype=np.int64)
    strides = np.array([math.prod(layout.factor_dims[pos + 1 :]) for pos in touched], dtype=np.int64)[:, None]
    levels = codes // strides % np.array(layout.factor_dims)[touched, None]  # (factor, code)
    # each level's shift of the flat index, per product and factor; -dim where it has no image, which keeps any
    # sum that holds one negative, as every other partial sum is a flat index
    maps = targets[:, touched]
    shifts = np.where(maps >= 0, (maps - np.arange(maps.shape[2])) * strides, -layout.dim)
    images = np.repeat(codes[None], len(targets), axis=0)
    for shift, level in zip(shifts.transpose(1, 0, 2), levels):
        images += np.take(shift, level, axis=1)
    return images, images >= 0, levels


def partial_trace(obj: QuantumState | OperatorMatrix, keep_sites: Iterable[str]) -> np.ndarray:
    """Trace out everything except ``keep_sites``.

    Parameters
    ----------
    obj : QuantumState or OperatorMatrix
        A pure state or a density matrix, each on its ``basis``.
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

    if isinstance(obj, QuantumState):  # a row per kept level, a column per traced-out level the state holds
        levels = np.unravel_index(obj.basis, dims)
        rest = [i for i in range(len(dims)) if i not in positions]
        row, col = (np.ravel_multi_index([levels[i] for i in part], [dims[i] for i in part]) for part in (positions, rest))
        _, col = np.unique(col, return_inverse=True)
        mat = np.zeros((keep_dim, col.max(initial=-1) + 1), dtype=complex)
        mat[row, col] = obj.amplitudes
        return mat @ mat.conj().T
    if not isinstance(obj, OperatorMatrix):
        raise TypeError(f"cannot partial-trace a {type(obj).__name__}")
    # over the stored entries: one survives when its row and column agree on every traced-out level
    entries = obj.matrix.tocoo()
    rows, cols = obj.basis[entries.row], obj.basis[entries.col]  # places in the basis, as flat indices
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


def _checked_basis(basis, layout: SystemLayout, *, increasing: bool) -> np.ndarray:
    """``basis`` as an array of distinct flat indices of ``layout``, in increasing order if asked; else a ValueError."""
    basis = np.asarray(basis)
    if basis.ndim != 1 or basis.size and not 0 <= basis.min() <= basis.max() < layout.dim:
        raise ValueError(f"a basis is a 1-d array of flat indices in [0, {layout.dim})")
    if np.any(np.diff(basis if increasing else np.sort(basis)) <= 0):
        raise ValueError("the basis indices must increase strictly" if increasing else "the basis repeats an index")
    return basis


def _require_same_layout(a: SystemLayout, b: SystemLayout) -> None:
    if a != b:
        raise ValueError(f"layout mismatch: {a} vs {b}")
