"""Small constructors that only the tests need."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from ghz_transfer.evolution import EvolutionResult
from ghz_transfer.hilbert import LEVELS, QuantumState, SystemLayout, level_ket
from ghz_transfer.units import TWO_PI


def two_pi_mhz(value: float) -> float:
    """Angular frequency in rad/s for ``value`` megahertz."""
    return TWO_PI * value * 1e6


def register(layout: SystemLayout) -> np.ndarray:
    """The whole register as a basis: every flat index, in order."""
    return np.arange(layout.dim)


def kron_chain(layout: SystemLayout, factors: Mapping[str, np.ndarray]) -> sp.csr_matrix:
    """The reference construction of a product of local factors on the register: one ``sp.kron`` chain,
    unlisted runs merged into identities, as canonical CSR."""
    by_position = {layout.factor_index(site): local for site, local in factors.items()}
    pieces, identity = [], 1
    for pos, d in enumerate(layout.factor_dims):
        if pos not in by_position:
            identity *= d
            continue
        if identity > 1:
            pieces.append(sp.identity(identity, format="csr"))
            identity = 1
        pieces.append(sp.csr_matrix(np.asarray(by_position[pos], dtype=complex)))
    if identity > 1 or not pieces:
        pieces.append(sp.identity(identity, format="csr"))
    mat = pieces[0]
    for piece in pieces[1:]:
        mat = sp.kron(mat, piece, format="csr")
    mat = sp.csr_matrix(mat, dtype=complex)
    mat.sort_indices()
    return mat


def product_amplitudes(layout: SystemLayout, site_vectors, photons, support) -> np.ndarray:
    """The product state of per-site local vectors on the flat indices ``support``, the literal reference.

    Unlisted qudits and the coupler sit in g, the modes in ``photons``. Each
    amplitude is a product of one entry per factor, multiplied left to right
    as a ``np.kron`` chain does, so both give the same bits, and so does the
    package's oracle ket at every entry of its own support.
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


def basis_index(layout: SystemLayout, assignments: Mapping[str, int | str]) -> int:
    """Flat index of the product basis state with the given levels.

    Sites not mentioned sit in their ground/vacuum level. Qudit levels
    may be given as ``"g"/"e"/"f"`` or as integers; photon numbers as
    integers.
    """
    levels = [0] * len(layout.factor_dims)
    for site, value in assignments.items():
        pos = layout.factor_index(site)
        level = LEVELS[value] if isinstance(value, str) else int(value)
        if not 0 <= level < layout.factor_dims[pos]:
            raise ValueError(f"level {value!r} out of range for site {site!r}")
        levels[pos] = level
    return int(np.ravel_multi_index(levels, layout.factor_dims))


def basis_state(layout: SystemLayout, assignments: Mapping[str, int | str] | None = None) -> QuantumState:
    """The product basis state with the given levels; unlisted sites sit at 0."""
    vec = np.zeros(layout.dim, dtype=complex)
    vec[basis_index(layout, assignments or {})] = 1.0
    return QuantumState(vec, layout, basis=register(layout))


def from_product(
    layout: SystemLayout,
    site_vectors: Mapping[str, Sequence[complex]] | None = None,
    photons: tuple[int, int] = (0, 0),
) -> QuantumState:
    """Product state from per-site local vectors, on the whole register.

    Unlisted qudits and the coupler sit in g; the cavities hold the
    given photon-number states.
    """
    whole = register(layout)
    return QuantumState(product_amplitudes(layout, site_vectors or {}, photons, whole), layout, basis=whole)


def on_register(state: QuantumState) -> QuantumState:
    """``state`` on the whole register: its amplitudes scattered onto their flat indices, zero elsewhere."""
    full = np.zeros(state.layout.dim, dtype=complex)
    full[state.basis] = state.amplitudes
    return QuantumState(full, state.layout, basis=register(state.layout))


def sampled_states(result: EvolutionResult) -> list[QuantumState]:
    """The sampled states of ``result`` on the whole register, one per sample time."""
    basis, layout = result.final.basis, result.final.layout
    return [on_register(QuantumState(amps, layout, basis=basis)) for amps in result.samples]
