"""The register-sized compile, kept as a test oracle for n <= 3.

``runner._compiled`` grows each segment's reachable states from the local
terms the operators are made of and builds every operator on them, each
sum in one pass. This module compiles the same schedule on the whole
register instead, and builds every operator literally: each term is its
``sp.kron`` chain of local factors, a sideband is ``half + half.getH()``,
the driven dispersive form ``diags(g) + A + A^+ + B + B^+`` with A and B
summed term by term, the reduced one ``diags``, and every channel is one
chain. Each closure is a matrix-vector iteration over the summed
patterns, and each block is cut out of the register operators afterwards.
Its result has the runner's fields, so the tests can compare the two
compiles array by array; it allocates register-sized arrays, so the tests
use it up to n = 3.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import scipy.sparse as sp

from helpers import kron_chain, register
from ghz_transfer import runner
from ghz_transfer.analysis import GhzSpec, _oracle_parts
from ghz_transfer.evolution import Dissipator, Distinct, Propagator
from ghz_transfer.hamiltonians import EffectiveRates, collapse_terms, drive_terms, sideband_term
from ghz_transfer.hilbert import OperatorMatrix


def _closure(reach: np.ndarray, edges) -> np.ndarray:
    """The boolean mask ``reach`` grown until no edge leads out: weight moves from columns to rows."""
    while True:
        grown = reach | (edges @ reach > 0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def register_generator(layout, seg, params, mode):
    """The segment's generator on the register as canonical CSR, and a driven window's frame diagonal (else None)."""
    if seg.kind != "dispersive":
        levels = ("e", "f") if seg.kind == "resonant_ef" else ("g", "e")
        half = kron_chain(layout, sideband_term(layout, seg.cavity, seg.site, *levels, seg.coupling))
        return (half + half.getH()).tocsr(), None
    window, whole = runner._window_params(seg, params), register(layout)
    if mode != "full-dispersive":
        rates, diag = EffectiveRates.from_params(window), np.zeros(layout.dim)
        n_a, n_b = (layout.level_index_array(cavity, whole).astype(float) for cavity in ("cavL", "cavR"))
        for site in layout.left_spectators:
            diag -= rates.lam * (layout.level_index_array(site, whole) == 1) * n_a
        for site in layout.right_spectators:
            diag -= rates.lam_prime * (layout.level_index_array(site, whole) == 1) * n_b
        return sp.diags(diag.astype(complex), format="csr"), None
    terms, left = drive_terms(layout, window), len(layout.left_spectators)
    a_part, b_part = (reduce(add, (kron_chain(layout, term) for term in part)) for part in (terms[:left], terms[left:]))
    g = np.zeros(layout.dim)
    for sites, delta in ((layout.left_spectators, window.delta), (layout.right_spectators, window.delta_prime)):
        for site in sites:
            g += delta * (layout.level_index_array(site, whole) == 2)
    static = sp.diags(g, format="csr").astype(complex)
    static = static + a_part + a_part.getH().tocsr() + b_part + b_part.getH().tocsr()
    return static.tocsr(), g


def register_channels(layout, params) -> list:
    """Every collapse channel on the register, one ``kron`` chain each."""
    return [kron_chain(layout, term) for term in collapse_terms(layout, params)]


def register_compile(layout, segments, params, mode):
    """``runner._compiled``'s result, found on the register.

    Segment k acts on C_k: the closure of C_(k-1) under its generator
    (both ways) and, in lindblad mode, every collapse channel (forward),
    from C_0, both initial branches' supports. Lindblad restricts every
    generator and channel to the final block.
    """
    whole = register(layout)
    g_part, f_part, _, _ = _oracle_parts(layout, GhzSpec(1.0, 0.0, layout.n_left), "initial", whole)
    seed = np.union1d(np.flatnonzero(g_part), np.flatnonzero(f_part))
    generators = [register_generator(layout, seg, params, mode) for seg in segments]
    if mode != "lindblad":
        steps, reach = [], seed
        for h_mat, frame in generators:
            step = Propagator.compile(OperatorMatrix(h_mat, layout, hermitian=True, by_construction=True, basis=whole), reach)
            steps.append(step if frame is None else replace(step, frame=Distinct.of(frame[step.support])))
            reach = steps[-1].support
        return runner._Compiled(seed, steps, None)
    collapse = register_channels(layout, params)
    channels = sum(abs(l_op) for l_op in collapse)
    reach = np.isin(whole, seed)
    for h_mat, _ in generators:
        reach = _closure(reach, channels + abs(h_mat) + abs(h_mat).T)
    keep = np.flatnonzero(_closure(reach, channels))
    dissipator = Dissipator([op[keep][:, keep] for op in collapse], keep.size)
    return runner._Compiled(keep, [h_mat[keep][:, keep] for h_mat, _ in generators], dissipator)
