"""The register-sized compile, kept as a test oracle for n <= 3.

``runner._compiled`` grows each segment's reachable states from the local
terms the operators are made of and builds every operator on them. This
module compiles the same schedule on the whole register instead: every
generator and channel on the register, each closure a matrix-vector
iteration over their summed patterns, and each block cut out of the
register operators afterwards. Its result has the runner's fields, so the
tests can compare the two compiles array by array; it allocates
register-sized arrays, so the tests use it up to n = 3.
"""

from __future__ import annotations

import numpy as np

from helpers import register
from ghz_transfer import runner
from ghz_transfer.analysis import GhzSpec, _oracle_parts
from ghz_transfer.evolution import Dissipator, Propagator
from ghz_transfer.hamiltonians import collapse_operators


def _closure(reach: np.ndarray, edges) -> np.ndarray:
    """The boolean mask ``reach`` grown until no edge leads out: weight moves from columns to rows."""
    while True:
        grown = reach | (edges @ reach > 0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


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
    if mode != "lindblad":
        steps, reach = [], seed
        for seg in segments:
            steps.append(Propagator.compile(runner._segment_generator(layout, seg, params, mode, whole), reach))
            reach = steps[-1].support
        return runner._Compiled(seed, steps, None)
    collapse = [op.matrix.tocsr() for op in collapse_operators(layout, params, whole)]
    channels = sum(abs(l_op) for l_op in collapse)
    reach = np.isin(whole, seed)
    generators = [runner._segment_generator(layout, seg, params, mode, whole).matrix for seg in segments]
    for h_mat in generators:
        reach = _closure(reach, channels + abs(h_mat) + abs(h_mat).T)
    keep = np.flatnonzero(_closure(reach, channels))
    dissipator = Dissipator([op[keep][:, keep] for op in collapse], keep.size)
    return runner._Compiled(keep, [h_mat[keep][:, keep] for h_mat in generators], dissipator)
