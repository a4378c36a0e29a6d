"""The second-order effective dispersive Hamiltonian, kept as a test oracle.

The runner evolves the dispersive window under its reduced form
(``hamiltonians.h_dispersive_reduced``), or under the literal drive. This
module writes down the effective Hamiltonian the reduction comes from, on
the whole register, so the tests can check that the two agree once
spectator f population is dropped.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from helpers import register
from ghz_transfer.hamiltonians import EffectiveRates, PhysicalParams, _require_spectators
from ghz_transfer.hilbert import OperatorMatrix, SystemLayout, annihilation_op, embed_operator, transition_op


def h_dispersive_effective(layout: SystemLayout, params: PhysicalParams) -> OperatorMatrix:
    """Second-order effective dispersive Hamiltonian.

    Stark terms lam (|f><f| a a_dag - |e><e| a_dag a) per left spectator
    plus the photon-mediated dipole exchange lam |f>_l<e| (x) |e>_k<f| over
    ordered spectator pairs l != k, and the primed analogues on the right.
    """
    _require_spectators(layout)
    rates = EffectiveRates.from_params(params)
    promote, demote = transition_op(3, "f", "e"), transition_op(3, "e", "f")
    terms, whole = [], register(layout)
    for lam, mode, spectators in (
        (rates.lam, "cavL", layout.left_spectators),
        (rates.lam_prime, "cavR", layout.right_spectators),
    ):
        a = annihilation_op(layout.site_dim(mode))
        n_op = lam * (a.conj().T @ a)
        anti_n = lam * (a @ a.conj().T)
        for site in spectators:
            ff = embed_operator(layout, {site: transition_op(3, "f", "f"), mode: anti_n}, whole)
            ee = embed_operator(layout, {site: transition_op(3, "e", "e"), mode: n_op}, whole)
            terms.append(ff.matrix - ee.matrix)
        for site_l in spectators:
            for site_k in spectators:
                if site_k != site_l:
                    terms.append(embed_operator(layout, {site_l: lam * promote, site_k: demote}, whole).matrix)
    return OperatorMatrix(reduce(add, terms).tocsr(), layout, hermitian=True, basis=whole)
