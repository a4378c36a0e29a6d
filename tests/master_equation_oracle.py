"""Adaptive-step integration of the Lindblad master equation, kept as a test oracle.

The package solves each constant segment exactly with the exponential of its
Liouvillian. This module integrates the same equation the long way, with
DOP853 on the dense density matrix, so the tests can compare the two
routes. It works on bare arrays and has the signature of
``lindblad_propagate`` with the channel matrices in place of the
``Dissipator``, so a test can put it in that function's place by supplying
the channels the Dissipator was built from. Like that function, it returns
the final matrix and the populations (diagonals) of the sampled grid, not
the sampled matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

RTOL = 1e-11
ATOL = 1e-13


def integrate(h_mat, collapse_mats, rho0, duration, *, samples=0):
    """Final matrix plus the (samples, d) populations on [0, duration], endpoints included."""
    dim = rho0.shape[0]
    h_eff = sp.csr_matrix((dim, dim), dtype=complex) if h_mat is None else h_mat.astype(complex)
    for l_op in collapse_mats:
        h_eff = h_eff - 0.5j * (l_op.getH() @ l_op)
    h_eff = h_eff.tocsr()

    def rhs(_t, y):
        mat = y.reshape(dim, dim)
        mat = 0.5 * (mat + mat.conj().T)
        t_part = h_eff @ mat
        out = -1j * (t_part - t_part.conj().T)
        for l_op in collapse_mats:
            out = out + l_op @ (l_op @ mat).conj().T
        return out.ravel()

    times = np.linspace(0.0, duration, samples)
    if duration == 0.0:
        return rho0.copy(), np.tile(np.real(np.diag(rho0)), (samples, 1))
    sol = solve_ivp(
        rhs, (0.0, duration), rho0.astype(complex).ravel(),
        method="DOP853", rtol=RTOL, atol=ATOL, t_eval=np.union1d(times, [duration]),
    )
    assert sol.success, sol.message
    final = sol.y[:, -1].reshape(dim, dim)
    populations = np.real(sol.y[:: dim + 1, :samples].T)  # the diagonal of each sampled matrix
    return 0.5 * (final + final.conj().T), populations
