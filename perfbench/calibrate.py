"""A fixed amount of work that uses none of the package, timed to gauge the host.

The benchmark's host is a shared VM whose speed changes by up to half for
minutes at a time (see NOTES.md, "Noise"). Every child runs ``calibrate()``
after its measured work, and ``run.py`` rescales the command's median wall time
by the calibration's median. The work alternates two kinds of rounds, like the
two kinds of work in the workloads:

- interpreted Python and many small numpy and scipy calls, as in Lanczos
  steps, operator construction and imports;
- sparse-times-dense products and element-wise complex algebra on a
  260 x 260 matrix, as in a master-equation right-hand side.

Only numpy and scipy are used, which the package imports anyway, so no change
to the package can change the calibration.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp


def _hermitian_sparse(dim: int, density: float, seed: int) -> sp.csr_matrix:
    real = sp.random(dim, dim, density=density, random_state=seed, format="csr")
    imag = sp.random(dim, dim, density=density, random_state=seed + 1, format="csr")
    mat = (real + 1j * imag).tocsr()
    return (mat + mat.getH()).tocsr()


def _calls(sparse: sp.csr_matrix, vec: np.ndarray, small: np.ndarray) -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(15000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += abs(complex(i, -key)) ** 0.5
    for _ in range(25):
        vec = sparse @ vec
        vec = vec / np.linalg.norm(vec)
        acc += float((small @ small)[0, 0].real) + float(np.linalg.eigvalsh(small[:24, :24])[0])
    return acc + len(table)


def _bulk(h_op: sp.csr_matrix, l_op: sp.csr_matrix, rho: np.ndarray) -> float:
    for _ in range(3):
        rho = 0.5 * (rho + rho.conj().T)
        t_part = h_op @ rho
        out = -1j * (t_part - t_part.conj().T)
        half = l_op @ rho
        out = out + l_op @ half.conj().T
        rho = rho + 1e-3 * out
        rho = rho / np.abs(rho).max()
    return float(rho[0, 0].real)


def calibrate(rounds: int = 20) -> float:
    """Seconds the fixed work took; lower means a faster host right now."""
    rng = np.random.default_rng(12345)
    sparse = _hermitian_sparse(600, 0.01, 7)
    vec = rng.standard_normal(600) + 1j * rng.standard_normal(600)
    small = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    small = small + small.conj().T
    h_op = _hermitian_sparse(260, 0.02, 9)
    l_op = sp.random(260, 260, density=0.005, random_state=11, format="csr").astype(complex)
    rho = rng.standard_normal((260, 260)) + 1j * rng.standard_normal((260, 260))
    t0 = time.perf_counter()
    for _ in range(rounds):
        _calls(sparse, vec, small)
        _bulk(h_op, l_op, rho)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(f"{calibrate():.4f}")
