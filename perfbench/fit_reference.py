"""Regenerate reference.json: the gate's quadratic-form model per workload.

Run from the repository root, with the package importable:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=2 PYTHONHASHSEED=0 \\
        python3 perfbench/fit_reference.py

Each workload's command is run in this process on FIT_SAMPLES amplitude
pairs drawn from seeds FIT_SEED0 and up, which no workload seed below
FIT_SEED0 produces. The fit is least squares over the ten monomials of
``gate.monomials``; the largest residual is stored beside the coefficients.
Every workload is refitted and the file is rewritten whole.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from child import read_outputs, run_command
from gate import REFERENCE_PATH, monomials
from workloads import WORKLOADS, amplitude_pair, pair_text

FIT_SEED0 = 10_000
FIT_SAMPLES = 16


def sample(workload, seed: int) -> tuple[complex, complex, dict]:
    alpha, beta = amplitude_pair(seed)
    work = Path(__file__).with_name(".work")
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        argv = workload.argv_for(pair_text(alpha, beta), str(Path(tmp) / "out"))
        code, stdout, error = run_command(argv)
        if code != 0:
            raise SystemExit(f"{workload.name} seed {seed}: exit {code}: {error}")
        _, report = read_outputs(workload, stdout, Path(tmp) / "out")
    run = report["runs"][0] if "runs" in report else report
    return complex(*run["alpha"]), complex(*run["beta"]), run


def fit(rows: list[list[float]], values: list[float]) -> tuple[list[float], float]:
    coeffs, *_ = np.linalg.lstsq(np.array(rows), np.array(values), rcond=None)
    residual = float(np.max(np.abs(np.array(rows) @ coeffs - np.array(values))))
    return [float(c) for c in coeffs], residual


def main() -> None:
    reference = {}
    for name, workload in WORKLOADS.items():
        if workload.batch > 1:  # fit on single pairs of the same configuration
            workload = replace(workload, batch=1)
        seeds = range(FIT_SEED0, FIT_SEED0 + FIT_SAMPLES)
        samples = [sample(workload, seed) for seed in seeds]
        rows = [monomials(a, b) for a, b, _ in samples]
        entry = {"fit_seeds": [seeds.start, seeds.stop - 1]}
        quantities = ["final_fidelity"]
        if workload.spectator_rel_tol is not None:
            quantities.append("max_spectator_f")
        for quantity in quantities:
            coeffs, residual = fit(rows, [run[quantity] for _, _, run in samples])
            entry[quantity] = coeffs
            entry[f"{quantity}_fit_residual"] = residual
            print(f"{name} {quantity}: max residual {residual:.3e}", file=sys.stderr)
        reference[name] = entry
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
