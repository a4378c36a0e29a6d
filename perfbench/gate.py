"""Correctness gate: every run's outputs against a recorded reference.

The transfer is linear in the initial amplitudes, so every final fidelity, and
the spectator f peak of a fixed sampling grid, is a quadratic form in
r = (|alpha|^2, |beta|^2, Re(conj(alpha) beta), Im(conj(alpha) beta)).
``reference.json`` holds the ten coefficients of that form per workload and
quantity, fitted once by ``fit_reference.py`` on amplitude pairs that no
workload seed produces. The gate predicts the reference for any seed from the
amplitudes the report states and compares within the workload's tolerance.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
AMPLITUDE_TOL = 1e-12


def monomials(alpha: complex, beta: complex) -> list[float]:
    cross = alpha.conjugate() * beta
    r = (abs(alpha) ** 2, abs(beta) ** 2, cross.real, cross.imag)
    return [r[i] * r[j] for i in range(4) for j in range(i, 4)]


def predict(coeffs: list[float], alpha: complex, beta: complex) -> float:
    return sum(c * m for c, m in zip(coeffs, monomials(alpha, beta)))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def check(workload, result: dict | None, reference: dict,
          expected_pair: tuple[complex, complex] | None = None,
          expected_hashes: dict | None = None) -> list[str]:
    """Problems with one child run; an empty list means it passed.

    ``expected_pair`` is the amplitude pair the benchmark generated (None for
    a batch the program draws itself); ``expected_hashes`` are the output
    digests of the first run of the same command, which must repeat.
    """
    if result is None:
        return ["the run produced no result"]
    problems = []
    if result.get("exit_code") != 0:
        problems.append(f"exit code {result.get('exit_code')}: {result.get('error')}")
    summary = result.get("report")
    if summary is None:
        return problems + [f"no report: {result.get('error')}"]
    if summary.get("ok") is not True:
        problems.append("report has ok != true")
    runs = summary["runs"]
    if len(runs) != workload.batch:
        problems.append(f"{len(runs)} runs in the report, expected {workload.batch}")
    ref = reference[workload.name]
    for index, run in enumerate(runs):
        alpha, beta = _complex(run["alpha"]), _complex(run["beta"])
        if expected_pair is not None and not (
            abs(alpha - expected_pair[0]) <= AMPLITUDE_TOL
            and abs(beta - expected_pair[1]) <= AMPLITUDE_TOL
        ):
            problems.append(f"run {index}: amplitudes {alpha}, {beta} are not the ones sent")
        want = predict(ref["final_fidelity"], alpha, beta)
        got = run["final_fidelity"]
        if not abs(got - want) <= workload.fidelity_tol:
            problems.append(
                f"run {index}: final_fidelity {got!r} differs from the reference {want!r} "
                f"by more than {workload.fidelity_tol:g}"
            )
        if workload.spectator_rel_tol is not None:
            want = predict(ref["max_spectator_f"], alpha, beta)
            got = run["max_spectator_f"]
            if got is None or not abs(got - want) <= workload.spectator_rel_tol * abs(want):
                problems.append(
                    f"run {index}: max_spectator_f {got!r} differs from the reference "
                    f"{want!r} by more than {workload.spectator_rel_tol:g} relative"
                )
    if expected_hashes is not None and result.get("hashes") != expected_hashes:
        problems.append("output bytes differ from the first run of the same command")
    return problems
