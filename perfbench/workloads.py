"""The benchmark's workloads: command lines built from a seed, and their gates.

Each workload is one ``ghz-transfer run`` command. Together the three make up
``verify --n 2``; ``verify`` and ``sweep`` have no workload of their own (see
NOTES.md). The benchmark seed picks the amplitude pair. The program receives
only the generated amplitudes, except in ``ideal-batch``, where the batch is
the program's own ``random:<seed>:<count>`` form.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # everything but --ghz and --out
    batch: int  # amplitude pairs in one command
    writes_files: bool  # --out with --emit tables, else the report on stdout
    # wall time goes as (calibration time) ** speed_exponent as the host's speed
    # changes; the slope measured across 50 s windows (NOTES.md, "Rescaling")
    speed_exponent: float
    fidelity_tol: float  # absolute, against the reference model
    spectator_rel_tol: float | None = None  # relative, on max_spectator_f

    def argv(self, seed: int, out_dir: str) -> list[str]:
        return self.argv_for(ghz_text(self, seed), out_dir)

    def argv_for(self, ghz: str, out_dir: str) -> list[str]:
        """The command; ``out_dir`` is used only by a workload that writes files."""
        argv = [*self.args, "--ghz", ghz]
        if self.writes_files:
            argv += ["--out", out_dir]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ideal-batch",
            args=("run", "--mode", "ideal-reduced", "--n", "3"),
            batch=20,
            writes_files=False,
            speed_exponent=0.8,  # not measured; its work is like dispersive-trajectory's
            fidelity_tol=1e-12,
        ),
        Workload(
            name="dispersive-trajectory",
            args=("run", "--mode", "full-dispersive", "--n", "2", "--samples", "300",
                  "--emit", "trajectory", "--emit", "checkpoints"),
            batch=1,
            writes_files=True,
            speed_exponent=0.8,
            fidelity_tol=1e-10,
            spectator_rel_tol=1e-6,
        ),
        Workload(
            name="lindblad-open",
            args=("run", "--mode", "lindblad", "--n", "2", "--cutoff", "3"),
            batch=1,
            writes_files=False,
            speed_exponent=0.4,
            fidelity_tol=1e-6,
        ),
    )
}


def amplitude_pair(seed: int) -> tuple[float, complex]:
    """Normalized (alpha, beta) drawn from ``seed``, both weights in [0.1, 0.9]."""
    rng = random.Random(seed)
    weight = 0.1 + 0.8 * rng.random()
    phase = 2.0 * math.pi * rng.random()
    return math.sqrt(weight), math.sqrt(1.0 - weight) * cmath.exp(1j * phase)


def pair_text(alpha: complex, beta: complex) -> str:
    return f"{alpha!r},{beta!r}"


def ghz_text(workload: Workload, seed: int) -> str:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if workload.batch > 1:
        return f"random:{seed}:{workload.batch}"
    return pair_text(*amplitude_pair(seed))
