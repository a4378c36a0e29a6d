"""Benchmark of ``ghz-transfer run`` on three workloads, from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from anywhere inside a checkout that has ``src/ghz_transfer``; it needs
no install. Each repetition is a fresh child interpreter (``child.py``) with
one BLAS and OpenMP thread and a fixed PYTHONHASHSEED, started one after
another from this single process.

``--trace 0`` repeats the untraced command for ``--seconds`` and reports the
end-to-end metrics as medians: the command's wall time after imports,
rescaled by the host's speed (``calibrate.py``), the set-up time (import plus
preset load in a fresh interpreter), the peak RSS, and the share of runs that
passed the correctness gate (``gate.py``).
``--trace 1`` does the same repetitions, then one traced run (``tracer.py``),
one run under tracemalloc and one with as many BLAS threads as cores (the
users' default), and reports the per-layer metrics. The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gate import check, load_reference
from tracer import TRACE_METRICS, layer_sum
from workloads import WORKLOADS, amplitude_pair

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

HASH_SEED = "0"  # fixed before any memory figure was looked at
END_S = 170.0  # each workload's runs end within this many seconds of its start
MIN_SETUP_SAMPLES = 10
# calibrate() takes about this long on the host of NOTES.md in a fast phase;
# wall times are rescaled to it, so that they read as seconds on that host
CAL_REF_S = 0.5
# the diagnostic children of --trace 1, each with its duration guessed as a
# multiple of a plain run's: the traced run, tracemalloc, and nproc BLAS threads
EXTRAS = (("trace", 1.3), ("memory", 2.5), ("nproc", 1.5))

END_TO_END = {"wall_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}
PER_LAYER = {
    **TRACE_METRICS,
    "cli.output_bytes": "bytes",
    "setup.import_s": "s",
    "setup.preset_s": "s",
    "process.wall_s": "s",
    "process.calib_s": "s",
    "process.cpu_s": "s",
    "process.blas_nproc_wall_s": "s",
    "process.cycle_garbage_mb": "MB",
    "trace.overhead_frac": "frac",
}


def cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED=HASH_SEED,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        MKL_NUM_THREADS=str(threads),
    )
    return env


def git_sha() -> str | None:
    """The checkout's commit, or None outside a git checkout or without git."""
    # the ceiling keeps git from finding a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def trace_problems(result: dict) -> list[str]:
    """Why a traced run's per-layer metrics would be wrong; empty if they are not."""
    if "trace" not in result:
        return ["the traced run recorded no spans"]
    problems = [f"{target} no longer exists, so its spans would read zero"
                for target in result["missing"]]
    if result["trace"].get("trace.unmatched_segments"):
        problems.append("propagator calls did not match the schedule's segments")
    return problems


class Session:
    """Child runs of one workload and seed, with the gate applied to each."""

    def __init__(self, workload, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.end = started + END_S
        self.reference = load_reference()
        self.expected_pair = None if workload.batch > 1 else amplitude_pair(seed)
        self.first_hashes = None
        self.results: dict[str, list[dict]] = {}
        self.durations: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def fits(self, kind: str, factor: float = 1.0) -> bool:
        """Whether another child of ``kind`` should end before the deadline."""
        guess = self.durations.get(kind, self.durations.get("plain", 0.0)) * factor
        return time.monotonic() + guess < self.end

    def run(self, kind: str) -> dict | None:
        """One child run; ``nproc`` is a plain run with a BLAS thread per core,
        ``warmup`` an untimed set-up run whose result is dropped."""
        child_kind = {"nproc": "plain", "warmup": "setup"}.get(kind, kind)
        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=WORK))
        argv = [sys.executable, str(HERE / "child.py"), child_kind, self.workload.name,
                str(self.seed), str(work)]
        t0 = time.monotonic()
        result = None
        try:
            proc = subprocess.run(
                argv, env=child_env(cores() if kind == "nproc" else 1), cwd=ROOT,
                capture_output=True,
                text=True, timeout=max(5.0, self.end - t0),
            )
            if proc.returncode == 0:
                result = json.loads((work / "result.json").read_text(encoding="utf-8"))
            else:
                sys.stderr.write(proc.stderr[-4000:])
        except subprocess.TimeoutExpired:
            print(f"{kind} run timed out", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.durations[kind] = max(self.durations.get(kind, 0.0), time.monotonic() - t0)
        if kind == "warmup":
            return result
        if kind != "setup":
            # report bytes depend on the BLAS thread count, so nproc is not compared
            self._gate(kind, result, compare_bytes=kind != "nproc")
        if result is not None:
            self.results.setdefault(kind, []).append(result)
        return result

    def _gate(self, kind: str, result: dict | None, compare_bytes: bool) -> None:
        self.attempted += 1
        expected = self.first_hashes if compare_bytes else None
        problems = check(self.workload, result, self.reference, self.expected_pair, expected)
        if result is not None:
            if not result.get("package", "").startswith(str(SRC)):
                problems.append(f"package imported from {result.get('package')}, not {SRC}")
            if kind == "trace":
                problems += trace_problems(result)
            if compare_bytes and self.first_hashes is None:
                self.first_hashes = result.get("hashes")
        if problems:
            self.failed += 1
            for problem in problems:
                self.problems.append(f"{kind} run {self.attempted}: {problem}")

    def extra(self, kind: str, factor: float) -> dict | None:
        """One diagnostic child, or a failed check if it would overrun END_S."""
        if self.fits("plain", factor):
            return self.run(kind)
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{kind} run skipped: it would not end within {END_S:.0f} s, "
                             "so its metrics would read zero")
        return None

    def samples(self, key: str, kinds=("plain",)) -> list[float]:
        return [r[key] for kind in kinds for r in self.results.get(kind, []) if key in r]

    def setup_samples(self) -> list[float]:
        return [r["import_s"] + r["preset_s"] for rs in self.results.values() for r in rs]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def rescaled(seconds: float, calib_s: float, exponent: float) -> float:
    """``seconds`` measured while calibrate() took ``calib_s``, at the reference
    speed, for a command whose time goes as calibration time ** ``exponent``."""
    return seconds * (CAL_REF_S / calib_s) ** exponent if calib_s > 0 else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Session, dict]:
    session = Session(WORKLOADS[name], seed, time.monotonic())
    t0 = time.monotonic()
    room = 1.0 + (sum(factor for _, factor in EXTRAS) if trace else 0.0)
    # the first child in a checkout writes bytecode and fills the file cache
    session.run("warmup")
    while True:
        session.run("plain")
        if time.monotonic() - t0 >= seconds or not session.fits("plain", room):
            break
    extras = {kind: session.extra(kind, factor) for kind, factor in EXTRAS} if trace else {}
    while len(session.setup_samples()) < MIN_SETUP_SAMPLES and session.fits("setup"):
        session.run("setup")

    wall, calib = median(session.samples("wall_s")), median(session.samples("calib_s"))
    metrics = {
        "wall_cal_s": rescaled(wall, calib, session.workload.speed_exponent),
        "setup_s": median(session.setup_samples()),
        "peak_rss_mb": median(session.samples("maxrss_mb")),
        "pass_frac": (session.attempted - session.failed) / max(session.attempted, 1),
    }
    if not trace:
        return session, metrics

    traced, memory, nproc = extras["trace"], extras["memory"], extras["nproc"]
    layers = {key: 0.0 for key in PER_LAYER}
    if traced is not None and "trace" in traced:
        layers.update({k: v for k, v in traced["trace"].items() if k in layers})
        layers["cli.output_bytes"] = traced.get("output_bytes", 0)
        if wall > 0:
            layers["trace.overhead_frac"] = layers["trace.wall_s"] / wall - 1.0
        closure = layer_sum(traced["trace"]) - layers["trace.wall_s"]
        session.notes.append(f"layer self times add up to trace.wall_s within {closure:+.1e} s")
    every_kind = tuple(session.results)
    layers["setup.import_s"] = median(session.samples("import_s", every_kind))
    layers["setup.preset_s"] = median(session.samples("preset_s", every_kind))
    layers["process.wall_s"] = wall
    layers["process.calib_s"] = calib
    layers["process.cpu_s"] = median(session.samples("cpu_s"))
    if nproc is not None:
        layers["process.blas_nproc_wall_s"] = nproc.get("wall_s", 0.0)
    if memory is not None:
        layers["process.cycle_garbage_mb"] = memory.get("garbage_mb", 0.0)
    return session, layers


def describe(session: Session, metrics: dict, units: dict) -> None:
    w = session.workload
    print(f"workload {w.name}  seed {session.seed}  runs {session.attempted}  "
          f"failed {session.failed}")
    for line in session.problems:
        print(f"  FAIL {line}")
    for line in session.notes:
        print(f"  note: {line}")
    for key, value in metrics.items():
        print(f"  {key:<32} {value:>14.6g} {units[key]}")
    samples = {"wall_s": session.samples("wall_s"), "calib_s": session.samples("calib_s"),
               "setup_s": session.setup_samples(), "maxrss_mb": session.samples("maxrss_mb")}
    for key, values in samples.items():
        if len(values) > 1:
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"  sample {key:<25} median {q2:.6g} of {len(values)}, "
                  f"quartiles {q1:.6g} .. {q3:.6g}, not rescaled")
    if "pass_frac" in metrics:
        print(f"  {'fail_frac':<32} {1.0 - metrics['pass_frac']:>14.6g} frac "
              f"({session.failed}/{session.attempted})")
    if session.first_hashes:
        joined = ",".join(f"{k}:{v}" for k, v in sorted(session.first_hashes.items()))
        print(f"  output sha256 {hashlib.sha256(joined.encode()).hexdigest()}")


def environment(session: Session) -> dict:
    envs = [r["env"] for rs in session.results.values() for r in rs if "env" in r]
    env = dict(envs[0]) if envs else {}
    env["git_sha"] = git_sha()
    return env


def result_line(sessions: list[Session], metrics: dict, units: dict) -> dict:
    failed = sum(s.failed for s in sessions)
    return {
        "correct": failed == 0 and all(s.attempted for s in sessions),
        "attempted": sum(s.attempted for s in sessions),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.rsplit("/", 1)[-1]]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # an exception inside subprocess.run kills the running child before it propagates
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "ghz_transfer" / "cli.py").is_file():
        print(f"no ghz_transfer sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sessions, combined = [], {}
    for name in names:
        session, metrics = measure(name, args.seed, args.seconds, bool(args.trace))
        describe(session, metrics, units)
        sessions.append(session)
        prefix = f"{name}/" if args.workload == "all" else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    print("environment " + json.dumps(environment(sessions[0]), sort_keys=True))
    print(json.dumps(result_line(sessions, combined, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
