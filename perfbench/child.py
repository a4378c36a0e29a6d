"""One measured run of a workload, in a fresh interpreter.

Usage: python child.py <kind> <workload> <seed> <work_dir>

``kind`` is ``plain`` (no wrappers), ``trace`` (spans around the
package's public functions), ``memory`` (tracemalloc on, to see what a forced
garbage collection frees after the command) or ``setup`` (import and preset
only). Every kind but ``setup`` then times ``calibrate()``, after the peak
RSS is read.
The result goes to ``<work_dir>/result.json``; the command's files go
to ``<work_dir>/out``. The parent sets the thread counts, the hash seed and
PYTHONPATH.

Everything beyond these few standard modules is imported after the set-up
timing, so that ``import_s`` measures the package's import alone.
"""

import importlib
import resource
import sys
import time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_command(argv: list[str]) -> tuple[int, str, str | None]:
    """Run the CLI in this process; returns (exit code, stdout, error message)."""
    import contextlib
    import io

    from click import ClickException

    cli = importlib.import_module("ghz_transfer.cli")
    stream = io.StringIO()
    error = None
    with contextlib.redirect_stdout(stream):
        try:
            cli.main(argv, prog_name="ghz-transfer", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except ClickException as exc:
            code, error = exc.exit_code, exc.format_message()
    return code, stream.getvalue(), error


def read_outputs(workload, stdout: str, out_dir) -> tuple[dict[str, bytes], dict]:
    """The command's output files (or stdout) and its parsed report."""
    import json

    if workload.writes_files:
        outputs = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        text = outputs["report.json"].decode("utf-8")
    else:
        outputs = {"stdout": stdout.encode("utf-8")}
        text = stdout
    return outputs, json.loads(text)


def report_summary(report: dict) -> dict:
    """The report fields the correctness gate reads, for every run in it."""
    runs = report["runs"] if "runs" in report else [report]
    keys = ("mode", "alpha", "beta", "final_fidelity", "max_spectator_f", "ok")
    return {"ok": report.get("ok"), "runs": [{k: run.get(k) for k in keys} for run in runs]}


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def main(kind: str, name: str, seed: int, work_dir: str) -> None:
    t0 = time.perf_counter()
    importlib.import_module("ghz_transfer.cli")
    t1 = time.perf_counter()
    importlib.import_module("ghz_transfer.hamiltonians").load_preset("transmon")
    t2 = time.perf_counter()

    import json
    from pathlib import Path

    import ghz_transfer

    result = {"kind": kind, "import_s": t1 - t0, "preset_s": t2 - t1,
              "package": ghz_transfer.__file__}
    work = Path(work_dir)
    if kind != "setup":
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        out_dir = work / "out"
        argv = workload.argv(seed, str(out_dir))
        result.update(measure(kind, argv))
        try:
            outputs, report = read_outputs(workload, result.pop("stdout"), out_dir)
        except (OSError, KeyError, ValueError) as exc:
            result["error"] = result["error"] or f"unreadable output: {exc!r}"
        else:
            import hashlib

            result["hashes"] = {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}
            result["output_bytes"] = sum(len(v) for v in outputs.values())
            result["report"] = report_summary(report)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if kind != "setup":
        import gc

        from calibrate import calibrate

        gc.collect()  # so that garbage the command left cannot slow the calibration
        result["calib_s"] = calibrate()
    result["env"] = environment()
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")


def measure(kind: str, argv: list[str]) -> dict:
    if kind == "trace":
        from tracer import ROOT_METRIC, Tracer, trace_metrics, wrapped

        tracer = Tracer()
        with wrapped(tracer) as missing:
            t0, c0 = time.perf_counter(), _cpu_s()
            with tracer.span("command", ROOT_METRIC):
                code, stdout, error = run_command(argv)
            wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        return {"exit_code": code, "stdout": stdout, "error": error, "wall_s": wall,
                "cpu_s": cpu, "trace": trace_metrics(tracer), "missing": missing}
    if kind == "memory":
        import gc
        import tracemalloc

        tracemalloc.start()
        code, stdout, error = run_command(argv)
        before = tracemalloc.get_traced_memory()[0]
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return {"exit_code": code, "stdout": stdout, "error": error,
                "garbage_mb": (before - after) / 2**20}
    t0, c0 = time.perf_counter(), _cpu_s()
    code, stdout, error = run_command(argv)
    return {"exit_code": code, "stdout": stdout, "error": error,
            "wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - c0}


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
