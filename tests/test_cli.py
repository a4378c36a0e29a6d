"""Command-line interface: subcommands, exit codes, deterministic outputs."""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import weakref
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from ghz_transfer import cli
from ghz_transfer.cli import main
from ghz_transfer.dsl import serialize_schedule
from ghz_transfer.hamiltonians import load_params, load_preset
from ghz_transfer.runner import run_protocol
from ghz_transfer.scheduling import build_schedule

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def runner():
    return CliRunner()


def one_error_line(result) -> bool:
    """Exit 1, nothing on stdout, and a single ``Error:`` line on stderr."""
    return (
        result.exit_code == 1 and result.stdout == ""
        and result.stderr.startswith("Error: ") and result.stderr.count("\n") == 1
    )


@pytest.fixture(scope="module")
def canonical_sched(tmp_path_factory):
    path = tmp_path_factory.mktemp("sched") / "canon.sched"
    path.write_text(serialize_schedule(build_schedule(load_preset("transmon"), 2)))
    return str(path)


class TestBudget:
    def test_reference_numbers(self, runner):
        result = runner.invoke(main, ["budget", "--n", "2", "--json"])
        assert result.exit_code == 0
        budget = json.loads(result.output)
        assert budget["tau_r_s"] == pytest.approx(31.2e-9, rel=0.01)
        assert budget["tau_a_s"] == 4.8e-8
        assert budget["tau_o_s"] == pytest.approx(71.4e-9, rel=0.02)
        assert budget["tau_s"] == pytest.approx(0.15e-6, rel=0.05)
        assert budget["cavity_lifetime_L_s"] == pytest.approx(5.1e-6, rel=0.01)

    def test_human_table_lists_segments(self, runner):
        result = runner.invoke(main, ["budget", "--n", "2"])
        assert result.exit_code == 0
        for label in ("step1a", "step3", "step5b", "tau_r", "tau"):
            assert label in result.output

    @pytest.mark.parametrize("n", [1, 2])
    def test_human_table_is_pinned(self, runner, n):
        # pure-Python float formatting, no BLAS: the bytes are the same on every machine
        result = runner.invoke(main, ["budget", "--n", str(n)])
        assert result.exit_code == 0
        assert result.output == (GOLDEN / f"budget-n{n}.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("lossless, line", [
        ("R", "cavity lifetimes: L 5.138 us, R lossless"),
        ("L", "cavity lifetimes: L lossless, R 5.138 us"),
    ])
    def test_one_lossless_cavity(self, runner, tmp_path, lossless, line):
        # as a zero rate on the command line, and as an infinite lifetime in a parameter file
        raw = yaml.safe_load(files("ghz_transfer").joinpath("presets/transmon.yaml").read_text())
        raw["decoherence"][f"cavity_lifetime_{lossless}"] = math.inf
        path = tmp_path / "params.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        lossy = "L" if lossless == "R" else "R"
        for args in (["--set", f"kappa{lossless}=0"], ["--params", str(path)]):
            text = runner.invoke(main, ["budget", *args])
            assert text.exit_code == 0, text.output
            assert text.output.splitlines()[-1] == line
            budget = json.loads(runner.invoke(main, ["budget", "--json", *args]).output)
            assert budget[f"cavity_lifetime_{lossless}_s"] is None
            assert budget[f"cavity_lifetime_{lossy}_s"] == pytest.approx(5.1378e-6, rel=1e-4)

    def test_one_ns_ramps(self, runner):
        result = runner.invoke(main, ["budget", "--n", "2", "--ramp-ns", "1", "--json"])
        budget = json.loads(result.output)
        assert budget["tau_a_s"] == pytest.approx(16e-9, abs=1e-15)

    def test_doubling_couplings_halves_resonant_time(self, runner):
        base = json.loads(runner.invoke(main, ["budget", "--json"]).output)
        p = load_preset("transmon")
        sets = []
        for name in ("mu1", "mu1_tilde", "mu1p", "mu1p_tilde", "muAL", "muAR"):
            sets += ["--set", f"{name}={2 * getattr(p, name)!r}"]
        doubled = json.loads(runner.invoke(main, ["budget", "--json", *sets]).output)
        assert doubled["tau_r_s"] == pytest.approx(base["tau_r_s"] / 2, rel=1e-12)

    def test_set_accepts_unit_expressions(self, runner):
        result = runner.invoke(
            main, ["budget", "--json", "--set", "mu1=2pi*141.42135623730951 MHz"]
        )
        assert result.exit_code == 0
        budget = json.loads(result.output)
        step1a = next(s for s in budget["segments"] if s["label"] == "step1a")
        expected = math.pi / (2 * 2 * math.pi * 141.42135623730951e6) * 1e9
        assert step1a["duration_ns"] == pytest.approx(expected, rel=1e-12)


    @pytest.mark.parametrize("setting", ["tau1=2pi*50 MHz", "mu1=3 ns", "kappaL=5 us", "t1=2pi*1 MHz"])
    def test_set_rejects_the_other_unit_kind(self, runner, setting):
        result = runner.invoke(main, ["budget", "--json", "--set", setting])
        assert one_error_line(result), result.output
        assert setting.partition("=")[0] in result.stderr

    # (block, key or None for the whole block, new value, what the message names)
    @pytest.mark.parametrize("block, key, value, named", [
        ("ramps", None, {"tau_1": "5 ns"}, "ramps.tau_1"),
        ("extra", None, {"tau1": "5 ns"}, "'extra'"),
        ("ramps", None, [1, 2], "ramps"),
        ("couplings", None, 5, "couplings"),
        ("couplings", "mu1", [1, 2], "couplings.mu1"),
        ("couplings", None, None, "couplings.mu1"),
        ("decoherence", "t1_f", "2pi*1 MHz", "decoherence.t1_f"),
    ], ids=["misspelled-key", "unknown-block", "list-block", "number-block", "list-value",
            "null-block", "wrong-kind"])
    def test_bad_parameter_file_is_one_error_line(self, runner, tmp_path, block, key, value, named):
        raw = yaml.safe_load(files("ghz_transfer").joinpath("presets/transmon.yaml").read_text())
        if key is None:
            raw[block] = value
        else:
            raw[block][key] = value
        path = tmp_path / "params.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(named)):
            load_params(path)
        result = runner.invoke(main, ["budget", "--params", str(path)])
        assert one_error_line(result), result.output
        assert named in result.stderr

    def test_malformed_parameter_file_is_one_error_line(self, runner, tmp_path):
        path = tmp_path / "params.yaml"
        path.write_text("couplings: [\n", encoding="utf-8")
        result = runner.invoke(main, ["budget", "--params", str(path)])
        assert one_error_line(result), result.output
        assert "is not valid YAML" in result.stderr


class TestRun:
    def test_ideal_run_reports_and_exits_zero(self, runner):
        result = runner.invoke(main, ["run", "--n", "2", "--ghz", "0.6,0.8j"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["ok"] is True
        assert report["final_fidelity"] >= 1 - 1e-9
        assert report["alpha"] == [0.6, 0.0]
        assert set(report["checkpoints"]) >= {"after_step1", "after_step2", "final"}

    def test_literal_amplitudes_are_normalized(self, runner):
        result = runner.invoke(main, ["run", "--n", "1", "--ghz", "3,4"])
        report = json.loads(result.output)
        assert report["alpha"] == [0.6, 0.0]
        assert report["beta"] == [0.8, 0.0]

    def test_random_batch_reports_spread(self, runner):
        result = runner.invoke(main, ["run", "--n", "2", "--ghz", "random:5:3"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert len(report["runs"]) == 3
        assert report["fidelity_spread"] < 1e-8

    def test_failing_threshold_exits_nonzero(self, runner):
        result = runner.invoke(main, ["run", "--n", "1", "--min-fidelity", "1.1"])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["passes"]["final_fidelity"] is False

    def test_reports_are_byte_identical(self, runner):
        args = ["run", "--n", "2", "--ghz", "random:9:2"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_output_files(self, runner, tmp_path):
        out = tmp_path / "results"
        result = runner.invoke(main, [
            "run", "--n", "2", "--ghz", "0.6,0.8j", "--samples", "5",
            "--out", str(out), "--emit", "trajectory", "--emit", "checkpoints",
        ])
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ok"] is True
        trajectory = (out / "trajectory.csv").read_text().splitlines()
        assert trajectory[0].startswith("t_ns,segment,")
        assert len(trajectory) == 1 + 5 * 9
        checkpoints = (out / "checkpoints.csv").read_text().splitlines()
        assert len(checkpoints) == 1 + 9

    @pytest.mark.parametrize("samples", [7, 300])
    def test_trajectory_csv_renders_every_row(self, runner, tmp_path, samples):
        result = runner.invoke(main, [
            "run", "--mode", "full-dispersive", "--n", "2", "--ghz", "0.6,0.8j", "--samples", str(samples),
            "--out", str(tmp_path), "--emit", "trajectory",
        ])
        assert result.exit_code == 0
        (spec,) = cli._parse_ghz("0.6,0.8j", 2)
        rows = run_protocol(
            load_preset("transmon"), spec, mode="full-dispersive", trajectory_samples=samples
        ).trajectory
        header = ["t_ns", "segment", "norm", "spectator_f_total", "q1_f", "q1p_f",
                  "coupler_e", "photons_L", "photons_R", "top_fock"]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            cells = [row[c] for c in header]
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in cells])
        assert len(rows) == samples * 9  # 2700 rows at 300 samples, as the benchmark writes
        assert (tmp_path / "trajectory.csv").read_text(encoding="utf-8") == expected.getvalue()

    def test_csv_writer_matches_the_csv_module(self):
        # float64 array columns are formatted by distinct bits over the whole table, so -0.0
        # stays apart from 0.0; the rows span three blocks and repeat values across them
        floats = [0.0, -0.0, 1.0, 1 / 3, 1e-300, 5e-324, math.inf, -math.inf, math.nan, 0.1 + 0.2]
        count = 1300
        assert count > 2 * cli._CSV_BLOCK
        columns = (
            [f"step{i % 3}" for i in range(count)],  # text
            np.array([floats[i % 10] for i in range(count)]),  # float64 arrays
            np.array([floats[(7 * i) % 10] for i in range(count)]),
            [floats[(3 * i) % 10] for i in range(count)],  # Python floats, as the sweep table holds
            [None if i % 4 else 2.5 for i in range(count)],  # floats and empty cells, as phase_error
            [i % 5 == 0 for i in range(count)],  # booleans
            tuple(i - 600 for i in range(count)),  # integers, in a tuple as a sweep's zip gives
            np.arange(count) % 7,  # an integer array
        )
        names = ("label", "a", "b", "c", "d", "ok", "n", "k")
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(
            [value.item() if isinstance(value, np.generic) else value for value in row] for row in zip(*columns)
        )
        got = io.StringIO()
        cli._write_csv(got, columns, names)
        assert got.getvalue() == expected.getvalue()
        assert got.getvalue().splitlines()[2].split(",")[1:3] == ["-0.0", "-inf"]

    def test_csv_writer_writes_the_header_of_an_empty_table(self):
        names = ("label", "time_s", "fidelity")
        empty = io.StringIO()
        cli._write_csv(empty, [[], np.empty(0), []], names)
        assert empty.getvalue() == ",".join(names) + "\n"

    def test_emit_without_out_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["run", "--emit", "checkpoints"])
        assert result.exit_code == 2

    def test_bad_amplitudes_are_a_usage_error(self, runner):
        result = runner.invoke(main, ["run", "--ghz", "banana"])
        assert result.exit_code == 2

    def test_unknown_preset_fails_with_diagnostic(self, runner):
        result = runner.invoke(main, ["run", "--preset", "nope"])
        assert result.exit_code == 1
        assert "unknown preset" in result.stderr

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 405. MiB for an array with shape (26572050,) and data type complex128",
         "Unable to allocate 405. MiB"),
        ("", "MemoryError"),  # Python's own allocation failures carry no message
    ], ids=["numpy", "bare"])
    def test_out_of_memory_fails_with_diagnostic(self, runner, monkeypatch, message, shown):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_protocol", exhausted)
        result = runner.invoke(main, ["run", "--n", "6"])
        assert result.exit_code == 1
        assert shown in result.stderr
        assert not isinstance(result.exception, MemoryError)

    @pytest.mark.parametrize("args", [
        ["run", "--n", "1", "--set", "mu1=nan"],
        ["run", "--n", "1", "--set", "delta=inf"],
        ["budget", "--set", "t1=nan"],
        ["budget", "--set", "kappaL=inf"],
        ["budget", "--set", "tau1=-inf"],
    ], ids=["run-nan", "run-inf", "budget-nan", "budget-inf-rate", "budget-inf-ramp"])
    def test_non_finite_parameter_fails_like_a_negative_one(self, runner, args):
        negative = runner.invoke(main, ["run", "--n", "1", "--set", "mu1=-1"])
        result = runner.invoke(main, args)
        assert result.exit_code == negative.exit_code == 1
        assert result.stdout == ""
        for diagnostic in (negative.stderr, result.stderr):
            assert diagnostic.startswith("Error: ")
            assert diagnostic.count("\n") == 1
        assert not isinstance(result.exception, ValueError)

    @pytest.mark.parametrize("args", [
        ["--ghz", "nan,1"],
        ["--ghz", "inf,1"],
        ["--min-fidelity", "nan"],
        ["--min-fidelity", "inf"],
        ["--min-fidelity", "-inf"],
    ], ids=["ghz-nan", "ghz-inf", "threshold-nan", "threshold-inf", "threshold-minus-inf"])
    def test_non_finite_amplitude_or_threshold_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, ["run", "--n", "1", *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error: ")]
        assert len(errors) == 1 and result.stderr.endswith(errors[0] + "\n")
        assert "finite" in errors[0]


class TestReuseAcrossRuns:
    """Operators built once per schedule never leak into a run with other inputs."""

    def test_lindblad_report_follows_its_own_params(self, runner):
        base = ["run", "--mode", "lindblad", "--n", "2", "--cutoff", "3"]
        t1 = load_preset("transmon").t1
        first = runner.invoke(main, base)
        other = runner.invoke(main, [*base, "--set", f"t1={2 * t1!r}"])
        again = runner.invoke(main, base)
        assert first.exit_code == other.exit_code == again.exit_code == 0
        assert first.output == again.output
        assert other.output != first.output

    def test_batch_builds_each_generator_once(self, runner, monkeypatch):
        from ghz_transfer import runner as runner_module

        calls = {}

        def counted(name):
            original = getattr(runner_module, name)

            def build(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            return build

        builders = ("h_resonant_ef", "h_resonant_ge", "h_dispersive_reduced")
        for name in builders:
            monkeypatch.setattr(runner_module, name, counted(name))
        runner_module._compiled.cache_clear()
        batch = runner.invoke(main, ["run", "--n", "2", "--ghz", "random:7:5"])
        assert batch.exit_code == 0
        kinds = [seg.kind for seg in build_schedule(load_preset("transmon"), 2)]
        assert calls == {
            "h_resonant_ef": kinds.count("resonant_ef"),
            "h_resonant_ge": kinds.count("resonant_ge"),
            "h_dispersive_reduced": kinds.count("dispersive"),
        }

        runs = json.loads(batch.output)["runs"]
        specs = cli._parse_ghz("random:7:5", 2)
        assert len(runs) == len(specs) == 5
        for spec, run in zip(specs, runs):
            runner_module._compiled.cache_clear()
            alone = run_protocol(load_preset("transmon"), spec).report()
            assert cli._json_text(alone) == cli._json_text(run)

    def test_lindblad_batch_pairs_match_their_runs_alone(self, runner):
        # later pairs take the ramps' Taylor plans from the first pair's dissipator
        from ghz_transfer import runner as runner_module

        runner_module._compiled.cache_clear()
        args = ["run", "--mode", "lindblad", "--n", "2", "--cutoff", "3", "--ghz", "random:7:3"]
        batch = runner.invoke(main, args)
        assert batch.exit_code == 0, batch.output
        runs = json.loads(batch.output)["runs"]
        specs = cli._parse_ghz("random:7:3", 2)
        assert len(runs) == len(specs) == 3
        for spec, run in zip(specs, runs):
            runner_module._compiled.cache_clear()
            alone = run_protocol(load_preset("transmon"), spec, mode="lindblad", fock_cutoff=3).report()
            assert cli._json_text(alone) == cli._json_text(run)


SRC = Path(__file__).resolve().parents[1] / "src"

THREAD_CASES = {
    "full-dispersive": ["--mode", "full-dispersive", "--n", "2", "--samples", "50",
                        "--emit", "trajectory"],
    "ideal-batch": ["--mode", "ideal-reduced", "--n", "3", "--ghz", "random:7:5"],
    # --samples 4 reaches the stepped inner points of the sampled grid
    "lindblad": ["--mode", "lindblad", "--n", "2", "--cutoff", "3", "--samples", "4",
                 "--emit", "trajectory", "--emit", "checkpoints"],
}


_MAIN = "from ghz_transfer.cli import main; main()"


def _run_fresh(args, threads, preexec_fn=None, code=_MAIN):
    """``ghz-transfer run ARGS`` in a fresh interpreter with ``threads`` OpenBLAS threads.

    ``code`` replaces the entry point; with no ``args`` it runs on its own.
    """
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": threads,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, "-c", code, *(["run", *args] if args else [])],
        env=env, capture_output=True, text=True, preexec_fn=preexec_fn,
    )


class TestBlasThreads:
    @pytest.mark.parametrize("case", THREAD_CASES)
    def test_outputs_do_not_depend_on_thread_count(self, case, tmp_path):
        # a fresh interpreter per count: OpenBLAS reads the variable once
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            proc = _run_fresh([*THREAD_CASES[case], "--out", str(out)], threads)
            assert proc.returncode == 0, proc.stderr
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]


# what only the literal-ODE test oracle, parallel sweeps, the Lanczos reference
# (scipy.linalg) and `parse` (the .sched reader) need, and what no command needs
# (scipy.sparse.linalg, scipy.sparse.csgraph); a plain import or run loading them
# pays for nothing: about 0.3 s for the integrator's modules, 11 MB for the three scipy ones
COLD_MODULES = (
    "scipy.integrate", "scipy.optimize", "scipy.special", "concurrent.futures.process",
    "scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph", "ghz_transfer.dsl",
)
_REPORT_LOADED = (
    "import atexit, sys\n"
    f"loaded = lambda: sorted(set({COLD_MODULES!r}) & set(sys.modules))\n"
    "atexit.register(lambda: print(loaded(), file=sys.stderr))\n"
)

COLD_RUNS = {
    "import": "import ghz_transfer.cli",
    "ideal-reduced": ["--mode", "ideal-reduced", "--n", "1"],
    "full-dispersive": ["--mode", "full-dispersive", "--n", "2", "--samples", "3",
                        "--emit", "trajectory", "--emit", "checkpoints"],
    "lindblad": ["--mode", "lindblad", "--n", "1", "--cutoff", "3", "--samples", "3",
                 "--emit", "trajectory"],
}

# the oracle and helpers live in tests/, so the probe puts that directory on its path
_ODE_PROBE = f"import sys\nsys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n" + """
import dispersive_ode_oracle
from helpers import basis_state, on_register, register
from ghz_transfer import evolution
from ghz_transfer.hamiltonians import DispersiveGenerator, load_preset
from ghz_transfer.hilbert import build_layout

assert "scipy.integrate" not in sys.modules
calls = []
integrate = evolution.solve_ivp
evolution.solve_ivp = lambda *a, **k: calls.append(1) or integrate(*a, **k)
layout = build_layout(2, 2, 3, 3)
params = load_preset("transmon")
state = basis_state(layout, {"q2": "e", "cavL": 1})
gen = DispersiveGenerator(layout, params, register(layout))
duration = 20.0 / params.delta
exact = on_register(evolution.evolve_unitary(state, gen, duration).final).amplitudes
literal = dispersive_ode_oracle.integrate(state, gen, duration).amplitudes
print(abs(exact - literal).max(), len(calls), "scipy.integrate" in sys.modules)
"""


class TestColdStart:
    @pytest.mark.parametrize("case", COLD_RUNS)
    def test_runs_do_not_import_the_ode_or_process_pool(self, case, tmp_path):
        args = COLD_RUNS[case]
        if case == "import":
            proc = _run_fresh([], "1", code=_REPORT_LOADED + args)
        else:
            proc = _run_fresh([*args, "--out", str(tmp_path)], "1", code=_REPORT_LOADED + _MAIN)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == "[]"

    def test_ode_route_imports_its_integrator_on_first_use(self):
        proc = _run_fresh([], "1", code=_ODE_PROBE)
        assert proc.returncode == 0, proc.stderr
        gap, calls, loaded = proc.stdout.split()
        assert float(gap) < 1e-7
        assert int(calls) == 1  # looked up as evolution.solve_ivp, so a wrapper sees it
        assert loaded == "True"


# partial-traces the n=3 cutoff-3 lindblad final state down to the received qudit
_PARTIAL_TRACE_PROBE = """
import numpy as np
from ghz_transfer.analysis import GhzSpec
from ghz_transfer.hamiltonians import load_preset
from ghz_transfer.hilbert import partial_trace
from ghz_transfer.runner import run_protocol
spec = GhzSpec(alpha=0.6, beta=0.8j, n=3)
rho = run_protocol(load_preset("transmon"), spec, mode="lindblad", fock_cutoff=3).final_state
reduced = partial_trace(rho, ["q1p"])
print(rho.matrix.shape[0], rho.basis.size, abs(np.trace(reduced) - 1.0), np.abs(reduced - reduced.conj().T).max())
"""


class TestMemory:
    @staticmethod
    def _limit_address_space():
        resource = pytest.importorskip("resource")
        cap = 2 * 1024**3
        return lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    def test_lindblad_n3_fits_in_two_gib(self):
        # the density matrix lives on the 320-state block; a dense
        # 23328 x 23328 matrix would need 8.1 GiB
        limit = self._limit_address_space()
        proc = _run_fresh(["--mode", "lindblad", "--n", "3", "--cutoff", "3"], "1", limit)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True

    def test_oversized_lindblad_block_is_one_error_line(self, runner, monkeypatch):
        # the estimate comes from the block size alone, before anything of its size is built
        from ghz_transfer import runner as runner_module

        monkeypatch.setattr(runner_module, "_available_memory", lambda: 2**20)
        runner_module._compiled.cache_clear()
        result = runner.invoke(main, ["run", "--mode", "lindblad", "--n", "2", "--cutoff", "3"])
        assert one_error_line(result), result.output
        assert "80 states" in result.stderr and "MiB" in result.stderr

    def test_batch_lets_each_final_state_go(self, runner, monkeypatch):
        # a batch holds at most one register-sized final state at a time
        states = []

        def watched(*args, **kwargs):
            if states:
                gc.collect()
                assert states[-1]() is None, "the previous run's final state is still alive"
            result = run_protocol(*args, **kwargs)
            states.append(weakref.ref(result.final_state))
            return result

        monkeypatch.setattr(cli, "run_protocol", watched)
        batch = runner.invoke(main, ["run", "--n", "2", "--ghz", "random:7:3"])
        assert batch.exit_code == 0, batch.output
        assert len(states) == 3

    def test_partial_trace_of_the_n3_block_fits_in_two_gib(self):
        # the trace runs over the stored entries, never a dense 23328 x 23328 matrix
        proc = _run_fresh([], "1", self._limit_address_space(), code=_PARTIAL_TRACE_PROBE)
        assert proc.returncode == 0, proc.stderr
        size, basis_size, trace_gap, hermiticity_gap = proc.stdout.split()
        assert int(size) == int(basis_size) == 320
        assert float(trace_gap) <= 1e-7 and float(hermiticity_gap) <= 1e-12


class TestSweep:
    def test_n_axis_keeps_tau_fixed(self, runner):
        result = runner.invoke(main, ["sweep", "--axis", "n", "--values", "2,3"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].split(",")[0] == "axis"
        taus = {line.split(",")[6] for line in lines[1:]}
        assert len(lines) == 3 and len(taus) == 1

    def test_single_point_matches_run(self, runner):
        sweep = runner.invoke(main, [
            "sweep", "--axis", "delta_over_mu", "--values", "10", "--ghz", "0.6,0.8j",
        ])
        row = sweep.output.strip().splitlines()[1].split(",")
        run = json.loads(runner.invoke(main, ["run", "--ghz", "0.6,0.8j"]).output)
        assert float(row[4]) == pytest.approx(run["final_fidelity"], abs=1e-12)
        assert float(row[6]) == run["budget"]["tau_s"]

    def test_n_axis_rejects_fractional_values(self, runner):
        result = runner.invoke(main, ["sweep", "--axis", "n", "--values", "1.5,2.9"])
        assert result.exit_code == 2
        assert "1.5" in result.stderr

    def test_n_axis_takes_integral_floats(self, runner):
        result = runner.invoke(main, ["sweep", "--axis", "n", "--values", "1.0"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1].startswith("n,1.0,1,")

    def test_parallel_rows_match_serial(self, runner):
        for args in (
            ["sweep", "--axis", "n", "--values", "2,3"],
            ["sweep", "--mode", "lindblad", "--cutoff", "3", "--axis", "kappa_inv_us", "--values", "20,50"],
        ):
            serial = runner.invoke(main, args)
            parallel = runner.invoke(main, args, env={"GHZ_TRANSFER_WORKERS": "2"})
            assert parallel.exit_code == 0
            assert parallel.output == serial.output, args

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_worker_count_is_a_usage_error(self, runner, value):
        args = ["sweep", "--axis", "n", "--values", "1"]
        result = runner.invoke(main, args, env={"GHZ_TRANSFER_WORKERS": value})
        assert result.exit_code == 2
        assert "GHZ_TRANSFER_WORKERS must be an integer >= 1" in result.stderr

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_bad_cavity_lifetime_is_one_error_line(self, runner, value):
        result = runner.invoke(main, ["sweep", "--axis", "kappa_inv_us", "--values", value, "--n", "1"])
        assert one_error_line(result), result.output
        assert "kappaL" in result.stderr

    def test_non_numeric_axis_rejected(self, runner):
        result = runner.invoke(main, ["sweep", "--axis", "mode", "--values", "1"])
        assert result.exit_code == 2

    def test_writes_csv_file(self, runner, tmp_path):
        path = tmp_path / "table.csv"
        result = runner.invoke(main, [
            "sweep", "--axis", "mu1", "--values", "4e8,8e8", "--n", "1", "--out", str(path),
        ])
        assert result.exit_code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("True") for line in lines[1:])


class TestParse:
    def test_canonical_file_is_ok(self, runner, canonical_sched):
        result = runner.invoke(main, ["parse", canonical_sched])
        assert result.exit_code == 0
        assert result.output.startswith("ok: 9 segments")

    def test_canonical_flag_round_trips(self, runner, canonical_sched):
        result = runner.invoke(main, ["parse", canonical_sched, "--canonical"])
        assert result.output == Path(canonical_sched).read_text()

    def test_canonical_form_keeps_the_layout_cutoffs(self, runner):
        path = Path(__file__).parent / "golden" / "cutoff3.sched"
        text = path.read_text(encoding="utf-8")
        assert "cutoff_left=3 cutoff_right=3" in text
        result = runner.invoke(main, ["parse", str(path), "--canonical"])
        assert result.exit_code == 0
        assert result.output == text

    def test_broken_file_reports_line(self, runner, tmp_path):
        bad = tmp_path / "bad.sched"
        bad.write_text(
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment s1 resonant_ef cavity=L site=q1 coupling=3rad/s duration=5 ramp=0ns\n"
        )
        result = runner.invoke(main, ["parse", str(bad)])
        assert result.exit_code == 1
        text = result.output + (result.stderr or "")
        assert "3:" in text and "missing-unit" in text

    def test_overflowing_literals_are_bad_numbers(self, runner, tmp_path):
        bad = tmp_path / "overflow.sched"
        bad.write_text(
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment s1 resonant_ge cavity=L site=A coupling=1e309rad/s duration=1ns ramp=1e400ns\n"
        )
        result = runner.invoke(main, ["parse", str(bad), "--canonical"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "3:" in result.stderr and "[bad-number]" in result.stderr

    def test_auto_durations_need_symbols(self, runner, tmp_path):
        doc = tmp_path / "auto.sched"
        doc.write_text(
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment step1a resonant_ef cavity=L site=q1 coupling=mu1 duration=auto ramp=3ns\n"
        )
        bare = runner.invoke(main, ["parse", str(doc)])
        assert bare.exit_code == 1
        bound = runner.invoke(main, ["parse", str(doc), "--preset", "transmon"])
        assert bound.exit_code == 0


class TestVerify:
    def test_quick_suite_passes(self, runner):
        result = runner.invoke(main, [
            "verify", "--n", "2", "--count", "3", "--skip-full", "--skip-lindblad",
        ])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["ok"] is True
        names = {check["name"] for check in report["checks"]}
        assert names == {
            "checkpoint-chain", "transfer-correctness",
            "amplitude-independence", "single-share-mixedness",
        }
        assert report["budget"]["tau_s"] == pytest.approx(0.15e-6, rel=0.05)

    def test_n1_passes_without_the_checks_that_need_two_shares(self, runner):
        # one share holds the whole secret, and there is no spectator to occupy
        result = runner.invoke(main, ["verify", "--n", "1", "--count", "2", "--skip-lindblad"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["ok"] is True
        names = {check["name"] for check in report["checks"]}
        assert names == {"checkpoint-chain", "transfer-correctness", "amplitude-independence"}
