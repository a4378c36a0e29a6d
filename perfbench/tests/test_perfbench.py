"""Tests of the benchmark harness itself: span arithmetic, gate, wrappers.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import itertools
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import tracer as tr  # noqa: E402
from child import run_command  # noqa: E402
from workloads import WORKLOADS, amplitude_pair, ghz_text  # noqa: E402


def ticking_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
        t = tr.Tracer(clock=ticking_clock(0, 1, 2, 3, 4, 5, 9, 10))
        with t.span("root", "cli.self_s"):
            with t.span("a", "runner.self_s"):
                with t.span("leaf", "evolution.krylov_s"):
                    pass
            with t.span("b", "analysis.oracle_s"):
                pass
        assert [s.parent for s in t.spans] == [None, 0, 1, 0]
        assert tr.self_times(t.spans) == [3, 2, 1, 4]
        assert sum(tr.self_times(t.spans)) == t.spans[0].duration

    def test_segment_time_excludes_other_layers(self):
        # run [0, 20] > evolve_unitary [1, 9] > static_hamiltonian [2, 5]
        #                                     > krylov_expm_action [5, 8]
        #             > lindblad_propagate [10, 19]
        t = tr.Tracer(clock=ticking_clock(0, 1, 2, 5, 5, 8, 9, 10, 19, 20))
        with t.span("command", tr.ROOT_METRIC):
            with t.span("evolve_unitary", "evolution.evolve_unitary_s"):
                with t.span("static_hamiltonian", "hamiltonians.build_s"):
                    pass
                with t.span("krylov_expm_action", "evolution.krylov_s"):
                    pass
            with t.span("lindblad_propagate", "evolution.lindblad_propagate_s"):
                pass
        t.spans[0].info["segments"] = ["step1a", "ramp"]
        m = tr.trace_metrics(t)
        assert m["evolution.seg.step1a_s"] == 5  # 8 minus the 3 s of hamiltonians
        assert m["evolution.seg.ramp_s"] == 9
        assert m["hamiltonians.build_s"] == 3
        assert m["evolution.krylov_s"] == 3
        assert m["evolution.evolve_unitary_s"] == 2
        assert m["cli.self_s"] == 3
        assert m["trace.wall_s"] == 20
        assert tr.layer_sum(m) == m["trace.wall_s"]

    def test_unmatched_segments_are_flagged(self):
        t = tr.Tracer(clock=ticking_clock(*range(4)))
        with t.span("command", tr.ROOT_METRIC):
            with t.span("evolve_unitary", "evolution.evolve_unitary_s"):
                pass
        t.spans[0].info["segments"] = ["step1a", "step1b"]
        m = tr.trace_metrics(t)
        assert m["trace.unmatched_segments"] == 1
        assert m["evolution.seg.step1a_s"] == 0


def passing_result(workload, seed):
    reference = gate.load_reference()[workload.name]
    alpha, beta = amplitude_pair(seed)
    run = {
        "alpha": [alpha.real, alpha.imag] if isinstance(alpha, complex) else [alpha, 0.0],
        "beta": [beta.real, beta.imag],
        "final_fidelity": gate.predict(reference["final_fidelity"], alpha, beta),
        "max_spectator_f": None,
        "ok": True,
    }
    if workload.spectator_rel_tol is not None:
        run["max_spectator_f"] = gate.predict(reference["max_spectator_f"], alpha, beta)
    return {"exit_code": 0, "hashes": {"stdout": "abc"}, "report": {"ok": True, "runs": [run]}}


class TestGate:
    @pytest.mark.parametrize("name", ["dispersive-trajectory", "lindblad-open"])
    def test_reference_run_passes_and_perturbed_fidelity_fails(self, name):
        workload = WORKLOADS[name]
        reference = gate.load_reference()
        pair = amplitude_pair(3)
        result = passing_result(workload, 3)
        assert gate.check(workload, result, reference, pair, {"stdout": "abc"}) == []
        result["report"]["runs"][0]["final_fidelity"] += 10 * workload.fidelity_tol
        problems = gate.check(workload, result, reference, pair)
        assert len(problems) == 1 and "final_fidelity" in problems[0]

    def test_perturbed_spectator_peak_fails(self):
        workload = WORKLOADS["dispersive-trajectory"]
        result = passing_result(workload, 4)
        result["report"]["runs"][0]["max_spectator_f"] *= 1 + 1e-5
        problems = gate.check(workload, result, gate.load_reference(), amplitude_pair(4))
        assert len(problems) == 1 and "max_spectator_f" in problems[0]

    def test_batch_needs_every_run(self):
        workload = WORKLOADS["ideal-batch"]
        result = passing_result(WORKLOADS["lindblad-open"], 5)
        run = result["report"]["runs"][0]
        run["final_fidelity"] = gate.predict(
            gate.load_reference()["ideal-batch"]["final_fidelity"],
            complex(*run["alpha"]), complex(*run["beta"]),
        )
        problems = gate.check(workload, result, gate.load_reference())
        assert problems == [f"1 runs in the report, expected {workload.batch}"]

    def test_other_failures(self):
        workload = WORKLOADS["lindblad-open"]
        reference = gate.load_reference()
        pair = amplitude_pair(6)
        assert gate.check(workload, None, reference, pair) == ["the run produced no result"]
        result = passing_result(workload, 6)
        result["exit_code"] = 1
        result["report"]["ok"] = False
        problems = gate.check(workload, result, reference, pair, {"stdout": "other"})
        assert len(problems) == 3
        assert gate.check(workload, passing_result(workload, 6), reference, amplitude_pair(7))


class TestSeeds:
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS.values():
            assert workload.argv(11, "out") == workload.argv(11, "out")
            assert workload.argv(11, "out") != workload.argv(12, "out")

    def test_pairs_are_normalized_and_bounded(self):
        for seed in itertools.chain(range(50), [2**40]):
            alpha, beta = amplitude_pair(seed)
            assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1) < 1e-15
            assert 0.1 <= abs(alpha) ** 2 <= 0.9

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError):
            ghz_text(WORKLOADS["lindblad-open"], -1)


def test_wrappers_are_removed_and_traced_bytes_match():
    argv = ["run", "--n", "2", "--ghz", "0.6,0.8j"]
    code, plain, _ = run_command(argv)
    originals = {}
    for target in tr.TARGETS:
        owner, attr = tr._resolve(target)
        originals[target] = owner.__dict__[attr]
    tracer = tr.Tracer()
    with tr.wrapped(tracer) as missing:
        with tracer.span("command", tr.ROOT_METRIC):
            traced_code, traced, _ = run_command(argv)
    assert missing == []
    assert (code, traced_code) == (0, 0)
    assert traced == plain
    for target, original in originals.items():
        owner, attr = tr._resolve(target)
        assert owner.__dict__[attr] is original, target
    m = tr.trace_metrics(tracer)
    assert m["evolution.krylov_calls"] == 9
    assert m["hamiltonians.build_calls"] == 9
    assert m["analysis.oracle_calls"] == 20
    assert "trace.unmatched_segments" not in m
    assert abs(tr.layer_sum(m) - m["trace.wall_s"]) < 1e-9
    assert m["evolution.seg.step3_s"] > 0


class TestPerLayerFailures:
    """A per-layer metric that would read zero for a harness reason fails the run."""

    def traced_result(self, run, seed, **trace):
        result = passing_result(run.WORKLOADS["lindblad-open"], seed)
        result.update(package=str(run.SRC / "ghz_transfer" / "__init__.py"),
                      trace={"trace.wall_s": 1.0, **trace}, missing=[])
        return result

    def test_complete_trace_passes(self):
        import run

        session = run.Session(run.WORKLOADS["lindblad-open"], 8, 0.0)
        session._gate("trace", self.traced_result(run, 8), compare_bytes=True)
        assert (session.attempted, session.failed) == (1, 0)

    def test_missing_target_and_unmatched_segments_fail(self):
        import run

        session = run.Session(run.WORKLOADS["lindblad-open"], 8, 0.0)
        missing = self.traced_result(run, 8)
        missing["missing"] = ["ghz_transfer.evolution.krylov_expm_action"]
        session._gate("trace", missing, compare_bytes=True)
        session._gate("trace", self.traced_result(run, 8, **{"trace.unmatched_segments": 1}),
                      compare_bytes=True)
        assert (session.attempted, session.failed) == (2, 2)
        assert "krylov_expm_action no longer exists" in session.problems[0]
        assert "segments" in session.problems[1]

    def test_skipped_child_fails(self):
        import run

        session = run.Session(run.WORKLOADS["lindblad-open"], 8, time.monotonic() - run.END_S)
        assert session.extra("memory", 2.5) is None
        assert (session.attempted, session.failed) == (1, 1)
        assert session.problems[0].startswith("memory run skipped")


def test_rescaling_follows_the_host():
    from calibrate import calibrate
    from run import CAL_REF_S, rescaled

    assert calibrate(rounds=1) > 0
    assert all(0 <= w.speed_exponent <= 1 for w in WORKLOADS.values())
    # on a host twice as slow, a command that slows as much reads the same
    assert rescaled(4.0, 2 * CAL_REF_S, 1.0) == 2.0
    assert rescaled(4.0, 2 * CAL_REF_S, 0.0) == 4.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lindblad-open", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_harness():
    import json

    from run import END_TO_END, PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
