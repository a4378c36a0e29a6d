"""End-to-end acceptance checks, one test per shipped guarantee.

Each test wraps its assertions in the ``criterion`` context manager so the
run ends with one PASS/FAIL line per guarantee (see conftest). Expected
values that are not closed-form were measured once with an independent
script and frozen here; tolerances are the ones the package promises.
"""

from __future__ import annotations

import json
import math
import random
import string
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import ACCEPTANCE_RESULTS
from ghz_transfer.analysis import GhzSpec, make_oracle_state, occupation_probability, random_ghz_spec
from ghz_transfer.cli import main
from ghz_transfer.dsl import parse_schedule, serialize_schedule, validate_schedule
from ghz_transfer.evolution import Dissipator, evolve_unitary, lindblad_propagate
from ghz_transfer.hamiltonians import (
    DispersiveGenerator,
    h_dispersive_reduced,
    h_resonant_ef,
    h_resonant_ge,
    load_preset,
)
from ghz_transfer.hilbert import (
    QuantumState,
    annihilation_op,
    build_layout,
    embed_operator,
)
from ghz_transfer.runner import run_protocol
from ghz_transfer.scheduling import build_schedule, cavity_lifetime

EQUAL = 1.0 / math.sqrt(2.0)

# measured once at 600 window samples with the equal-amplitude state and frozen;
# the worst-case within-window deviation between the driven and the effective model
FROZEN_ENVELOPE = {10.0: 1.9639e-2, 20.0: 4.9734e-3, 40.0: 1.2485e-3}
# peak summed spectator f-population of a beta=1 run at delta = 10 mu, 300 samples
FROZEN_SPECTATOR_PEAK = 0.03845879546744045
# total protocol time at 3 ns ramps, identical for every register size
FROZEN_TAU = 1.4992388155425117e-07


@contextmanager
def criterion(number: int, title: str):
    info: dict = {}
    try:
        yield info
    except BaseException as err:
        ACCEPTANCE_RESULTS.append((number, title, False, str(err).split("\n")[0][:160]))
        raise
    ACCEPTANCE_RESULTS.append((number, title, True, info.get("detail", "")))


@pytest.fixture(scope="module")
def preset():
    return load_preset("transmon")


def test_criterion_01_timing_budget():
    result = CliRunner().invoke(main, ["budget", "--n", "2", "--json"])
    with criterion(1, "timing budget from the command line") as info:
        assert result.exit_code == 0
        budget = json.loads(result.output)
        assert budget["tau_r_s"] == pytest.approx(31.2e-9, rel=0.01)
        assert budget["tau_a_s"] == 4.8e-8  # 16 retunes at exactly 3 ns
        assert budget["tau_o_s"] == pytest.approx(71.4e-9, rel=0.02)
        assert budget["tau_s"] == pytest.approx(0.15e-6, rel=0.05)
        info["detail"] = (
            f"tau_r={budget['tau_r_s'] * 1e9:.2f}ns tau_o={budget['tau_o_s'] * 1e9:.2f}ns "
            f"tau_a={budget['tau_a_s'] * 1e9:.2f}ns tau={budget['tau_s'] * 1e6:.4f}us"
        )


def test_criterion_02_cavity_lifetime():
    with criterion(2, "cavity lifetime at Q = 3e5") as info:
        lifetime = cavity_lifetime(3e5, 2 * math.pi * 9.293e9)
        assert lifetime == pytest.approx(5.1e-6, rel=0.01)
        budget = json.loads(CliRunner().invoke(main, ["budget", "--json"]).output)
        # the preset parses its frequency through decimal scaling, so agreement
        # is to rounding, not bit-for-bit
        assert budget["cavity_lifetime_L_s"] == pytest.approx(lifetime, rel=1e-12)
        assert budget["cavity_lifetime_R_s"] == pytest.approx(lifetime, rel=1e-12)
        info["detail"] = f"1/kappa={lifetime * 1e6:.4f}us"


def test_criterion_03_deterministic_transfer(preset):
    with criterion(3, "transfer works for arbitrary amplitudes, n in {2, 3}") as info:
        rng = np.random.default_rng(2026)
        details = []
        for n in (2, 3):
            fids = [
                run_protocol(preset, random_ghz_spec(n, rng)).final_fidelity
                for _ in range(20)
            ]
            spread = max(fids) - min(fids)
            assert min(fids) >= 1 - 1e-6, f"n={n}: worst fidelity {min(fids)!r}"
            assert spread < 1e-8, f"n={n}: fidelity spread {spread!r}"
            details.append(f"n={n}: worst={min(fids):.12f} spread={spread:.1e}")
        info["detail"] = "; ".join(details)


def test_criterion_04_checkpoint_chain(preset):
    # the f-branch phase factor each checkpoint multiplies onto beta
    expected_factor = {
        "after_step1a": -1j, "after_step1": -1.0,
        "after_step2a": 1j, "after_step2": 1.0,
        "after_step3": 1.0,
        "after_step4a": -1j, "after_step4": -1.0,
        "after_step5a": 1j, "final": 1.0,
    }
    with criterion(4, "every intermediate state matches its closed form") as info:
        res = run_protocol(preset, GhzSpec(alpha=0.6, beta=0.8j, n=2))
        assert set(res.checkpoints) == set(expected_factor)
        worst_fid, worst_phase = 1.0, 0.0
        for label, rec in res.checkpoints.items():
            assert rec.fidelity >= 1 - 1e-7, f"{label}: fidelity {rec.fidelity!r}"
            assert rec.expected_coeff_f / 0.8j == pytest.approx(expected_factor[label])
            assert rec.phase_error < 1e-6, f"{label}: phase error {rec.phase_error!r}"
            worst_fid = min(worst_fid, rec.fidelity)
            worst_phase = max(worst_phase, rec.phase_error)
        assert res.passes["checkpoints"] and res.passes["branch_phase"]
        info["detail"] = f"worst fidelity={worst_fid:.10f}, worst phase error={worst_phase:.1e}"


def _window_comparison(preset, ratio: float, samples: int = 600):
    """Evolve the shared-photon interval under the driven and the effective model."""
    p = preset.with_overrides(delta=ratio * preset.mu, delta_prime=ratio * preset.mu_prime)
    layout = build_layout(2, 2, 4, 4)
    spec = GhzSpec(alpha=EQUAL, beta=EQUAL, n=2)
    t3 = build_schedule(p, 2).segment("step3").duration_s
    psi0 = make_oracle_state(layout, spec, "after_step2")
    full = evolve_unitary(psi0, DispersiveGenerator(layout, p), t3, samples=samples)
    reduced = evolve_unitary(psi0, h_dispersive_reduced(layout, p), t3, samples=samples)
    fids = np.array([abs(r.overlap(f)) ** 2 for r, f in zip(reduced.states, full.states)])
    return fids


def test_criterion_05_effective_model_error_scaling(preset):
    with criterion(5, "dispersive-window error falls off as the detuning grows") as info:
        ratios = (10.0, 20.0, 40.0)
        envelopes, finals = [], []
        for ratio in ratios:
            fids = _window_comparison(preset, ratio)
            envelopes.append(float(np.max(1.0 - fids)))
            finals.append(float(fids[-1]))
        # end-of-window agreement between the two models
        assert finals[0] >= 0.96, f"delta=10mu: end fidelity {finals[0]!r}"
        assert finals[2] >= 0.999, f"delta=40mu: end fidelity {finals[2]!r}"
        # worst-case within-window deviation scales as (mu/delta)^2
        slope = float(np.polyfit(np.log(ratios), np.log(envelopes), 1)[0])
        assert abs(slope + 2.0) <= 0.5, f"envelope log-log slope {slope!r}"
        for ratio, env in zip(ratios, envelopes):
            assert env == pytest.approx(FROZEN_ENVELOPE[ratio], rel=0.02)
        info["detail"] = (
            "envelope=" + "/".join(f"{e:.3e}" for e in envelopes)
            + f" slope={slope:.3f}, end-fid=" + "/".join(f"{f:.6f}" for f in finals)
        )


def test_criterion_06_spectator_leakage(preset):
    with criterion(6, "spectator f-leakage is bounded and shrinks with detuning") as info:
        peaks = {}
        for ratio in (10.0, 20.0, 40.0):
            p = preset.with_overrides(
                delta=ratio * preset.mu, delta_prime=ratio * preset.mu_prime
            )
            res = run_protocol(
                p, GhzSpec(alpha=0.0, beta=1.0, n=2),
                mode="full-dispersive", trajectory_samples=300,
            )
            peaks[ratio] = res.max_spectator_f
        estimate = occupation_probability(preset.mu, 10.0 * preset.mu)
        assert estimate / 2 <= peaks[10.0] <= estimate * 2
        assert peaks[10.0] == pytest.approx(FROZEN_SPECTATOR_PEAK, rel=1e-6)
        assert peaks[10.0] > peaks[20.0] > peaks[40.0]
        info["detail"] = (
            f"peak@10={peaks[10.0]:.5f} (estimate {estimate:.5f}), "
            f"@20={peaks[20.0]:.5f}, @40={peaks[40.0]:.5f}"
        )


def test_criterion_07_size_independent_schedule(preset):
    with criterion(7, "pulse schedule does not depend on the register size") as info:
        texts, taus = {}, {}
        for n in (2, 3, 4):
            sched = build_schedule(preset, n)
            # identical up to the layout declaration naming the register size
            texts[n] = "\n".join(
                line for line in serialize_schedule(sched).splitlines()
                if not line.startswith("layout")
            )
            taus[n] = sched.tau
        assert texts[2] == texts[3] == texts[4]
        assert taus[2] == taus[3] == taus[4]
        assert taus[2] == pytest.approx(FROZEN_TAU, rel=1e-14)
        info["detail"] = f"tau={taus[2]!r}s for n=2,3,4"


def test_criterion_08_numerical_hygiene(preset):
    with criterion(8, "generators Hermitian, norms steady, truncation quiet") as info:
        layout = build_layout(2, 2, 4, 4)
        sched = build_schedule(preset, 2)
        worst_defect = 0.0
        for seg in sched:
            if seg.kind == "resonant_ef":
                h = h_resonant_ef(layout, seg.cavity, seg.site, seg.coupling)
                worst_defect = max(worst_defect, h.hermiticity_defect())
            elif seg.kind == "resonant_ge":
                h = h_resonant_ge(layout, seg.cavity, seg.site, seg.coupling)
                worst_defect = max(worst_defect, h.hermiticity_defect())
            else:
                gen = DispersiveGenerator(layout, preset)
                for frac in (0.0, 0.3, 0.7, 1.0):
                    defect = gen.at(frac * seg.duration_s).hermiticity_defect()
                    worst_defect = max(worst_defect, defect)
                worst_defect = max(
                    worst_defect, h_dispersive_reduced(layout, preset).hermiticity_defect()
                )
        assert worst_defect <= 1e-12

        drift = 0.0
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        ideal = run_protocol(preset, spec, trajectory_samples=50)
        full = run_protocol(preset, spec, mode="full-dispersive", trajectory_samples=50)
        for res in (ideal, full):
            drift = max(drift, max(abs(row["norm"] - 1.0) for row in res.trajectory))
        assert drift < 1e-9

        assert full.truncation_top_fock < 1e-6
        info["detail"] = (
            f"hermiticity defect={worst_defect:.1e}, norm drift={drift:.1e}, "
            f"top-level weight={full.truncation_top_fock:.1e}"
        )


def test_criterion_09_open_system(preset):
    with criterion(9, "open-system path: exact limits and a finite-noise floor") as info:
        layout = build_layout(1, 1, 3, 3)
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=1)
        psi0 = make_oracle_state(layout, spec, "initial")
        h = h_resonant_ef(layout, "L", "q1", preset.mu1)
        duration = math.pi / (2 * preset.mu1)

        pure = evolve_unitary(psi0, h, duration).final
        mixed, _ = lindblad_propagate(
            h.matrix, Dissipator([], layout.dim), np.outer(psi0.amplitudes, psi0.amplitudes.conj()), duration
        )
        gap = float(np.max(np.abs(mixed - np.outer(pure.amplitudes, pure.amplitudes.conj()))))
        assert gap <= 1e-12, f"zero-rate evolution differs from unitary by {gap!r}"

        kappa = 1.0 / 5.138e-6
        a = embed_operator(layout, {"cavL": annihilation_op(layout.site_dim("cavL"))}).matrix
        lowering = math.sqrt(kappa) * a
        number_op = (a.getH() @ a).toarray()
        photon = QuantumState.from_basis(layout, {"cavL": 1}).amplitudes
        decay_t = 8e-7
        rho_t, _ = lindblad_propagate(
            None, Dissipator([lowering], layout.dim), np.outer(photon, photon.conj()), decay_t
        )
        occupancy = float(np.real(np.trace(number_op @ rho_t)))
        decay_gap = abs(occupancy - math.exp(-kappa * decay_t))
        assert decay_gap <= 1e-6, f"photon decay off by {decay_gap!r}"

        ideal = run_protocol(preset, GhzSpec(alpha=0.6, beta=0.8j, n=2), fock_cutoff=3)
        noisy = run_protocol(
            preset, GhzSpec(alpha=0.6, beta=0.8j, n=2), mode="lindblad", fock_cutoff=3
        )
        assert 0.9 < noisy.final_fidelity < ideal.final_fidelity
        info["detail"] = (
            f"zero-rate gap={gap:.1e}, decay gap={decay_gap:.1e}, "
            f"noisy fidelity={noisy.final_fidelity:.4f}"
        )


_FUZZ_TOKENS = [
    "schedule", "v1", "v9", "layout", "ghz-layout-v1", "ghz-layout-v0",
    "n_left=2", "n_right=2", "n_left=0", "n_right=-1", "cutoff_left=3",
    "segment", "step1a", "step3", "pulse", "resonant_ef", "resonant_ge", "dispersive",
    "cavity=L", "cavity=R", "cavity=X", "site=q1", "site=A", "site=q9", "site=",
    "coupling=mu1", "coupling=4.4e8rad/s", "coupling=2pi*50 MHz", "coupling=",
    "detuning=2pi*707 MHz", "detuning2=nan", "coupling2=1e309rad/s",
    "duration=auto", "duration=3ns", "duration=-1ns", "duration=1e309ns", "duration=5",
    "ramp=3ns", "ramp=", "closing_ramp", "3ns", "0.15us", "param", "mu1",
    "2pi*70.71 MHz", "#", "# comment", "=", "q1", "auto", "nan", "inf", "1e999",
]


def _fuzz_case(rng: random.Random, canonical: str) -> str:
    kind = rng.randrange(3)
    if kind == 0:  # token soup
        lines = []
        for _ in range(rng.randrange(12)):
            lines.append(" ".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randrange(1, 9))))
        return "\n".join(lines)
    if kind == 1:  # canonical text, mutilated
        text = canonical
        for _ in range(rng.randrange(1, 4)):
            if len(text) < 2:
                break
            i = rng.randrange(len(text))
            j = min(len(text), i + rng.randrange(1, 30))
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + text[j:]
            elif op == 1:
                junk = "".join(rng.choice(string.printable) for _ in range(rng.randrange(1, 12)))
                text = text[:i] + junk + text[i:]
            else:
                text = text[:i] + text[i:j] + text[i:]
        return text
    lines = canonical.splitlines()  # reshuffled lines
    rng.shuffle(lines)
    return "\n".join(lines[: rng.randrange(len(lines) + 1)])


def test_criterion_10_schedule_format_stability(preset):
    with criterion(10, "schedule files: byte-stable round trip, crash-free reader") as info:
        for n in (1, 2, 3, 4):
            text = serialize_schedule(build_schedule(preset, n))
            result = validate_schedule(parse_schedule(text), None)
            assert result.ok, f"n={n}: canonical text rejected"
            assert serialize_schedule(result.schedule) == text, f"n={n}: round trip drifted"

        rng = random.Random(20260819)
        canonical = serialize_schedule(build_schedule(preset, 2))
        clean = 0
        for _ in range(10_000):
            result = validate_schedule(parse_schedule(_fuzz_case(rng, canonical)), None)
            clean += result.ok
        info["detail"] = f"round trip byte-identical for n=1..4; 10000 fuzz cases, {clean} still valid"
