"""Schedule construction, resonance solving, and the timing budget."""

from __future__ import annotations

import math

import pytest

from helpers import two_pi_mhz
from ghz_transfer.cli import _budget
from ghz_transfer.hamiltonians import PhysicalParams, load_preset
from ghz_transfer.hilbert import build_layout
from ghz_transfer.scheduling import (
    PulseSegment,
    Schedule,
    SchedulingError,
    build_schedule,
    cavity_lifetime,
    solve_resonance,
)
from ghz_transfer.units import TWO_PI

MU = two_pi_mhz(50.0)


@pytest.fixture(scope="module")
def preset():
    return load_preset("transmon")


class TestSolveResonance:
    def test_equal_rates_close_together(self):
        sol = solve_resonance(1.0, 1.0)
        assert (sol.m, sol.k) == (0, 0)
        assert sol.residual == 0.0
        assert sol.duration_s == math.pi

    def test_triple_rate_needs_third_odd_multiple(self):
        sol = solve_resonance(1.0, 3.0)
        assert (sol.m, sol.k) == (0, 1)
        assert sol.residual == 0.0

    def test_five_fourths_never_aligns(self):
        # (2m+1) * 5 = (2k+1) * 4 pits odd against even
        with pytest.raises(SchedulingError):
            solve_resonance(1.0, 1.25)

    def test_irrational_ratio_fails_within_bound(self):
        with pytest.raises(SchedulingError):
            solve_resonance(1.0, math.sqrt(2.0), bound=50)

    def test_loose_tolerance_accepts_near_matches(self):
        sol = solve_resonance(1.0, 1.02, tolerance=0.05)
        assert sol.m == 0
        assert sol.residual <= 0.05


class TestBuildSchedule:
    def test_segment_labels_in_order(self, preset):
        sched = build_schedule(preset, 2)
        assert [s.label for s in sched] == [
            "step1a", "step1b", "step2a", "step2b", "step3",
            "step4a", "step4b", "step5a", "step5b",
        ]

    def test_single_qubit_register_skips_the_phase_window(self, preset):
        sched = build_schedule(preset, 1)
        assert [s.label for s in sched] == [
            "step1a", "step1b", "step2a", "step2b", "step4a", "step4b",
            "step5a", "step5b",
        ]
        assert sched.resonance is None
        assert sched.tau_o == 0.0
        # without spectators nothing needs detuning around the window
        assert sched.segment("step4a").ramp_s == preset.tauA

    def test_durations_follow_pulse_areas(self, preset):
        p = preset
        sched = build_schedule(p, 2)
        sqrt2 = math.sqrt(2.0)
        assert sched.segment("step1a").duration_s == math.pi / (2 * p.mu1)
        assert sched.segment("step1b").duration_s == math.pi / (2 * sqrt2 * p.mu1_tilde)
        assert sched.segment("step2a").duration_s == math.pi / (2 * sqrt2 * p.muAL)
        assert sched.segment("step2b").duration_s == math.pi / (2 * p.muAR)
        assert sched.segment("step4a").duration_s == math.pi / (2 * p.muAL)
        assert sched.segment("step4b").duration_s == math.pi / (2 * sqrt2 * p.muAR)
        assert sched.segment("step5a").duration_s == math.pi / (2 * sqrt2 * p.mu1p_tilde)
        assert sched.segment("step5b").duration_s == math.pi / (2 * p.mu1p)

    def test_phase_window_duration(self, preset):
        sched = build_schedule(preset, 2)
        lam = preset.mu**2 / preset.delta
        assert sched.segment("step3").duration_s == math.pi / lam
        assert sched.resonance == (0, 0)

    def test_ramp_attribution(self, preset):
        sched = build_schedule(preset, 2)
        ramps = {s.label: s.ramp_s for s in sched}
        assert ramps["step1a"] == 3e-9
        assert ramps["step1b"] == 3e-9
        assert ramps["step2a"] == 6e-9
        assert ramps["step2b"] == 3e-9
        assert ramps["step3"] == 9e-9
        assert ramps["step4a"] == 9e-9
        assert ramps["step4b"] == 3e-9
        assert ramps["step5a"] == 6e-9
        assert ramps["step5b"] == 3e-9
        assert sched.closing_ramp_s == 3e-9

    def test_rejects_empty_register(self, preset):
        with pytest.raises(SchedulingError):
            build_schedule(preset, 0)

    def test_segment_lookup(self, preset):
        sched = build_schedule(preset, 2)
        assert sched.segment("step3").kind == "dispersive"
        with pytest.raises(KeyError):
            sched.segment("step9")


class TestTimingBudget:
    def test_preset_budget_values(self, preset):
        budget = build_schedule(preset, 2).budget()
        # six sqrt(2)-enhanced quarter periods at 3.536 ns plus two plain
        # ones at 5 ns
        assert budget["tau_r_s"] == 3.121320343559642e-08
        assert budget["tau_o_s"] == 7.071067811865476e-08
        # sixteen retunes at 3 ns each; the sum must land on 48 ns on the
        # nose, not within rounding of it
        assert budget["tau_a_s"] == 48e-9
        assert budget["tau_s"] == 1.4992388155425117e-07
        assert (budget["resonance_m"], budget["resonance_k"]) == (0, 0)

    def test_total_is_the_sum_of_parts(self, preset):
        budget = build_schedule(preset, 2).budget()
        assert budget["tau_s"] == pytest.approx(
            budget["tau_r_s"] + budget["tau_o_s"] + budget["tau_a_s"], rel=1e-15
        )

    def test_independent_of_register_width(self, preset):
        scheds = [build_schedule(preset, n) for n in (2, 3, 4)]
        assert scheds[0].segments == scheds[1].segments == scheds[2].segments
        assert len({s.tau for s in scheds}) == 1
        assert len({s.tau_a for s in scheds}) == 1

    def test_cavity_lifetime(self, preset):
        lifetime = cavity_lifetime(3e5, TWO_PI * 9.293e9)
        assert lifetime == pytest.approx(5.137897657114883e-06, rel=1e-12)
        assert lifetime == pytest.approx(1.0 / preset.kappaL, rel=1e-12)
        with pytest.raises(ValueError):
            cavity_lifetime(0.0, 1.0)

    def test_budget_reports_preset_lifetimes(self, preset):
        payload = _budget(build_schedule(preset, 2), preset)
        assert payload["cavity_lifetime_L_s"] == pytest.approx(5.1378e-6, rel=1e-4)
        assert payload["cavity_lifetime_R_s"] == pytest.approx(5.1378e-6, rel=1e-4)
        assert payload["tau_a_s"] == 48e-9
        assert payload["resonance_m"] == 0


class TestSegmentValidation:
    def test_dispersive_needs_both_detunings(self):
        with pytest.raises(ValueError):
            PulseSegment(label="x", kind="dispersive", cavity="L", site="spectators",
                         coupling=MU, duration_s=1e-9)

    def test_resonant_takes_no_detuning(self):
        with pytest.raises(ValueError):
            PulseSegment(label="x", kind="resonant_ge", cavity="L", site="A",
                         coupling=MU, duration_s=1e-9, detuning=10 * MU)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PulseSegment(label="x", kind="chirped", cavity="L", site="q1",
                         coupling=MU, duration_s=1e-9)

    def test_duplicate_labels_rejected(self):
        seg = PulseSegment(label="x", kind="resonant_ge", cavity="L", site="A",
                           coupling=MU, duration_s=1e-9)
        with pytest.raises(ValueError):
            Schedule(segments=(seg, seg), layout=build_layout(1, 1))
