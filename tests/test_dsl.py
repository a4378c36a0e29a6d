"""Schedule text format: round trips, diagnostics, validation rules."""

from __future__ import annotations

import math
import random
import re

import pytest

from ghz_transfer.dsl import (
    Diagnostic,
    parse_schedule,
    serialize_schedule,
    validate_schedule,
)
from ghz_transfer.hamiltonians import EffectiveRates, load_preset, schema_fields
from ghz_transfer.scheduling import build_schedule
from ghz_transfer.units import seconds_to_ns


@pytest.fixture(scope="module")
def params():
    return load_preset("transmon")


def canonical_text(params, n=2) -> str:
    return serialize_schedule(build_schedule(params, n))


def codes(diagnostics: list[Diagnostic], severity=None) -> set[str]:
    return {d.code for d in diagnostics if severity is None or d.severity == severity}


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_serialize_parse_serialize_is_byte_identical(self, params, n):
        text = canonical_text(params, n)
        doc = parse_schedule(text)
        assert doc.ok and not doc.diagnostics
        assert serialize_schedule(doc) == text

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_parsed_schedule_equals_built_schedule(self, params, n):
        built = build_schedule(params, n)
        result = validate_schedule(parse_schedule(serialize_schedule(built)))
        assert result.ok and not result.diagnostics
        assert result.schedule == built

    def test_round_trip_preserves_budget_bitwise(self, params):
        built = build_schedule(params, 2)
        back = validate_schedule(parse_schedule(serialize_schedule(built))).schedule
        assert back.tau == built.tau
        assert back.tau_a == built.tau_a
        assert back.tau_r == built.tau_r
        assert back.tau_o == built.tau_o

    def test_no_unstable_float_rescale_in_text(self, params):
        # the ns literal must be the decimal shift of the seconds value,
        # not the repr of a rescaled float (one ulp off for step1a)
        text = canonical_text(params, 2)
        line = next(l for l in text.splitlines() if " step1a " in l)
        assert "duration=3.5355339059327376ns" in line

    def test_zero_times_serialize_as_zero_ns(self, params):
        ramps = dict.fromkeys(("tauA", "tau1", "tau1p", "tauq", "tauqp"), 0.0)
        built = build_schedule(params.with_overrides(**ramps), 2)
        text = serialize_schedule(built)
        assert text.count(" ramp=0ns") == len(built.segments)
        assert text.endswith("\nclosing_ramp 0ns\n")
        assert "E+" not in text
        assert validate_schedule(parse_schedule(text)).schedule == built

    def test_empty_input_is_a_valid_empty_document(self):
        doc = parse_schedule("")
        assert doc.ok and doc.segments == [] and doc.diagnostics == []


class TestAutoDurations:
    def test_auto_document_reproduces_built_schedule(self, params):
        built = build_schedule(params, 2)
        symbol = {
            "step1a": "mu1", "step1b": "mu1_tilde",
            "step2a": "muAL", "step2b": "muAR",
            "step4a": "muAL", "step4b": "muAR",
            "step5a": "mu1p_tilde", "step5b": "mu1p",
        }
        lines = ["schedule v1", "layout ghz-layout-v1 n_left=2 n_right=2"]
        for seg in built:
            if seg.kind == "dispersive":
                lines.append(
                    f"segment {seg.label} dispersive cavity=L site=spectators "
                    "coupling=mu detuning=delta coupling2=mu_prime detuning2=delta_prime "
                    f"duration=auto ramp={seconds_to_ns(seg.ramp_s)!r}ns"
                )
            else:
                lines.append(
                    f"segment {seg.label} {seg.kind} cavity={seg.cavity} site={seg.site} "
                    f"coupling={symbol[seg.label]} duration=auto ramp={seconds_to_ns(seg.ramp_s)!r}ns"
                )
        lines.append(f"closing_ramp {seconds_to_ns(built.closing_ramp_s)!r}ns")
        doc = parse_schedule("\n".join(lines) + "\n")
        assert doc.ok
        result = validate_schedule(doc, params)
        assert result.ok, [str(d) for d in result.diagnostics]
        assert result.schedule == built

    def test_document_params_override_argument(self, params):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "param mu1 2pi*100 MHz\n"
            "segment step1a resonant_ef cavity=L site=q1 coupling=mu1 duration=auto ramp=3ns\n"
        )
        result = validate_schedule(parse_schedule(text), params)
        assert result.ok
        seg = result.schedule.segment("step1a")
        assert seg.coupling == pytest.approx(2 * math.pi * 100e6)
        assert seg.duration_s == pytest.approx(math.pi / (2 * seg.coupling))

    def test_unknown_symbol_is_an_error(self):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment step1a resonant_ef cavity=L site=q1 coupling=mu9 duration=auto ramp=3ns\n"
        )
        result = validate_schedule(parse_schedule(text))
        assert not result.ok
        assert "unknown-symbol" in codes(result.diagnostics, "error")

    def test_a_parameter_set_binds_exactly_its_couplings_and_detunings(self, params):
        bound = set()
        for name in schema_fields():
            text = (
                "schedule v1\n"
                "layout ghz-layout-v1 n_left=1 n_right=1\n"
                f"segment step1a resonant_ef cavity=L site=q1 coupling={name} duration=3ns ramp=3ns\n"
            )
            result = validate_schedule(parse_schedule(text), params)
            if result.ok:
                assert result.schedule.segment("step1a").coupling == getattr(params, name)
                bound.add(name)
            else:
                assert codes(result.diagnostics, "error") == {"unknown-symbol"}
        assert bound == {
            "mu1", "mu1_tilde", "mu1p", "mu1p_tilde", "muAL", "muAR",
            "mu", "mu_prime", "delta", "delta_prime",
        }

    def test_auto_needs_a_canonical_label(self, params):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment warmup resonant_ef cavity=L site=q1 coupling=mu1 duration=auto ramp=3ns\n"
        )
        result = validate_schedule(parse_schedule(text), params)
        assert not result.ok
        assert "auto-unresolvable" in codes(result.diagnostics, "error")


class TestResonanceCheck:
    def test_even_multiple_window_is_rejected(self, params):
        rates = EffectiveRates.from_params(params)
        text = canonical_text(params, 2)
        bad = 2 * math.pi / rates.lam  # e^{i lam t} = +1: phases do not flip
        text = re.sub(
            r"(segment step3 .*duration=)[^ ]+",
            lambda m: m.group(1) + f"{bad * 1e9!r}ns",
            text,
        )
        result = validate_schedule(parse_schedule(text))
        assert not result.ok
        finding = next(d for d in result.diagnostics if d.code == "resonance-violation")
        assert "odd multiple" in finding.message
        assert repr(rates.lam) in finding.message

    def test_higher_odd_multiple_is_accepted(self, params):
        rates = EffectiveRates.from_params(params)
        text = canonical_text(params, 2)
        alt = 3 * math.pi / rates.lam
        text = re.sub(
            r"(segment step3 .*duration=)[^ ]+",
            lambda m: m.group(1) + f"{alt * 1e9!r}ns",
            text,
        )
        result = validate_schedule(parse_schedule(text))
        assert result.ok
        assert result.schedule.resonance == (1, 1)

    def test_irreconcilable_auto_window_reports(self, params):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=2 n_right=2\n"
            "segment step3 dispersive cavity=L site=spectators "
            "coupling=1000000rad/s detuning=10000000rad/s "
            "coupling2=1118033.9887498949rad/s detuning2=10000000rad/s "
            "duration=auto ramp=9ns\n"
        )
        # lam'/lam = 1.25: 5(2m+1) = 4(2k+1) has no integer solutions
        result = validate_schedule(parse_schedule(text))
        assert not result.ok
        assert "resonance-violation" in codes(result.diagnostics, "error")


class TestDiagnostics:
    def test_missing_unit_reports_line_and_token(self):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment step1a resonant_ef cavity=L site=q1 coupling=3rad/s duration=5 ramp=3ns\n"
        )
        doc = parse_schedule(text)
        assert not doc.ok
        finding = next(d for d in doc.diagnostics if d.code == "missing-unit")
        assert finding.line == 3
        assert finding.token == "5"
        assert finding.column == text.splitlines()[2].index("duration=5") + len("duration=") + 1

    @pytest.mark.parametrize("line, token", [
        ("segment s1 resonant_ge cavity=L site=A coupling=1e309rad/s duration=1ns ramp=0ns", "1e309rad/s"),
        ("segment s1 resonant_ge cavity=L site=A coupling=2pi*1e300GHz duration=1ns ramp=0ns",
         "2pi*1e300GHz"),
        ("segment s1 resonant_ge cavity=L site=A coupling=1rad/s duration=1ns ramp=1e400ns", "1e400ns"),
        ("param x 1e309 rad/s", "1e309 rad/s"),
        ("closing_ramp 1e400ns", "1e400ns"),
    ], ids=["coupling", "coupling-hz", "ramp", "param", "closing-ramp"])
    def test_overflowing_literal_is_a_bad_number_at_its_token(self, line, token):
        doc = parse_schedule(f"schedule v1\nlayout ghz-layout-v1 n_left=1 n_right=1\n{line}\n")
        (finding,) = doc.diagnostics
        assert (finding.code, finding.line, finding.token) == ("bad-number", 3, token)
        assert finding.column == line.index(token.split()[0]) + 1

    def test_unknown_kind(self):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment s1 gaussian cavity=L site=q1 coupling=3rad/s duration=3ns ramp=0ns\n"
        )
        doc = parse_schedule(text)
        finding = next(d for d in doc.diagnostics if d.code == "unknown-kind")
        assert finding.token == "gaussian" and finding.line == 3

    def test_undeclared_site(self):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=2 n_right=2\n"
            "segment s1 resonant_ef cavity=L site=q3 coupling=3rad/s duration=3ns ramp=0ns\n"
        )
        doc = parse_schedule(text)
        finding = next(d for d in doc.diagnostics if d.code == "undeclared-site")
        assert finding.token == "q3"

    def test_duplicate_label(self):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment s1 resonant_ef cavity=L site=q1 coupling=3rad/s duration=3ns ramp=0ns\n"
            "segment s1 resonant_ge cavity=L site=q1 coupling=3rad/s duration=3ns ramp=0ns\n"
        )
        doc = parse_schedule(text)
        finding = next(d for d in doc.diagnostics if d.code == "duplicate-label")
        assert finding.line == 4

    def test_missing_header(self):
        doc = parse_schedule("layout ghz-layout-v1 n_left=1 n_right=1\n")
        assert "missing-header" in codes(doc.diagnostics, "error")

    def test_unknown_version(self):
        doc = parse_schedule("schedule v9\n")
        assert "unknown-version" in codes(doc.diagnostics, "error")

    def test_unknown_layout_tag(self):
        doc = parse_schedule("schedule v1\nlayout other-ordering n_left=1 n_right=1\n")
        assert "unknown-layout" in codes(doc.diagnostics, "error")

    def test_comments_and_blank_lines_ignored(self, params):
        text = canonical_text(params, 2)
        commented = "# preamble\n\n" + text.replace(
            "closing_ramp", "# trailing note\nclosing_ramp"
        ) + "\n# done\n"
        doc = parse_schedule(commented)
        assert doc.ok
        assert serialize_schedule(doc) == text

    def test_dispersive_fields_on_resonant_segment(self):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment s1 resonant_ef cavity=L site=q1 coupling=3rad/s "
            "detuning=30rad/s duration=3ns ramp=0ns\n"
        )
        doc = parse_schedule(text)
        assert "unexpected-field" in codes(doc.diagnostics, "error")

    def test_missing_required_field(self):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment s1 resonant_ef cavity=L site=q1 duration=3ns ramp=0ns\n"
        )
        doc = parse_schedule(text)
        assert "missing-field" in codes(doc.diagnostics, "error")


class TestValidationSemantics:
    def test_reordered_segments_warn_but_execute_as_written(self, params):
        lines = canonical_text(params, 2).splitlines()
        seg_lines = [l for l in lines if l.startswith("segment ")]
        other = [l for l in lines if not l.startswith("segment ")]
        swapped = seg_lines[:2] + [seg_lines[3], seg_lines[2]] + seg_lines[4:]
        text = "\n".join(other[:2] + swapped + other[2:]) + "\n"
        result = validate_schedule(parse_schedule(text))
        assert result.ok
        assert "segment-order" in codes(result.diagnostics, "warning")
        labels = [seg.label for seg in result.schedule]
        assert labels[2] == "step2b" and labels[3] == "step2a"

    def test_missing_closing_ramp_defaults_to_zero(self):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment step1a resonant_ef cavity=L site=q1 coupling=3rad/s duration=3ns ramp=0ns\n"
        )
        result = validate_schedule(parse_schedule(text))
        assert result.ok
        assert result.schedule.closing_ramp_s == 0.0
        assert serialize_schedule(result.schedule).endswith("\nclosing_ramp 0ns\n")

    def test_validation_of_broken_document_returns_no_schedule(self):
        result = validate_schedule(parse_schedule("schedule v1\nnonsense here\n"))
        assert result.schedule is None
        assert "unknown-directive" in codes(result.diagnostics, "error")

    def test_us_times_are_scaled_exactly(self):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=1 n_right=1\n"
            "segment step1a resonant_ef cavity=L site=q1 coupling=3rad/s duration=0.15us ramp=3ns\n"
        )
        result = validate_schedule(parse_schedule(text))
        seg = result.schedule.segment("step1a")
        assert seg.duration_s == 1.5e-7


class TestTotality:
    def test_fuzz_never_raises(self, params):
        rng = random.Random(2024)
        pool = [
            "schedule", "v1", "v2", "layout", "ghz-layout-v1", "segment", "param",
            "closing_ramp", "resonant_ef", "resonant_ge", "dispersive", "cavity=L",
            "cavity=R", "cavity=", "site=q1", "site=spectators", "site=", "coupling=3rad/s",
            "coupling=mu1", "coupling=2pi*50MHz", "coupling=", "duration=auto",
            "duration=3ns", "duration=5", "duration=-1ns", "ramp=0ns", "ramp=1e9999ns",
            "n_left=2", "n_right=2", "n_left=x", "cutoff_left=0", "=", "==", "#x",
            "duration=3.5e-9ns", "mu1", "2pi*50", "MHz", "rad/s", "\x00", "µs",
            "label=", "step3", "detuning=1rad/s", "coupling2=1rad/s", "detuning2=1rad/s",
            "999999999999999999999999", "nan", "inf", "duration=nanns", "duration=infns",
        ]
        for case in range(1500):
            lines = []
            for _ in range(rng.randint(0, 12)):
                tokens = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
                lines.append(" ".join(tokens))
            text = "\n".join(lines)
            doc = parse_schedule(text)  # must not raise
            validate_schedule(doc, params if case % 2 else None)  # must not raise

    def test_fuzz_mutated_canonical_never_raises(self, params):
        rng = random.Random(7)
        base = canonical_text(params, 2)
        for _ in range(500):
            chars = list(base)
            for _ in range(rng.randint(1, 6)):
                idx = rng.randrange(len(chars))
                op = rng.random()
                if op < 0.4:
                    chars[idx] = chr(rng.randint(1, 127))
                elif op < 0.7:
                    del chars[idx]
                else:
                    chars.insert(idx, chr(rng.randint(32, 126)))
            doc = parse_schedule("".join(chars))
            validate_schedule(doc, params)
