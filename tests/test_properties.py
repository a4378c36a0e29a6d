"""Property tests: ``.sched`` round trips of random schedules, unit parsing, ``--set``, operators on a basis."""

from __future__ import annotations

import itertools
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ghz_transfer.cli import _apply_overrides
from ghz_transfer.dsl import parse_schedule, serialize_schedule, validate_schedule
from ghz_transfer.hamiltonians import PhysicalParams, load_preset, schema_fields
from ghz_transfer.hilbert import OperatorMatrix, QuantumState, build_layout, partial_trace
from ghz_transfer.scheduling import PulseSegment, Schedule, build_schedule
from ghz_transfer.units import parse_frequency, parse_time

_finite = st.floats(allow_nan=False, allow_infinity=False)
_rate = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_time = st.floats(min_value=0.0, allow_infinity=False)
# resonant labels never collide with the dispersive window's "step3"
_labels = st.from_regex(r"p[a-z0-9_]{0,6}", fullmatch=True)
# lam'/lam as a ratio of odd integers, so the window closes both phases
_odd_ratio = st.sampled_from([1.0, 3.0, 1 / 3, 5 / 3, 3 / 5, 7.0])


@st.composite
def dispersive_windows(draw) -> tuple[PulseSegment, tuple[int, int]]:
    """The step3 window ``build_schedule`` makes from valid parameters, and its (m, k)."""
    mu = draw(st.floats(min_value=1e3, max_value=1e12))
    delta = mu * draw(st.floats(min_value=5.0, max_value=100.0))
    mu_prime = draw(st.floats(min_value=1e3, max_value=1e12))
    lam_prime = mu**2 / delta * draw(_odd_ratio)
    params = PhysicalParams(
        mu1=mu, mu1_tilde=mu, mu1p=mu, mu1p_tilde=mu, muAL=mu, muAR=mu,
        mu=mu, mu_prime=mu_prime, delta=delta, delta_prime=mu_prime**2 / lam_prime,
    )
    built = build_schedule(params, 2)
    return replace(built.segment("step3"), ramp_s=draw(_time)), built.resonance


@st.composite
def schedules(draw) -> Schedule:
    layout = build_layout(
        draw(st.integers(1, 4)), draw(st.integers(1, 4)),
        draw(st.integers(3, 6)), draw(st.integers(3, 6)),
    )
    sites = layout.left_qudits + ("A",) + layout.right_qudits
    segments = [
        PulseSegment(
            label=label,
            kind=draw(st.sampled_from(["resonant_ef", "resonant_ge"])),
            cavity=draw(st.sampled_from(["L", "R"])),
            site=draw(st.sampled_from(sites)),
            coupling=draw(_rate),
            duration_s=draw(_time),
            ramp_s=draw(_time),
        )
        for label in draw(st.lists(_labels, max_size=6, unique=True))
    ]
    resonance = None
    if draw(st.booleans()):
        window, resonance = draw(dispersive_windows())
        segments.insert(draw(st.integers(0, len(segments))), window)
    return Schedule(
        segments=tuple(segments), layout=layout,
        closing_ramp_s=draw(_time), resonance=resonance,
    )


class TestScheduleRoundTrip:
    @pytest.mark.filterwarnings("ignore:.*dispersive treatment is marginal")
    @settings(max_examples=200, deadline=None)
    @given(schedule=schedules())
    def test_serialize_parse_validate_gives_the_same_schedule(self, schedule):
        text = serialize_schedule(schedule)
        document = parse_schedule(text)
        assert document.ok, [str(d) for d in document.diagnostics]
        assert serialize_schedule(document) == text
        result = validate_schedule(document)
        assert result.ok, [str(d) for d in result.diagnostics]
        assert result.schedule == schedule
        assert result.schedule.layout == schedule.layout
        assert serialize_schedule(result.schedule) == text


class TestUnitParsing:
    @given(x=_finite, unit=st.sampled_from([("ns", -9), ("us", -6)]))
    @example(x=3.0, unit=("ns", -9))  # 3 ns is the literal 3e-9, not 3.0 * 1e-9
    def test_time_is_the_exact_decimal_rescale(self, x, unit):
        name, exponent = unit
        assert parse_time(f"{x!r} {name}") == float(Decimal(repr(x)).scaleb(exponent))

    @given(w=_finite)
    def test_rad_per_second_is_read_as_written(self, w):
        assert parse_frequency(f"{w!r} rad/s") == w

    @given(x=_finite)
    def test_bare_numbers_are_rejected(self, x):
        with pytest.raises(ValueError):
            parse_time(repr(x))
        with pytest.raises(ValueError):
            parse_frequency(repr(x))

    @given(w=_finite, unit=st.sampled_from(["GHz", "MHz", "kHz", "Hz"]))
    def test_hertz_needs_the_two_pi_prefix(self, w, unit):
        with pytest.raises(ValueError, match="2pi"):
            parse_frequency(f"{w!r} {unit}")


# couplings, detunings and photon-loss rates; every other field is a time
_RATE_FIELDS = (*schema_fields("couplings", "detunings"), "kappaL", "kappaR")
_TRANSMON = load_preset("transmon")


def _override(name: str, text: str) -> float:
    return getattr(_apply_overrides(_TRANSMON, (f"{name}={text}",)), name)


class TestParameterOverrides:
    @pytest.mark.filterwarnings("ignore:.*dispersive treatment is marginal")
    @given(name=st.sampled_from(schema_fields()), v=st.floats(min_value=1e-300, max_value=1e300))
    def test_set_reads_plain_si_and_only_the_fields_own_unit(self, name, v):
        assert _override(name, repr(v)) == v
        rate, time = f"2pi*{v!r} MHz", f"{v!r} ns"
        own, other = (rate, time) if name in _RATE_FIELDS else (time, rate)
        assert _override(name, own) == (parse_frequency if own is rate else parse_time)(own)
        with pytest.raises(ValueError, match=f"{name} takes a"):
            _override(name, other)


_SMALL = build_layout(1, 1, 3, 3)
_entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_blocks(draw) -> tuple[np.ndarray, np.ndarray]:
    """A sorted support of the 288-state register and a Hermitian matrix on it."""
    support = np.array(sorted(draw(st.sets(st.integers(0, _SMALL.dim - 1), min_size=1, max_size=12))))
    half = draw(hnp.arrays(complex, (support.size, support.size), elements=_entries))
    return support, half + half.conj().T  # Hermitian bit for bit


class TestOperatorOnABasis:
    @settings(max_examples=50, deadline=None)
    @given(
        block=hermitian_blocks(),
        amplitudes=hnp.arrays(complex, _SMALL.dim, elements=_entries),
        pair=st.sampled_from(list(itertools.combinations(_SMALL.site_names, 2))),
    )
    def test_agrees_with_the_same_matrix_on_the_register(self, block, amplitudes, pair):
        support, matrix = block
        on_register = np.zeros((_SMALL.dim, _SMALL.dim), dtype=complex)
        on_register[np.ix_(support, support)] = matrix
        on_register = OperatorMatrix(on_register, _SMALL, hermitian=True)
        on_basis = OperatorMatrix(matrix, _SMALL, hermitian=True, basis=support)
        norm = np.linalg.norm(amplitudes)
        state = QuantumState(amplitudes / norm if norm else amplitudes, _SMALL)

        assert abs(on_basis.expectation(state) - on_register.expectation(state)) <= 1e-12
        gap = on_basis.apply(state).amplitudes - on_register.apply(state).amplitudes
        assert np.abs(gap).max() <= 1e-12
        for sites in [(site,) for site in _SMALL.site_names] + [pair]:
            gap = partial_trace(on_basis, sites) - partial_trace(on_register, sites)
            assert np.abs(gap).max() <= 1e-12, sites
