"""Checkpoint oracles cross-checked against simulated pulses and closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import from_product, register
from ghz_transfer import runner
from ghz_transfer.analysis import (
    CHECKPOINTS,
    STAGE_CHECKPOINTS,
    GhzSpec,
    logical_encode_pulse,
    make_oracle_state,
    occupation_probability,
    oracle_branches,
    random_ghz_spec,
)
from ghz_transfer.evolution import checkpoint_fidelity, evolve_unitary
from ghz_transfer.hamiltonians import (
    EffectiveRates,
    h_dispersive_reduced,
    h_resonant_ef,
    h_resonant_ge,
    load_preset,
)
from ghz_transfer.hilbert import QuantumState, build_layout, partial_trace

SQRT2 = math.sqrt(2.0)


def _spectator_f_total(state: QuantumState) -> float:
    """The trajectory's ``spectator_f_total`` column for ``state``."""
    support = np.flatnonzero(state.amplitudes)
    observable = runner._observables(state.layout, support)[runner._ROW_COLUMNS.index("spectator_f_total")]
    return float(np.sum(np.abs(state.amplitudes[support]) ** 2 * observable))


@pytest.fixture(scope="module")
def params():
    return load_preset("transmon")


@pytest.fixture(scope="module")
def layout2():
    return build_layout(2, 2, fock_cutoff_left=3, fock_cutoff_right=3)


def chain_segments(layout, p):
    """The nine pulse segments, with the reduced generator for the window."""
    rates, whole = EffectiveRates.from_params(p), register(layout)
    segs = [
        ("after_step1a", h_resonant_ef(layout, "L", "q1", p.mu1, whole), math.pi / (2 * p.mu1)),
        ("after_step1", h_resonant_ge(layout, "L", "q1", p.mu1_tilde, whole), math.pi / (2 * SQRT2 * p.mu1_tilde)),
        ("after_step2a", h_resonant_ge(layout, "L", "A", p.muAL, whole), math.pi / (2 * SQRT2 * p.muAL)),
        ("after_step2", h_resonant_ge(layout, "R", "A", p.muAR, whole), math.pi / (2 * p.muAR)),
    ]
    if layout.n_left > 1:
        segs.append(("after_step3", h_dispersive_reduced(layout, p, whole), math.pi / rates.lam))
    segs += [
        ("after_step4a", h_resonant_ge(layout, "L", "A", p.muAL, whole), math.pi / (2 * p.muAL)),
        ("after_step4", h_resonant_ge(layout, "R", "A", p.muAR, whole), math.pi / (2 * SQRT2 * p.muAR)),
        ("after_step5a", h_resonant_ge(layout, "R", "q1p", p.mu1p_tilde, whole), math.pi / (2 * SQRT2 * p.mu1p_tilde)),
        ("final", h_resonant_ef(layout, "R", "q1p", p.mu1p, whole), math.pi / (2 * p.mu1p)),
    ]
    return segs


class TestOracleStates:
    def test_every_checkpoint_is_normalized(self, layout2):
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        rates = EffectiveRates.from_params(load_preset("transmon"))
        for name in CHECKPOINTS:
            if name == "during_step3":
                state = make_oracle_state(layout2, spec, name, t=1e-9, rates=rates)
            else:
                state = make_oracle_state(layout2, spec, name)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12, name

    def test_branches_are_orthonormal_units(self, layout2):
        spec = GhzSpec(alpha=0.6, beta=-0.8, n=2)
        for name in CHECKPOINTS:
            if name == "during_step3":
                continue
            g, f, cg, cf = oracle_branches(layout2, spec, name)
            assert abs(np.linalg.norm(g.amplitudes) - 1.0) < 1e-12
            assert abs(np.linalg.norm(f.amplitudes) - 1.0) < 1e-12
            assert abs(g.overlap(f)) < 1e-12
            assert cg == spec.alpha
            assert abs(abs(cf) - abs(spec.beta)) < 1e-12

    def test_stage_checkpoints_subset(self):
        assert set(STAGE_CHECKPOINTS) <= set(CHECKPOINTS)
        assert STAGE_CHECKPOINTS[0] == "initial" and STAGE_CHECKPOINTS[-1] == "final"

    def test_layout_spec_mismatch_rejected(self, layout2):
        with pytest.raises(ValueError):
            make_oracle_state(layout2, GhzSpec(alpha=1.0, beta=0.0, n=3), "initial")

    def test_unknown_checkpoint_rejected(self, layout2):
        spec = GhzSpec(alpha=1.0, beta=0.0, n=2)
        with pytest.raises(KeyError):
            make_oracle_state(layout2, spec, "after_step6")

    def test_window_checkpoint_needs_time_and_rates(self, layout2):
        spec = GhzSpec(alpha=0.6, beta=0.8, n=2)
        rates = EffectiveRates.from_params(load_preset("transmon"))
        with pytest.raises(ValueError):
            make_oracle_state(layout2, spec, "during_step3")
        with pytest.raises(ValueError):
            make_oracle_state(layout2, spec, "after_step2", t=1e-9, rates=rates)


class TestChainAgainstSimulation:
    def test_reduced_chain_hits_every_checkpoint(self, layout2, params):
        # evolve the exact segment sequence and demand the written-down
        # state at each boundary, branch coefficient included
        rng = np.random.default_rng(7)
        spec = random_ghz_spec(2, rng)
        state = make_oracle_state(layout2, spec, "initial")
        for name, h, dur in chain_segments(layout2, params):
            state = evolve_unitary(state, h, dur).final
            oracle = make_oracle_state(layout2, spec, name)
            assert checkpoint_fidelity(state, oracle) >= 1 - 1e-12, name
            g, f, cg, cf = oracle_branches(layout2, spec, name)
            assert abs(f.overlap(state) - cf) < 1e-10, name
            assert abs(g.overlap(state) - cg) < 1e-10, name

    def test_single_qubit_chain_skips_the_window(self, params):
        layout = build_layout(1, 1, fock_cutoff_left=3, fock_cutoff_right=3)
        spec = GhzSpec(alpha=1 / SQRT2, beta=1j / SQRT2, n=1)
        state = make_oracle_state(layout, spec, "initial")
        for name, h, dur in chain_segments(layout, params):
            state = evolve_unitary(state, h, dur).final
            oracle = make_oracle_state(layout, spec, name)
            assert checkpoint_fidelity(state, oracle) >= 1 - 1e-12, name

    def test_window_endpoints_match_stage_oracles(self, layout2, params):
        # at t=0 the window state is the step-2 boundary; at t3 = pi/lam
        # both conditional phases reach -1 and it lands on the step-3 one
        rates = EffectiveRates.from_params(params)
        spec = GhzSpec(alpha=0.28, beta=math.sqrt(1 - 0.28**2), n=2)
        at0 = make_oracle_state(layout2, spec, "during_step3", t=0.0, rates=rates)
        ref2 = make_oracle_state(layout2, spec, "after_step2")
        assert checkpoint_fidelity(at0, ref2) >= 1 - 1e-12

        t3 = math.pi / rates.lam
        assert rates.lam == rates.lam_prime
        at3 = make_oracle_state(layout2, spec, "during_step3", t=t3, rates=rates)
        ref3 = make_oracle_state(layout2, spec, "after_step3")
        assert checkpoint_fidelity(at3, ref3) >= 1 - 1e-12

    def test_window_interior_matches_simulation(self, layout2, params):
        rates = EffectiveRates.from_params(params)
        spec = GhzSpec(alpha=0.6, beta=0.8, n=2)
        start = make_oracle_state(layout2, spec, "after_step2")
        h = h_dispersive_reduced(layout2, params, register(layout2))
        for frac in (0.21, 0.5, 0.83):
            t = frac * math.pi / rates.lam
            evolved = evolve_unitary(start, h, t).final
            oracle = make_oracle_state(layout2, spec, "during_step3", t=t, rates=rates)
            assert checkpoint_fidelity(evolved, oracle) >= 1 - 1e-12


class TestFinalStateStructure:
    def test_left_register_disentangles(self, layout2):
        # after the transfer the sending register must factor out: the
        # reduced state across the left/right cut has purity one
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        final = make_oracle_state(layout2, spec, "final")
        left = partial_trace(final, ["q1", "q2", "A", "cavL"])
        purity = float(np.real(np.trace(left @ left)))
        assert abs(purity - 1.0) < 1e-12

    def test_single_share_is_maximally_mixed_at_equal_weights(self, layout2):
        # one share alone reveals nothing about the secret: for
        # |alpha| = |beta| each qudit's reduced state is I/2 on its support
        spec = GhzSpec(alpha=1 / SQRT2, beta=1j / SQRT2, n=2)
        final = make_oracle_state(layout2, spec, "final")
        first = partial_trace(final, ["q1p"])
        assert np.max(np.abs(first - np.diag([0.5, 0.0, 0.5]))) < 1e-12
        spectator = partial_trace(final, ["q2p"])
        assert np.max(np.abs(spectator - np.diag([0.5, 0.5, 0.0]))) < 1e-12

    def test_two_shares_read_out_the_secret(self, layout2):
        # applying the decoding pulse to the spectator share and undoing
        # the +/- encoding turns the pair back into a perfect GHZ ket
        spec = GhzSpec(alpha=0.6, beta=0.8, n=2)
        final = make_oracle_state(layout2, spec, "final")
        pair = partial_trace(final, ["q1p", "q2p"])
        u = logical_encode_pulse()
        decoded = np.kron(np.eye(3), u.conj().T) @ pair @ np.kron(np.eye(3), u)
        ghz = np.zeros(9, dtype=complex)
        ghz[0] = spec.alpha  # |g g>
        ghz[8] = spec.beta  # |f f>
        assert np.max(np.abs(decoded - np.outer(ghz, ghz.conj()))) < 1e-12


class TestHelpers:
    def test_occupation_probability_values(self):
        mu = 1.0
        assert occupation_probability(mu, 10 * mu) == pytest.approx(4 / 104, rel=1e-15)
        assert occupation_probability(mu, 2 * mu) == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(ValueError):
            occupation_probability(0.0, 1.0)
        with pytest.raises(ValueError):
            occupation_probability(1.0, -2.0)

    def test_spectator_f_total_counts_only_spectators(self, layout2):
        state = from_product(
            layout2, {"q1": (0, 0, 1), "q2": (0, 0, 1), "q2p": (0, 0, 1)}
        )
        # q1 is a share qudit, not a spectator, so only q2 and q2p count
        assert _spectator_f_total(state) == pytest.approx(2.0, abs=1e-12)

    def test_spectator_f_total_on_oracle(self, layout2):
        # the written-down checkpoints keep spectators inside the g/e
        # plane, so their f population is identically zero
        spec = GhzSpec(alpha=0.6, beta=0.8, n=2)
        for name in STAGE_CHECKPOINTS:
            state = make_oracle_state(layout2, spec, name)
            assert _spectator_f_total(state) < 1e-14

    def test_encode_pulse_is_unitary(self):
        u = logical_encode_pulse()
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-15

    def test_encode_pulse_action(self):
        u = logical_encode_pulse()
        alpha, beta = 0.6, 0.8j
        share = np.array([alpha, 0.0, beta])
        plus = np.array([1, 1, 0]) / SQRT2
        minus = np.array([1, -1, 0]) / SQRT2
        assert np.max(np.abs(u @ share - (alpha * plus + beta * minus))) < 1e-15


class TestSpecs:
    def test_ghz_spec_validation(self):
        with pytest.raises(ValueError):
            GhzSpec(alpha=1.0, beta=1.0, n=2)
        with pytest.raises(ValueError):
            GhzSpec(alpha=1.0, beta=0.0, n=0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_ghz_spec_rejects_a_non_finite_norm(self, alpha):
        with pytest.raises(ValueError, match="must be 1"):
            GhzSpec(alpha=alpha, beta=1.0, n=1)

    def test_random_spec_properties(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            spec = random_ghz_spec(3, rng)
            assert spec.n == 3
            assert abs(abs(spec.alpha) ** 2 + abs(spec.beta) ** 2 - 1.0) < 1e-12
            assert spec.alpha.imag == 0.0 and spec.alpha.real >= 0.0

    def test_random_spec_deterministic(self):
        a = random_ghz_spec(2, np.random.default_rng(9))
        b = random_ghz_spec(2, np.random.default_rng(9))
        assert a == b
