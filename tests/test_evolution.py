"""Evolution engines against closed-form dynamics and cross-route checks."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import dispersive_ode_oracle
from helpers import basis_index, basis_state, from_product, on_register, register, sampled_states, two_pi_mhz
from ghz_transfer import evolution, runner
from ghz_transfer.evolution import (
    Dissipator,
    NEGATIVE_WEIGHT_LIMIT,
    EvolutionError,
    Propagator,
    checkpoint_fidelity,
    evolve_unitary,
    krylov_expm_action,
    lindblad_propagate,
)
from ghz_transfer.hamiltonians import (
    DispersiveGenerator,
    PhysicalParams,
    collapse_operators,
    h_resonant_ef,
    h_resonant_ge,
    load_preset,
)
from ghz_transfer.hilbert import (
    OperatorMatrix,
    QuantumState,
    build_layout,
)
from ghz_transfer.scheduling import build_schedule

MU = two_pi_mhz(50.0)


def dispersive_params(ratio: float = 10.0) -> PhysicalParams:
    return PhysicalParams(
        mu1=MU, mu1_tilde=MU, mu1p=MU, mu1p_tilde=MU, muAL=MU, muAR=MU,
        mu=MU, mu_prime=MU, delta=ratio * MU, delta_prime=ratio * MU,
    )


@pytest.fixture(scope="module")
def layout11():
    return build_layout(1, 1, fock_cutoff_left=3, fock_cutoff_right=3)


@pytest.fixture(scope="module")
def layout22():
    return build_layout(2, 2, fock_cutoff_left=3, fock_cutoff_right=3)


@pytest.fixture(scope="module")
def probe_state(layout22):
    # spectators partly excited with photons present on both sides, so
    # both Stark phases and residual exchange show up
    inv = math.sqrt(0.5)
    return from_product(
        layout22,
        {"q2": (inv, inv, 0), "q2p": (inv, inv, 0)},
        photons=(1, 1),
    )


class TestStaticRoutes:
    def test_zero_duration_is_identity(self, layout11):
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        src = basis_state(layout11, {"q1": "f"})
        out = evolve_unitary(src, h, 0.0).final
        assert checkpoint_fidelity(out, src) >= 1 - 1e-14
        assert np.array_equal(krylov_expm_action(h.matrix, src.amplitudes, 0.0), src.amplitudes)

    def test_half_pulse_lands_on_minus_i_photon(self, layout11):
        # the pair {|f,0>, |e,1>} sees a plain Rabi cycle, so a quarter
        # period maps |f,0> onto exactly -i |e,1>
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        src = basis_state(layout11, {"q1": "f"})
        dst = basis_state(layout11, {"q1": "e", "cavL": 1})
        out = evolve_unitary(src, h, math.pi / (2 * MU)).final
        amp = dst.overlap(out)
        assert abs(amp - (-1j)) < 1e-12

    def test_partial_rotation_matches_cosine(self, layout11):
        h = h_resonant_ge(layout11, "R", "A", MU, register(layout11))
        src = basis_state(layout11, {"A": "e"})
        t = math.pi / (4 * MU)
        out = evolve_unitary(src, h, t).final
        stay = src.overlap(out)
        assert abs(stay - math.cos(MU * t)) < 1e-12

    def test_krylov_agrees_with_eigh(self, layout11):
        # the exact route diagonalises each component; Lanczos is the reference
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        rng = np.random.default_rng(21)
        amps = rng.normal(size=layout11.dim) + 1j * rng.normal(size=layout11.dim)
        src = QuantumState(amps / np.linalg.norm(amps), layout11, basis=register(layout11))
        t = 3.7 / MU
        via_eigh = evolve_unitary(src, h, t).final
        via_krylov = krylov_expm_action(h.matrix, src.amplitudes, t)
        assert np.max(np.abs(on_register(via_eigh).amplitudes - via_krylov)) < 1e-10

    def test_composition(self, layout11):
        h = h_resonant_ge(layout11, "L", "A", MU, register(layout11))
        src = basis_state(layout11, {"A": "e", "cavL": 1})
        t1, t2 = 0.31 / MU, 0.77 / MU
        once = evolve_unitary(src, h, t1 + t2).final
        twice = evolve_unitary(evolve_unitary(src, h, t1).final, h, t2).final
        assert checkpoint_fidelity(twice, once) >= 1 - 1e-10

    def test_reversibility(self, layout11):
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        src = basis_state(layout11, {"q1": "f", "cavL": 1})
        forward = evolve_unitary(src, h, math.pi / (3 * MU)).final
        back = evolve_unitary(forward, h, -math.pi / (3 * MU)).final
        assert checkpoint_fidelity(back, src) >= 1 - 1e-10

    def test_long_krylov_run_conserves_norm(self):
        rng = np.random.default_rng(5)
        n = 300
        dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dense = (dense + dense.conj().T) / math.sqrt(n)
        mat = sp.csr_matrix(dense)
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec /= np.linalg.norm(vec)
        t = 200.0 / np.abs(dense).sum(axis=1).max()
        out = krylov_expm_action(mat, vec, t)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9
        evals, evecs = np.linalg.eigh(dense)
        exact = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ vec))
        assert np.max(np.abs(out - exact)) < 1e-8

    def test_krylov_survives_closure_dust(self, layout22):
        # a state dominated by a null-space component plus one closed Rabi
        # block, with roundoff-level dust everywhere else: the Krylov space
        # closes after three vectors and the leftover residual has magnitude
        # eps * ||H||, far above eps * ||state||. Normalizing that dust into
        # the basis wrecks orthogonality and once returned e^{-iHt} == 1
        # while the error estimate stayed silent.
        mu = MU
        h = h_resonant_ge(layout22, "R", "q1p", mu, register(layout22))
        idle = from_product(layout22, {}, photons=(0, 0))
        loaded = from_product(layout22, {}, photons=(0, 2))
        rng = np.random.default_rng(77)
        dust = rng.normal(size=layout22.dim) + 1j * rng.normal(size=layout22.dim)
        amps = 0.6 * idle.amplitudes + 0.8 * loaded.amplitudes + 1e-15 * dust
        whole = register(layout22)
        src = QuantumState(amps / np.linalg.norm(amps), layout22, basis=whole)
        t = math.pi / (2 * math.sqrt(2) * mu)
        target = from_product(layout22, {"q1p": (0, 1, 0)}, photons=(0, 1))
        expected = QuantumState(
            0.6 * idle.amplitudes + 0.8 * (-1j) * target.amplitudes, layout22, basis=whole
        )
        via_krylov = QuantumState(krylov_expm_action(h.matrix, src.amplitudes, t), layout22, basis=whole)
        assert checkpoint_fidelity(via_krylov, expected) >= 1 - 1e-10
        # the dust gives the exact route full support: every component runs
        exact = evolve_unitary(src, h, t)
        assert exact.final.basis.size == layout22.dim
        assert checkpoint_fidelity(exact.final, expected) >= 1 - 1e-10

    def test_samples_bracket_the_segment(self, layout11):
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        src = basis_state(layout11, {"q1": "f"})
        res = evolve_unitary(src, h, 1.0 / MU, samples=5)
        assert res.times[0] == 0.0 and res.times[-1] == 1.0 / MU
        assert checkpoint_fidelity(sampled_states(res)[0], src) >= 1 - 1e-13
        assert checkpoint_fidelity(sampled_states(res)[-1], res.final) >= 1 - 1e-13

    def test_weight_off_a_compiled_support_is_drift(self, layout11):
        # a step compiled from |f> alone holds only |f,0>'s Rabi pair; a state
        # with weight on |g> as well loses that weight and must not pass
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        excited = basis_state(layout11, {"q1": "f"})
        ground = basis_state(layout11, {})
        step = Propagator.compile(h, np.flatnonzero(excited.amplitudes))
        assert not np.isin(np.flatnonzero(ground.amplitudes), step.support).any()
        evolve_unitary(excited, step, 1.0 / MU)  # its own seed passes
        # on the register, and on a basis of its own
        both = np.flatnonzero(ground.amplitudes + excited.amplitudes)
        for mixed in (
            QuantumState(0.6 * ground.amplitudes + 0.8 * excited.amplitudes, layout11, basis=register(layout11)),
            QuantumState(0.6 * ground.amplitudes[both] + 0.8 * excited.amplitudes[both], layout11, basis=both),
        ):
            with pytest.raises(EvolutionError, match="norm drifted"):
                evolve_unitary(mixed, step, 1.0 / MU)

    def test_nan_amplitude_is_drift(self, layout11):
        # a NaN drift compares false against any limit; the check must still fail
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        amps = basis_state(layout11, {"q1": "f"}).amplitudes
        amps[basis_index(layout11, {})] = np.nan
        with pytest.raises(EvolutionError, match="norm drifted by nan"):
            evolve_unitary(QuantumState(amps, layout11, basis=register(layout11)), h, 1.0 / MU)

    def test_non_hermitian_generator_rejected(self, layout11):
        mat = sp.csr_matrix(([1.0 + 0j], ([0], [1])), shape=(layout11.dim, layout11.dim))
        bad = OperatorMatrix(mat, layout11, hermitian=False, basis=register(layout11))
        src = basis_state(layout11, {})
        with pytest.raises(EvolutionError):
            evolve_unitary(src, bad, 1e-9)


@st.composite
def block_problems(draw, dim=288):
    """A random block-diagonal Hermitian generator, permuted, and a state.

    Blocks hold up to ``max_block`` states with some couplings dropped, so
    a block may split further; the state sits on a random support, with
    1e-15 dust everywhere when ``dust`` is drawn.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_block = draw(st.integers(1, 6))
    zero = draw(st.booleans())
    dust = draw(st.booleans())
    support_size = draw(st.integers(1, 12))
    duration = draw(st.floats(-3.0, 3.0, allow_nan=False))
    dense = np.zeros((dim, dim), dtype=complex)
    order = rng.permutation(dim)
    start = 0
    while start < dim and not zero:
        block = order[start : start + int(rng.integers(1, max_block + 1))]
        start += block.size
        raw = rng.normal(size=(block.size,) * 2) + 1j * rng.normal(size=(block.size,) * 2)
        raw *= rng.random(raw.shape) < 0.7
        dense[np.ix_(block, block)] = (raw + raw.conj().T) / 2
    amps = np.zeros(dim, dtype=complex)
    picked = rng.choice(dim, size=support_size, replace=False)
    amps[picked] = rng.normal(size=support_size) + 1j * rng.normal(size=support_size)
    if dust:
        amps += 1e-15 * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return dense, amps / np.linalg.norm(amps), duration


class TestExactRoute:
    @settings(max_examples=40, deadline=None)
    @given(problem=block_problems())
    def test_matches_dense_expm(self, layout11, problem):
        dense, amps, duration = problem
        h = OperatorMatrix(sp.csr_matrix(dense), layout11, hermitian=True, basis=register(layout11))
        res = evolve_unitary(QuantumState(amps, layout11, basis=register(layout11)), h, duration, samples=3)
        half = expm(-0.5j * duration * dense)  # samples sit at 0, duration/2, duration
        exact = [amps, half @ amps, half @ (half @ amps), half @ (half @ amps)]
        for want, got in zip(exact, [*sampled_states(res), res.final]):
            assert np.max(np.abs(on_register(got).amplitudes - want)) < 1e-12
        # closure: the support holds the state and no element leaves it
        support = res.final.basis
        drop = np.setdiff1d(np.arange(layout11.dim), support)
        assert np.all(amps[drop] == 0) and np.all(on_register(res.final).amplitudes[drop] == 0)
        assert not np.any(dense[np.ix_(drop, support)])
        assert res.samples.shape == (3, support.size)


class TestDrivenStage:
    def test_frame_route_matches_literal_integration(self, layout22, probe_state):
        params = dispersive_params(10.0)
        gen = DispersiveGenerator(layout22, params, register(layout22))
        duration = 20.0 / params.delta
        exact = evolve_unitary(probe_state, gen, duration).final
        literal = dispersive_ode_oracle.integrate(probe_state, gen, duration, tolerance=1e-11)
        assert np.max(np.abs(on_register(exact).amplitudes - literal.amplitudes)) < 1e-7

    def test_ode_step_cap_is_enforced(self, layout22, probe_state):
        params = dispersive_params(10.0)
        gen = DispersiveGenerator(layout22, params, register(layout22))
        with pytest.raises(ValueError):
            dispersive_ode_oracle.integrate(probe_state, gen, 1e-9, max_step=1.0 / params.delta)

    def test_detuning_freeze_out(self, layout22):
        # at delta = 1e4 mu the spectators cannot trade population with the
        # photons at all: after a full phase period the state is unmoved up
        # to (mu/delta)^2 weights
        params = dispersive_params(1e4)
        gen = DispersiveGenerator(layout22, params, register(layout22))
        src = basis_state(layout22, {"q2": "e", "cavL": 1})
        t3 = math.pi * params.delta / params.mu**2
        out = evolve_unitary(src, gen, t3).final
        assert checkpoint_fidelity(out, src) >= 1 - 1e-6

    @pytest.mark.parametrize("driven", [True, False], ids=["frame", "static"])
    def test_apply_matches_the_unbuffered_formula_bitwise(self, layout22, probe_state, driven):
        params = dispersive_params(10.0)
        whole = register(layout22)
        gen = DispersiveGenerator(layout22, params, whole) if driven else h_resonant_ef(layout22, "L", "q1", MU, whole)
        step = Propagator.compile(gen, np.flatnonzero(probe_state.amplitudes))
        assert (step.frame is not None) == driven
        _assert_apply_is_the_unbuffered_formula(step, probe_state, np.linspace(0.0, 7.0 / params.delta, 23), 7.5 / params.delta)

    @pytest.mark.parametrize("samples", [0, 1, 300])
    @pytest.mark.parametrize("mode, label", [("full-dispersive", "step3"), ("ideal-reduced", "step2a")])
    def test_a_compiled_n3_step_matches_the_unbuffered_formula_bitwise(self, mode, label, samples):
        # a driven dispersive window and a sideband pulse, from a random state on the support the step starts from
        params = load_preset("transmon")
        layout, schedule = build_layout(3, 3, 4, 4), build_schedule(params, 3)
        compiled = runner._compiled(layout, tuple(schedule), params, mode)
        k = [seg.label for seg in schedule].index(label)
        step, seed = compiled.steps[k], compiled.steps[k - 1].support
        assert (step.frame is not None) == (mode == "full-dispersive")
        rng = np.random.default_rng(k)
        state = QuantumState(rng.normal(size=seed.size) + 1j * rng.normal(size=seed.size), layout, basis=seed)
        duration = schedule.segments[k].duration_s
        _assert_apply_is_the_unbuffered_formula(step, state, np.linspace(0.0, duration, samples), duration)


def _assert_apply_is_the_unbuffered_formula(step, state, times, duration):
    """``step.apply`` against a reference that forms every phase table as a fresh array, one exp per entry, and
    applies the frame to the whole grid."""
    got = step.apply(state, duration, times)
    grid = np.append(times, duration)
    initial = state.on(step.support)
    want = np.empty((grid.size, step.support.size), dtype=complex)
    for part, evecs in step.groups:
        evals = step.eigenvalues.values[step.eigenvalues.inverse[part]].reshape(evecs.shape[:2])
        coeff = np.einsum("kji,kj->ki", evecs.conj(), initial[part].reshape(evals.shape))
        phased = np.exp(-1j * evals * grid[:, None, None]) * coeff
        want[:, part] = np.einsum("kij,tkj->tki", evecs, phased).reshape(grid.size, -1)
    if step.frame is not None:
        want *= np.exp(1j * step.frame.values[step.frame.inverse] * grid[:, None])
    assert got.samples.tobytes() == want[:-1].tobytes()
    assert got.final.amplitudes.tobytes() == want[-1].tobytes()


def _pure_rho(state: QuantumState) -> np.ndarray:
    return np.outer(state.amplitudes, state.amplitudes.conj())


@st.composite
def patterns(draw):
    """A square sparse pattern: isolated nodes, self-loops, duplicate and stored zero entries, any size from 0."""
    size = draw(st.integers(0, 12))
    index = st.integers(0, max(size - 1, 0))
    edges = draw(st.lists(st.tuples(index, index), max_size=2 * size)) if size else []
    values = draw(st.lists(st.sampled_from([1.0, -2j, 0.0]), min_size=len(edges), max_size=len(edges)))
    rows, cols = (np.array(column, dtype=np.int64) for column in zip(*edges)) if edges else (np.empty(0, int),) * 2
    return sp.csr_matrix((np.array(values, dtype=complex), (rows, cols)), shape=(size, size))


class TestComponents:
    """``Propagator.compile``'s labelling against scipy's ``connected_components`` as the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(matrix=patterns())
    @example(matrix=sp.csr_matrix((0, 0), dtype=complex))
    @example(matrix=sp.csr_matrix((5, 5), dtype=complex))
    def test_partition_and_order_match_connected_components(self, matrix):
        from scipy.sparse.csgraph import connected_components

        _, want = connected_components(abs(matrix), directed=False)
        labels = evolution._components(matrix)
        # the same components, ranked the same way: by their smallest index
        assert np.array_equal(np.unique(labels, return_inverse=True)[1], want)
        assert all(labels[i] == np.flatnonzero(want == want[i])[0] for i in range(labels.size))

    def test_long_chain_is_one_component(self):
        # a path visited from both ends needs several hooking rounds
        order = np.random.default_rng(3).permutation(200)
        matrix = sp.csr_matrix((np.ones(199, dtype=complex), (order[:-1], order[1:])), shape=(200, 200))
        assert np.array_equal(evolution._components(matrix), np.zeros(200, dtype=int))


class TestLindblad:
    def test_zero_rates_reduce_to_unitary(self, layout11):
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        src = basis_state(layout11, {"q1": "f"})
        t = math.pi / (2 * MU)
        pure = evolve_unitary(src, h, t).final
        rho, _ = lindblad_propagate(h.matrix, Dissipator([], layout11.dim), _pure_rho(src), t)
        rho = OperatorMatrix(rho, layout11, hermitian=True, basis=register(layout11))
        assert abs(checkpoint_fidelity(rho, pure) - 1.0) < 1e-12

    def test_photon_decay_rate(self, layout11):
        kappa = 2.0e5
        params = dispersive_params().with_overrides(kappaL=kappa)
        ops = [op.matrix for op in collapse_operators(layout11, params, register(layout11))]
        assert len(ops) == 1
        rho0 = _pure_rho(basis_state(layout11, {"cavL": 2}))
        t = 0.5 / kappa
        rho, _ = lindblad_propagate(None, Dissipator(ops, layout11.dim), rho0, t)
        n_levels = layout11.levels(register(layout11))[layout11.factor_index("cavL")].astype(float)
        mean_photons = float(np.real(np.diag(rho)) @ n_levels)
        assert abs(mean_photons - 2.0 * math.exp(-kappa * t)) < 1e-6

    def test_relaxation_toward_ground(self, layout11):
        params = dispersive_params().with_overrides(t1=20e-6)
        ops = [op.matrix for op in collapse_operators(layout11, params, register(layout11))]
        src = basis_state(layout11, {"q1": "e"})
        t = 10e-6
        rho, _ = lindblad_propagate(None, Dissipator(ops, layout11.dim), _pure_rho(src), t)
        pop_e = OperatorMatrix(rho, layout11, hermitian=True, basis=register(layout11)).expectation(src)
        assert pop_e == pytest.approx(math.exp(-t / 20e-6), abs=1e-6)

    def test_trace_is_conserved(self, layout11):
        params = dispersive_params().with_overrides(t1=20e-6, t2=15e-6, kappaL=1e5)
        ops = [op.matrix for op in collapse_operators(layout11, params, register(layout11))]
        h = h_resonant_ge(layout11, "L", "A", MU, register(layout11))
        src = basis_state(layout11, {"A": "e"})
        rho, states = lindblad_propagate(
            h.matrix, Dissipator(ops, layout11.dim), _pure_rho(src), 50e-9, samples=3
        )
        assert abs(np.trace(rho).real - 1.0) < 1e-7
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert len(states) == 3

    def test_samples_match_separate_runs(self, layout11):
        params = dispersive_params().with_overrides(t1=20e-6, kappaL=1e5)
        ops = [op.matrix for op in collapse_operators(layout11, params, register(layout11))]
        h = h_resonant_ge(layout11, "L", "A", MU, register(layout11))
        rho0 = _pure_rho(basis_state(layout11, {"A": "e"}))
        t = 50e-9
        final, populations = lindblad_propagate(h.matrix, Dissipator(ops, layout11.dim), rho0, t, samples=3)
        half, _ = lindblad_propagate(h.matrix, Dissipator(ops, layout11.dim), rho0, t / 2)
        assert populations.shape == (3, layout11.dim) and populations.dtype == np.float64
        assert np.array_equal(populations[0], np.real(np.diag(rho0)))
        np.testing.assert_allclose(populations[1], np.real(np.diag(half)), atol=1e-12)
        assert np.array_equal(populations[2], np.real(np.diag(final)))

    def test_nan_diagonal_is_drift(self, layout11):
        params = dispersive_params().with_overrides(t1=20e-6, kappaL=1e5)
        ops = [op.matrix for op in collapse_operators(layout11, params, register(layout11))]
        rho0 = _pure_rho(basis_state(layout11, {"A": "e"}))
        rho0[0, 0] = np.nan
        with pytest.raises(EvolutionError, match="trace drifted by nan"):
            lindblad_propagate(None, Dissipator(ops, layout11.dim), rho0, 50e-9)

    @pytest.mark.parametrize("factor, warns", [(1 + 1e-3, True), (1 - 1e-3, False)])
    def test_positivity_is_decided_at_the_limit(self, monkeypatch, factor, warns):
        # with no channels and no H the step is the identity, so the final matrix
        # has the input's spectrum: its smallest eigenvalue is LIMIT * factor
        dim = 6
        rng = np.random.default_rng(5)
        unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        weights = np.array([NEGATIVE_WEIGHT_LIMIT * factor, 0.1, 0.15, 0.2, 0.25, 0.3])
        weights[1:] *= (1.0 - weights[0]) / weights[1:].sum()
        rho = (unitary * weights) @ unitary.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        smallest = float(np.linalg.eigvalsh(rho)[0])
        assert f"{smallest:.3e}" == f"{NEGATIVE_WEIGHT_LIMIT * factor:.3e}"
        spectra = []
        eigvalsh = np.linalg.eigvalsh

        def recording(mat):
            spectra.append(eigvalsh(mat))
            return spectra[-1]

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            final, _ = lindblad_propagate(None, Dissipator([], dim), rho, 1e-9)
        messages = [str(w.message) for w in caught]
        assert len(spectra) == warns  # eigvalsh runs only when the Cholesky test fails
        if warns:
            assert spectra[0][0] == smallest
            assert messages == [f"density matrix developed negative weight {smallest:.3e}"]
        else:
            assert messages == []

    @pytest.mark.parametrize("h_kind", ["ramp", "segment"])
    def test_final_does_not_depend_on_samples(self, layout11, h_kind):
        # one single-step exponential gives the final state at every sample
        # count, and a sampled grid ends on that very state
        params = dispersive_params().with_overrides(t1=20e-6, t2=15e-6, kappaL=1e5)
        ops = [op.matrix for op in collapse_operators(layout11, params, register(layout11))]
        h = None if h_kind == "ramp" else h_resonant_ge(layout11, "L", "A", MU, register(layout11)).matrix
        rho0 = _pure_rho(basis_state(layout11, {"A": "e", "cavL": 1}))
        dissipator = Dissipator(ops, layout11.dim)
        alone, _ = lindblad_propagate(h, dissipator, rho0, 50e-9)
        for samples in (0, 1, 2, 3, 5):
            final, populations = lindblad_propagate(h, dissipator, rho0, 50e-9, samples=samples)
            assert np.array_equal(final, alone)
            assert populations.shape == (samples, layout11.dim)
            if samples >= 2:
                assert np.array_equal(populations[-1], np.real(np.diag(final)))

    @pytest.mark.parametrize("h_kind", ["ramp", "segment"])
    def test_zero_duration_returns_the_input(self, layout11, h_kind):
        # the general step at t = 0 has shift 0 and plan (0, 1): rho0's coordinates come
        # back bit for bit, at every sample count, and every grid point is rho0
        params = dispersive_params().with_overrides(t1=20e-6, t2=15e-6, kappaL=1e5)
        ops = [op.matrix for op in collapse_operators(layout11, params, register(layout11))]
        h = None if h_kind == "ramp" else h_resonant_ge(layout11, "L", "A", MU, register(layout11)).matrix
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(layout11.dim, 4)) + 1j * rng.normal(size=(layout11.dim, 4))
        rho0 = raw @ raw.conj().T
        rho0 /= np.trace(rho0).real
        want = evolution._density(evolution._coordinates(rho0), layout11.dim)
        dissipator = Dissipator(ops, layout11.dim)
        for samples in range(6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                final, populations = lindblad_propagate(h, dissipator, rho0, 0.0, samples=samples)
            assert final.tobytes() == want.tobytes()
            assert populations.shape == (samples, layout11.dim)
            for row in populations:
                assert row.tobytes() == np.real(np.diag(want)).tobytes()
