"""Generator factories: matrix elements, symmetries, parameter files."""

from __future__ import annotations

import math
import tempfile
from dataclasses import fields, replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import yaml
from dispersive_effective_oracle import h_dispersive_effective
from dispersive_ode_oracle import drive_action, hamiltonian_at
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import basis_state, register, two_pi_mhz
from ghz_transfer import hamiltonians
from ghz_transfer.hamiltonians import (
    DispersiveGenerator,
    EffectiveRates,
    PhysicalParams,
    collapse_operators,
    h_dispersive_reduced,
    h_resonant_ef,
    h_resonant_ge,
    load_params,
    load_preset,
    schema_fields,
)
from ghz_transfer.hilbert import (
    QuantumState,
    annihilation_op,
    build_layout,
    embed_operator,
    transition_op,
)
from ghz_transfer.units import TWO_PI

MU = two_pi_mhz(50.0)


def bare_params(**overrides) -> PhysicalParams:
    base = dict(
        mu1=MU, mu1_tilde=MU, mu1p=MU, mu1p_tilde=MU, muAL=MU, muAR=MU,
        mu=MU, mu_prime=MU, delta=10 * MU, delta_prime=10 * MU,
    )
    base.update(overrides)
    return PhysicalParams(**base)


@pytest.fixture(scope="module")
def layout11():
    return build_layout(1, 1)


@pytest.fixture(scope="module")
def layout22():
    return build_layout(2, 2, fock_cutoff_left=3, fock_cutoff_right=3)


class TestResonantFactories:
    def test_ef_matrix_element_single_photon(self, layout11):
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        src = basis_state(layout11, {"q1": "f"})
        dst = basis_state(layout11, {"q1": "e", "cavL": 1})
        amp = dst.overlap(h.apply(src))
        assert amp == pytest.approx(MU, rel=1e-15)

    def test_ef_bose_enhancement(self, layout11):
        # one photon already present: the emission element picks up sqrt(2)
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        src = basis_state(layout11, {"q1": "f", "cavL": 1})
        dst = basis_state(layout11, {"q1": "e", "cavL": 2})
        amp = dst.overlap(h.apply(src))
        assert amp == pytest.approx(math.sqrt(2) * MU, rel=1e-14)

    def test_ef_two_dim_block_squares_to_identity(self, layout11):
        # {|f,0>, |e,1>} is closed, so H^2 acts there as mu^2
        h = h_resonant_ef(layout11, "L", "q1", MU, register(layout11))
        src = basis_state(layout11, {"q1": "f"})
        twice = h.apply(h.apply(src))
        assert np.allclose(twice.amplitudes, MU**2 * src.amplitudes, rtol=1e-13)

    def test_ge_on_coupler_with_photon_present(self, layout11):
        h = h_resonant_ge(layout11, "L", "A", MU, register(layout11))
        src = basis_state(layout11, {"A": "e", "cavL": 1})
        dst = basis_state(layout11, {"A": "g", "cavL": 2})
        amp = dst.overlap(h.apply(src))
        assert amp == pytest.approx(math.sqrt(2) * MU, rel=1e-14)

    def test_ge_annihilates_global_ground(self, layout11):
        h = h_resonant_ge(layout11, "R", "A", MU, register(layout11))
        vac = basis_state(layout11, {})
        assert np.all(h.apply(vac).amplitudes == 0)

    def test_factories_are_hermitian_exactly(self, layout11):
        for h in (
            h_resonant_ef(layout11, "L", "q1", MU, register(layout11)),
            h_resonant_ge(layout11, "L", "A", MU, register(layout11)),
            h_resonant_ge(layout11, "R", "q1p", MU, register(layout11)),
        ):
            assert h.hermitian
            assert h.hermiticity_defect() == 0.0

    def test_coupler_has_no_f_transition(self, layout11):
        with pytest.raises(ValueError):
            h_resonant_ef(layout11, "L", "A", MU, register(layout11))

    def test_cross_register_drive_rejected(self, layout11):
        with pytest.raises(ValueError):
            h_resonant_ef(layout11, "R", "q1", MU, register(layout11))
        with pytest.raises(ValueError):
            h_resonant_ge(layout11, "L", "q1p", MU, register(layout11))

    def test_unknown_site_rejected(self, layout11):
        with pytest.raises(KeyError):
            h_resonant_ef(layout11, "L", "q7", MU, register(layout11))


class TestDispersiveGenerators:
    def test_needs_spectators(self, layout11):
        with pytest.raises(ValueError):
            DispersiveGenerator(layout11, bare_params(), register(layout11))
        with pytest.raises(ValueError):
            h_dispersive_reduced(layout11, bare_params(), register(layout11))

    def test_instant_hamiltonian_is_hermitian(self, layout22):
        h = hamiltonian_at(DispersiveGenerator(layout22, bare_params(), register(layout22)), 0.37 / (10 * MU))
        assert h.hermitian and h.hermiticity_defect() < 1e-12

    def test_vanishes_on_ground_spectators(self, layout22):
        gen = DispersiveGenerator(layout22, bare_params(), register(layout22))
        # q1 excited, photons present, spectators in g: nothing couples
        state = basis_state(layout22, {"q1": "f", "cavL": 2, "cavR": 1})
        apply = drive_action(gen)
        assert np.all(apply(0.0, state.amplitudes) == 0)
        assert np.all(apply(1e-9, state.amplitudes) == 0)

    def test_conserves_total_quanta(self, layout22):
        gen = DispersiveGenerator(layout22, bare_params(), register(layout22))
        quanta = np.zeros(layout22.dim)
        for site in layout22.site_names:
            quanta += layout22.level_index_array(site, register(layout22))
        rng = np.random.default_rng(42)
        psi = rng.normal(size=layout22.dim) + 1j * rng.normal(size=layout22.dim)
        psi /= np.linalg.norm(psi)
        for op in (hamiltonian_at(gen, 2.3e-10).matrix, gen.static_hamiltonian().matrix):
            defect = op @ (quanta * psi) - quanta * (op @ psi)
            assert np.max(np.abs(defect)) < 1e-6 * np.max(np.abs(op @ psi))

    def test_static_form_is_built_once(self, layout22):
        gen = DispersiveGenerator(layout22, bare_params(), register(layout22))
        assert gen.static_hamiltonian() is gen.static_hamiltonian()

    def test_interaction_picture_matches_frame_conjugation(self, layout22):
        params = bare_params()
        gen = DispersiveGenerator(layout22, params, register(layout22))
        g = gen.frame_diagonal()
        static = gen.static_hamiltonian().matrix
        offdiag = static - sp.diags(g).astype(complex)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=layout22.dim) + 1j * rng.normal(size=layout22.dim)
        t = 0.7 / params.delta
        via_frame = np.exp(1j * g * t) * (offdiag @ (np.exp(-1j * g * t) * psi))
        direct = drive_action(gen)(t, psi)
        assert np.max(np.abs(via_frame - direct)) < 1e-9 * np.max(np.abs(direct))

    def test_effective_equals_reduced_without_f_population(self):
        layout = build_layout(3, 3, fock_cutoff_left=3, fock_cutoff_right=3)
        params = bare_params()
        h_eff = h_dispersive_effective(layout, params)
        h_red = h_dispersive_reduced(layout, params, register(layout))
        rng = np.random.default_rng(8)
        psi = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        # project out every spectator f component
        for site in layout.left_spectators + layout.right_spectators:
            psi[layout.level_index_array(site, register(layout)) == 2] = 0.0
        psi /= np.linalg.norm(psi)
        state = QuantumState(psi, layout, basis=register(layout))
        out_eff = h_eff.apply(state).amplitudes
        out_red = h_red.apply(state).amplitudes
        scale = EffectiveRates.from_params(params).lam
        assert np.max(np.abs(out_eff - out_red)) < 1e-12 * scale

    def test_reduced_eigenvalues(self, layout22):
        params = bare_params()
        rates = EffectiveRates.from_params(params)
        h = h_dispersive_reduced(layout22, params, register(layout22))

        transfer_branch = basis_state(layout22, {"q1": "f", "cavL": 1})
        assert h.expectation(transfer_branch) == pytest.approx(0.0, abs=1e-30)

        left = basis_state(layout22, {"q2": "e", "cavL": 1})
        assert h.expectation(left) == pytest.approx(-rates.lam, rel=1e-14)

        right = basis_state(layout22, {"q2p": "e", "cavR": 2})
        assert h.expectation(right) == pytest.approx(-2 * rates.lam_prime, rel=1e-14)

    def test_effective_stark_shift_of_f(self, layout22):
        params = bare_params()
        rates = EffectiveRates.from_params(params)
        h = h_dispersive_effective(layout22, params)
        state = basis_state(layout22, {"q2": "f"})
        # f level with zero photons: a a_dag contributes n + 1 = 1
        assert h.expectation(state) == pytest.approx(rates.lam, rel=1e-14)

    def test_effective_dipole_exchange_element(self):
        layout = build_layout(3, 2, fock_cutoff_left=3, fock_cutoff_right=3)
        params = bare_params()
        rates = EffectiveRates.from_params(params)
        h = h_dispersive_effective(layout, params)
        src = basis_state(layout, {"q2": "f", "q3": "e"})
        dst = basis_state(layout, {"q2": "e", "q3": "f"})
        assert dst.overlap(h.apply(src)) == pytest.approx(rates.lam, rel=1e-14)

    def test_effective_has_no_photon_exchange(self, layout22):
        params = bare_params()
        h = h_dispersive_effective(layout22, params)
        src = basis_state(layout22, {"q2": "f"})
        dst = basis_state(layout22, {"q2": "e", "cavL": 1})
        assert dst.overlap(h.apply(src)) == 0


ALL_CHANNELS = dict(
    t1=20e-6, t2=25e-6, t1f=15e-6, t2f=12e-6, coupler_t1=10e-6, coupler_t2=8e-6,
    kappaL=1.0e5, kappaR=2.0e5,
)


def _single_site_products(layout, params) -> dict:
    """Every builder's matrix formed as products of single-site embeddings.

    This is how the builders used to work: each factor lifted to the whole
    register on its own, then the register-sized matrices multiplied and
    summed in the order the builder sums its terms.
    """
    def site(name, to_level, from_level):
        local = transition_op(layout.site_dim(name), to_level, from_level)
        return embed_operator(layout, {name: local}, register(layout)).matrix

    lowering = {c: annihilation_op(layout.site_dim("cav" + c)) for c in "LR"}
    a = {c: embed_operator(layout, {"cav" + c: lowering[c]}, register(layout)).matrix for c in "LR"}
    adag = {c: embed_operator(layout, {"cav" + c: lowering[c].conj().T}, register(layout)).matrix for c in "LR"}
    spectators = {"L": layout.left_spectators, "R": layout.right_spectators}
    out = {}
    for cavity, qudits in (("L", layout.left_qudits), ("R", layout.right_qudits)):
        for q in qudits + ("A",):
            half = MU * (adag[cavity] @ site(q, "g", "e"))
            out[f"ge {cavity} {q}"] = half + half.getH()
            if q != "A":
                half = MU * (adag[cavity] @ site(q, "e", "f"))
                out[f"ef {cavity} {q}"] = half + half.getH()

    rates = EffectiveRates.from_params(params)
    lam = {"L": rates.lam, "R": rates.lam_prime}
    drive = {
        c: coupling * (a[c] @ sum(site(s, "f", "e") for s in spectators[c]))
        for c, coupling in (("L", params.mu), ("R", params.mu_prime))
    }
    static = sp.diags(DispersiveGenerator(layout, params, register(layout)).frame_diagonal()).astype(complex)
    out["static"] = static + drive["L"] + drive["L"].getH() + drive["R"] + drive["R"].getH()

    terms = []
    for c in "LR":
        for s in spectators[c]:
            stark = site(s, "f", "f") @ (a[c] @ adag[c]) - site(s, "e", "e") @ (adag[c] @ a[c])
            terms.append(lam[c] * stark)
        for sl in spectators[c]:
            terms += [lam[c] * (site(sl, "f", "e") @ site(sk, "e", "f")) for sk in spectators[c] if sk != sl]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    out["effective"] = total

    gamma, gamma_f = 1 / params.t1, 1 / params.t1f
    phi, phi_f = 1 / params.t2 - gamma / 2, 1 / params.t2f - gamma_f / 2
    collapse = []
    for q in layout.left_qudits + layout.right_qudits:
        collapse += [
            math.sqrt(gamma) * site(q, "g", "e"), math.sqrt(gamma_f) * site(q, "e", "f"),
            math.sqrt(2 * phi) * site(q, "e", "e"), math.sqrt(2 * phi_f) * site(q, "f", "f"),
        ]
    gamma_c = 1 / params.coupler_t1
    phi_c = 1 / params.coupler_t2 - gamma_c / 2
    collapse += [math.sqrt(gamma_c) * site("A", "g", "e"), math.sqrt(2 * phi_c) * site("A", "e", "e")]
    collapse += [math.sqrt(params.kappaL) * a["L"], math.sqrt(params.kappaR) * a["R"]]
    out.update({f"collapse {i}": op for i, op in enumerate(collapse)})
    return out


class TestLocalFactorConstruction:
    """Each builder equals the register-sized products it replaced, array for array."""

    @pytest.mark.parametrize("n, cutoff", [(2, 3), (3, 4)])
    def test_builders_match_products_of_single_site_embeddings(self, n, cutoff):
        layout = build_layout(n, n, cutoff, cutoff)
        params = bare_params(**ALL_CHANNELS)
        built = {}
        for cavity, qudits in (("L", layout.left_qudits), ("R", layout.right_qudits)):
            for q in qudits + ("A",):
                built[f"ge {cavity} {q}"] = h_resonant_ge(layout, cavity, q, MU, register(layout))
                if q != "A":
                    built[f"ef {cavity} {q}"] = h_resonant_ef(layout, cavity, q, MU, register(layout))
        built["static"] = DispersiveGenerator(layout, params, register(layout)).static_hamiltonian()
        built["effective"] = h_dispersive_effective(layout, params)
        collapse = collapse_operators(layout, params, register(layout))
        assert len(collapse) == 4 * 2 * n + 2 + 2
        built.update({f"collapse {i}": op for i, op in enumerate(collapse)})

        reference = _single_site_products(layout, params)
        assert built.keys() == reference.keys()
        differ = []
        for name, op in built.items():
            got, want = op.matrix.tocsr(copy=True), reference[name].tocsr(copy=True)
            got.sort_indices()
            want.sort_indices()
            if not all(
                np.array_equal(x, y) and x.dtype == y.dtype
                for x, y in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr))
            ):
                differ.append(name)
        assert differ == []


class TestHermitianByConstruction:
    """The builders that skip the register-sized check are Hermitian bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_builder_has_zero_defect(self, n):
        layout = build_layout(n, n, 3, 3)
        params = bare_params(**ALL_CHANNELS)
        built = {}
        for cavity, qudits in (("L", layout.left_qudits), ("R", layout.right_qudits)):
            for q in qudits + ("A",):
                built[f"ge {cavity} {q}"] = h_resonant_ge(layout, cavity, q, MU, register(layout))
                if q != "A":
                    built[f"ef {cavity} {q}"] = h_resonant_ef(layout, cavity, q, MU, register(layout))
        if n >= 2:  # the dispersive stage needs spectators
            built["static"] = DispersiveGenerator(layout, params, register(layout)).static_hamiltonian()
            built["reduced"] = h_dispersive_reduced(layout, params, register(layout))
        dephasing = [op for op in collapse_operators(layout, params, register(layout)) if op.hermitian]
        assert len(dephasing) == 2 * 2 * n + 1  # two per qudit, one on the coupler
        built.update({f"dephasing {i}": op for i, op in enumerate(dephasing)})
        defects = {name: op.hermiticity_defect() for name, op in built.items() if op.hermitian}
        assert defects.keys() == built.keys()
        assert set(defects.values()) == {0.0}


class TestEffectiveRates:
    def test_values_and_bitwise_recompute(self):
        params = bare_params(delta=20 * MU, delta_prime=40 * MU)
        rates = EffectiveRates.from_params(params)
        assert rates.lam == MU**2 / (20 * MU)
        assert rates.lam_prime == MU**2 / (40 * MU)
        again = EffectiveRates.from_params(params)
        assert (rates.lam, rates.lam_prime) == (again.lam, again.lam_prime)


class TestPhysicalParams:
    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            bare_params(mu1=0.0)
        with pytest.raises(ValueError):
            bare_params(delta=-1.0)

    @pytest.mark.parametrize("name", [f.name for f in fields(PhysicalParams)])
    def test_rejects_nan_in_every_field(self, name):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            bare_params(**{name: math.nan})

    @pytest.mark.parametrize("name", [
        "mu1", "mu1_tilde", "mu1p", "mu1p_tilde", "muAL", "muAR", "mu", "mu_prime",
        "delta", "delta_prime", "tauA", "tau1", "tau1p", "tauq", "tauqp", "kappaL", "kappaR",
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rejects_infinite_rates_and_ramps(self, name, sign):
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            bare_params(**{name: sign * math.inf})

    @pytest.mark.parametrize("name", ["t1", "t2", "t1f", "t2f", "coupler_t1", "coupler_t2"])
    def test_infinite_coherence_time_is_no_channel(self, name, layout11):
        assert collapse_operators(layout11, bare_params(**{name: math.inf}), register(layout11)) == []

    def test_warns_when_detuning_marginal(self):
        with pytest.warns(UserWarning):
            bare_params(delta=3 * MU)

    def test_comfortable_detuning_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bare_params()


class TestCollapseOperators:
    def test_channel_census_for_preset(self, layout11):
        params = load_preset("transmon")
        ops = collapse_operators(layout11, params, register(layout11))
        # per qudit: g<-e, e<-f, e dephasing (f dephasing drops out since
        # 1/T2f = 1/(2 T1f) exactly); coupler: relaxation + dephasing;
        # one photon-loss channel per cavity
        assert len(ops) == 2 * 3 + 2 + 2

    def test_t2_at_relaxation_limit_has_no_dephasing(self, layout11):
        params = bare_params(t1=20e-6, t2=40e-6)
        ops = collapse_operators(layout11, params, register(layout11))
        assert len(ops) == 2  # one relaxation channel per qudit

    def test_t2_beyond_limit_rejected(self, layout11):
        params = bare_params(t1=20e-6, t2=41e-6)
        with pytest.raises(ValueError):
            collapse_operators(layout11, params, register(layout11))

    def test_relaxation_amplitude(self, layout11):
        params = bare_params(t1=20e-6)
        op = collapse_operators(layout11, params, register(layout11))[0]
        src = basis_state(layout11, {"q1": "e"})
        dst = basis_state(layout11, {})
        assert dst.overlap(op.apply(src)) == pytest.approx(math.sqrt(1 / 20e-6), rel=1e-15)

    def test_photon_loss_amplitude(self, layout11):
        params = bare_params(kappaL=2.0e5)
        (op,) = collapse_operators(layout11, params, register(layout11))
        src = basis_state(layout11, {"cavL": 2})
        dst = basis_state(layout11, {"cavL": 1})
        assert dst.overlap(op.apply(src)) == pytest.approx(math.sqrt(2 * 2.0e5), rel=1e-15)

    def test_no_channels_for_ideal_hardware(self, layout11):
        assert collapse_operators(layout11, bare_params(), register(layout11)) == []


def _preset_text() -> str:
    return files("ghz_transfer").joinpath("presets/transmon.yaml").read_text(encoding="utf-8")


def _write_si(params: PhysicalParams, path: Path) -> None:
    """Write ``params`` as a parameter file of plain SI numbers under their schema keys.

    A photon-loss rate goes in as the lifetime 1/kappa (a lossless cavity as .inf),
    as the file format holds it; an unset field is left out.
    """
    payload: dict[str, dict[str, float]] = {}
    for block, entries in hamiltonians.PARAM_SCHEMA.items():
        for key, field in entries.items():
            value = getattr(params, field)
            if field in ("kappaL", "kappaR") and value is not None:
                value = 1.0 / value if value else math.inf
            if value is not None:
                payload.setdefault(block, {})[key] = float(value)
    path.write_text(yaml.safe_dump(payload, sort_keys=True), encoding="utf-8")


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def valid_params(draw) -> PhysicalParams:
    """Any ``PhysicalParams`` the constructor accepts, with finite fields.

    A nonzero photon-loss rate stays in [1e-300, 1e300], so its lifetime
    1/kappa is a normal float rather than an overflow or a subnormal.
    """
    rate = st.none() | st.just(0.0) | st.floats(min_value=1e-300, max_value=1e300)
    return PhysicalParams(
        **{name: draw(_positive) for name in (
            "mu1", "mu1_tilde", "mu1p", "mu1p_tilde", "muAL", "muAR",
            "mu", "mu_prime", "delta", "delta_prime",
        )},
        **{name: draw(st.floats(min_value=0.0, allow_infinity=False))
           for name in ("tauA", "tau1", "tau1p", "tauq", "tauqp")},
        **{name: draw(st.none() | _positive)
           for name in ("t1", "t2", "t1f", "t2f", "coupler_t1", "coupler_t2")},
        kappaL=draw(rate),
        kappaR=draw(rate),
    )


def _typed(value):
    """A parsed YAML value with the type of every leaf beside it."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    return (type(value), value)


class TestParameterFiles:
    def test_schema_names_every_field_once(self):
        named = schema_fields()
        assert len(named) == len(set(named))
        assert set(named) == {f.name for f in fields(PhysicalParams)}

    def test_infinite_coherence_time_in_a_file_is_no_channel(self, tmp_path):
        path = tmp_path / "params.yaml"
        path.write_text(_preset_text().replace("  t1:", "  t1: .inf #"))
        params = load_params(path)
        assert params.t1 == math.inf
        assert params.t1f == 10e-6

    def test_plain_number_strings_are_si(self, tmp_path):
        # YAML 1.1 reads 3e-9 (no dot) as a string, not a float
        couplings = ", ".join(f"{name}: 2pi*50 MHz" for name in schema_fields("couplings"))
        path = tmp_path / "params.yaml"
        path.write_text(
            f"couplings: {{{couplings}}}\n"
            "detunings: {delta: '6.2e9', delta_prime: 6.2e+9}\n"
            "ramps: {tau1: 3e-9}\n"
        )
        params = load_params(path)
        assert params.tau1 == 3e-9
        assert params.delta == params.delta_prime == 6.2e9

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_libyaml_reads_what_the_python_parser_reads(self):
        preset = _preset_text()
        fixture = "ramps: {tau1: 3e-9, tauA: 3.0e-9}\ndecoherence:\n  t1: .inf\n  cavity_q: 300000\n"
        for text in (preset, fixture):
            fast = yaml.load(text, Loader=yaml.CSafeLoader)
            slow = yaml.load(text, Loader=yaml.SafeLoader)
            assert _typed(fast) == _typed(slow)
        # YAML 1.1 needs a dot in a float: 3e-9 stays a string in both
        assert yaml.load(fixture, Loader=yaml.CSafeLoader)["ramps"] == {"tau1": "3e-9", "tauA": 3e-9}
        assert hamiltonians._YAML_LOADER is yaml.CSafeLoader

    def test_preset_values(self):
        params = load_preset("transmon")
        assert params.mu1_tilde == two_pi_mhz(50.0)
        assert params.muAL == two_pi_mhz(50.0)
        assert params.mu == two_pi_mhz(50.0 * math.sqrt(2))
        assert params.mu1 == params.mu
        assert params.delta == pytest.approx(10 * params.mu, rel=1e-15)
        assert params.tauA == 3e-9 and params.tauqp == 3e-9
        assert params.t1 == 20e-6 and params.t1f == 10e-6 and params.t2f == 20e-6
        assert params.kappaL == TWO_PI * 9.293 * 1e9 / 300000
        assert params.kappaR == params.kappaL

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            load_preset("nonexistent")

    def test_round_trip(self, tmp_path):
        params = load_preset("transmon").with_overrides(delta=17 * MU, t2=13e-6)
        path = tmp_path / "params.yaml"
        _write_si(params, path)
        again = load_params(path)
        assert again == params

    @pytest.mark.filterwarnings("ignore:.*dispersive treatment is marginal")
    @settings(max_examples=200, deadline=None)
    @given(params=valid_params())
    def test_round_trip_of_any_valid_params(self, params):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "params.yaml"
            _write_si(params, path)
            again = load_params(path)
        # the file holds the lifetime 1/kappa, and 1/(1/kappa) can land
        # one ulp off kappa (49.0 comes back as 49.00000000000001)
        for name in ("kappaL", "kappaR"):
            want, got = getattr(params, name), getattr(again, name)
            if want is None or want == 0.0:
                assert got == want and type(got) is type(want), name
            else:
                assert abs(got - want) <= math.ulp(want), name
        assert again == replace(params, kappaL=again.kappaL, kappaR=again.kappaR)

    def test_zero_photon_loss_is_an_infinite_lifetime(self, tmp_path):
        path = tmp_path / "params.yaml"
        path.write_text(_preset_text() + "  cavity_lifetime_L: .inf\n")  # overrides cavity_q
        params = load_params(path)
        assert params.kappaL == 0.0 and params.kappaR == load_preset("transmon").kappaR

    @pytest.mark.parametrize("lifetime", ["0.0", "-1.0e-06", ".nan"])
    def test_nonpositive_lifetime_rejected(self, tmp_path, lifetime):
        path = tmp_path / "params.yaml"
        path.write_text(_preset_text() + f"  cavity_lifetime_L: {lifetime}\n")
        with pytest.raises(ValueError, match="cavity_lifetime_L must be positive"):
            load_params(path)

    def test_missing_coupling_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("couplings: {mu1: 2pi*50 MHz}\ndetunings: {}\n")
        with pytest.raises(ValueError):
            load_params(path)

    def test_unknown_decoherence_key_rejected(self, tmp_path):
        path = tmp_path / "params.yaml"
        path.write_text(_preset_text().replace("t1:", "t1_misspelled:"))
        with pytest.raises(ValueError):
            load_params(path)
