import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import basis_index, basis_state, from_product, kron_chain, register
from ghz_transfer.hilbert import (
    OperatorMatrix,
    QuantumState,
    SystemLayout,
    annihilation_op,
    build_layout,
    embed_operator,
    level_ket,
    partial_trace,
    transition_op,
    _places,
)

PLUS = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1, 0], dtype=complex) / np.sqrt(2)


class TestLayout:
    def test_minimal_dim(self):
        assert build_layout(1, 1, 3, 3).dim == 288

    def test_default_cutoff_dim(self):
        assert build_layout(3, 3).dim == 36450

    def test_site_names_order(self):
        layout = build_layout(2, 2, 3, 3)
        assert layout.site_names == ("q1", "q2", "A", "q1p", "q2p", "cavL", "cavR")
        assert layout.left_spectators == ("q2",)
        assert layout.right_spectators == ("q2p",)

    @pytest.mark.parametrize("bad", [(0, 1), (1, 0)])
    def test_rejects_empty_cavity(self, bad):
        with pytest.raises(ValueError):
            build_layout(*bad)

    @pytest.mark.parametrize("cut", [0, 1, 2])
    def test_rejects_low_cutoff(self, cut):
        with pytest.raises(ValueError):
            build_layout(1, 1, cut, 3)

    def test_basis_round_trip_exhaustive_n2(self):
        layout = build_layout(2, 2, 3, 3)
        for index in range(layout.dim):
            labels = dict(zip(layout.site_names, np.unravel_index(index, layout.factor_dims)))
            assert basis_index(layout, labels) == index

    def test_basis_index_symbolic_levels(self):
        layout = build_layout(1, 1, 3, 3)
        by_name = basis_index(layout, {"q1": "f", "cavL": 2})
        by_number = basis_index(layout, {"q1": 2, "cavL": 2})
        assert by_name == by_number

    def test_first_factor_is_slowest(self):
        # index 0 is all-ground; flipping q1 jumps by the product of all
        # later factor dims, flipping cavR by 1.
        layout = build_layout(1, 1, 3, 3)
        assert basis_index(layout, {"cavR": 1}) == 1
        assert basis_index(layout, {"q1": 1}) == layout.dim // 3

    @settings(max_examples=60, deadline=None)
    @given(
        sides=st.tuples(*[st.integers(1, 4)] * 2, *[st.integers(3, 300)] * 2),
        draws=st.lists(st.integers(0, 2**62), max_size=20),
    )
    @example(sides=(1, 2, 3, 4), draws=[0, 17, 287])
    @example(sides=(4, 4, 255, 256), draws=[-1])
    def test_levels_match_unravel_index(self, sides, draws):
        layout = build_layout(*sides)
        indices = np.array([draw % layout.dim for draw in draws], dtype=np.int64)  # -1: the last index
        levels = layout.levels(indices)
        assert levels.dtype == (np.uint16 if max(sides[2:]) >= 256 else np.uint8)
        assert np.array_equal(levels, np.unravel_index(indices, layout.factor_dims))


class TestPlaces:
    """``_places`` against a dict from each key to its place."""

    @settings(max_examples=100, deadline=None)
    @given(keys=st.sets(st.integers(-50, 50)), queries=st.lists(st.integers(-80, 80), max_size=30))
    @example(keys=set(), queries=[])
    @example(keys=set(), queries=[0, 5, -1])
    @example(keys={3, 7}, queries=[])
    @example(keys={3, 7}, queries=[-100, 2, 3, 5, 7, 8, 100])
    def test_matches_a_dict(self, keys, queries):
        keys, queries = np.array(sorted(keys), dtype=np.int64), np.array(queries, dtype=np.int64)
        where = {int(key): i for i, key in enumerate(keys)}
        place, found = _places(keys, queries)
        assert place.shape == found.shape == queries.shape
        assert found.tolist() == [int(q) in where for q in queries]
        assert place[found].tolist() == [where[int(q)] for q in queries if int(q) in where]


class TestEmbedding:
    def test_homomorphism_random_pairs(self):
        # embed(A B) == embed(A) embed(B) for same-site locals
        layout = build_layout(2, 1, 3, 3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            whole = register(layout)
            lhs = embed_operator(layout, {"q2": a @ b}, whole)
            rhs = embed_operator(layout, {"q2": a}, whole).matrix @ embed_operator(layout, {"q2": b}, whole).matrix
            defect = lhs.matrix - rhs
            assert abs(defect).max() < 1e-12

    def test_disjoint_sites_commute(self):
        layout = build_layout(2, 2, 3, 3)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ea = embed_operator(layout, {"q1p": a}, register(layout)).matrix
        eb = embed_operator(layout, {"A": b}, register(layout)).matrix
        comm = ea @ eb - eb @ ea
        assert abs(comm).max() < 1e-12 if comm.nnz else True

    def test_identity_embeds_to_identity(self):
        layout = build_layout(1, 1, 3, 3)
        op = embed_operator(layout, {"A": np.eye(2)}, register(layout))
        assert abs(op.matrix - np.eye(layout.dim)).max() < 1e-15

    def test_rejects_wrong_local_dim(self):
        layout = build_layout(1, 1, 3, 3)
        with pytest.raises(ValueError):
            embed_operator(layout, {"A": np.eye(3)}, register(layout))


class TestProductEmbedding:
    def test_product_of_sites_equals_product_of_single_site_embeddings(self):
        # one kron chain over q1, q2p and cavL equals the register-sized product
        layout = build_layout(2, 2, 3, 3)
        rng = np.random.default_rng(13)
        locals_ = {
            "q1": rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
            "q2p": rng.normal(size=(3, 3)),
            "cavL": annihilation_op(4),
        }
        got = embed_operator(layout, locals_, register(layout)).matrix
        want = embed_operator(layout, {"q1": locals_["q1"]}, register(layout)).matrix
        want = want @ embed_operator(layout, {"q2p": locals_["q2p"]}, register(layout)).matrix
        want = want @ embed_operator(layout, {"cavL": locals_["cavL"]}, register(layout)).matrix
        assert abs(got - want).max() < 1e-12
        assert got.has_sorted_indices

    def test_hermitian_claim_follows_the_factors(self):
        layout = build_layout(2, 1, 3, 3)
        number = annihilation_op(4).conj().T @ annihilation_op(4)
        whole = register(layout)
        assert embed_operator(layout, {"q2": transition_op(3, "e", "e"), "cavR": number}, whole).hermitian
        assert not embed_operator(layout, {"q2": transition_op(3, "e", "f"), "cavR": number}, whole).hermitian

    def test_a_factor_hermitian_only_to_rounding_claims_nothing(self):
        # the claim skips the register-sized check, so it needs exactly Hermitian factors
        layout = build_layout(1, 1, 3, 3)
        near = np.array([[0.0, 0.1], [np.nextafter(0.1, 1.0), 0.0]])
        assert not embed_operator(layout, {"A": near}, register(layout)).hermitian

    def test_no_factors_is_the_identity(self):
        layout = build_layout(1, 1, 3, 3)
        op = embed_operator(layout, {}, register(layout))
        assert (op.matrix != sp.identity(layout.dim)).nnz == 0 and op.hermitian

    def test_rejects_unknown_site_and_wrong_dim(self):
        layout = build_layout(1, 1, 3, 3)
        with pytest.raises(KeyError):
            embed_operator(layout, {"q2": np.eye(3)}, register(layout))
        with pytest.raises(ValueError):
            embed_operator(layout, {"cavL": np.eye(5)}, register(layout))


class TestOnePassEmbedding:
    """``embed_operator`` stores exactly the arrays of the ``kron`` chain it replaces."""

    @staticmethod
    def assert_same_arrays(layout, factors):
        got, want = embed_operator(layout, factors, register(layout)).matrix, kron_chain(layout, factors)
        for key in ("data", "indices", "indptr"):
            x, y = getattr(got, key), getattr(want, key)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), key
        assert got.has_sorted_indices
        assert np.all(got.data != 0)

    @pytest.mark.parametrize("n, cutoff", [(2, 3), (3, 4)])
    def test_every_subset_of_up_to_three_sites(self, n, cutoff):
        layout = build_layout(n, n, cutoff, cutoff)
        rng = np.random.default_rng(n)
        subsets = [(site,) for site in layout.site_names]
        subsets += list(itertools.combinations(layout.site_names, 2))
        subsets += list(itertools.combinations(layout.site_names, 3))
        for sites in subsets:
            factors = {}
            for site in sites:
                d = layout.site_dim(site)
                local = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                local[rng.random((d, d)) > 1.5 / d] = 0  # about one entry per row
                factors[site] = local
            self.assert_same_arrays(layout, factors)

    def test_empty_mapping_and_explicit_zeros(self):
        layout = build_layout(2, 2, 3, 3)
        self.assert_same_arrays(layout, {})
        # signed zeros that multiplying by an identity's 1.0 flips must come out as the chain's
        with_zeros = np.array([
            [0.0, -0.0, 2.0],
            [complex(-0.0, -1.0), 1.5 - 0.5j, 0.0],
            [complex(-0.0, 1.0), complex(-2.0, -0.0), 0.0],
        ])
        self.assert_same_arrays(layout, {"q1": with_zeros})  # first factor, identities after it
        self.assert_same_arrays(layout, {"q2": with_zeros, "cavR": annihilation_op(4)})
        self.assert_same_arrays(layout, {"A": np.zeros((2, 2)), "q1p": with_zeros})


def _mode_pair(layout, site):
    """The annihilation and creation operators of the mode ``site`` on the register."""
    lowering = annihilation_op(layout.site_dim(site))
    whole = register(layout)
    return embed_operator(layout, {site: lowering}, whole), embed_operator(layout, {site: lowering.conj().T}, whole)


class TestModeOperators:
    def test_creation_is_exact_dagger(self):
        layout = build_layout(1, 1, 3, 4)
        for site in ("cavL", "cavR"):
            a, adag = _mode_pair(layout, site)
            assert (a.matrix.getH() != adag.matrix).nnz == 0

    def test_matrix_elements(self):
        layout = build_layout(1, 1, 3, 3)
        a, _ = _mode_pair(layout, "cavL")
        two = basis_state(layout, {"cavL": 2})
        one = basis_state(layout, {"cavL": 1})
        assert abs(one.overlap(a.apply(two)) - np.sqrt(2)) < 1e-14

    @pytest.mark.parametrize("cutoff", [3, 4, 5])
    def test_commutator_defect_confined_to_top_level(self, cutoff):
        # [a, a+] equals the identity except at the truncated top Fock
        # level, where the diagonal reads -cutoff instead of +1.
        layout = build_layout(1, 1, cutoff, 3)
        a, adag = _mode_pair(layout, "cavL")
        comm = (a.matrix @ adag.matrix - adag.matrix @ a.matrix).toarray()
        photon = layout.levels(register(layout))[layout.factor_index("cavL")]
        expected = np.where(photon == cutoff, -float(cutoff), 1.0)
        assert abs(comm - np.diag(expected)).max() < 1e-12


class TestStates:
    def test_product_state_populations(self):
        layout = build_layout(2, 1, 3, 3)
        state = from_product(layout, {"q2": PLUS}, photons=(2, 0))

        def populations(site):
            weights = np.abs(state.amplitudes) ** 2
            return np.bincount(layout.levels(register(layout))[layout.factor_index(site)], weights, layout.site_dim(site))

        np.testing.assert_allclose(populations("q2"), [0.5, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(populations("cavL"), [0, 0, 1, 0], atol=1e-15)
        assert abs(state.norm - 1.0) < 1e-14

    def test_overlap_requires_same_layout(self):
        s1 = basis_state(build_layout(1, 1, 3, 3))
        s2 = basis_state(build_layout(1, 1, 4, 3))
        with pytest.raises(ValueError):
            s1.overlap(s2)

    def test_hermitian_flag_is_checked(self):
        layout = build_layout(1, 1, 3, 3)
        a, _ = _mode_pair(layout, "cavL")
        with pytest.raises(ValueError):
            OperatorMatrix(a.matrix, layout, hermitian=True, basis=register(layout))


class TestBasisIsCheckedWhereItIsStored:
    def test_embed_operator_rejects_an_unsorted_basis(self):
        # |g><e| + |e><g| on q1 has four entries among these states, two of them below 96
        layout = build_layout(1, 1, 3, 3)
        flip = transition_op(3, "e", "g") + transition_op(3, "g", "e")
        with pytest.raises(ValueError, match="increase strictly"):
            embed_operator(layout, {"q1": flip}, np.array([0, 96, 192, 1, 97]))

    def test_operator_rejects_an_unsorted_basis(self):
        with pytest.raises(ValueError, match="increase strictly"):
            OperatorMatrix(np.eye(2), build_layout(1, 1, 3, 3), hermitian=True, basis=np.array([5, 3]))

    def test_state_rejects_a_repeated_index(self):
        layout = build_layout(1, 1, 3, 3)
        assert QuantumState(np.ones(2), layout, basis=np.array([5, 3])).norm == pytest.approx(np.sqrt(2))
        with pytest.raises(ValueError, match="repeats"):
            QuantumState(np.ones(2), layout, basis=np.array([5, 5]))

    def test_state_rejects_an_index_off_the_register(self):
        layout = build_layout(1, 1, 3, 3)
        for outside in (layout.dim, -1):
            with pytest.raises(ValueError, match="flat indices in"):
                QuantumState(np.ones(2), layout, basis=np.array([0, outside]))


def _encoded_ghz(layout, alpha, beta):
    # alpha |g>_1 prod |+>  +  beta |f>_1 prod |->  on the left register
    plus_sites = {s: PLUS for s in layout.left_spectators}
    minus_sites = {s: MINUS for s in layout.left_spectators}
    branch_g = from_product(layout, {"q1": level_ket(3, "g"), **plus_sites})
    branch_f = from_product(layout, {"q1": level_ket(3, "f"), **minus_sites})
    return QuantumState(alpha * branch_g.amplitudes + beta * branch_f.amplitudes, layout, basis=register(layout))


class TestDensityMatrixOnABasis:
    def test_block_is_stored_sparse_and_agrees_with_the_register(self):
        layout = build_layout(1, 1, 3, 3)
        support = np.array([3, 7, 40])
        rng = np.random.default_rng(11)
        amps = np.zeros(layout.dim, dtype=complex)
        amps[support] = rng.normal(size=3) + 1j * rng.normal(size=3)
        whole = register(layout)
        state = QuantumState(amps / np.linalg.norm(amps), layout, basis=whole)
        kept = state.amplitudes[support]
        rho = OperatorMatrix(np.outer(kept, kept.conj()), layout, hermitian=True, basis=support)
        dense = OperatorMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), layout, hermitian=True, basis=whole)
        assert rho.matrix.nnz == 9
        assert rho.matrix.diagonal().sum().real == pytest.approx(1.0, abs=1e-15)
        assert rho.expectation(state) == pytest.approx(1.0, abs=1e-15)
        assert rho.expectation(state) == dense.expectation(state)
        np.testing.assert_array_equal(dense.matrix[support][:, support].toarray(), rho.matrix.toarray())
        assert dense.matrix.nnz == 9

    def test_expectation_requires_same_layout(self):
        rho = OperatorMatrix(np.eye(2), build_layout(1, 1, 3, 3), hermitian=True, basis=np.array([0, 5]))
        with pytest.raises(ValueError, match="layout mismatch"):
            rho.expectation(basis_state(build_layout(1, 1, 4, 3)))


class TestPartialTrace:
    def test_ghz_transfer_qubit_reduction_is_maximally_mixed(self):
        # one-qubit reduction of the balanced encoded GHZ: diag(1/2, 0, 1/2)
        layout = build_layout(3, 1, 3, 3)
        state = _encoded_ghz(layout, 1 / np.sqrt(2), 1 / np.sqrt(2))
        rho = partial_trace(state, ["q1"])
        np.testing.assert_allclose(rho, np.diag([0.5, 0.0, 0.5]), atol=1e-12)

    def test_ghz_spectator_reduction_is_maximally_mixed(self):
        layout = build_layout(3, 1, 3, 3)
        state = _encoded_ghz(layout, 1 / np.sqrt(2), 1 / np.sqrt(2))
        rho = partial_trace(state, ["q2"])
        # (|+><+| + |-><-|)/2 = I/2 on the g,e block
        np.testing.assert_allclose(rho, np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    def test_pure_and_density_routes_agree(self):
        layout = build_layout(1, 1, 3, 3)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        state = QuantumState(amps / np.linalg.norm(amps), layout, basis=register(layout))
        via_state = partial_trace(state, ["A", "cavR"])
        psi = state.amplitudes
        rho = OperatorMatrix(np.outer(psi, psi.conj()), layout, hermitian=True, basis=register(layout))
        via_density = partial_trace(rho, ["A", "cavR"])
        np.testing.assert_allclose(via_state, via_density, atol=1e-12)
        assert via_state.shape == (8, 8)

    def test_trace_preserved(self):
        layout = build_layout(2, 1, 3, 3)
        state = _encoded_ghz(layout, 0.6, 0.8)
        rho = partial_trace(state, ["q1", "q2"])
        assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_unknown_site_rejected(self):
        layout = build_layout(1, 1, 3, 3)
        state = basis_state(layout)
        with pytest.raises(KeyError):
            partial_trace(state, ["q9"])


def test_transition_op_shape():
    op = transition_op(3, "e", "f")
    assert op[1, 2] == 1.0 and np.count_nonzero(op) == 1
