"""Protocol runner: the three modes, checkpoints, and the open-system block."""

from __future__ import annotations

import copy
import tracemalloc
import warnings
from pathlib import Path

import master_equation_oracle
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from ghz_transfer import analysis, evolution, runner
from ghz_transfer.analysis import (
    GhzSpec,
    make_oracle_state,
    occupation_probability,
    oracle_branches,
)
from ghz_transfer.dsl import parse_schedule, serialize_schedule, validate_schedule
from ghz_transfer.evolution import (
    EvolutionResult,
    checkpoint_fidelity,
    evolve_unitary,
    krylov_expm_action,
)
from ghz_transfer.hamiltonians import (
    DispersiveGenerator,
    collapse_operators,
    h_dispersive_reduced,
    h_resonant_ef,
    h_resonant_ge,
    load_preset,
)
from ghz_transfer.hilbert import OperatorMatrix, QuantumState, build_layout
from ghz_transfer.runner import (
    CHECKPOINT_AFTER_SEGMENT,
    MODES,
    excitation_numbers,
    run_protocol,
)
from ghz_transfer.scheduling import build_schedule


@pytest.fixture(scope="module")
def params():
    return load_preset("transmon")


@pytest.fixture(scope="module")
def every_channel(params):
    """The preset with T2f below 2 T1f, so f-level dephasing joins the other six channel kinds."""
    return params.with_overrides(t2f=15e-6)


@pytest.fixture(scope="module")
def ideal_n2(params):
    return run_protocol(params, GhzSpec(alpha=0.6, beta=0.8j, n=2))


@pytest.fixture(scope="module")
def full_n2(params):
    # beta = 1 puts all weight on the branch that feels the dispersive
    # drive, so the measured f occupation is the raw per-branch number
    return run_protocol(
        params, GhzSpec(alpha=0.0, beta=1.0, n=2),
        mode="full-dispersive", trajectory_samples=300,
    )


class TestIdealMode:
    def test_every_checkpoint_is_exact(self, ideal_n2):
        assert ideal_n2.final_fidelity >= 1 - 1e-12
        assert set(ideal_n2.checkpoints) == set(CHECKPOINT_AFTER_SEGMENT.values())
        for rec in ideal_n2.checkpoints.values():
            assert rec.fidelity >= 1 - 1e-12
            assert rec.phase_error < 1e-10

    def test_all_gates_pass(self, ideal_n2):
        assert ideal_n2.ok
        assert ideal_n2.passes == {
            "final_fidelity": True,
            "truncation": True,
            "checkpoints": True,
            "branch_phase": True,
        }

    def test_single_qubit_register(self, params):
        res = run_protocol(params, GhzSpec(alpha=0.8, beta=0.6, n=1))
        assert res.final_fidelity >= 1 - 1e-12
        assert "after_step3" not in res.checkpoints  # no spectator window at n=1

    def test_three_qubits(self, params):
        res = run_protocol(params, GhzSpec(alpha=1 / np.sqrt(2), beta=1j / np.sqrt(2), n=3))
        assert res.final_fidelity >= 1 - 1e-12

    def test_unentangled_input_is_left_alone(self, params):
        res = run_protocol(params, GhzSpec(alpha=1.0, beta=0.0, n=2))
        assert res.final_fidelity >= 1 - 1e-13
        # the all-ground branch is annihilated by every pulse: nothing moves
        rec = res.checkpoints["after_step2"]
        assert abs(rec.coeff_g - 1.0) < 1e-12

    def test_checkpoint_times_are_cumulative(self, ideal_n2):
        times = [rec.time_s for rec in ideal_n2.checkpoints.values()]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        sched = ideal_n2.schedule
        assert times[-1] == pytest.approx(sched.tau - sched.closing_ramp_s, rel=1e-12)

    def test_runs_a_schedule_from_text(self, params):
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        text = serialize_schedule(build_schedule(params, 2))
        sched = validate_schedule(parse_schedule(text)).schedule
        res = run_protocol(params, spec, schedule=sched)
        assert res.final_fidelity >= 1 - 1e-12

    def test_schedule_runs_at_its_layout_cutoffs(self, params):
        path = Path(__file__).parent / "golden" / "cutoff3.sched"
        sched = validate_schedule(parse_schedule(path.read_text(encoding="utf-8"))).schedule
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        res = run_protocol(params, spec, schedule=sched)
        assert (res.layout.fock_cutoff_left, res.layout.fock_cutoff_right) == (3, 3)
        assert res.report() == run_protocol(params, spec, fock_cutoff=3).report()
        assert run_protocol(params, spec, schedule=sched, fock_cutoff=3).layout == res.layout
        with pytest.raises(ValueError, match="Fock cutoffs"):
            run_protocol(params, spec, schedule=sched, fock_cutoff=4)

    def test_report_is_json_clean(self, ideal_n2):
        import json

        report = ideal_n2.report()
        text = json.dumps(report, sort_keys=True)
        again = json.loads(text)
        assert again["ok"] is True
        assert again["checkpoints"]["final"]["fidelity"] >= 1 - 1e-12
        assert again["budget"]["tau_s"] == pytest.approx(1.5e-7, rel=0.05)


class TestFullDispersiveMode:
    def test_resonant_steps_stay_exact(self, full_n2):
        for label in ("after_step1a", "after_step1", "after_step2a", "after_step2"):
            assert full_n2.checkpoints[label].fidelity >= 1 - 1e-12

    def test_window_error_is_visible_but_small(self, full_n2):
        fid3 = full_n2.checkpoints["after_step3"].fidelity
        assert 0.96 <= fid3 < 1 - 1e-9
        assert full_n2.final_fidelity == pytest.approx(fid3, abs=1e-9)

    def test_spectator_f_matches_perturbative_estimate(self, full_n2, params):
        expected = occupation_probability(params.mu, params.delta)
        measured = full_n2.max_spectator_f
        assert expected / 2 <= measured <= expected * 2

    def test_trajectory_rows_are_well_formed(self, full_n2):
        rows = full_n2.trajectory
        assert len(rows) == 300 * len(full_n2.schedule.segments)
        t = [row["t_ns"] for row in rows]
        assert all(b >= a for a, b in zip(t, t[1:]))
        for row in rows[:: len(rows) // 7]:
            assert row["segment"] in CHECKPOINT_AFTER_SEGMENT
            assert row["norm"] == pytest.approx(1.0, abs=1e-8)
            assert 0.0 <= row["spectator_f_total"] <= 1.0

    def test_trajectory_view_agrees_with_its_rows(self, full_n2):
        traj = full_n2.trajectory
        rows = list(traj)
        assert len(rows) == len(traj) == 2700
        assert traj[0] == rows[0] and traj[-1] == rows[-1] and traj[1234] == rows[1234]
        assert traj[10:40:7] == rows[10:40:7]
        assert [tuple(row.values()) for row in rows] == list(traj.records())
        for column in runner._ROW_COLUMNS:
            assert traj.column(column).tolist() == [row[column] for row in rows]
        assert full_n2.max_spectator_f == max(row["spectator_f_total"] for row in rows)
        with pytest.raises(IndexError):
            traj[2700]


def _static_form(generator):
    """The static matrix and frame diagonal a segment generator evolves under."""
    if isinstance(generator, DispersiveGenerator):
        return generator.static_hamiltonian().matrix, generator.frame_diagonal()
    return generator.matrix, np.zeros(generator.layout.dim)


def _krylov_evolve(state, generator, duration, *, samples=0):
    """``evolve_unitary`` routed through the Lanczos reference on the full register."""
    matrix, frame = _static_form(generator)
    times = np.linspace(0.0, duration, samples)
    amps, t_prev, path = state.amplitudes, 0.0, []
    for t in [*times, duration]:
        amps = krylov_expm_action(matrix, amps, t - t_prev)
        t_prev = t
        path.append(np.exp(1j * frame * t) * amps)
    dim = state.layout.dim
    return EvolutionResult(
        QuantumState(path[-1], state.layout), times, np.arange(dim),
        np.array(path[:-1]).reshape(samples, dim),
    )


def _route_through_krylov(monkeypatch, params, n, mode):
    """Patch the runner's propagator calls with ``_krylov_evolve`` under each segment's generator."""
    schedule = build_schedule(params, n)
    generators = iter([runner._segment_generator(schedule.layout, seg, params, mode) for seg in schedule])

    def evolve(state, step, duration, **kwargs):
        return _krylov_evolve(state, next(generators), duration, **kwargs)

    monkeypatch.setattr(runner, "evolve_unitary", evolve)


class TestExactAgainstKrylov:
    def test_full_dispersive_run_matches(self, full_n2, params, monkeypatch):
        _route_through_krylov(monkeypatch, params, 2, "full-dispersive")
        ref = run_protocol(
            params, full_n2.spec, mode="full-dispersive", trajectory_samples=300
        )
        assert set(ref.checkpoints) == set(full_n2.checkpoints)
        for label, rec in full_n2.checkpoints.items():
            want = ref.checkpoints[label]
            assert abs(rec.fidelity - want.fidelity) < 1e-10, label
            assert abs(rec.coeff_g - want.coeff_g) < 1e-10, label
            assert abs(rec.coeff_f - want.coeff_f) < 1e-10, label
        # the frame phase touches only spectator f amplitudes, which no
        # checkpoint or row sees; the states themselves must agree too
        assert np.max(np.abs(full_n2.final_state.amplitudes - ref.final_state.amplitudes)) < 1e-10
        assert len(ref.trajectory) == len(full_n2.trajectory)
        for got, want in zip(full_n2.trajectory, ref.trajectory):
            assert got["segment"] == want["segment"] and got["t_ns"] == want["t_ns"]
            for column in runner._ROW_COLUMNS:
                assert abs(got[column] - want[column]) < 1e-10, column

    @pytest.mark.parametrize("mode", ["ideal-reduced", "full-dispersive"])
    def test_support_is_closed(self, params, mode):
        layout = build_layout(2, 2, 4, 4)
        state = make_oracle_state(layout, GhzSpec(alpha=0.6, beta=0.8j, n=2), "initial")
        for seg in build_schedule(params, 2):
            generator = runner._segment_generator(layout, seg, params, mode)
            result = evolve_unitary(state, generator, seg.duration_s)
            drop = np.setdiff1d(np.arange(layout.dim), result.support)
            leak = _static_form(generator)[0][drop][:, result.support]
            leak.eliminate_zeros()
            assert leak.nnz == 0, seg.label
            assert not np.any(state.amplitudes[drop]) and not np.any(result.final.amplitudes[drop])
            state = result.final


def _scored_checkpoints(monkeypatch, params, spec, mode):
    """Run the protocol and keep every ``(record, state)`` pair it scored."""
    scored = []
    score = runner._pure_checkpoint

    def keep(spec, label, state, support, time_s):
        record = score(spec, label, state, support, time_s)
        scored.append((record, state))
        return record

    monkeypatch.setattr(runner, "_pure_checkpoint", keep)
    return run_protocol(params, spec, mode=mode), scored


def _assert_full_register_scores(spec, scored):
    """Each record matches the full-register branch kets and fidelity within 1e-15."""
    for record, state in scored:
        g_branch, f_branch, _, _ = oracle_branches(state.layout, spec, record.label)
        oracle = make_oracle_state(state.layout, spec, record.label)
        assert abs(record.fidelity - checkpoint_fidelity(state, oracle)) <= 1e-15
        assert abs(record.coeff_g - g_branch.overlap(state)) <= 1e-15
        assert abs(record.coeff_f - f_branch.overlap(state)) <= 1e-15


class TestSupportScoring:
    """Pure checkpoints are scored on the indices the state occupies, not the register."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["ideal-reduced", "full-dispersive"])
    @pytest.mark.parametrize("alpha, beta", [(0.6, 0.8j), (1.0, 0.0), (0.0, 1.0)])
    def test_agrees_with_full_register_scoring(self, params, monkeypatch, n, mode, alpha, beta):
        spec = GhzSpec(alpha=alpha, beta=beta, n=n)
        result, scored = _scored_checkpoints(monkeypatch, params, spec, mode)
        assert len(scored) == len(result.checkpoints) + 1  # and the final fidelity
        _assert_full_register_scores(spec, scored)

    def test_agrees_on_a_whole_register_support(self, params, monkeypatch):
        # the Lanczos reference reports every index as its support
        _route_through_krylov(monkeypatch, params, 2, "full-dispersive")
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        _, scored = _scored_checkpoints(monkeypatch, params, spec, "full-dispersive")
        _assert_full_register_scores(spec, scored)

    def test_final_fidelity_is_the_final_checkpoint(self, ideal_n2, full_n2):
        for result in (ideal_n2, full_n2):
            assert result.final_fidelity == result.checkpoints["final"].fidelity

    @pytest.mark.parametrize("mode", MODES)
    def test_only_the_initial_state_spans_the_register(self, params, monkeypatch, mode):
        whole = []
        build = analysis._branch_amplitudes

        def count(layout, branch, support=None):
            whole.append(support is None)
            return build(layout, branch, support)

        monkeypatch.setattr(analysis, "_branch_amplitudes", count)
        runner._compiled.cache_clear()
        counts = []
        for _ in range(2):  # the first run compiles, the second reuses the compile
            whole.clear()
            run_protocol(params, GhzSpec(alpha=0.6, beta=0.8j, n=2), mode=mode, fock_cutoff=3)
            counts.append((whole.count(True), whole.count(False)))
        # the compile finds the initial state's two branches factor by factor; a run
        # scores the initial state, every checkpoint and the final fidelity on its support
        scored = 2 * (len(CHECKPOINT_AFTER_SEGMENT) + 2)
        assert counts == [(0, scored), (0, scored)]


class TestLindbladMode:
    def test_decoherence_costs_fidelity_but_not_much(self, params):
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        res = run_protocol(params, spec, mode="lindblad", fock_cutoff=3)
        assert 0.9 < res.final_fidelity < 1 - 1e-4
        fids = [rec.fidelity for rec in res.checkpoints.values()]
        assert all(f2 < f1 + 1e-9 for f1, f2 in zip(fids, fids[1:]))
        assert res.final_state.matrix.diagonal().sum().real == pytest.approx(1.0, abs=1e-7)

    def test_matches_unprojected_integration(self, params):
        # n=1 is small enough to integrate the full register with the
        # adaptive-step oracle; the runner evolves only the reachable block
        spec = GhzSpec(alpha=0.8, beta=0.6j, n=1)
        res = run_protocol(params, spec, mode="lindblad", fock_cutoff=3)

        layout = build_layout(1, 1, 3, 3)
        psi0 = make_oracle_state(layout, spec, "initial").amplitudes
        rho = np.outer(psi0, psi0.conj())
        cops = [op.matrix.tocsr() for op in collapse_operators(layout, params)]
        for seg in build_schedule(params, 1):
            if seg.ramp_s > 0:
                rho, _ = master_equation_oracle.integrate(None, cops, rho, seg.ramp_s)
            if seg.kind == "resonant_ef":
                h = h_resonant_ef(layout, seg.cavity, seg.site, seg.coupling)
            else:
                h = h_resonant_ge(layout, seg.cavity, seg.site, seg.coupling)
            rho, _ = master_equation_oracle.integrate(h.matrix, cops, rho, seg.duration_s)
        rho, _ = master_equation_oracle.integrate(
            None, cops, rho, build_schedule(params, 1).closing_ramp_s
        )

        keep = res.final_state.basis
        diff = np.abs(res.final_state.matrix.toarray() - rho[np.ix_(keep, keep)]).max()
        assert diff < 1e-9
        rho[np.ix_(keep, keep)] = 0
        assert not np.any(rho)  # the oracle never leaves the block either

    def test_block_matches_integration(self, params, monkeypatch):
        # the same run with every segment integrated by the oracle instead
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        exact = run_protocol(params, spec, mode="lindblad", fock_cutoff=3)
        keep, _, collapse = _lindblad_block(params, spec)
        blocks = [op[keep][:, keep] for op in collapse]

        def integrate(h_mat, _dissipator, rho0, duration, **kwargs):  # the channels D was built from
            return master_equation_oracle.integrate(h_mat, blocks, rho0, duration, **kwargs)

        monkeypatch.setattr(runner, "lindblad_propagate", integrate)
        integrated = run_protocol(params, spec, mode="lindblad", fock_cutoff=3)
        assert set(exact.checkpoints) == set(integrated.checkpoints)
        for label, rec in exact.checkpoints.items():
            assert rec.fidelity == pytest.approx(integrated.checkpoints[label].fidelity, abs=1e-9)
        assert exact.final_fidelity == pytest.approx(integrated.final_fidelity, abs=1e-9)

    @pytest.mark.parametrize("h_kind", ["ramp", "segment"])
    def test_sampled_grid_memory_does_not_grow_with_samples(self, params, h_kind):
        # a grid point keeps its d populations, not a (d, d) matrix: 200 complex
        # 80 x 80 matrices would add about 20 MB to the peak
        layout, schedule = build_layout(2, 2, 3, 3), build_schedule(params, 2)
        compiled = runner._compiled(layout, tuple(schedule), params, "lindblad")
        block = runner._oracle_on(layout, GhzSpec(0.6, 0.8j, 2), "initial", compiled.support)
        rho0, dim = np.outer(block, block.conj()), compiled.support.size
        h_mat = None if h_kind == "ramp" else compiled.steps[1]
        peaks = {}
        for samples in (3, 200):
            tracemalloc.start()
            try:
                evolution.lindblad_propagate(
                    h_mat, compiled.dissipator, rho0, schedule.segments[1].duration_s, samples=samples
                )
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the 197 extra rows of populations, and less than 64 KiB besides
        assert peaks[200] - peaks[3] <= 197 * dim * 8 + 2**16

    def test_stays_positive_without_warning(self, params):
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_protocol(params, spec, mode="lindblad", fock_cutoff=3)
        keep, _, _ = _lindblad_block(params, spec)
        assert np.array_equal(res.final_state.basis, keep)
        assert np.linalg.eigvalsh(res.final_state.matrix.toarray())[0] >= -1e-12

    def test_final_state_is_the_block(self, params):
        # the density matrix is an operator on the reachable block only, never dim x dim;
        # its CSR drops the exact zeros, so the shape and basis say where it lives
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        res = run_protocol(params, spec, mode="lindblad", fock_cutoff=3)
        keep, _, _ = _lindblad_block(params, spec)
        assert keep.size == 80
        assert isinstance(res.final_state, OperatorMatrix) and res.final_state.hermitian
        assert res.final_state.matrix.shape == (80, 80)
        assert np.array_equal(res.final_state.basis, keep)

    @pytest.mark.parametrize("mode", MODES)
    def test_schedule_without_segments_idles(self, params, mode):
        text = (
            "schedule v1\n"
            "layout ghz-layout-v1 n_left=2 n_right=2 cutoff_left=3 cutoff_right=3\n"
            "closing_ramp 3ns\n"
        )
        sched = validate_schedule(parse_schedule(text)).schedule
        assert sched.segments == ()
        res = run_protocol(params, GhzSpec(alpha=0.6, beta=0.8j, n=2), schedule=sched, mode=mode)
        assert res.checkpoints == {} and len(res.trajectory) == 0
        # only the g branch, weight 0.36, is common to the initial and final oracles
        assert res.final_fidelity == pytest.approx(0.36**2, abs=1e-3 if mode == "lindblad" else 1e-14)

    def test_requires_decoherence_channels(self, params):
        bare = params.with_overrides(
            t1=None, t2=None, t1f=None, t2f=None,
            coupler_t1=None, coupler_t2=None, kappaL=None, kappaR=None,
        )
        with pytest.raises(ValueError, match="decoherence"):
            run_protocol(bare, GhzSpec(alpha=1.0, beta=0.0, n=1), mode="lindblad", fock_cutoff=3)


def _lindblad_block(params, spec, cutoff=3):
    layout = build_layout(spec.n, spec.n, cutoff, cutoff)
    schedule = build_schedule(params, spec.n)
    generators = [
        runner._segment_generator(layout, seg, params, "lindblad").matrix.tocsr()
        for seg in schedule
    ]
    collapse = [op.matrix.tocsr() for op in collapse_operators(layout, params)]
    keep = runner._compiled(layout, tuple(schedule), params, "lindblad").support
    return keep, generators, collapse


class TestReachableBlock:
    @pytest.mark.parametrize("n, size", [(1, 20), (2, 80)])
    def test_block_sizes(self, params, n, size):
        keep, _, _ = _lindblad_block(params, GhzSpec(alpha=0.6, beta=0.8j, n=n))
        assert keep.size == size

    def test_block_is_closed(self, params):
        keep, generators, collapse = _lindblad_block(params, GhzSpec(alpha=0.6, beta=0.8j, n=2))
        drop = np.setdiff1d(np.arange(generators[0].shape[0]), keep)
        for mat in generators + collapse + [op.getH() @ op for op in collapse]:
            leak = mat[drop][:, keep]
            leak.eliminate_zeros()
            assert leak.nnz == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_block_as_the_sum_of_matrices(self, every_channel, n):
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=n)
        keep, generators, collapse = _lindblad_block(every_channel, spec)
        psi0 = make_oracle_state(build_layout(n, n, 3, 3), spec, "initial")
        assert np.array_equal(keep, _reachable_block_by_sums(psi0, generators, collapse))


def _reachable_block_by_sums(psi0, hamiltonians, collapse):
    """The reference closure: every edge matrix, L^+ L included, added up as a register-sized sum."""
    edges = sum(abs(l_op) for l_op in collapse)
    for mat in hamiltonians + [l_op.getH() @ l_op for l_op in collapse]:
        edges = edges + abs(mat) + abs(mat).T
    edges = edges.tocsr()
    reach = psi0.amplitudes != 0
    while True:
        grown = reach | (edges @ reach.astype(float) > 0)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _liouvillian_term_by_term(h_mat, collapse_mats, dim):
    """The complex block Liouvillian on the row-major ``rho.ravel()``, every term from the bare matrices."""
    eye = sp.identity(dim, dtype=complex)
    h_eff = sp.csr_matrix((dim, dim) if h_mat is None else h_mat, dtype=complex)
    stacked = sp.vstack(collapse_mats, format="csr")
    h_eff = h_eff - 0.5j * (stacked.getH() @ stacked)
    terms = [-1j * sp.kron(h_eff, eye), 1j * sp.kron(eye, h_eff.conj())]
    terms += [sp.kron(l_op, l_op.conj()) for l_op in collapse_mats]
    parts = [term.tocoo() for term in terms]
    entries = [np.concatenate([getattr(part, key) for part in parts]) for key in ("data", "row", "col")]
    return sp.csr_matrix((entries[0], tuple(entries[1:])), shape=(dim * dim, dim * dim))


def _change_of_basis(dim):
    """C and its inverse with rho.ravel() = C x for the real coordinates x of a Hermitian rho.

    x holds Re rho_ij at i dim + j and Im rho_ij at j dim + i, i <= j (Im
    only for i < j), so rho_ij = x_re + i x_im and rho_ji = x_re - i x_im.
    """
    i, j = np.triu_indices(dim)
    off = i < j
    upper, lower = i * dim + j, (j * dim + i)[off]  # where rho_ij and rho_ji sit in rho.ravel()
    re, im = upper, lower  # ... and where x keeps their real and imaginary parts
    ones, halves = np.ones(off.sum()), np.full(off.sum(), 0.5)
    size = (dim * dim, dim * dim)
    forward = sp.csr_matrix(
        (np.concatenate([np.ones(i.size), ones, 1j * ones, -1j * ones]),
         (np.concatenate([upper, lower, upper[off], lower]), np.concatenate([re, re[off], im, im]))),
        shape=size,
    )
    diagonal = upper[~off]
    inverse = sp.csr_matrix(
        (np.concatenate([np.ones(diagonal.size), halves, halves, -1j * halves, 1j * halves]),
         (np.concatenate([diagonal, re[off], re[off], im, im]),
          np.concatenate([diagonal, upper[off], lower, upper[off], lower]))),
        shape=size,
    )
    return forward, inverse


def _assert_real_form(real_gen, complex_gen, dim):
    """``real_gen`` is C^-1 L C for the complex ``complex_gen``.

    To four ulps of the largest term folded into each entry.
    """
    forward, inverse = _change_of_basis(dim)
    complex_gen = sp.csr_matrix(complex_gen)
    want = inverse @ complex_gen @ forward
    bound = 4 * np.finfo(float).eps * (abs(inverse) @ abs(complex_gen) @ abs(forward))
    # sparse throughout: an entry off the bound's pattern must be exactly zero
    assert (abs(want.imag) - bound).max() <= 0  # L keeps rho Hermitian
    assert (abs(real_gen - want.real) - bound).max() <= 0


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for key in ("data", "indices", "indptr"):
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key


class TestSharedDissipator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_liouvillian_is_bit_identical_to_a_fresh_build(self, params, n):
        keep, generators, collapse = _lindblad_block(params, GhzSpec(alpha=0.6, beta=0.8j, n=n))
        blocks = [op[keep][:, keep] for op in collapse]
        shared = evolution.Dissipator(blocks, keep.size)  # one instance for the whole run
        for h_mat in [None] + [gen[keep][:, keep] for gen in generators]:  # the ramp first
            fast = evolution._real_liouvillian(h_mat, shared)
            fresh = evolution._real_liouvillian(h_mat, evolution.Dissipator(list(blocks), keep.size))
            assert fast.dtype == np.float64
            _assert_same_csr(fast, fresh)
            # no stored zero: D is assembled without any, and a segment's addition drops them
            assert fast.has_canonical_format and np.all(fast.data != 0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_small_and_dense_blocks_match_a_fresh_build(self, dim):
        # a random complex channel gives a K = L^+ L that is not diagonal, and complex
        # entries fold into all four real entries; a non-Hermitian H too, since
        # -i H rho + i rho H^+ keeps rho Hermitian for any H: compare with the dense kron
        # definition, in real coordinates, to a few units of roundoff on the largest term
        rng = np.random.default_rng(dim)

        def matrix(fill):
            mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            return sp.csr_matrix(np.where(rng.random((dim, dim)) < fill, mat, 0))

        blocks = [matrix(0.7)]  # half full with zeros: sp.kron stores the zeros
        eye, l_op = np.eye(dim), blocks[0].toarray()
        forward, inverse = (part.toarray() for part in _change_of_basis(dim))
        for h_mat in (None, matrix(0.2), matrix(0.7)):
            h_eff = (0 if h_mat is None else h_mat.toarray()) - 0.5j * l_op.conj().T @ l_op
            expected = -1j * np.kron(h_eff, eye) + 1j * np.kron(eye, h_eff.conj()) + np.kron(l_op, l_op.conj())
            expected = (inverse @ expected @ forward).real
            bound = 4 * np.finfo(float).eps * (np.abs(h_eff).max() + np.abs(l_op).max() ** 2)
            shared = evolution.Dissipator(blocks, dim)
            real_gen = evolution._real_liouvillian(h_mat, shared)
            assert np.abs(real_gen.toarray() - expected).max() <= bound
            _assert_same_csr(shared.generator, evolution.Dissipator(list(blocks), dim).generator)


class TestRealCoordinates:
    """The open-system state is the d^2 real coordinates of a Hermitian block matrix."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_generator_is_the_change_of_basis_of_the_liouvillian(self, params, n):
        keep, generators, collapse = _lindblad_block(params, GhzSpec(alpha=0.6, beta=0.8j, n=n))
        blocks = [op[keep][:, keep] for op in collapse]
        dissipator = evolution.Dissipator(blocks, keep.size)
        for h_mat in [None] + [gen[keep][:, keep] for gen in generators]:
            real_gen = evolution._real_liouvillian(h_mat, dissipator)
            _assert_real_form(real_gen, _liouvillian_term_by_term(h_mat, blocks, keep.size), keep.size)

    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_round_trip_is_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        coords = rng.normal(size=dim * dim)
        coords[rng.random(dim * dim) < 0.2] = -0.0  # signed zeros come back too
        rho = evolution._density(coords, dim)
        assert evolution._coordinates(rho).tobytes() == coords.tobytes()
        assert evolution._density(evolution._coordinates(rho), dim).tobytes() == rho.tobytes()
        forward, inverse = _change_of_basis(dim)
        assert np.array_equal(forward @ coords, rho.ravel())  # the test's C is the same map
        assert np.array_equal(inverse @ rho.ravel(), coords)
        # any exactly Hermitian matrix comes back equal (a zero's sign below the diagonal aside)
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hermitian = 0.5 * (mat + mat.conj().T)
        assert np.array_equal(evolution._density(evolution._coordinates(hermitian), dim), hermitian)
        # and any other matrix is read as its Hermitian part
        assert evolution._coordinates(mat).tobytes() == evolution._coordinates(hermitian).tobytes()

    @pytest.mark.parametrize("h_kind", ["ramp", "segment"])
    def test_propagated_matrices_are_hermitian_by_construction(self, params, h_kind):
        layout = build_layout(2, 2, 3, 3)
        schedule = build_schedule(params, 2)
        compiled = runner._compiled(layout, tuple(schedule), params, "lindblad")
        block = runner._oracle_on(layout, GhzSpec(0.6, 0.8j, 2), "initial", compiled.support)
        h_mat = None if h_kind == "ramp" else compiled.steps[1]
        rho0, duration = np.outer(block, block.conj()), schedule.segments[1].duration_s
        final, populations = evolution.lindblad_propagate(h_mat, compiled.dissipator, rho0, duration, samples=5)
        assert np.array_equal(final, final.conj().T)
        # a sampled point keeps only its populations, which are real
        assert populations.shape == (5, compiled.support.size) and populations.dtype == np.float64

    def test_an_unindexable_block_is_refused(self):
        # int32 indexes the real coordinates; the refusal comes before any allocation
        with pytest.raises(ValueError, match="too many real coordinates"):
            evolution.Dissipator([], 46341)


class TestCollapseChannels:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_damping_term_is_diagonal(self, every_channel, n):
        # _reachable_block gives L^+ L no edges of its own, which holds because it is diagonal
        layout = build_layout(n, n, 3, 3)
        collapse = collapse_operators(layout, every_channel)
        # four channel kinds per qudit, two on the coupler, one per cavity
        assert len(collapse) == 4 * len(layout.left_qudits + layout.right_qudits) + 4
        for op in collapse:
            rows, cols = (op.matrix.getH() @ op.matrix).nonzero()
            assert np.array_equal(rows, cols)


class TestRampGenerator:
    def test_one_liouvillian_per_distinct_generator(self, params, monkeypatch):
        dissipators, generators = [], []
        build = evolution._real_liouvillian
        propagate = runner.lindblad_propagate

        def recording_build(h_mat, dissipator):
            generators.append((h_mat is None, build(h_mat, dissipator)))
            return build(h_mat, dissipator)

        def recording_propagate(h_mat, collapse_mats, rho0, duration, **kwargs):
            dissipators.append(collapse_mats)
            return propagate(h_mat, collapse_mats, rho0, duration, **kwargs)

        monkeypatch.setattr(evolution, "_real_liouvillian", recording_build)
        monkeypatch.setattr(runner, "lindblad_propagate", recording_propagate)
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        run_protocol(params, spec, mode="lindblad", fock_cutoff=3)
        assert len(dissipators) == 19 and len(generators) == 19
        shared = dissipators[0]
        assert all(d is shared for d in dissipators)
        ramps = [gen for is_ramp, gen in generators if is_ramp]
        assert len(ramps) == 10 and all(gen is shared.generator for gen in ramps)  # nine ramps, one closing

        keep, _, collapse = _lindblad_block(params, spec)
        blocks = [op[keep][:, keep] for op in collapse]
        _assert_same_csr(shared.generator, evolution.Dissipator(blocks, keep.size).generator)


class TestTaylorPlanAndApply:
    """The open-system step is ``expm_multiply``'s, bit for bit, from the plan each call derives.

    The package plans by code fragment (3.1) from its own theta_m table;
    scipy's public ``expm_multiply`` and its private ``_fragment_3_1`` and
    ``LazyOperatorNormInfo`` are the oracle here, not a dependency, so a
    scipy that plans or steps differently fails here, not in a report.
    """

    # condition (3.13) for m_max = 55, p_max = 8, ell = 2 and one column, computed
    # in scipy's order: 2 ell p_max (p_max + 3) times theta_55 / (n0 m_max)
    BOUND = 352 * (9.9 / float(1 * 55))

    @staticmethod
    def _scipy_plan(matrix, norm):
        from scipy.sparse.linalg._expm_multiply import LazyOperatorNormInfo, _fragment_3_1

        return _fragment_3_1(LazyOperatorNormInfo(matrix, A_1_norm=norm, ell=2), 1, 2**-53, ell=2)

    def test_plan_is_scipys_up_to_condition_3_13(self):
        from scipy.sparse.linalg._expm_multiply import _condition_3_13

        below = np.nextafter(self.BOUND, 0.0)
        assert evolution._TABLE_BOUND == self.BOUND
        assert _condition_3_13(self.BOUND, 1, 55, 2) and not _condition_3_13(np.nextafter(self.BOUND, np.inf), 1, 55, 2)
        for norm in [*np.geomspace(1e-18, self.BOUND, 200), below, self.BOUND]:
            # below the bound scipy plans from the table alone and never reads the matrix
            assert evolution._degree_and_substeps(norm) == self._scipy_plan(None, norm), norm

    @pytest.mark.parametrize("width", [64.0, 200.0, 1000.0])
    @pytest.mark.parametrize("segment", [None, 0])
    def test_plan_above_the_bound_is_deterministic_and_no_cheaper(self, params, width, segment):
        # on a segment's generator scipy's estimates reach the bounds and the plans agree
        # ((55, 11) at 200); on D alone this one takes a few more substeps ((55, 10) against (55, 9))
        layout = build_layout(1, 1, 3, 3)
        schedule = build_schedule(params, 1)
        compiled = runner._compiled(layout, tuple(schedule), params, "lindblad")
        h = None if segment is None else compiled.steps[segment]
        gen = evolution._real_liouvillian(h, compiled.dissipator)
        unit, _ = evolution._stepper(gen, 1.0)
        duration = width / abs(unit).sum(axis=0).max()
        shifted, plan = evolution._stepper(gen, duration)
        norm = abs(shifted).sum(axis=0).max()
        assert norm > np.nextafter(self.BOUND, np.inf)
        degree, substeps = self._scipy_plan(shifted, norm)  # from random norm estimates
        assert plan.degree * plan.substeps >= degree * substeps
        assert evolution._stepper(gen, duration)[1] == plan
        vec = np.random.default_rng(1).normal(size=gen.shape[0])
        got, again = evolution._expm_action(gen, duration, vec), evolution._expm_action(gen, duration, vec)
        assert got[1] == again[1] == plan and got[0].tobytes() == again[0].tobytes()
        assert np.abs(got[0] - expm_multiply(gen * duration, vec)).max() <= 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_step_equals_expm_multiply_bit_for_bit(self, params, n):
        layout = build_layout(n, n, 3, 3)
        schedule = build_schedule(params, n)
        compiled = runner._compiled(layout, tuple(schedule), params, "lindblad")
        dissipator = compiled.dissipator
        dim = compiled.support.size
        generators = [evolution._real_liouvillian(h, dissipator) for h in [None, *compiled.steps]]
        generators.append(sp.csr_matrix((dim * dim, dim * dim)))  # nothing to expand
        scheduled = {seg.ramp_s for seg in schedule} | {seg.duration_s for seg in schedule}
        scheduled = sorted((scheduled | {schedule.closing_ramp_s}) - {0.0})
        rng = np.random.default_rng(n)
        vec = rng.normal(size=dim * dim)
        plans = []
        for gen in generators:
            assert gen.dtype == np.float64
            # a 1-norm of 30 needs several substeps and stays below condition (3.13)'s
            # bound, so scipy chooses them from its table, without random norm estimates
            width = abs(gen).sum(axis=0).max()
            long = [30.0 / width] if width else []
            for duration in scheduled + [1e-12] + long:
                got, plan = evolution._expm_action(gen, duration, vec)
                want = expm_multiply(gen * duration, vec)
                assert got.tobytes() == want.tobytes(), (duration, plan)
                plans.append(plan)
        assert any(plan.substeps > 1 for plan in plans)
        assert evolution.TaylorPlan(0.0, 0, 1) in plans  # the zero generator

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_step_a_run_takes_plans_from_the_table(self, params, n):
        # so each is expm_multiply's single step bit for bit: the ramps, the segments, the closing ramp
        layout = build_layout(n, n, 3, 3)
        schedule = build_schedule(params, n)
        compiled = runner._compiled(layout, tuple(schedule), params, "lindblad")
        steps = [(None, seg.ramp_s) for seg in schedule if seg.ramp_s > 0]
        steps += [(h, seg.duration_s) for seg, h in zip(schedule, compiled.steps)]
        steps.append((None, schedule.closing_ramp_s))
        for h, duration in steps:
            shifted, _ = evolution._stepper(evolution._real_liouvillian(h, compiled.dissipator), duration)
            assert abs(shifted).sum(axis=0).max() <= self.BOUND

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_missing_diagonal_entries_match_expm_multiply(self, seed):
        # the shift -mu*I lands on diagonal entries the generator does not store
        rng = np.random.default_rng(seed)
        dense = np.where(rng.random((9, 9)) < 0.3, rng.normal(size=(9, 9)), 0.0)
        dense[rng.random(9) < 0.5, :] = 0.0  # some rows empty
        np.fill_diagonal(dense, np.where(rng.random(9) < 0.5, 1.5, 0.0))
        gen = sp.csr_matrix(dense)
        assert gen.nnz == np.count_nonzero(dense) and np.count_nonzero(np.diag(dense)) < 9
        stored = [gen.data.tobytes(), gen.indices.tobytes(), gen.indptr.tobytes()]
        vec = rng.normal(size=9)
        width = abs(gen).sum(axis=0).max()
        for duration in (1e-12, 1.0 / width, 30.0 / width):
            got, plan = evolution._expm_action(gen, duration, vec)
            want = expm_multiply(gen * duration, vec)
            assert got.tobytes() == want.tobytes(), (duration, plan)
        # the generator a run shares between steps is left as it was
        assert [gen.data.tobytes(), gen.indices.tobytes(), gen.indptr.tobytes()] == stored

    @pytest.mark.parametrize("n, counts", [(1, (3, 4, 7, 50)), (2, (300,))])
    def test_inner_grid_points_are_steps_of_one_plan(self, params, n, counts):
        # scipy's interval expm_multiply is the oracle for the inner points, on every
        # step of a run; on a longer step both round further apart (3e-14 at 15 rad,
        # where scipy's own interval and single-step results differ by 4e-14)
        layout = build_layout(n, n, 3, 3)
        schedule = build_schedule(params, n)
        compiled = runner._compiled(layout, tuple(schedule), params, "lindblad")
        dissipator, dim = compiled.dissipator, compiled.support.size
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho0 = raw @ raw.conj().T
        rho0 /= np.trace(rho0).real
        vec = evolution._coordinates(rho0)
        diagonal = np.arange(dim) * (dim + 1)
        steps = [(None, schedule.closing_ramp_s), *zip(compiled.steps, (seg.duration_s for seg in schedule))]
        for h, duration in steps:
            gen = evolution._real_liouvillian(h, dissipator)
            for samples in counts:
                # the full coordinates of the points lindblad_propagate keeps the diagonals of
                got = np.array([vec, *evolution._grid(gen, duration, vec, samples)])
                want = expm_multiply(gen, vec, start=0.0, stop=duration, num=samples - 1, endpoint=False)
                assert np.abs(got - want).max() <= 1e-14
                # the trace sums d coordinates, so it shows rounding built up over many steps
                assert np.abs(got[:, diagonal].sum(axis=1) - want[:, diagonal].sum(axis=1)).max() <= 1e-14
                final, populations = evolution.lindblad_propagate(h, dissipator, rho0, duration, samples=samples)
                assert populations.shape == (samples, dim) and populations.dtype == np.float64
                assert populations[:-1].tobytes() == got[:, diagonal].tobytes()
                assert populations[-1].tobytes() == np.real(np.diag(final)).tobytes()
                # an inner point is one _expm_action step of h from the one before, or
                # every GRID_RESTART-th, one step of k h from rho0
                shifted, plan = evolution._stepper(gen, duration / (samples - 1))  # as _expm_action forms it
                for k in range(1, samples - 1):
                    if k % evolution.GRID_RESTART:
                        assert evolution._taylor(shifted, plan, got[k - 1]).tobytes() == got[k].tobytes()
                    else:
                        step, _ = evolution._expm_action(gen, k * (duration / (samples - 1)), vec)
                        assert np.abs(step - got[k]).max() <= 1e-15


def _held(compiled):
    """Every object a compile holds, through containers and attributes."""
    stack, seen = [compiled], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        yield item
        if isinstance(item, np.ndarray) or sp.issparse(item):
            continue
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        if hasattr(item, "__dict__"):
            stack.extend(vars(item).values())


class TestCompiledSchedule:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["ideal-reduced", "full-dispersive"])
    @pytest.mark.parametrize("alpha, beta", [(0.6, 0.8j), (1.0, 0.0), (0.0, 1.0)])
    def test_every_step_matches_its_generator_bitwise(self, params, n, mode, alpha, beta):
        schedule = build_schedule(params, n)
        layout = schedule.layout
        compiled = runner._compiled(layout, tuple(schedule), params, mode)
        state = make_oracle_state(layout, GhzSpec(alpha=alpha, beta=beta, n=n), "initial")
        for seg, step in zip(schedule, compiled.steps):
            generator = runner._segment_generator(layout, seg, params, mode)
            got = evolve_unitary(state, step, seg.duration_s, samples=3)
            want = evolve_unitary(state, generator, seg.duration_s, samples=3)
            assert got.final.amplitudes.tobytes() == want.final.amplitudes.tobytes(), seg.label
            for got_state, want_state in zip(got.states, want.states):
                assert got_state.amplitudes.tobytes() == want_state.amplitudes.tobytes(), seg.label
            state = got.final

    @pytest.mark.parametrize("mode", MODES)
    def test_holds_nothing_register_sized(self, params, mode):
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=2)
        result = run_protocol(params, spec, mode=mode, fock_cutoff=3)
        hits = runner._compiled.cache_info().hits
        compiled = runner._compiled(result.layout, tuple(result.schedule), params, mode)
        assert runner._compiled.cache_info().hits == hits + 1  # the run's own compile
        liouville = compiled.support.size ** 2 if mode == "lindblad" else None
        for item in _held(compiled):
            assert not isinstance(item, (OperatorMatrix, DispersiveGenerator)), type(item)
            if isinstance(item, np.ndarray) or sp.issparse(item):
                assert result.layout.dim not in item.shape, type(item)
                # the open-system generators are real: no complex Liouvillian is kept
                assert liouville not in item.shape or item.dtype.kind != "c", type(item)

    def test_lindblad_runs_leave_the_compile_as_it_was(self, params):
        # every step plans from its own generator, so a run only reads the shared Dissipator
        layout, schedule = build_layout(2, 2, 3, 3), build_schedule(params, 2)
        runner._compiled.cache_clear()
        dissipator = runner._compiled(layout, tuple(schedule), params, "lindblad").dissipator
        generator = dissipator.generator
        stored = [getattr(generator, key).tobytes() for key in ("data", "indices", "indptr")]
        rest = copy.deepcopy({key: value for key, value in vars(dissipator).items() if key != "generator"})
        for alpha, beta in [(0.6, 0.8j), (1.0, 0.0)]:
            run_protocol(params, GhzSpec(alpha=alpha, beta=beta, n=2), mode="lindblad", fock_cutoff=3)
        assert runner._compiled(layout, tuple(schedule), params, "lindblad").dissipator is dissipator
        assert {key: value for key, value in vars(dissipator).items() if key != "generator"} == rest
        assert dissipator.generator is generator
        assert [getattr(generator, key).tobytes() for key in ("data", "indices", "indptr")] == stored

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_segment_support_is_closed(self, every_channel, n, mode):
        layout = build_layout(n, n, 3, 3)
        schedule = build_schedule(every_channel, n)
        compiled = runner._compiled(layout, tuple(schedule), every_channel, mode)
        collapse = [op.matrix for op in collapse_operators(layout, every_channel)]
        if mode == "lindblad":
            # every segment acts on the one final block: the channels act between segments
            supports = [compiled.support] * len(schedule.segments)
        else:
            supports = [step.support for step in compiled.steps]
            collapse = []
        reached = compiled.support
        for seg, support in zip(schedule, supports):
            assert np.all(np.isin(reached, support)), seg.label  # C_(k-1) lies in C_k
            generator = _static_form(runner._segment_generator(layout, seg, every_channel, mode))[0]
            drop = np.setdiff1d(np.arange(layout.dim), support)
            for mat in [generator, generator.T, *collapse]:  # the generator both ways, channels forward
                leak = mat.tocsr()[drop][:, support]
                leak.eliminate_zeros()
                assert leak.nnz == 0, seg.label
            reached = support


class TestSamplesOnlyChooseOutput:
    @pytest.mark.parametrize(
        "mode, n", [("ideal-reduced", 2), ("full-dispersive", 2), ("lindblad", 1), ("lindblad", 2)]
    )
    def test_fidelities_are_bitwise_equal_at_every_sample_count(self, params, mode, n):
        # sampling a trajectory must not change how a segment's final state is computed
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=n)
        cutoff = 3 if mode == "lindblad" else None
        scores = []
        for samples in (0, 1, 2, 3, 7):
            res = run_protocol(params, spec, mode=mode, fock_cutoff=cutoff, trajectory_samples=samples)
            checkpoints = {label: rec.fidelity.hex() for label, rec in res.checkpoints.items()}
            scores.append((res.final_fidelity.hex(), checkpoints))
        assert all(score == scores[0] for score in scores[1:]), scores


class TestExcitationSectors:
    def test_reference_counts(self):
        layout = build_layout(2, 2, 3, 3)
        quanta = excitation_numbers(layout)
        assert quanta[0] == 0  # everything ground, vacuum
        idx = layout.basis_index({"q1": "f", "cavL": 3, "A": 1})
        assert quanta[idx] == 6
        assert int((quanta <= 4).sum()) == 260

    @pytest.mark.parametrize("builder", ["ef", "ge", "reduced"])
    def test_generators_conserve_quanta(self, params, builder):
        layout = build_layout(2, 2, 3, 3)
        if builder == "ef":
            h = h_resonant_ef(layout, "L", "q1", params.mu1)
        elif builder == "ge":
            h = h_resonant_ge(layout, "L", "A", params.muAL)
        else:
            h = h_dispersive_reduced(layout, params)
        quanta = excitation_numbers(layout)
        rows, cols = h.matrix.nonzero()
        assert np.all(quanta[rows] == quanta[cols])

    def test_collapse_channels_never_raise_quanta(self, params):
        layout = build_layout(2, 2, 3, 3)
        quanta = excitation_numbers(layout)
        for op in collapse_operators(layout, params):
            rows, cols = op.matrix.nonzero()
            assert np.all(quanta[rows] <= quanta[cols])


class TestConfigErrors:
    def test_unknown_mode(self, params):
        with pytest.raises(ValueError, match="unknown mode"):
            run_protocol(params, GhzSpec(alpha=1.0, beta=0.0, n=1), mode="exact")

    def test_schedule_size_mismatch(self, params):
        sched = build_schedule(params, 3)
        with pytest.raises(ValueError, match="schedule is for"):
            run_protocol(params, GhzSpec(alpha=1.0, beta=0.0, n=2), schedule=sched)
