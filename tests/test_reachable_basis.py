"""The compile on the reachable basis against the register-sized compile it replaced."""

from __future__ import annotations

import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import on_register, register
from register_compile_oracle import register_channels, register_compile, register_generator

from ghz_transfer import cli, runner
from ghz_transfer.analysis import GhzSpec
from ghz_transfer.hamiltonians import DispersiveGenerator, collapse_operators, load_preset
from ghz_transfer.hilbert import QuantumState, build_layout, embed_operator, local_moves, reachable
from ghz_transfer.runner import MODES, run_protocol
from ghz_transfer.scheduling import build_schedule


@pytest.fixture(scope="module")
def params():
    return load_preset("transmon")


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_csr(got, want):
    assert got.shape == want.shape
    for key in ("data", "indices", "indptr"):
        _same_array(getattr(got, key), getattr(want, key))


def _assert_same_compile(layout, params, mode):
    segments = tuple(build_schedule(params, layout.n_left))
    runner._compiled.cache_clear()
    got = runner._compiled(layout, segments, params, mode)
    want = register_compile(layout, segments, params, mode)
    _same_array(got.support, want.support)
    assert len(got.steps) == len(want.steps)
    if mode == "lindblad":
        for got_step, want_step in zip(got.steps, want.steps):
            _same_csr(got_step, want_step)
        keep = got.support
        for got_op, want_op in zip(collapse_operators(layout, params, keep), register_channels(layout, params), strict=True):
            _same_csr(got_op.matrix, want_op[keep][:, keep])
        _same_csr(got.dissipator.generator, want.dissipator.generator)
        return
    # each pure step's generator, built on the states its step reaches, is the register's cut down to them
    reach = got.support
    for seg, step in zip(segments, got.steps):
        basis = reachable(layout, reach, runner._segment_moves(layout, seg, params, mode))
        built = runner._segment_generator(layout, seg, params, mode, basis)
        whole, frame = register_generator(layout, seg, params, mode)
        if frame is not None:
            _same_array(built.frame_diagonal(), frame[basis])
            built = built.static_hamiltonian()
        _same_csr(built.matrix, whole[basis][:, basis])
        reach = step.support
    for got_step, want_step in zip(got.steps, want.steps):
        _same_array(got_step.support, want_step.support)
        assert (got_step.frame is None) == (want_step.frame is None)
        if got_step.frame is not None:
            _same_array(got_step.frame, want_step.frame)
        assert len(got_step.groups) == len(want_step.groups)
        for (got_part, *got_eig), (want_part, *want_eig) in zip(got_step.groups, want_step.groups):
            assert got_part == want_part
            for got_array, want_array in zip(got_eig, want_eig):
                _same_array(got_array, want_array)


class TestAgainstTheRegister:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_block_generator_and_propagator_is_bit_identical(self, params, mode, n):
        cutoff = 3 if mode == "lindblad" else 4
        _assert_same_compile(build_layout(n, n, cutoff, cutoff), params, mode)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(1, 2),
        mode=st.sampled_from(MODES),
        scale=st.sampled_from([0.5, 1.0, 3.0]),
        present=st.lists(st.booleans(), min_size=8, max_size=8),
        zero_kappa=st.booleans(),
    )
    def test_channels_and_couplings_that_give_no_move(self, params, n, mode, scale, present, zero_kappa):
        # an absent or zero-rate channel is omitted, and a zero rate gives no move
        times = dict(t1=30e-6, t2=40e-6, t1f=20e-6, t2f=15e-6, coupler_t1=25e-6, coupler_t2=30e-6)
        overrides = {key: value if keep else None for (key, value), keep in zip(times.items(), present)}
        overrides["kappaL"] = 0.0 if zero_kappa else (1e4 if present[6] else None)
        overrides["kappaR"] = 2e4 if present[7] else 0.0
        overrides.update(mu1=scale * params.mu1, muAR=scale * params.muAR)
        varied = params.with_overrides(**overrides)
        layout = build_layout(n, n, 3, 3)
        if mode == "lindblad" and not runner.collapse_terms(layout, varied):
            with pytest.raises(ValueError, match="decoherence"):
                runner._compiled(layout, tuple(build_schedule(varied, n)), varied, mode)
            return
        _assert_same_compile(layout, varied, mode)


class TestReachable:
    def test_embedding_on_a_basis_is_the_register_restriction(self):
        layout = build_layout(2, 2, 3, 3)
        rng = np.random.default_rng(5)
        basis = np.sort(rng.choice(layout.dim, size=layout.dim // 5, replace=False))
        for sites in [(), ("q2",), ("q1", "cavR"), ("q2", "A", "cavL")]:
            factors = {}
            for site in sites:
                d = layout.site_dim(site)
                local = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                factors[site] = np.where(rng.random((d, d)) < 0.5, local, 0)  # some columns hold two or more
            got = embed_operator(layout, factors, basis)
            whole = embed_operator(layout, factors, register(layout)).matrix
            assert got.basis is basis
            _same_csr(got.matrix, whole[basis][:, basis])
            # applied to a register state, it acts as P O P for P the projector onto the basis
            amplitudes = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
            state = QuantumState(amplitudes, layout, basis=register(layout))
            inside = np.zeros(layout.dim, dtype=complex)
            inside[basis] = state.amplitudes[basis]
            projected = np.zeros(layout.dim, dtype=complex)
            projected[basis] = (whole @ inside)[basis]
            assert np.abs(on_register(got.apply(state)).amplitudes - projected).max() <= 1e-13

    def test_closure_matches_the_matrix_closure(self):
        layout = build_layout(2, 2, 3, 3)
        rng = np.random.default_rng(6)
        terms = [{"q1": rng.random((3, 3)) < 0.3, "cavL": np.eye(4, k=1)}, {"A": np.eye(2, k=-1)}]
        seed = rng.choice(layout.dim, size=5, replace=False)
        edges = sum(abs(embed_operator(layout, term, register(layout)).matrix) for term in terms)
        reach = np.isin(np.arange(layout.dim), seed)
        while True:
            grown = reach | (edges @ reach > 0)
            if np.array_equal(grown, reach):
                break
            reach = grown
        _same_array(reachable(layout, seed, local_moves(layout, terms)), np.flatnonzero(reach))


class TestScale:
    def test_compile_allocates_less_than_one_register_vector(self, params):
        # full-dispersive n = 5: the register holds 2 952 450 states, one complex vector 47 MB
        layout = build_layout(5, 5, 4, 4)
        segments = tuple(build_schedule(params, 5))
        runner._compiled.cache_clear()
        tracemalloc.start()
        try:
            compiled = runner._compiled(layout, segments, params, "full-dispersive")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            runner._compiled.cache_clear()
        assert peak < 16 * layout.dim, peak
        assert max(step.support.size for step in compiled.steps) < layout.dim // 100

    def test_full_dispersive_n6_compile_stays_under_its_traced_peak(self, params):
        # the bound is the 88.2 MiB traced here when the BFS formed (products x factors x states) arrays;
        # a one-pass dispersive build that formed them over every factor any product touches traced 183 MiB
        layout = build_layout(6, 6, 4, 4)
        segments = tuple(build_schedule(params, 6))
        runner._compiled.cache_clear()
        tracemalloc.start()
        try:
            runner._compiled(layout, segments, params, "full-dispersive")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            runner._compiled.cache_clear()
        assert peak < 96 * 2**20, peak

    @pytest.mark.parametrize("mode", ["ideal-reduced", "full-dispersive"])
    def test_a_pure_run_allocates_less_than_one_register_vector(self, params, mode):
        # the compile, every step, its checkpoints and the final state, all on supports
        spec = GhzSpec(alpha=0.6, beta=0.8j, n=5)
        runner._compiled.cache_clear()
        tracemalloc.start()
        try:
            result = run_protocol(params, spec, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            runner._compiled.cache_clear()
        assert peak < 16 * result.layout.dim, peak
        assert result.final_state.basis.size < result.layout.dim // 100

    def test_verify_single_share_check_allocates_less_than_one_register_vector(self, params):
        # n = 5: the ideal runs, then the encode pulse and every reduction on the final state's basis
        layout = build_layout(5, 5, 4, 4)
        runner._compiled.cache_clear()
        tracemalloc.start()
        try:
            checks = cli._verify_checks(params, 5, 7, 2, True, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            runner._compiled.cache_clear()
        assert peak < 16 * layout.dim, peak
        assert {check["name"]: check["ok"] for check in checks}["single-share-mixedness"]

    def test_an_oversized_lindblad_block_is_refused_before_it_is_built(self, params, monkeypatch):
        # the estimate for the 80-state n = 2 block is 250 * 80^2 = 1.6 MB
        built, dissipator = [], runner.Dissipator
        monkeypatch.setattr(runner, "_available_memory", lambda: 1_000_000)
        monkeypatch.setattr(runner, "Dissipator", lambda *args: built.append(args) or dissipator(*args))
        runner._compiled.cache_clear()
        with pytest.raises(ValueError, match=r"80 states.*needs about"):
            run_protocol(params, GhzSpec(alpha=0.6, beta=0.8j, n=2), mode="lindblad", fock_cutoff=3)
        assert built == []
        monkeypatch.setattr(runner, "_available_memory", lambda: 2_000_000)
        run_protocol(params, GhzSpec(alpha=0.6, beta=0.8j, n=2), mode="lindblad", fock_cutoff=3)
        assert len(built) == 1
        runner._compiled.cache_clear()


class TestBuildCounts:
    """A compile builds through the names perfbench/tracer.py wraps to count generator builds."""

    @pytest.mark.parametrize("mode", MODES)
    def test_an_n2_compile_builds_each_generator_and_the_channels_once(self, params, mode, monkeypatch):
        calls = Counter()

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("h_resonant_ef", "h_resonant_ge", "h_dispersive_reduced", "collapse_operators"):
            monkeypatch.setattr(runner, name, counted(name, getattr(runner, name)))
        monkeypatch.setattr(DispersiveGenerator, "__init__", counted("DispersiveGenerator", DispersiveGenerator.__init__))
        runner._compiled.cache_clear()
        try:
            runner._compiled(build_layout(2, 2, 3, 3), tuple(build_schedule(params, 2)), params, mode)
        finally:
            runner._compiled.cache_clear()
        driven = mode == "full-dispersive"
        assert calls["h_resonant_ef"] + calls["h_resonant_ge"] == 8
        assert (calls["DispersiveGenerator"], calls["h_dispersive_reduced"]) == ((1, 0) if driven else (0, 1))
        assert calls["collapse_operators"] == (mode == "lindblad")


class TestAvailableMemory:
    """The preflight reads ``MemAvailable``, and physical memory where the system does not report it."""

    @staticmethod
    def _machine(monkeypatch, tmp_path, meminfo, physical=16 * 2**30):
        path = tmp_path / "meminfo"
        if meminfo is not None:
            path.write_text(meminfo)
        monkeypatch.setattr(runner, "_MEMINFO", str(path))
        pages, sysconf = {"SC_PHYS_PAGES": physical // 4096, "SC_PAGE_SIZE": 4096}, os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name] if name in pages else sysconf(name))

    def test_a_block_that_fits_physical_but_not_available_memory_is_refused(self, params, monkeypatch, tmp_path):
        # the 80-state n = 2 block needs about 1.6 MB: far below 16 GiB, above 1000 kB
        self._machine(monkeypatch, tmp_path, "MemTotal:       16777216 kB\nMemAvailable:       1000 kB\n")
        built = []
        monkeypatch.setattr(runner, "Dissipator", lambda *args: built.append(args))
        runner._compiled.cache_clear()
        with pytest.raises(ValueError, match=r"80 states.*more than the 1 MiB of memory available"):
            run_protocol(params, GhzSpec(alpha=0.6, beta=0.8j, n=2), mode="lindblad", fock_cutoff=3)
        assert built == []
        runner._compiled.cache_clear()

    def test_reads_mem_available(self, monkeypatch, tmp_path):
        self._machine(monkeypatch, tmp_path, "MemTotal:       16777216 kB\nMemAvailable:    1234 kB\n")
        assert runner._available_memory() == 1234 * 1024

    @pytest.mark.parametrize("meminfo", [
        None,  # no /proc/meminfo at all
        "MemTotal:       16777216 kB\nMemFree:     1000 kB\n",  # a kernel older than MemAvailable
        "MemAvailable:\n",
        "MemAvailable:    lots kB\n",
    ])
    def test_missing_or_malformed_meminfo_falls_back_to_physical_memory(self, monkeypatch, tmp_path, meminfo):
        self._machine(monkeypatch, tmp_path, meminfo, physical=2**30)
        assert runner._available_memory() == 2**30
