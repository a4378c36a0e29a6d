"""The compile on the reachable basis against the register-sized compile it replaced."""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from register_compile_oracle import register_compile

from ghz_transfer import runner
from ghz_transfer.analysis import GhzSpec
from ghz_transfer.hamiltonians import load_preset
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
        _same_csr(got.dissipator.generator, want.dissipator.generator)
        return
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
            whole = embed_operator(layout, factors).matrix
            assert got.basis is basis
            _same_csr(got.matrix, whole[basis][:, basis])
            # applied to a register state, it acts as P O P for P the projector onto the basis
            state = QuantumState(rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim), layout)
            inside = np.zeros(layout.dim, dtype=complex)
            inside[basis] = state.amplitudes[basis]
            projected = np.zeros(layout.dim, dtype=complex)
            projected[basis] = (whole @ inside)[basis]
            assert np.abs(got.apply(state).amplitudes - projected).max() <= 1e-13

    def test_closure_matches_the_matrix_closure(self):
        layout = build_layout(2, 2, 3, 3)
        rng = np.random.default_rng(6)
        terms = [{"q1": rng.random((3, 3)) < 0.3, "cavL": np.eye(4, k=1)}, {"A": np.eye(2, k=-1)}]
        seed = rng.choice(layout.dim, size=5, replace=False)
        edges = sum(abs(embed_operator(layout, term).matrix) for term in terms)
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
