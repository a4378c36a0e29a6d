"""End-to-end protocol runs scored against the closed-form checkpoints.

Three modes share two segment loops, one for pure states and one for
density matrices:

* ``ideal-reduced``: pure states, every window under its reduced
  generator. This is the reference dynamics the checkpoint table
  describes exactly.
* ``full-dispersive``: pure states, but the dispersive window runs the
  literal time-dependent drive instead of its second-order reduction.
  Checkpoint fidelities then measure the reduction error itself.
* ``lindblad``: density-matrix evolution under the reduced generators
  plus the register's collapse channels.

Ramp windows carry no coherent generator: in the rotating frame the
drives are simply off, so the closed-system modes treat them as pure
time bookkeeping while the open-system mode idles under the collapse
channels for their duration (and for the closing ramp).

A run is compiled once, then applied. :func:`_compiled` walks the
schedule without the amplitudes, finds the states a run can reach by a
breadth-first search over the operators' local moves, and builds every
operator on them, never on the register: a
:class:`~ghz_transfer.evolution.Propagator` per pure segment, or each
segment's generator and one :class:`~ghz_transfer.evolution.Dissipator` on
the lindblad block (80^2 entries where the n=2 cutoff-3 register has
2592^2). The runs of a batch share the one cached compile and never
write to it. A pure run starts from the initial state on the seed and
keeps every state on its step's support, a
:class:`~ghz_transfer.hilbert.QuantumState` whose ``basis`` is that
support, so nothing of register size is allocated. Every mode keeps its
trajectory rows as arrays (:class:`Trajectory`) and scores its checkpoints
and final fidelity on the basis the state lives on; a lindblad run's final
state is the density matrix on its block, a Hermitian
:class:`~ghz_transfer.hilbert.OperatorMatrix` whose ``basis`` is the block.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# make_oracle_state, oracle_branches and checkpoint_fidelity go uncalled; perfbench/tracer.py wraps them on this module
from .analysis import STAGE_CHECKPOINTS, GhzSpec, _oracle_parts, _oracle_support, make_oracle_state, oracle_branches
from .evolution import Dissipator, Propagator, checkpoint_fidelity, evolve_unitary, lindblad_propagate
from .hamiltonians import (
    DispersiveGenerator,
    PhysicalParams,
    collapse_operators,
    collapse_terms,
    drive_terms,
    h_dispersive_reduced,
    h_resonant_ef,
    h_resonant_ge,
    hermitian_moves,
    sideband_term,
)
from .hilbert import OperatorMatrix, QuantumState, SystemLayout, build_layout, local_moves, reachable
from .scheduling import Schedule, build_schedule

__all__ = [
    "MODES",
    "CheckpointRecord",
    "ProtocolResult",
    "Trajectory",
    "TRAJECTORY_COLUMNS",
    "run_protocol",
    "excitation_numbers",
    "TRUNCATION_LIMIT",
]

MODES = ("ideal-reduced", "full-dispersive", "lindblad")

# total top-Fock weight above this means the cutoff is biting
TRUNCATION_LIMIT = 1e-6
BRANCH_PHASE_TOLERANCE = 1e-6

DEFAULT_FINAL_THRESHOLD = {
    "ideal-reduced": 1.0 - 1e-6,
    "full-dispersive": 0.95,
    "lindblad": 0.9,
}
# stage checkpoints are gated in ideal mode only: the other modes exist to
# measure deviations from the oracles
CHECKPOINT_THRESHOLD = 1.0 - 1e-7

# which oracle checkpoint a canonical segment lands on
CHECKPOINT_AFTER_SEGMENT = {
    "step1a": "after_step1a",
    "step1b": "after_step1",
    "step2a": "after_step2a",
    "step2b": "after_step2",
    "step3": "after_step3",
    "step4a": "after_step4a",
    "step4b": "after_step4",
    "step5a": "after_step5a",
    "step5b": "final",
}


def excitation_numbers(layout: SystemLayout, indices: np.ndarray) -> np.ndarray:
    """Total quanta of each of the flat basis indices ``indices``.

    Qudit levels count their excitation number (g, e, f = 0, 1, 2), the
    coupler 0/1, photons as-is. Sideband pulses trade one qudit level
    for one photon and the dispersive drive trades e+photon for f, so
    every generator conserves this; collapse channels only lower it.
    """
    return np.sum(np.unravel_index(indices, layout.factor_dims), axis=0)


def _complex_pair(z: complex | None) -> list[float] | None:
    return None if z is None else [float(z.real), float(z.imag)]


@dataclass(frozen=True)
class CheckpointRecord:
    """Comparison of the simulated state against one oracle checkpoint."""

    label: str
    time_s: float
    fidelity: float
    coeff_g: complex | None = None  # branch overlaps; None for mixed states
    coeff_f: complex | None = None
    expected_coeff_g: complex | None = None
    expected_coeff_f: complex | None = None
    phase_error: float | None = None

    def as_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "fidelity": self.fidelity,
            "coeff_g": _complex_pair(self.coeff_g),
            "coeff_f": _complex_pair(self.coeff_f),
            "expected_coeff_g": _complex_pair(self.expected_coeff_g),
            "expected_coeff_f": _complex_pair(self.expected_coeff_f),
            "phase_error": self.phase_error,
        }


# trajectory columns after t_ns and segment; each is a diagonal observable
_ROW_COLUMNS = (
    "norm", "spectator_f_total", "q1_f", "q1p_f", "coupler_e",
    "photons_L", "photons_R", "top_fock",
)
TRAJECTORY_COLUMNS = ("t_ns", "segment", *_ROW_COLUMNS)


class Trajectory(Sequence):
    """The sampled observables of a run, kept as arrays until they are written.

    ``segments`` holds one ``(label, t_ns, table)`` entry per segment:
    the sample times in ns and a ``(samples, len(_ROW_COLUMNS))`` table.
    ``len`` counts rows; indexing and iteration build each row on demand
    as a dict keyed by ``TRAJECTORY_COLUMNS``, and :meth:`column` gives
    one of those columns over every row as an array, which is how the
    CLI writes the table.
    """

    def __init__(self, segments: list[tuple[str, np.ndarray, np.ndarray]]):
        self.segments = segments

    def __len__(self) -> int:
        return sum(t_ns.size for _, t_ns, _ in self.segments)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        for label, t_ns, table in self.segments:
            if 0 <= index < t_ns.size:
                row = (t_ns[index].item(), label, *table[index].tolist())
                return dict(zip(TRAJECTORY_COLUMNS, row))
            index -= t_ns.size
        raise IndexError("trajectory row out of range")

    def __iter__(self):
        for label, t_ns, table in self.segments:
            for t, values in zip(t_ns.tolist(), table.tolist()):
                yield dict(zip(TRAJECTORY_COLUMNS, (t, label, *values)))

    def column(self, name: str) -> np.ndarray:
        """One ``TRAJECTORY_COLUMNS`` column over every row; ``segment`` holds the labels."""
        if name == "t_ns":
            parts = [t_ns for _, t_ns, _ in self.segments]
        elif name == "segment":
            parts = [np.full(t_ns.size, label) for label, t_ns, _ in self.segments]
        else:
            col = _ROW_COLUMNS.index(name)
            parts = [table[:, col] for _, _, table in self.segments]
        return np.concatenate(parts)


@dataclass
class ProtocolResult:
    mode: str
    spec: GhzSpec
    layout: SystemLayout
    schedule: Schedule
    checkpoints: dict[str, CheckpointRecord]
    final_fidelity: float
    final_state: QuantumState | OperatorMatrix
    trajectory: Trajectory
    truncation_top_fock: float
    thresholds: dict
    passes: dict

    @property
    def ok(self) -> bool:
        return all(self.passes.values())

    @property
    def max_spectator_f(self) -> float | None:
        if not self.trajectory:
            return None
        return float(self.trajectory.column("spectator_f_total").max())

    def report(self) -> dict:
        sched = self.schedule
        m, k = sched.resonance if sched.resonance else (None, None)
        return {
            "mode": self.mode,
            "n": self.spec.n,
            "alpha": _complex_pair(complex(self.spec.alpha)),
            "beta": _complex_pair(complex(self.spec.beta)),
            "layout": self.layout.to_dict(),
            "budget": {
                "tau_r_s": sched.tau_r,
                "tau_o_s": sched.tau_o,
                "tau_a_s": sched.tau_a,
                "tau_s": sched.tau,
                "resonance_m": m,
                "resonance_k": k,
            },
            "checkpoints": {
                label: rec.as_dict() for label, rec in self.checkpoints.items()
            },
            "final_fidelity": self.final_fidelity,
            "max_spectator_f": self.max_spectator_f,
            "truncation_top_fock": self.truncation_top_fock,
            "thresholds": self.thresholds,
            "passes": dict(self.passes),
            "ok": self.ok,
        }


def _observables(layout: SystemLayout, support: np.ndarray) -> np.ndarray:
    """Value of each ``_ROW_COLUMNS`` observable on the basis states ``support``.

    Shape ``(len(_ROW_COLUMNS), len(support))``; levels are decoded from
    the indices themselves, so nothing of full register size is built.
    """
    levels = dict(zip(layout.site_names, np.unravel_index(support, layout.factor_dims)))
    spectators = layout.left_spectators + layout.right_spectators
    return np.array([
        np.ones(support.size),
        sum((levels[site] == 2 for site in spectators), np.zeros(support.size)),
        levels["q1"] == 2,
        levels["q1p"] == 2,
        levels["A"] == 1,
        levels["cavL"],
        levels["cavR"],
        (levels["cavL"] == layout.fock_cutoff_left) | (levels["cavR"] == layout.fock_cutoff_right),
    ], dtype=float)


def _segment_samples(observables, segment, times_s, weights):
    """The segment's ``Trajectory`` entry, and the largest top-Fock weight.

    ``weights`` has one more row than ``times_s``: the segment's final
    populations. The table is filled one observable at a time, through one
    ``weights``-sized buffer; each row is summed by numpy, not BLAS, so the
    bytes do not depend on the BLAS thread count.
    """
    table = np.empty((weights.shape[0], len(observables)))
    product = np.empty_like(weights)
    for col, observable in enumerate(observables):
        table[:, col] = np.multiply(weights, observable, out=product).sum(axis=-1)
    return (segment, times_s * 1e9, table[:-1]), float(table[:, -1].max())


def _segment_generator(layout, seg, params, mode, basis):
    """The segment's generator on ``basis``."""
    if seg.kind == "resonant_ef":
        return h_resonant_ef(layout, seg.cavity, seg.site, seg.coupling, basis)
    if seg.kind == "resonant_ge":
        return h_resonant_ge(layout, seg.cavity, seg.site, seg.coupling, basis)
    if mode == "full-dispersive":
        return DispersiveGenerator(layout, _window_params(seg, params), basis)
    return h_dispersive_reduced(layout, _window_params(seg, params), basis)


def _segment_moves(layout, seg, params, mode):
    """The local moves of the segment's generator, both ways; its diagonal moves nothing."""
    if seg.kind != "dispersive":
        levels = ("e", "f") if seg.kind == "resonant_ef" else ("g", "e")
        terms = [sideband_term(layout, seg.cavity, seg.site, *levels, seg.coupling)]
    else:
        terms = drive_terms(layout, _window_params(seg, params)) if mode == "full-dispersive" else []
    return hermitian_moves(layout, terms)


def _window_params(seg, params):
    return params.with_overrides(mu=seg.coupling, delta=seg.detuning, mu_prime=seg.coupling2, delta_prime=seg.detuning2)


def _pure_checkpoint(spec, label, state, time_s) -> CheckpointRecord:
    """Score ``state`` against a checkpoint on its basis."""
    g_part, f_part, cg_exp, cf_exp = _oracle_parts(state.layout, spec, label, state.basis)
    amps = state.amplitudes
    # numpy, not BLAS, as QuantumState.overlap: the bytes do not depend on the thread count
    cg = complex(np.sum(g_part.conj() * amps))
    cf = complex(np.sum(f_part.conj() * amps))
    fid = float(abs(np.sum((cg_exp * g_part + cf_exp * f_part).conj() * amps)) ** 2)
    return CheckpointRecord(
        label=label, time_s=time_s, fidelity=fid,
        coeff_g=cg, coeff_f=cf, expected_coeff_g=cg_exp, expected_coeff_f=cf_exp,
        phase_error=max(abs(cg - cg_exp), abs(cf - cf_exp)),
    )


class _Compiled(NamedTuple):
    """A schedule compiled by :func:`_compiled`; nothing in it is register-sized."""

    support: np.ndarray  # where a run builds its initial state: the seed, or the lindblad block
    steps: list  # per segment, a Propagator or the generator on the block
    dissipator: Dissipator | None  # the block's channels (lindblad only)


# a lindblad run peaks near this many bytes per real coordinate of its block (470 MB at n = 4: d = 1280)
PEAK_BYTES_PER_COORDINATE = 250
# the kernel's estimate of the memory a new process can take without swapping (Linux 3.14+)
_MEMINFO = "/proc/meminfo"


@lru_cache(maxsize=1)
def _compiled(layout, segments, params, mode) -> _Compiled:
    """Compile a tuple of segments onto the states a run can reach.

    Segment k acts on C_k: the closure of C_(k-1) under its generator
    (both ways) and, in lindblad mode, every collapse channel (forward),
    from C_0, both initial branches' supports, each grown from the local
    terms the operators are made of (:func:`reachable`). A pure step's
    generator is built on C_k and compiled from C_(k-1), and dropped once
    it is. Lindblad builds every generator and channel on the final block,
    closed once more under the channels (the ramps' decay), after a check
    that the run fits in memory. Nothing is built on the register. The one
    cached entry holds the last (layout, segments, params, mode).
    """
    seed = _oracle_support(layout, "initial")
    if mode != "lindblad":
        steps, reach = [], seed
        for seg in segments:
            basis = reachable(layout, reach, _segment_moves(layout, seg, params, mode))
            steps.append(Propagator.compile(_segment_generator(layout, seg, params, mode, basis), reach))
            reach = steps[-1].support
        return _Compiled(seed, steps, None)
    channels = collapse_terms(layout, params)
    if not channels:
        raise ValueError("lindblad mode needs decoherence parameters (t1/t2/kappa) in the params")
    # every channel's L^+ L is diagonal (no L sends two basis states to the
    # same one), so the damping adds no move of its own
    channels, reach = local_moves(layout, channels), seed
    for seg in segments:
        reach = reachable(layout, reach, _segment_moves(layout, seg, params, mode) + channels)
    keep = reachable(layout, reach, channels)
    need, have = PEAK_BYTES_PER_COORDINATE * keep.size**2, _available_memory()
    if have is not None and need > have:  # refused before anything of the block's size is built
        raise ValueError(f"the lindblad block has {keep.size} states: the run needs about "
                         f"{need / 2**20:,.0f} MiB, more than the {have / 2**20:,.0f} MiB of memory available")
    dissipator = Dissipator([op.matrix for op in collapse_operators(layout, params, keep)], keep.size)
    steps = [_segment_generator(layout, seg, params, mode, keep).matrix for seg in segments]
    return _Compiled(keep, steps, dissipator)


def _available_memory() -> int | None:
    """Bytes of memory available: ``MemAvailable`` where the system reports it, else physical
    memory, or None where the system says neither."""
    import os

    try:
        with open(_MEMINFO) as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _oracle_on(layout, spec, label, keep) -> np.ndarray:
    """The oracle state at ``label`` on the basis indices ``keep``, entry by entry as the full ket."""
    g_part, f_part, c_g, c_f = _oracle_parts(layout, spec, label, keep)
    return c_g * g_part + c_f * f_part


def _run_pure(layout, schedule, spec, compiled, samples):
    state = QuantumState(_oracle_on(layout, spec, "initial", compiled.support), layout, basis=compiled.support)
    sampled = []
    truncation = 0.0  # the initial state holds no photons
    checkpoints: dict[str, CheckpointRecord] = {}
    t_now = 0.0
    for seg, step in zip(schedule, compiled.steps):
        t_now += seg.ramp_s  # drive off: the state only ages
        result = evolve_unitary(state, step, seg.duration_s, samples=samples)
        state = result.final
        weights = np.empty((result.samples.shape[0] + 1, state.basis.size))  # |amplitude|^2, final row last
        np.abs(result.samples, out=weights[:-1])
        np.abs(state.amplitudes, out=weights[-1])
        np.square(weights, out=weights)
        entry, top = _segment_samples(
            _observables(layout, state.basis), seg.label, t_now + result.times, weights
        )
        del result, weights  # the sampled amplitudes go before the next step allocates its own
        sampled.append(entry)
        truncation = max(truncation, top)
        t_now += seg.duration_s
        label = CHECKPOINT_AFTER_SEGMENT.get(seg.label)
        if label is not None:
            checkpoints[label] = _pure_checkpoint(spec, label, state, t_now)
    final_fidelity = _pure_checkpoint(spec, "final", state, t_now).fidelity
    return state, checkpoints, Trajectory(sampled), truncation, final_fidelity


def _block_fidelity(spec, label, rho, keep, layout) -> float:
    """<oracle|rho|oracle> for the block ``rho`` on the basis indices ``keep``."""
    oracle = _oracle_on(layout, spec, label, keep)
    return float(np.real(oracle.conj() @ rho @ oracle))


def _run_lindblad(layout, schedule, spec, compiled, samples):
    keep, dissipator = compiled.support, compiled.dissipator
    observables = _observables(layout, keep)
    block = _oracle_on(layout, spec, "initial", keep)
    rho = np.outer(block, block.conj())
    sampled = []
    checkpoints: dict[str, CheckpointRecord] = {}
    truncation = 0.0  # the initial state holds no photons
    t_now = 0.0
    for seg, h_block in zip(schedule, compiled.steps):
        if seg.ramp_s > 0:
            rho, _ = lindblad_propagate(None, dissipator, rho, seg.ramp_s)
        t_now += seg.ramp_s
        rho, populations = lindblad_propagate(
            h_block, dissipator, rho, seg.duration_s, samples=samples
        )
        entry, top = _segment_samples(
            observables, seg.label, t_now + np.linspace(0.0, seg.duration_s, samples),
            np.vstack([populations, np.real(np.diag(rho))]),
        )
        sampled.append(entry)
        truncation = max(truncation, top)
        t_now += seg.duration_s
        label = CHECKPOINT_AFTER_SEGMENT.get(seg.label)
        if label is not None:
            fid = _block_fidelity(spec, label, rho, keep, layout)
            checkpoints[label] = CheckpointRecord(label=label, time_s=t_now, fidelity=fid)
    if schedule.closing_ramp_s > 0:
        rho, _ = lindblad_propagate(None, dissipator, rho, schedule.closing_ramp_s)
    final_fidelity = _block_fidelity(spec, "final", rho, keep, layout)
    final_state = OperatorMatrix(rho, layout, hermitian=True, by_construction=True, basis=keep)
    return final_state, checkpoints, Trajectory(sampled), truncation, final_fidelity


def run_protocol(
    params: PhysicalParams,
    spec: GhzSpec,
    *,
    mode: str = "ideal-reduced",
    fock_cutoff: int | None = None,
    schedule: Schedule | None = None,
    trajectory_samples: int = 0,
    final_threshold: float | None = None,
) -> ProtocolResult:
    """Run the five-step transfer and compare it to the oracle chain.

    ``trajectory_samples`` > 0 records that many population rows per
    segment (needed to resolve the fast oscillation of the spectator f
    level, which cycles at roughly the detuning).

    A given ``schedule`` runs on its own ``layout``, and a ``fock_cutoff``
    that differs from that layout's cutoffs is a ValueError. Without one,
    the :func:`build_schedule` schedule runs with ``fock_cutoff`` (default
    4) on both cavities.

    Thresholds: ``final_threshold`` defaults per mode (1 - 1e-6 ideal,
    0.95 full-dispersive, 0.9 lindblad). Stage checkpoints must reach
    1 - 1e-7 in ideal mode and are not gated elsewhere.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; modes are {MODES}")
    if schedule is None:
        schedule = build_schedule(params, spec.n)
        if fock_cutoff is not None:
            schedule = replace(schedule, layout=build_layout(spec.n, spec.n, fock_cutoff, fock_cutoff))
    layout = schedule.layout
    if (layout.n_left, layout.n_right) != (spec.n, spec.n):
        raise ValueError(
            f"schedule is for ({layout.n_left}, {layout.n_right}) qubits, "
            f"spec wants n = {spec.n}"
        )
    if fock_cutoff is not None and {layout.fock_cutoff_left, layout.fock_cutoff_right} != {fock_cutoff}:
        raise ValueError(
            f"schedule runs at Fock cutoffs ({layout.fock_cutoff_left}, "
            f"{layout.fock_cutoff_right}), not fock_cutoff = {fock_cutoff}"
        )

    if final_threshold is None:
        final_threshold = DEFAULT_FINAL_THRESHOLD[mode]
    checkpoint_threshold = CHECKPOINT_THRESHOLD if mode == "ideal-reduced" else None

    compiled = _compiled(layout, tuple(schedule), params, mode)
    run = _run_lindblad if mode == "lindblad" else _run_pure
    outcome = run(layout, schedule, spec, compiled, trajectory_samples)
    final_state, checkpoints, trajectory, truncation, final_fidelity = outcome

    thresholds = {
        "final_fidelity": final_threshold,
        "checkpoint_fidelity": checkpoint_threshold,
        "truncation": TRUNCATION_LIMIT,
    }
    passes = {
        "final_fidelity": bool(final_fidelity >= final_threshold),
        "truncation": bool(truncation < TRUNCATION_LIMIT),
    }
    if mode == "ideal-reduced":
        passes["checkpoints"] = all(
            rec.fidelity >= checkpoint_threshold
            for label, rec in checkpoints.items()
            if label in STAGE_CHECKPOINTS
        )
        thresholds["branch_phase"] = BRANCH_PHASE_TOLERANCE
        worst = max((rec.phase_error for rec in checkpoints.values()), default=0.0)
        passes["branch_phase"] = bool(worst <= BRANCH_PHASE_TOLERANCE)

    return ProtocolResult(
        mode=mode,
        spec=spec,
        layout=layout,
        schedule=schedule,
        checkpoints=checkpoints,
        final_fidelity=float(final_fidelity),
        final_state=final_state,
        trajectory=trajectory,
        truncation_top_fock=float(truncation),
        thresholds=thresholds,
        passes=passes,
    )
