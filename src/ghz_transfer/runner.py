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

Neither path evolves the full register. A pure segment is propagated
only on the connected components of its generator that the state meets
(``EvolutionResult.support``). The open-system path follows the nonzero
pattern of every segment generator and collapse channel out of the
initial state's support: coherent couplings move weight both ways,
collapse channels only forward. The closed set this reaches is the only
block the density matrix can ever occupy, so each segment is propagated
exactly on it, which cuts the n=2 cutoff-3 density matrix from 2592^2
to 80^2; a lindblad run's final state is that block, stored sparse
(:meth:`DensityMatrix.from_block`). Every mode reduces its trajectory
rows (kept as arrays, one table per segment: :class:`Trajectory`) and
scores its checkpoints and final fidelity on the indices the state
occupies, the segment's support or the block: the initial state is the
only register-sized oracle ket a run builds.

Nothing that depends only on the schedule is built twice. The segment
generators depend on the layout, the segments, the parameters and the
mode but not on the amplitudes, so the runs of a batch share one set
(:func:`_segment_generators` keeps the last one). A lindblad run builds
one :class:`~ghz_transfer.evolution.Dissipator` for its block, which holds
the H = 0 Liouvillian: every ramp evolves under it, and every segment adds
its own H term to it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat

import numpy as np
import scipy.sparse as sp

# oracle_branches and checkpoint_fidelity go uncalled; perfbench/tracer.py wraps them on this module
from .analysis import STAGE_CHECKPOINTS, GhzSpec, _oracle_parts, make_oracle_state, oracle_branches
from .evolution import Dissipator, checkpoint_fidelity, evolve_unitary, lindblad_propagate
from .hamiltonians import (
    DispersiveGenerator,
    PhysicalParams,
    collapse_operators,
    h_dispersive_reduced,
    h_resonant_ef,
    h_resonant_ge,
)
from .hilbert import DensityMatrix, QuantumState, SystemLayout, build_layout
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


def excitation_numbers(layout: SystemLayout) -> np.ndarray:
    """Total quanta of every basis state, shape ``(dim,)``.

    Qudit levels count their excitation number (g, e, f = 0, 1, 2), the
    coupler 0/1, photons as-is. Sideband pulses trade one qudit level
    for one photon and the dispersive drive trades e+photon for f, so
    every generator conserves this; collapse channels only lower it.
    """
    total = np.zeros(layout.dim, dtype=np.int64)
    for site in layout.site_names:
        total += layout.level_index_array(site)
    return total


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
    as a dict keyed by ``TRAJECTORY_COLUMNS``, and :meth:`records` yields
    the same rows as plain value tuples in that column order.
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
        return (dict(zip(TRAJECTORY_COLUMNS, record)) for record in self.records())

    def records(self):
        """Every row as a tuple of Python values in ``TRAJECTORY_COLUMNS`` order."""
        for label, t_ns, table in self.segments:
            yield from zip(t_ns.tolist(), repeat(label), *table.T.tolist())

    def column(self, name: str) -> np.ndarray:
        """One observable column over every row."""
        col = _ROW_COLUMNS.index(name)
        return np.concatenate([table[:, col] for _, _, table in self.segments])


@dataclass
class ProtocolResult:
    mode: str
    spec: GhzSpec
    layout: SystemLayout
    schedule: Schedule
    checkpoints: dict[str, CheckpointRecord]
    final_fidelity: float
    final_state: QuantumState | DensityMatrix
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
    populations. Summed by numpy, not BLAS, so the bytes do not depend on
    the BLAS thread count.
    """
    table = (weights[:, None, :] * observables).sum(axis=-1)
    return (segment, times_s * 1e9, table[:-1]), float(table[:, -1].max())


def _segment_generator(layout, seg, params, mode):
    if seg.kind == "resonant_ef":
        return h_resonant_ef(layout, seg.cavity, seg.site, seg.coupling)
    if seg.kind == "resonant_ge":
        return h_resonant_ge(layout, seg.cavity, seg.site, seg.coupling)
    window_params = params.with_overrides(
        mu=seg.coupling,
        delta=seg.detuning,
        mu_prime=seg.coupling2,
        delta_prime=seg.detuning2,
    )
    if mode == "full-dispersive":
        return DispersiveGenerator(layout, window_params)
    return h_dispersive_reduced(layout, window_params)


@lru_cache(maxsize=1)
def _segment_generators(layout, segments, params, mode) -> dict:
    """Every segment's generator by label, for a tuple of segments.

    None depends on the amplitudes, so the runs of a batch (``random:``
    specs, ``verify``'s loop) share one set. The one cached entry holds
    the last (layout, segments, params, mode); callers only read it.
    """
    return {seg.label: _segment_generator(layout, seg, params, mode) for seg in segments}


def _pure_checkpoint(spec, label, state, support, time_s) -> CheckpointRecord:
    """Score ``state``, zero off the indices ``support``, against a checkpoint on them."""
    g_part, f_part, cg_exp, cf_exp = _oracle_parts(state.layout, spec, label, support)
    amps = state.amplitudes[support]
    # numpy, not BLAS, as QuantumState.overlap: the bytes do not depend on the thread count
    cg = complex(np.sum(g_part.conj() * amps))
    cf = complex(np.sum(f_part.conj() * amps))
    fid = float(abs(np.sum((cg_exp * g_part + cf_exp * f_part).conj() * amps)) ** 2)
    return CheckpointRecord(
        label=label, time_s=time_s, fidelity=fid,
        coeff_g=cg, coeff_f=cf, expected_coeff_g=cg_exp, expected_coeff_f=cf_exp,
        phase_error=max(abs(cg - cg_exp), abs(cf - cf_exp)),
    )


def _run_pure(layout, schedule, spec, params, mode, samples):
    state = make_oracle_state(layout, spec, "initial")
    support = np.flatnonzero(state.amplitudes)
    sampled = []
    truncation = 0.0  # the initial state holds no photons
    checkpoints: dict[str, CheckpointRecord] = {}
    t_now = 0.0
    generators = _segment_generators(layout, tuple(schedule), params, mode)
    for seg in schedule:
        t_now += seg.ramp_s  # drive off: the state only ages
        result = evolve_unitary(state, generators[seg.label], seg.duration_s, samples=samples)
        state, support = result.final, result.support
        weights = np.abs(np.vstack([result.samples, state.amplitudes[support]])) ** 2
        entry, top = _segment_samples(
            _observables(layout, support), seg.label, t_now + result.times, weights
        )
        sampled.append(entry)
        truncation = max(truncation, top)
        t_now += seg.duration_s
        label = CHECKPOINT_AFTER_SEGMENT.get(seg.label)
        if label is not None:
            checkpoints[label] = _pure_checkpoint(spec, label, state, support, t_now)
    final_fidelity = _pure_checkpoint(spec, "final", state, support, t_now).fidelity
    return state, checkpoints, Trajectory(sampled), truncation, final_fidelity


def _reachable_block(psi0, hamiltonians, collapse) -> np.ndarray:
    """Basis indices the open dynamics can reach from the initial support.

    Coherent couplings move weight both ways; a collapse channel only moves
    it forward, from a column index to a row index. Every channel's L^+ L
    is diagonal (no L sends two basis states to the same one), so the
    damping adds no edge of its own. The closure of the initial support
    under the pattern sum |L| + sum (|H| + |H|^T) is therefore invariant
    under every segment's Liouvillian, so evolving rho on that block is exact.
    """
    empty = sp.csr_matrix((psi0.layout.dim, psi0.layout.dim))  # a schedule may have no segments
    coherent = sum((abs(mat) for mat in hamiltonians), empty)
    edges = (sum(abs(l_op) for l_op in collapse) + coherent + coherent.T).tocsr()
    reach = psi0.amplitudes != 0
    while True:
        grown = reach | (edges @ reach > 0)  # weight moves from columns to rows
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _block_fidelity(spec, label, rho, keep, layout) -> float:
    """<oracle|rho|oracle> for the block ``rho`` on the basis indices ``keep``."""
    g_part, f_part, c_g, c_f = _oracle_parts(layout, spec, label, keep)
    oracle = c_g * g_part + c_f * f_part
    return float(np.real(oracle.conj() @ rho @ oracle))


def _run_lindblad(layout, schedule, spec, params, samples):
    collapse = [op.matrix.tocsr() for op in collapse_operators(layout, params)]
    if not collapse:
        raise ValueError(
            "lindblad mode needs decoherence parameters (t1/t2/kappa) in the params"
        )
    psi0 = make_oracle_state(layout, spec, "initial")
    generators = _segment_generators(layout, tuple(schedule), params, "lindblad")
    keep = _reachable_block(psi0, [generator.matrix for generator in generators.values()], collapse)
    # built once: every ramp and segment shares the H = 0 Liouvillian
    collapse_p = Dissipator([op[keep][:, keep] for op in collapse], keep.size)
    observables = _observables(layout, keep)

    block = psi0.amplitudes[keep]
    rho = np.outer(block, block.conj())
    sampled = []
    checkpoints: dict[str, CheckpointRecord] = {}
    truncation = 0.0  # the initial state holds no photons
    t_now = 0.0
    for seg in schedule:
        if seg.ramp_s > 0:
            rho, _ = lindblad_propagate(None, collapse_p, rho, seg.ramp_s)
        t_now += seg.ramp_s
        h_block = generators[seg.label].matrix[keep][:, keep]
        rho, path = lindblad_propagate(
            h_block, collapse_p, rho, seg.duration_s, samples=samples
        )
        entry, top = _segment_samples(
            observables, seg.label, t_now + np.linspace(0.0, seg.duration_s, samples),
            np.real([np.diag(mat) for mat in [*path, rho]]),
        )
        sampled.append(entry)
        truncation = max(truncation, top)
        t_now += seg.duration_s
        label = CHECKPOINT_AFTER_SEGMENT.get(seg.label)
        if label is not None:
            fid = _block_fidelity(spec, label, rho, keep, layout)
            checkpoints[label] = CheckpointRecord(label=label, time_s=t_now, fidelity=fid)
    if schedule.closing_ramp_s > 0:
        rho, _ = lindblad_propagate(None, collapse_p, rho, schedule.closing_ramp_s)
    final_fidelity = _block_fidelity(spec, "final", rho, keep, layout)
    final_state = DensityMatrix.from_block(rho, keep, layout)
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

    if mode == "lindblad":
        outcome = _run_lindblad(layout, schedule, spec, params, trajectory_samples)
    else:
        outcome = _run_pure(layout, schedule, spec, params, mode, trajectory_samples)
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
