"""Spans and counts recorded around calls into the package's public functions.

The wrappers live in the benchmark, not in the package. Installing a target
replaces one module or class attribute with a timing wrapper; removing it puts
the original object back. A call is wrapped where its caller looks it up: the
runner imports ``evolve_unitary`` by name, so the wrapper goes on
``ghz_transfer.runner.evolve_unitary``, while ``krylov_expm_action`` is looked
up inside ``ghz_transfer.evolution`` and is wrapped there.

Self time is a span's duration minus the durations of its direct children.
Calls run on one thread and nest strictly, so the self times of all spans add
up to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

ROOT_METRIC = "cli.self_s"
PROPAGATORS = ("evolve_unitary", "lindblad_propagate")
SEGMENT_LABELS = (
    "step1a", "step1b", "step2a", "step2b", "step3",
    "step4a", "step4b", "step5a", "step5b", "ramp",
)

# Metrics a traced run reports, in report order. Every one is present on every
# workload; a layer the workload does not use reads zero.
TRACE_METRICS = {
    "hamiltonians.build_s": "s",
    "hamiltonians.build_calls": "count",
    "hamiltonians.generator_nnz": "count",
    "hilbert.dim": "count",
    "analysis.oracle_s": "s",
    "analysis.oracle_calls": "count",
    "evolution.evolve_unitary_s": "s",
    "evolution.working_dim": "count",
    "evolution.krylov_s": "s",
    "evolution.krylov_calls": "count",
    "evolution.lindblad_propagate_s": "s",
    "evolution.block_dim": "count",
    "evolution.ode_s": "s",
    "evolution.ode_nfev": "count",
    "evolution.fidelity_s": "s",
    **{f"evolution.seg.{label}_s": "s" for label in SEGMENT_LABELS},
    "runner.self_s": "s",
    "runner.projection_s": "s",
    "runner.trajectory_rows": "count",
    "cli.serialize_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
}


@dataclass
class Span:
    name: str
    metric: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span list plus named counters, for one process and thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, metric: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, metric, self.clock(), parent=parent))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


# ---------------------------------------------------------------------------
# what gets wrapped


def _generator_nnz(tracer: Tracer, span: Span, args, result) -> None:
    ops = result if isinstance(result, list) else [result]
    nnz = sum(op.matrix.nnz for op in ops if hasattr(op, "matrix"))
    tracer.add("hamiltonians.generator_nnz", nnz)


def _working_dim(tracer: Tracer, span: Span, args, result) -> None:
    tracer.maximum("evolution.working_dim", args[0].amplitudes.size)


def _block_dim(tracer: Tracer, span: Span, args, result) -> None:
    tracer.maximum("evolution.block_dim", args[2].shape[0])


def _ode_nfev(tracer: Tracer, span: Span, args, result) -> None:
    tracer.add("evolution.ode_nfev", result.nfev)


def _protocol_result(tracer: Tracer, span: Span, args, result) -> None:
    tracer.maximum("hilbert.dim", result.layout.dim)
    tracer.add("runner.trajectory_rows", len(result.trajectory))
    span.info["segments"] = propagator_labels(result)


def propagator_labels(result) -> list[str]:
    """Segment label of each propagator call a run made, in call order.

    Pure modes call ``evolve_unitary`` once per segment. The open-system
    runner also calls ``lindblad_propagate`` for every nonzero ramp before a
    segment and for the closing ramp; those calls are labelled ``ramp``.
    """
    schedule = result.schedule
    if result.mode != "lindblad":
        return [seg.label for seg in schedule]
    labels = []
    for seg in schedule:
        if seg.ramp_s > 0:
            labels.append("ramp")
        labels.append(seg.label)
    if schedule.closing_ramp_s > 0:
        labels.append("ramp")
    return labels


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module`` plus a dotted ``path`` inside it."""

    module: str
    path: str
    metric: str  # receives the span's self time
    calls: str | None = None  # counts the calls, if set
    on_return: Callable | None = None  # (tracer, span, args, result)


_R = "ghz_transfer.runner"
_E = "ghz_transfer.evolution"
_H = "ghz_transfer.hamiltonians"
_C = "ghz_transfer.cli"
_BUILD = ("hamiltonians.build_s", "hamiltonians.build_calls")
_ORACLE = ("analysis.oracle_s", "analysis.oracle_calls")

TARGETS = (
    Target(_R, "h_resonant_ef", *_BUILD, _generator_nnz),
    Target(_R, "h_resonant_ge", *_BUILD, _generator_nnz),
    Target(_R, "h_dispersive_reduced", *_BUILD, _generator_nnz),
    Target(_R, "collapse_operators", *_BUILD, _generator_nnz),
    Target(_H, "DispersiveGenerator.__init__", *_BUILD),
    Target(_H, "DispersiveGenerator.static_hamiltonian", *_BUILD, _generator_nnz),
    Target(_H, "DispersiveGenerator.frame_diagonal", *_BUILD),
    Target(_R, "make_oracle_state", *_ORACLE),
    Target(_R, "oracle_branches", *_ORACLE),
    Target(_R, "evolve_unitary", "evolution.evolve_unitary_s", on_return=_working_dim),
    Target(_E, "krylov_expm_action", "evolution.krylov_s", "evolution.krylov_calls"),
    Target(_R, "lindblad_propagate", "evolution.lindblad_propagate_s", on_return=_block_dim),
    Target(_E, "solve_ivp", "evolution.ode_s", on_return=_ode_nfev),
    Target(_R, "checkpoint_fidelity", "evolution.fidelity_s"),
    Target(_R, "excitation_numbers", "runner.projection_s"),
    Target(_C, "run_protocol", "runner.self_s", on_return=_protocol_result),
    Target(_R, "ProtocolResult.report", "cli.serialize_s"),
    Target(_C, "_json_text", "cli.serialize_s"),
    Target(_C, "_write_csv", "cli.serialize_s"),
)


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *outer, attr = target.path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _wrapper(tracer: Tracer, target: Target, original):
    name = target.path.rsplit(".", 1)[-1]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name, target.metric) as index:
            result = original(*args, **kwargs)
        if target.calls:
            tracer.add(target.calls, 1)
        if target.on_return is not None:
            target.on_return(tracer, tracer.spans[index], args, result)
        return result

    return wrapper


@contextmanager
def wrapped(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore.

    Yields the paths of targets the package no longer has. Those are skipped,
    and the benchmark counts a traced run that misses any as failed.
    """
    installed = []
    missing = []
    try:
        for target in TARGETS:
            try:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{target.module}.{target.path}")
                continue
            setattr(owner, attr, _wrapper(tracer, target, original))
            installed.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# from spans to metrics


def trace_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced command whose root span is spans[0]."""
    spans = tracer.spans
    own = self_times(spans)
    out = {name: 0.0 for name in TRACE_METRICS}
    out.update(tracer.counts)
    for span, seconds in zip(spans, own):
        out[span.metric] += seconds
    out["trace.wall_s"] = spans[0].duration if spans else 0.0

    # evolution-layer self time below each propagator call, by segment
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)

    def evolution_time(index: int) -> float:
        total = own[index] if spans[index].metric.startswith("evolution.") else 0.0
        return total + sum(evolution_time(child) for child in children[index])

    def propagators(index: int):
        for child in children[index]:
            if spans[child].name in PROPAGATORS:
                yield child
            else:
                yield from propagators(child)

    for index, span in enumerate(spans):
        labels = span.info.get("segments")
        if labels is None:
            continue
        calls = list(propagators(index))
        if len(calls) != len(labels):
            out["trace.unmatched_segments"] = out.get("trace.unmatched_segments", 0) + 1
            continue
        for label, call in zip(labels, calls):
            key = f"evolution.seg.{label}_s"
            out[key] = out.get(key, 0.0) + evolution_time(call)
    return out


def layer_sum(metrics: dict[str, float]) -> float:
    """Sum of every self-time metric; equals ``trace.wall_s`` by construction."""
    metric_names = {target.metric for target in TARGETS} | {ROOT_METRIC}
    return sum(metrics[name] for name in metric_names)
