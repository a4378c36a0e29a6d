"""Command-line front end: run, sweep, budget, verify, parse.

Outputs are deterministic: JSON with sorted keys and no timestamps, CSV
with repr-precision floats, so identical configs produce byte-identical
files. Sweeps fan out over ``GHZ_TRANSFER_WORKERS`` processes (default
1) and collect rows in submission order regardless of completion order.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from .analysis import (
    GhzSpec,
    logical_encode_pulse,
    occupation_probability,
    random_ghz_spec,
)
from .evolution import Distinct, EvolutionError
from .hamiltonians import PhysicalParams, load_params, load_preset, read_param, schema_fields
from .hilbert import embed_operator, local_moves, partial_trace, reachable
from .runner import MODES, TRAJECTORY_COLUMNS, run_protocol
from .scheduling import SchedulingError, build_schedule
from .units import parse_time, seconds_to_ns

WORKERS_ENV = "GHZ_TRANSFER_WORKERS"

CHECKPOINT_COLUMNS = ("label", "time_s", "fidelity", "phase_error")
_CSV_BLOCK = 512  # rows joined into one write

# MemoryError: a register too big for the machine ends with numpy's
# "Unable to allocate ..." line (the kernel's out-of-memory kill cannot be caught);
# OSError: a file that cannot be read or written ends with a line that names it
_FAILURES = (ValueError, KeyError, SchedulingError, EvolutionError, MemoryError, OSError)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_csv(stream, columns, names) -> None:
    """A header ``names``, then each row of the equal-length ``columns``, as the csv module writes rows.

    A float64 array column is formatted for the whole table from its
    :class:`~ghz_transfer.evolution.Distinct` values, told apart by their
    bits, with ``repr`` taken once per distinct value, so -0.0 and 0.0 stay
    two values, and a string array column's
    items are its text. Any other cell reads ``None`` as an empty cell and
    anything else as ``str`` (which is ``repr`` for a Python float). No
    cell needs quoting, since every text value is a fixed label. Lines are
    joined and written ``_CSV_BLOCK`` rows at a time.
    """
    stream.write(",".join(names) + "\n")
    texts = [(_float_text(column) if column.dtype == np.float64 else column if column.dtype.kind == "U" else None)
             if isinstance(column, np.ndarray) else None for column in columns]
    for start in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK):
        rows = slice(start, start + _CSV_BLOCK)
        block = [
            ["" if value is None else str(value) for value in column[rows]] if text is None else text[rows].tolist()
            for column, text in zip(columns, texts)
        ]
        stream.write("".join([",".join(line) + "\n" for line in zip(*block)]))


def _float_text(column: np.ndarray) -> np.ndarray:
    """The ``repr`` of every cell, as an object array holding one string per distinct bit pattern."""
    distinct = Distinct.of(column)
    return np.array([repr(value) for value in distinct.values.tolist()], dtype=object)[distinct.inverse]


def _load_parameters(preset: str | None, params_path: str | None) -> PhysicalParams:
    if params_path is not None:
        return load_params(params_path)
    return load_preset(preset or "transmon")


def _apply_overrides(params: PhysicalParams, sets: tuple[str, ...]) -> PhysicalParams:
    """Flag overrides: raw SI, or the field's own unit kind (``mu1=2pi*71 MHz``, ``tau1=1 ns``)."""
    updates = {}
    for item in sets:
        name, eq, raw = item.partition("=")
        if not eq or name not in schema_fields():
            raise click.UsageError(f"--set needs <field>=<value> with a known field, got {item!r}")
        updates[name] = read_param(name, raw)
    return params.with_overrides(**updates)


def _parse_ghz(text: str, n: int) -> list[GhzSpec]:
    """``equal``, ``alpha,beta`` complex literals, or ``random:<seed>:<count>``."""
    if text == "equal":
        r = 1.0 / math.sqrt(2.0)
        return [GhzSpec(alpha=r, beta=r, n=n)]
    if text.startswith("random:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError("random amplitudes need the form random:<seed>:<count>")
        try:
            seed, count = int(parts[1]), int(parts[2])
        except ValueError as err:
            raise click.UsageError(f"bad random spec {text!r}: {err}") from None
        if count < 1:
            raise click.UsageError("random count must be at least 1")
        rng = np.random.default_rng(seed)
        return [random_ghz_spec(n, rng) for _ in range(count)]
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise click.UsageError(
            f"ghz amplitudes must be 'equal', 'alpha,beta', or 'random:<seed>:<count>', got {text!r}"
        )
    try:
        alpha, beta = complex(parts[0]), complex(parts[1])
    except ValueError as err:
        raise click.UsageError(f"bad amplitude literal in {text!r}: {err}") from None
    norm = math.hypot(abs(alpha), abs(beta))
    if not 1e-12 <= norm < math.inf:
        raise click.UsageError(f"amplitudes must be finite and not both zero, got {text!r}")
    return [GhzSpec(alpha=alpha / norm, beta=beta / norm, n=n)]


def _sweep_workers() -> int:
    """Process count from ``GHZ_TRANSFER_WORKERS``; 1 when unset."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise click.UsageError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    return workers


def _consumed(result) -> tuple:
    """All that ``run`` writes of a result, its report and trajectory, without its final state."""
    return result.report(), result.trajectory


def _budget(schedule, parameters: PhysicalParams) -> dict:
    """The schedule's timing budget and each cavity's lifetime 1/kappa in seconds, None when it is lossless."""
    budget = schedule.budget()
    for side in "LR":
        kappa = getattr(parameters, f"kappa{side}")
        budget[f"cavity_lifetime_{side}_s"] = 1.0 / kappa if kappa else None
    return budget


def _fail(err: Exception) -> None:
    raise click.ClickException(str(err) or type(err).__name__)


@click.group()
def main():
    """Simulate and verify coupler-mediated GHZ transfer between two cavities."""


# ---------------------------------------------------------------------------
# run

@main.command(name="run")
@click.option("--preset", default="transmon", show_default=True, help="Packaged parameter set.")
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="YAML parameter file (overrides --preset).")
@click.option("--set", "sets", multiple=True, metavar="FIELD=VALUE",
              help="Override one parameter field; repeatable.")
@click.option("--n", default=2, show_default=True, type=click.IntRange(min=1),
              help="Qubits per cavity.")
@click.option("--mode", default="ideal-reduced", type=click.Choice(MODES), show_default=True)
@click.option("--ghz", default="equal", show_default=True,
              help="'equal', 'alpha,beta' complex literals (normalized), or 'random:<seed>:<count>'.")
@click.option("--cutoff", default=4, show_default=True, type=click.IntRange(min=3),
              help="Highest retained Fock level per cavity.")
@click.option("--samples", default=0, show_default=True, type=click.IntRange(min=0),
              help="Trajectory rows recorded per segment.")
@click.option("--min-fidelity", type=float, default=None,
              help="Final-fidelity gate (default depends on mode).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for report.json and emitted tables; default prints to stdout.")
@click.option("--emit", "emits", multiple=True, type=click.Choice(["trajectory", "checkpoints"]),
              help="Extra CSV outputs (need --out).")
def cmd_run(preset, params_path, sets, n, mode, ghz, cutoff, samples, min_fidelity, out_dir, emits):
    """Run the transfer protocol and report checkpoint fidelities."""
    if emits and out_dir is None:
        raise click.UsageError("--emit needs --out to have somewhere to write")
    if "trajectory" in emits and samples == 0:
        raise click.UsageError("--emit trajectory needs --samples > 0")
    if min_fidelity is not None and not math.isfinite(min_fidelity):
        raise click.UsageError(f"--min-fidelity must be a finite number, got {min_fidelity!r}")
    try:
        parameters = _apply_overrides(_load_parameters(preset, params_path), sets)
        specs = _parse_ghz(ghz, n)
        outcomes = [
            _consumed(run_protocol(
                parameters, spec, mode=mode, fock_cutoff=cutoff,
                trajectory_samples=samples, final_threshold=min_fidelity,
            ))
            for spec in specs
        ]
        reports = [run for run, _ in outcomes]
        all_ok = all(run["ok"] for run in reports)
        if len(reports) == 1:
            report = reports[0]
        else:
            finals = [run["final_fidelity"] for run in reports]
            report = {
                "ghz_request": ghz,
                "runs": reports,
                "fidelity_spread": max(finals) - min(finals),
                "ok": all_ok,
            }

        if out_dir is None:
            click.echo(_json_text(report), nl=False)
        else:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(_json_text(report), encoding="utf-8")
            if "trajectory" in emits:
                columns = [np.concatenate([trajectory.column(name) for _, trajectory in outcomes])
                           for name in TRAJECTORY_COLUMNS]
                with (out / "trajectory.csv").open("w", encoding="utf-8", newline="") as fh:
                    _write_csv(fh, columns, TRAJECTORY_COLUMNS)
            if "checkpoints" in emits:
                records = [(label, rec) for run in reports for label, rec in run["checkpoints"].items()]
                columns = [[label for label, _ in records],
                           *([rec[name] for _, rec in records] for name in CHECKPOINT_COLUMNS[1:])]
                with (out / "checkpoints.csv").open("w", encoding="utf-8", newline="") as fh:
                    _write_csv(fh, columns, CHECKPOINT_COLUMNS)
            click.echo(f"wrote {out / 'report.json'}")
    except _FAILURES as err:
        _fail(err)
    sys.exit(0 if all_ok else 1)


# ---------------------------------------------------------------------------
# sweep

_SPECIAL_AXES = ("delta_over_mu", "kappa_inv_us", "n")


def _axis_point(parameters: PhysicalParams, axis: str, value: float, n: int):
    if axis == "delta_over_mu":
        return parameters.with_overrides(
            delta=value * parameters.mu, delta_prime=value * parameters.mu_prime
        ), n
    if axis == "kappa_inv_us":
        kappa = 1.0 / (value * 1e-6) if value else math.inf  # a zero lifetime fails as an infinite rate
        return parameters.with_overrides(kappaL=kappa, kappaR=kappa), n
    if axis == "n":
        return parameters, int(value)
    return parameters.with_overrides(**{axis: value}), n


def _sweep_point(task) -> tuple:
    """One ``SWEEP_COLUMNS`` row."""
    parameters, axis, value, n, mode, cutoff, samples, alpha, beta = task
    point_params, point_n = _axis_point(parameters, axis, value, n)
    spec = GhzSpec(alpha=alpha, beta=beta, n=point_n)
    result = run_protocol(
        point_params, spec, mode=mode, fock_cutoff=cutoff, trajectory_samples=samples
    )
    return (
        axis, value, point_n, mode, result.final_fidelity, result.max_spectator_f,
        result.schedule.tau, result.ok,
    )


SWEEP_COLUMNS = ("axis", "value", "n", "mode", "final_fidelity", "max_spectator_f", "tau_s", "ok")


@main.command(name="sweep")
@click.option("--preset", default="transmon", show_default=True)
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--set", "sets", multiple=True, metavar="FIELD=VALUE")
@click.option("--axis", required=True,
              help=f"One of {', '.join(_SPECIAL_AXES)} or any numeric parameter field.")
@click.option("--values", required=True, help="Comma-separated numeric axis values.")
@click.option("--n", default=2, show_default=True, type=click.IntRange(min=1))
@click.option("--mode", default="ideal-reduced", type=click.Choice(MODES), show_default=True)
@click.option("--ghz", default="equal", show_default=True,
              help="Single amplitude pair; random:<seed>:1 also works.")
@click.option("--cutoff", default=4, show_default=True, type=click.IntRange(min=3))
@click.option("--samples", default=None, type=click.IntRange(min=0),
              help="Trajectory rows per segment (default 300 in full-dispersive mode, else 0).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="CSV file; default prints to stdout.")
def cmd_sweep(preset, params_path, sets, axis, values, n, mode, ghz, cutoff, samples, out_path):
    """Run one protocol per axis value and tabulate the results."""
    if axis not in _SPECIAL_AXES and axis not in schema_fields():
        raise click.UsageError(
            f"axis {axis!r} is not sweepable; use one of {_SPECIAL_AXES} or a parameter field"
        )
    try:
        points = [float(v) for v in values.split(",") if v.strip()]
    except ValueError as err:
        raise click.UsageError(f"bad --values list: {err}") from None
    if not points:
        raise click.UsageError("--values is empty")
    fractional = [v for v in points if axis == "n" and not v.is_integer()]
    if fractional:
        raise click.UsageError(f"--axis n needs whole numbers of qubits, got {fractional[0]!r}")
    if samples is None:
        samples = 300 if mode == "full-dispersive" else 0
    workers = _sweep_workers()

    try:
        parameters = _apply_overrides(_load_parameters(preset, params_path), sets)
        specs = _parse_ghz(ghz, n)
        if len(specs) != 1:
            raise click.UsageError("sweep takes a single amplitude pair")
        spec = specs[0]
        tasks = [
            (parameters, axis, value, n, mode, cutoff, samples, spec.alpha, spec.beta)
            for value in points
        ]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_point, tasks))
        else:
            rows = [_sweep_point(task) for task in tasks]
        columns = list(zip(*rows))  # every sweep has at least one point
        if out_path is None:
            _write_csv(sys.stdout, columns, SWEEP_COLUMNS)
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                _write_csv(fh, columns, SWEEP_COLUMNS)
            click.echo(f"wrote {out_path}")
    except _FAILURES as err:
        _fail(err)


# ---------------------------------------------------------------------------
# budget

@main.command(name="budget")
@click.option("--preset", default="transmon", show_default=True)
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--set", "sets", multiple=True, metavar="FIELD=VALUE")
@click.option("--n", default=2, show_default=True, type=click.IntRange(min=1))
@click.option("--ramp-ns", type=float, default=None,
              help="Set every level-adjustment interval to this many ns.")
@click.option("--json", "as_json", is_flag=True, help="Emit the budget as JSON.")
def cmd_budget(preset, params_path, sets, n, ramp_ns, as_json):
    """Print the timing budget with a segment-by-segment breakdown."""
    try:
        parameters = _apply_overrides(_load_parameters(preset, params_path), sets)
        if ramp_ns is not None:
            ramp_s = parse_time(f"{ramp_ns!r} ns")
            parameters = parameters.with_overrides(**dict.fromkeys(schema_fields("ramps"), ramp_s))
        schedule = build_schedule(parameters, n)
    except _FAILURES as err:
        _fail(err)

    budget = _budget(schedule, parameters)
    if as_json:
        budget["segments"] = [
            {
                "label": seg.label,
                "kind": seg.kind,
                "cavity": seg.cavity,
                "site": seg.site,
                "duration_ns": seconds_to_ns(seg.duration_s),
                "ramp_ns": seconds_to_ns(seg.ramp_s),
            }
            for seg in schedule
        ]
        budget["closing_ramp_ns"] = seconds_to_ns(schedule.closing_ramp_s)
        click.echo(_json_text(budget), nl=False)
        return

    click.echo(f"{'segment':<9}{'kind':<13}{'cavity':<7}{'site':<12}{'ramp':>9}{'duration':>12}")
    for seg in schedule:
        click.echo(
            f"{seg.label:<9}{seg.kind:<13}{seg.cavity:<7}{seg.site:<12}"
            f"{seconds_to_ns(seg.ramp_s):>7.2f} ns{seconds_to_ns(seg.duration_s):>9.2f} ns"
        )
    click.echo(f"{'closing':<9}{'':<13}{'':<7}{'':<12}{seconds_to_ns(schedule.closing_ramp_s):>7.2f} ns")
    click.echo("")
    for name, what in (("tau_r", "resonant pulses"), ("tau_o", "dispersive window"),
                       ("tau_a", "level adjustments"), ("tau", "total")):
        value = budget[f"{name}_s"]
        click.echo(f"{name:<7}{value * 1e9:8.2f} ns   {what} ({value!r} s)")
    if budget["resonance_m"] is not None:
        click.echo(f"window multiples: m={budget['resonance_m']} k={budget['resonance_k']}")
    lifetimes = ((side, budget[f"cavity_lifetime_{side}_s"]) for side in "LR")
    click.echo("cavity lifetimes: " + ", ".join(
        f"{side} lossless" if lifetime is None else f"{side} {lifetime * 1e6:.3f} us" for side, lifetime in lifetimes
    ))


# ---------------------------------------------------------------------------
# verify

def _verify_checks(parameters, n, seed, count, skip_full, skip_lindblad):
    checks = []

    ideal = run_protocol(parameters, GhzSpec(alpha=0.6, beta=0.8j, n=n))
    checks.append({
        "name": "checkpoint-chain",
        "ok": ideal.passes.get("checkpoints", False) and ideal.passes.get("branch_phase", False),
        "checkpoints": {lbl: rec.fidelity for lbl, rec in ideal.checkpoints.items()},
        "worst_branch_phase_error": max(r.phase_error for r in ideal.checkpoints.values()),
    })

    rng = np.random.default_rng(seed)
    finals = []
    for _ in range(count):
        spec = random_ghz_spec(n, rng)
        finals.append(run_protocol(parameters, spec).final_fidelity)
    spread = max(finals) - min(finals)
    checks.append({
        "name": "transfer-correctness",
        "ok": bool(min(finals) >= 1 - 1e-6),
        "samples": count,
        "seed": seed,
        "worst_fidelity": min(finals),
    })
    checks.append({
        "name": "amplitude-independence",
        "ok": bool(spread < 1e-8),
        "fidelity_spread": spread,
    })

    if n >= 2:  # at n = 1 the one share holds the whole secret
        r = 1.0 / math.sqrt(2.0)
        shared = run_protocol(parameters, GhzSpec(alpha=r, beta=r, n=n))
        # the pulse acts on the states the final one reaches under it, never on the whole register
        pulse = {"q1p": logical_encode_pulse()}
        moves = local_moves(shared.layout, [pulse])
        basis = reachable(shared.layout, shared.final_state.basis, moves)
        encoded = embed_operator(shared.layout, pulse, basis).apply(shared.final_state)
        worst = 0.0
        for site in shared.layout.right_qudits:
            eigvals = np.sort(np.linalg.eigvalsh(partial_trace(encoded, [site])))
            worst = max(worst, abs(eigvals[-1] - 0.5), abs(eigvals[-2] - 0.5), abs(eigvals[0]))
        checks.append({
            "name": "single-share-mixedness",
            "ok": bool(worst < 1e-9),
            "worst_eigenvalue_error": worst,
        })

    if not skip_full and n >= 2:
        full = run_protocol(
            parameters, GhzSpec(alpha=0.0, beta=1.0, n=n),
            mode="full-dispersive", trajectory_samples=300,
        )
        estimate = occupation_probability(parameters.mu, parameters.delta)
        measured = full.max_spectator_f
        checks.append({
            "name": "spectator-occupation",
            "ok": bool(estimate / 2 <= measured <= estimate * 2),
            "estimate": estimate,
            "measured": measured,
            "full_final_fidelity": full.final_fidelity,
        })

    if not skip_lindblad:
        noisy = run_protocol(parameters, GhzSpec(alpha=0.6, beta=0.8j, n=n),
                             mode="lindblad", fock_cutoff=3)
        checks.append({
            "name": "open-system-floor",
            "ok": bool(0.9 < noisy.final_fidelity < ideal.final_fidelity),
            "fidelity": noisy.final_fidelity,
            "ideal_fidelity": ideal.final_fidelity,
        })

    return checks


@main.command(name="verify")
@click.option("--preset", default="transmon", show_default=True)
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--set", "sets", multiple=True, metavar="FIELD=VALUE")
@click.option("--n", default=2, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=7, show_default=True, help="Seed for the random amplitude draw.")
@click.option("--count", default=20, show_default=True, type=click.IntRange(min=2),
              help="Random amplitude pairs for the independence check.")
@click.option("--skip-full", is_flag=True, help="Skip the full-dispersive occupation check.")
@click.option("--skip-lindblad", is_flag=True, help="Skip the open-system check.")
def cmd_verify(preset, params_path, sets, n, seed, count, skip_full, skip_lindblad):
    """Run the invariant suite and emit a pass/fail report.

    The single-share and spectator-occupation checks need n >= 2.
    """
    try:
        parameters = _apply_overrides(_load_parameters(preset, params_path), sets)
        checks = _verify_checks(parameters, n, seed, count, skip_full, skip_lindblad)
        budget = _budget(build_schedule(parameters, n), parameters)
    except _FAILURES as err:
        _fail(err)
    report = {
        "n": n,
        "budget": budget,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
    click.echo(_json_text(report), nl=False)
    sys.exit(0 if report["ok"] else 1)


# ---------------------------------------------------------------------------
# parse

@main.command(name="parse")
@click.argument("sched", type=click.Path(exists=True, dir_okay=False))
@click.option("--preset", default=None, help="Resolve symbols against this preset.")
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--canonical", is_flag=True,
              help="Re-serialize the validated schedule, layout cutoffs included, to stdout.")
def cmd_parse(sched, preset, params_path, canonical):
    """Check a .sched file; print diagnostics with line and column."""
    from .dsl import parse_schedule, serialize_schedule, validate_schedule  # only this command reads .sched

    try:
        text = Path(sched).read_text(encoding="utf-8")
        binding = None if preset is None and params_path is None else _load_parameters(preset, params_path)
    except UnicodeDecodeError as err:
        raise click.ClickException(f"{sched} is not UTF-8 text: {err}") from None
    except _FAILURES as err:
        _fail(err)
    result = validate_schedule(parse_schedule(text), binding)
    for diagnostic in result.diagnostics:
        click.echo(f"{sched}:{diagnostic}", err=True)
    if not result.ok:
        sys.exit(1)
    schedule = result.schedule
    if canonical:
        click.echo(serialize_schedule(schedule), nl=False)
    else:
        click.echo(
            f"ok: {len(schedule.segments)} segments, tau = {schedule.tau!r} s "
            f"({schedule.tau * 1e9:.2f} ns)"
        )


if __name__ == "__main__":
    main()
