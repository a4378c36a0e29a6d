"""Golden outputs: a fixed corpus of commands whose results must not move.

Each command in ``COMMANDS`` is rerun and every file it writes is compared
with its copy under ``tests/golden/``. Strings, integers, booleans, nulls,
keys and CSV headers must match exactly; floats must match within the
tolerance the other tests state for that quantity (``TIME_REL`` for times,
``ABS`` for everything dimensionless: fidelities, populations, branch
coefficients and error measures). Bytes are not compared, because they
differ across BLAS builds and CPUs; the determinism tests in
``test_cli.py`` compare bytes on one machine.

Regenerate the corpus with ``PYTHONPATH=src python tests/test_golden.py``,
and list every changed field with its largest change in CHANGES.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from ghz_transfer.cli import main

GOLDEN = Path(__file__).parent / "golden"

ABS = 1e-12  # fidelities and populations, as test_cli and test_runner compare them
TIME_REL = 1e-12  # schedule times, as test_scheduling compares them

# name -> (arguments, files the command writes); "-" is its stdout
COMMANDS = {
    "ideal-n1": (
        ["run", "--n", "1", "--ghz", "0.6,0.8j", "--samples", "3",
         "--emit", "trajectory", "--emit", "checkpoints"],
        ("report.json", "trajectory.csv", "checkpoints.csv"),
    ),
    "full-dispersive-n2": (
        ["run", "--mode", "full-dispersive", "--n", "2", "--samples", "20",
         "--emit", "trajectory", "--emit", "checkpoints"],
        ("report.json", "trajectory.csv", "checkpoints.csv"),
    ),
    "lindblad-n2": (
        ["run", "--mode", "lindblad", "--n", "2", "--cutoff", "3", "--ghz", "0.6,0.8j",
         "--samples", "4", "--emit", "trajectory", "--emit", "checkpoints"],
        ("report.json", "trajectory.csv", "checkpoints.csv"),
    ),
    "lindblad-n3": (
        ["run", "--mode", "lindblad", "--n", "3", "--cutoff", "3", "--ghz", "0.6,0.8j",
         "--emit", "checkpoints"],
        ("report.json", "checkpoints.csv"),
    ),
    "random-n3": (
        ["run", "--n", "3", "--ghz", "random:7:3", "--emit", "checkpoints"],
        ("report.json", "checkpoints.csv"),
    ),
    "verify-n2": (["verify", "--n", "2"], ("-",)),
    "sweep-kappa": (
        ["sweep", "--axis", "kappa_inv_us", "--values", "1,5", "--mode", "lindblad",
         "--cutoff", "3"],
        ("-",),
    ),
    "budget-n1": (["budget", "--json", "--n", "1"], ("-",)),
    "budget-n2": (["budget", "--json", "--n", "2"], ("-",)),
    "budget-n3-ramp1": (["budget", "--json", "--n", "3", "--ramp-ns", "1"], ("-",)),
}


def _is_time(key: str) -> bool:
    """Times in s or ns, and the sweep axis value, compare relative to their size."""
    return key == "value" or key.endswith(("_s", "_ns"))


def _close(key: str, got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    if _is_time(key):
        return abs(got - want) <= TIME_REL * abs(want)
    return abs(got - want) <= ABS


def _compare(got, want, path: str, key: str, problems: list[str]) -> None:
    """Append to ``problems`` every place where ``got`` departs from ``want``."""
    if isinstance(want, float) and type(got) is float:
        if not _close(key, got, want):
            problems.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            problems.append(f"{path}: keys {list(got)} != {list(want)}")
        for k in want.keys() & got.keys():
            _compare(got[k], want[k], f"{path}.{k}", k, problems)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            problems.append(f"{path}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", key, problems)
    elif type(got) is not type(want) or got != want:
        problems.append(f"{path}: {got!r} != {want!r}")


def _cell(text: str):
    """A CSV cell as the value it was written from (floats are written by repr)."""
    if text in ("", "True", "False"):
        return {"": None, "True": True, "False": False}[text]
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(name: str, text: str):
    """JSON text as an object; CSV text as its header plus rows of keyed cells."""
    if name.endswith(".json"):
        return json.loads(text)
    header, *rows = csv.reader(io.StringIO(text))
    return {"header": header, "rows": [dict(zip(header, map(_cell, row))) for row in rows]}


def differences(name: str, got_text: str, want_text: str) -> list[str]:
    problems: list[str] = []
    _compare(_parse(name, got_text), _parse(name, want_text), name, "", problems)
    return problems


def run_command(name: str, out_dir: Path) -> dict[str, str]:
    """Run one corpus command; its output files by golden file name."""
    args, files = COMMANDS[name]
    if files == ("-",):
        result = CliRunner().invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit), result.output
        suffix = ".json" if args[0] == "verify" or "--json" in args else ".csv"
        return {f"{name}{suffix}": result.output}
    result = CliRunner().invoke(main, [*args, "--out", str(out_dir)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    return {f"{name}/{f}": (out_dir / f).read_text(encoding="utf-8") for f in files}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_matches_golden(name, tmp_path):
    outputs = run_command(name, tmp_path)
    problems = []
    for rel, text in outputs.items():
        problems += differences(rel, text, (GOLDEN / rel).read_text(encoding="utf-8"))
    assert not problems, "\n".join(problems[:20])


class TestComparison:
    """The comparison passes rounding noise and catches every real change."""

    REPORT = "lindblad-n2/report.json"
    TRAJECTORY = "full-dispersive-n2/trajectory.csv"

    def _report(self):
        return json.loads((GOLDEN / self.REPORT).read_text(encoding="utf-8"))

    def _check(self, report) -> list[str]:
        return differences(self.REPORT, json.dumps(report), (GOLDEN / self.REPORT).read_text())

    def test_unchanged_report_passes(self):
        assert self._check(self._report()) == []

    def test_one_ulp_fidelity_change_passes(self):
        report = self._report()
        rec = report["checkpoints"]["after_step3"]
        rec["fidelity"] = math.nextafter(rec["fidelity"], 0.0)
        assert self._check(report) == []

    def test_1e_9_fidelity_change_fails(self):
        report = self._report()
        report["checkpoints"]["after_step3"]["fidelity"] -= 1e-9
        assert self._check(report)

    def test_one_ulp_time_change_passes_and_1e_9_relative_fails(self):
        report = self._report()
        report["budget"]["tau_s"] = math.nextafter(report["budget"]["tau_s"], 1.0)
        assert self._check(report) == []
        report["budget"]["tau_s"] *= 1 + 1e-9
        assert self._check(report)

    def test_dropped_key_fails(self):
        report = self._report()
        del report["checkpoints"]["final"]["phase_error"]
        assert self._check(report)

    def test_changed_flag_fails(self):
        report = self._report()
        report["passes"]["truncation"] = not report["passes"]["truncation"]
        assert self._check(report)

    def test_reordered_csv_column_fails(self):
        text = (GOLDEN / self.TRAJECTORY).read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(text)))
        swapped = io.StringIO()
        csv.writer(swapped, lineterminator="\n").writerows([[r[1], r[0], *r[2:]] for r in rows])
        assert differences(self.TRAJECTORY, swapped.getvalue(), text)

    def test_changed_csv_population_fails(self):
        text = (GOLDEN / self.TRAJECTORY).read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(text)))
        rows[5][2] = repr(float(rows[5][2]) + 1e-9)
        changed = io.StringIO()
        csv.writer(changed, lineterminator="\n").writerows(rows)
        assert differences(self.TRAJECTORY, changed.getvalue(), text)


def regenerate() -> None:
    import tempfile

    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            for rel, text in run_command(name, Path(tmp)).items():
                target = GOLDEN / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text, encoding="utf-8")
                print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
