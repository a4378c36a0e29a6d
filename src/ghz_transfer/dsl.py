"""The ``.sched`` pulse-schedule text format: parser, validator, serializer.

Grammar (line oriented, ``#`` starts a comment anywhere on the line):

    schedule v1
    layout ghz-layout-v1 n_left=<int> n_right=<int> [cutoff_left=<int>] [cutoff_right=<int>]
    [param <name> <rate-expr>]*
    segment <label> <kind> cavity=<L|R> site=<id> coupling=<rate> [detuning=<rate>
            coupling2=<rate> detuning2=<rate>] duration=<time|auto> ramp=<time>
    closing_ramp <time>

``<rate>`` is ``<number>rad/s``, ``2pi*<number><GHz|MHz|kHz|Hz>``, or the name
of a bound param; ``<time>`` is ``<number>ns`` or ``<number>us``. Unit
suffixes are mandatory. ``duration=auto`` asks the validator to fill in the
canonical quarter-period (or resonance-window) formula for that label.

The parser is total: any input produces a :class:`ScheduleDocument` whose
``diagnostics`` list carries every problem with a stable code, the 1-based
line/column, and the offending token. ``validate_schedule`` turns a clean
document into a :class:`~ghz_transfer.scheduling.Schedule`, resolving params
and auto durations and statically checking dispersive windows against the
odd-multiple phase-closing condition.

Serialization writes times as the exact decimal of the seconds value shifted
into ns (never a rescaled float, which can land one ulp off), so
serialize -> parse -> serialize is byte-identical and a parsed schedule
compares equal, field for field, to the one the scheduler built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal

from ghz_transfer.hamiltonians import PhysicalParams, schema_fields
from ghz_transfer.hilbert import BASIS_ORDERING_TAG, SystemLayout
from ghz_transfer.scheduling import (
    QUARTER_PERIOD_FACTOR,
    RESONANCE_TOLERANCE,
    SEGMENT_KINDS,
    SEGMENT_ORDER,
    PulseSegment,
    Schedule,
    SchedulingError,
    quarter_period,
    solve_resonance,
)
from ghz_transfer.units import parse_frequency, parse_time

__all__ = [
    "Diagnostic",
    "ScheduleDocument",
    "ValidationResult",
    "parse_schedule",
    "validate_schedule",
    "serialize_schedule",
]

FORMAT_VERSION = "v1"

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BARE_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

_SEGMENT_KEYS = ("cavity", "site", "coupling", "detuning", "coupling2", "detuning2", "duration", "ramp")
_RESONANT_KEYS = ("cavity", "site", "coupling", "duration", "ramp")
_DISPERSIVE_ONLY = ("detuning", "coupling2", "detuning2")


@dataclass(frozen=True)
class Diagnostic:
    """One parse or validation finding with its exact source location."""

    severity: str  # "error" | "warning"
    code: str
    message: str
    line: int  # 1-based; 0 for document-level findings
    column: int  # 1-based start of the offending token
    token: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message} [{self.code}]"


@dataclass(frozen=True)
class SegmentDecl:
    """One parsed segment line; rates may still be unresolved symbol names."""

    label: str
    kind: str
    cavity: str
    site: str
    coupling: float | str
    duration_s: float | str  # or "auto"
    ramp_s: float
    line: int
    detuning: float | str | None = None
    coupling2: float | str | None = None
    detuning2: float | str | None = None


@dataclass
class ScheduleDocument:
    """Everything the text said, plus every problem found while reading it."""

    version: str | None = None
    layout: SystemLayout | None = None
    params: dict[str, float] = field(default_factory=dict)
    segments: list[SegmentDecl] = field(default_factory=list)
    closing_ramp_s: float | None = None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


@dataclass
class ValidationResult:
    schedule: Schedule | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.schedule is not None


# ---------------------------------------------------------------------------
# number formatting: seconds -> exact decimal ns text

def _time_text(seconds: float) -> str:
    # repr() is the shortest decimal that round-trips the double; shifting
    # its exponent in Decimal is exact, so parsing this text reconstructs
    # the seconds value bit for bit (a float ns intermediate would not)
    if seconds == 0:
        return "0"  # the shift would write 0E+8
    return str(Decimal(repr(float(seconds))).scaleb(9))


def _rate_text(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# parsing

class _LineReader:
    def __init__(self, doc: ScheduleDocument, line_no: int, text: str):
        self.doc = doc
        self.line_no = line_no
        self.text = text

    def error(self, code: str, message: str, column: int = 1, token: str = "") -> None:
        self.doc.diagnostics.append(
            Diagnostic("error", code, message, self.line_no, column, token)
        )

    def warning(self, code: str, message: str, column: int = 1, token: str = "") -> None:
        self.doc.diagnostics.append(
            Diagnostic("warning", code, message, self.line_no, column, token)
        )


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs; the comment tail is already stripped."""
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", text)]


def _site_names(layout: SystemLayout) -> set[str]:
    return {"A", "spectators", *layout.left_qudits, *layout.right_qudits}


def _read_time(rd: _LineReader, key: str, value: str, col: int, sep: str = "=") -> float | None:
    """Seconds for a ``<number>ns``/``<number>us`` token; None once the problem is reported."""
    if _BARE_NUMBER_RE.match(value):
        rd.error("missing-unit", f"{key}{sep}{value} has no unit (ns or us)", col, value)
        return None
    try:
        if not value.endswith(("ns", "us")):
            raise ValueError(value)
        seconds = parse_time(value)
    except ValueError:
        rd.error("bad-number", f"cannot read {key} value {value!r}", col, value)
        return None
    if seconds < 0:
        rd.error("negative-time", f"{key} must be nonnegative", col, value)
        return None
    return seconds


def _parse_rate_value(token: str) -> float | str | None:
    """float (rad/s), a symbol name to resolve later, or None when malformed."""
    if _IDENT_RE.match(token):
        return token
    try:
        return parse_frequency(token)
    except ValueError:
        return None


def _parse_layout_line(rd: _LineReader, tokens: list[tuple[str, int]]) -> None:
    if rd.doc.layout is not None:
        rd.error("duplicate-layout", "layout declared twice", tokens[0][1], tokens[0][0])
        return
    if rd.doc.segments:
        rd.error(
            "layout-after-segments",
            "layout must be declared before the first segment",
            tokens[0][1], tokens[0][0],
        )
        return
    if len(tokens) < 2:
        rd.error("bad-layout", "layout needs a basis-ordering tag", 1, rd.text.strip())
        return
    tag, tag_col = tokens[1]
    if tag != BASIS_ORDERING_TAG:
        rd.error(
            "unknown-layout",
            f"unknown basis ordering {tag!r}; this build writes {BASIS_ORDERING_TAG!r}",
            tag_col, tag,
        )
        return
    fields = {"cutoff_left": 4, "cutoff_right": 4}
    seen = set()
    for token, col in tokens[2:]:
        key, eq, value = token.partition("=")
        if not eq or key not in ("n_left", "n_right", "cutoff_left", "cutoff_right"):
            rd.error("bad-layout-field", f"unknown layout field {token!r}", col, token)
            return
        if key in seen:
            rd.error("bad-layout-field", f"layout field {key!r} repeated", col, token)
            return
        seen.add(key)
        try:
            number = int(value)
        except ValueError:
            rd.error("bad-number", f"layout field {key} needs an integer, got {value!r}", col, token)
            return
        if number < (3 if key.startswith("cutoff") else 1):
            rd.error("bad-layout-field", f"layout field {key}={number} is out of range", col, token)
            return
        fields[key] = number
    if "n_left" not in seen or "n_right" not in seen:
        rd.error("bad-layout", "layout needs n_left and n_right", 1, rd.text.strip())
        return
    rd.doc.layout = SystemLayout(
        fields["n_left"], fields["n_right"], fields["cutoff_left"], fields["cutoff_right"]
    )


def _parse_param_line(rd: _LineReader, tokens: list[tuple[str, int]]) -> None:
    # param <name> [=] <rate-expr>; the expr may contain a space (2pi*50 MHz)
    if len(tokens) < 3:
        rd.error("bad-param", "param needs a name and a rate expression", 1, rd.text.strip())
        return
    name, name_col = tokens[1]
    if not _IDENT_RE.match(name):
        rd.error("bad-param", f"param name {name!r} is not an identifier", name_col, name)
        return
    rest = tokens[2:]
    if rest[0][0] == "=":
        rest = rest[1:]
    if not rest:
        rd.error("bad-param", f"param {name} has no value", name_col, name)
        return
    expr = " ".join(tok for tok, _ in rest)
    try:
        value = parse_frequency(expr)
    except ValueError as exc:
        rd.error("bad-number", str(exc), rest[0][1], expr)
        return
    if name in rd.doc.params:
        rd.warning("param-redefined", f"param {name} redefined", name_col, name)
    rd.doc.params[name] = value


def _parse_segment_line(rd: _LineReader, tokens: list[tuple[str, int]]) -> None:
    if len(tokens) < 3:
        rd.error("bad-segment", "segment needs a label and a kind", 1, rd.text.strip())
        return
    label, label_col = tokens[1]
    kind, kind_col = tokens[2]
    if any(seg.label == label for seg in rd.doc.segments):
        rd.error("duplicate-label", f"segment label {label!r} already used", label_col, label)
        return
    if kind not in SEGMENT_KINDS:
        rd.error(
            "unknown-kind",
            f"unknown segment kind {kind!r}; kinds are {', '.join(SEGMENT_KINDS)}",
            kind_col, kind,
        )
        return

    raw: dict[str, tuple[str, int]] = {}
    for token, col in tokens[3:]:
        key, eq, value = token.partition("=")
        if not eq:
            rd.error("bad-segment-field", f"expected key=value, got {token!r}", col, token)
            return
        if key not in _SEGMENT_KEYS:
            rd.error("unknown-field", f"unknown segment field {key!r}", col, token)
            return
        if key in raw:
            rd.error("bad-segment-field", f"segment field {key!r} repeated", col, token)
            return
        raw[key] = (value, col)

    required = set(_RESONANT_KEYS) | (set(_DISPERSIVE_ONLY) if kind == "dispersive" else set())
    missing = sorted(required - set(raw))
    if missing:
        rd.error("missing-field", f"segment {label} lacks {', '.join(missing)}", label_col, label)
        return
    if kind != "dispersive":
        stray = sorted(set(raw) & set(_DISPERSIVE_ONLY))
        if stray:
            key = stray[0]
            rd.error(
                "unexpected-field",
                f"{kind} segment takes no {key}", raw[key][1], f"{key}={raw[key][0]}",
            )
            return

    cavity, cavity_col = raw["cavity"]
    if cavity not in ("L", "R"):
        rd.error("bad-cavity", f"cavity must be L or R, got {cavity!r}", cavity_col, cavity)
        return

    site, site_col = raw["site"]
    if rd.doc.layout is None:
        rd.error(
            "missing-layout",
            "segments need a prior layout line to declare their sites",
            tokens[0][1], tokens[0][0],
        )
        return
    if site not in _site_names(rd.doc.layout):
        rd.error(
            "undeclared-site",
            f"site {site!r} is not declared by the layout "
            f"(n_left={rd.doc.layout.n_left}, n_right={rd.doc.layout.n_right})",
            site_col, site,
        )
        return

    rates: dict[str, float | str | None] = {}
    for key in ("coupling", "detuning", "coupling2", "detuning2"):
        if key not in raw:
            rates[key] = None
            continue
        value, col = raw[key]
        col += len(key) + 1  # point at the value, past "key="
        if _BARE_NUMBER_RE.match(value):
            rd.error("missing-unit", f"{key}={value} has no unit (rad/s or 2pi*...Hz)", col, value)
            return
        parsed = _parse_rate_value(value)
        if parsed is None:
            rd.error("bad-number", f"cannot read {key} value {value!r}", col, value)
            return
        rates[key] = parsed

    times: dict[str, float | str | None] = {}
    for key in ("duration", "ramp"):
        value, col = raw[key]
        if key == "duration" and value == "auto":
            times[key] = "auto"
            continue
        times[key] = _read_time(rd, key, value, col + len(key) + 1)
        if times[key] is None:
            return

    rd.doc.segments.append(
        SegmentDecl(
            label=label, kind=kind, cavity=cavity, site=site,
            coupling=rates["coupling"], duration_s=times["duration"], ramp_s=times["ramp"],
            line=rd.line_no,
            detuning=rates["detuning"], coupling2=rates["coupling2"],
            detuning2=rates["detuning2"],
        )
    )


def _parse_closing_line(rd: _LineReader, tokens: list[tuple[str, int]]) -> None:
    if rd.doc.closing_ramp_s is not None:
        rd.error("duplicate-directive", "closing_ramp declared twice", tokens[0][1], tokens[0][0])
        return
    if len(tokens) != 2:
        rd.error("bad-directive", "closing_ramp takes exactly one time value", 1, rd.text.strip())
        return
    rd.doc.closing_ramp_s = _read_time(rd, "closing_ramp", *tokens[1], sep=" ")


def parse_schedule(text: str) -> ScheduleDocument:
    """Read ``.sched`` text into a document. Total: never raises.

    Empty input is a valid empty document. Every problem becomes a
    diagnostic; lines after an error on one line are still read, so one
    pass reports everything fixable at once.
    """
    doc = ScheduleDocument()
    header_seen = False
    for line_no, rawline in enumerate(str(text).splitlines(), start=1):
        line = rawline.split("#", 1)[0]
        tokens = _tokenize(line)
        if not tokens:
            continue
        rd = _LineReader(doc, line_no, line)
        word, col = tokens[0]
        try:
            if not header_seen:
                if word != "schedule":
                    rd.error("missing-header", "first directive must be 'schedule v1'", col, word)
                    # keep parsing: the rest of the line stream may still
                    # produce useful diagnostics
                    header_seen = True
                else:
                    header_seen = True
                    if len(tokens) != 2 or tokens[1][0] != FORMAT_VERSION:
                        got = tokens[1][0] if len(tokens) > 1 else ""
                        rd.error(
                            "unknown-version",
                            f"unsupported schedule version {got!r}; this build reads {FORMAT_VERSION}",
                            tokens[1][1] if len(tokens) > 1 else col, got,
                        )
                    else:
                        doc.version = FORMAT_VERSION
                    continue
            if word == "schedule":
                rd.error("duplicate-directive", "schedule header repeated", col, word)
            elif word == "layout":
                _parse_layout_line(rd, tokens)
            elif word == "param":
                _parse_param_line(rd, tokens)
            elif word == "segment":
                _parse_segment_line(rd, tokens)
            elif word == "closing_ramp":
                _parse_closing_line(rd, tokens)
            else:
                rd.error("unknown-directive", f"unknown directive {word!r}", col, word)
        except Exception as exc:  # totality: a parser bug must not crash callers
            rd.error("internal-error", f"line could not be read: {exc}", col, word)
    return doc


# ---------------------------------------------------------------------------
# validation

def _resolve_rate(
    value: float | str | None,
    bindings: dict[str, float],
    seg: SegmentDecl,
    key: str,
    diags: list[Diagnostic],
) -> float | None:
    if value is None or isinstance(value, float):
        return value
    if value in bindings:
        return bindings[value]
    diags.append(
        Diagnostic(
            "error", "unknown-symbol",
            f"segment {seg.label}: {key}={value} is not a bound param",
            seg.line, 1, value,
        )
    )
    return None


def _odd_multiple_residual(duration_s: float, lam: float) -> tuple[int, float]:
    """Nearest odd-multiple index m and the relative time mismatch."""
    m = max(0, round((duration_s * lam / math.pi - 1.0) / 2.0))
    t_m = (2 * m + 1) * math.pi / lam
    return m, abs(duration_s - t_m) / duration_s if duration_s > 0 else math.inf


def validate_schedule(
    document: ScheduleDocument,
    params: PhysicalParams | None = None,
) -> ValidationResult:
    """Resolve a parsed document into an executable Schedule.

    Symbols bind from the couplings and detunings of ``params`` first,
    then the document's own param lines (the text wins). ``auto`` durations
    use the canonical formula for their label; dispersive windows, literal
    or auto, must close both conditioned phases on an odd multiple within
    ``RESONANCE_TOLERANCE``. The schedule runs on the document's layout.
    Returns ``(schedule=None, diagnostics)`` rather than raising.
    """
    diags = list(document.diagnostics)
    if not document.ok:
        return ValidationResult(None, diags)
    if document.layout is None:
        if not document.segments:
            diags.append(
                Diagnostic("error", "empty-document", "nothing to validate: no layout, no segments", 0, 0, "")
            )
        else:  # unreachable when the parser produced the document
            diags.append(Diagnostic("error", "missing-layout", "no layout declared", 0, 0, ""))
        return ValidationResult(None, diags)

    bindings: dict[str, float] = {}
    if params is not None:
        bindings.update({name: getattr(params, name) for name in schema_fields("couplings", "detunings")})
    bindings.update(document.params)

    resolved: list[PulseSegment] = []
    resonance: tuple[int, int] | None = None
    for seg in document.segments:
        coupling = _resolve_rate(seg.coupling, bindings, seg, "coupling", diags)
        detuning = _resolve_rate(seg.detuning, bindings, seg, "detuning", diags)
        coupling2 = _resolve_rate(seg.coupling2, bindings, seg, "coupling2", diags)
        detuning2 = _resolve_rate(seg.detuning2, bindings, seg, "detuning2", diags)
        if coupling is None or (seg.kind == "dispersive" and None in (detuning, coupling2, detuning2)):
            continue
        if coupling <= 0 or (seg.kind == "dispersive" and (detuning <= 0 or coupling2 <= 0 or detuning2 <= 0)):
            diags.append(
                Diagnostic(
                    "error", "bad-rate",
                    f"segment {seg.label}: rates must be positive",
                    seg.line, 1, seg.label,
                )
            )
            continue

        if seg.kind == "dispersive":
            lam = coupling**2 / detuning
            lam_prime = coupling2**2 / detuning2
            if seg.duration_s == "auto":
                try:
                    sol = solve_resonance(lam, lam_prime)
                except SchedulingError as exc:
                    diags.append(
                        Diagnostic("error", "resonance-violation", str(exc), seg.line, 1, seg.label)
                    )
                    continue
                duration = sol.duration_s
                window = (sol.m, sol.k)
            else:
                duration = seg.duration_s
                m, res_m = _odd_multiple_residual(duration, lam)
                k, res_k = _odd_multiple_residual(duration, lam_prime)
                if res_m > RESONANCE_TOLERANCE or res_k > RESONANCE_TOLERANCE:
                    diags.append(
                        Diagnostic(
                            "error", "resonance-violation",
                            "resonance condition violated: requires odd multiple of pi/lam "
                            f"on both sides (lam={lam!r}, lam_prime={lam_prime!r} rad/s; "
                            f"closest (2m+1, 2k+1) = ({2 * m + 1}, {2 * k + 1}), "
                            f"residuals ({res_m:.3e}, {res_k:.3e}))",
                            seg.line, 1, seg.label,
                        )
                    )
                    continue
                window = (m, k)
            if resonance is None:
                resonance = window
        elif seg.duration_s == "auto":
            if seg.label not in QUARTER_PERIOD_FACTOR:
                diags.append(
                    Diagnostic(
                        "error", "auto-unresolvable",
                        f"segment {seg.label}: duration=auto needs a canonical step label "
                        f"({', '.join(QUARTER_PERIOD_FACTOR)})",
                        seg.line, 1, seg.label,
                    )
                )
                continue
            duration = quarter_period(seg.label, coupling)
        else:
            duration = seg.duration_s

        try:
            resolved.append(
                PulseSegment(
                    label=seg.label, kind=seg.kind, cavity=seg.cavity, site=seg.site,
                    coupling=coupling, duration_s=duration, ramp_s=seg.ramp_s,
                    detuning=detuning, coupling2=coupling2, detuning2=detuning2,
                )
            )
        except ValueError as exc:
            diags.append(Diagnostic("error", "bad-segment", f"segment {seg.label}: {exc}", seg.line, 1, seg.label))

    if any(d.severity == "error" for d in diags):
        return ValidationResult(None, diags)

    canonical = [seg.label for seg in document.segments if seg.label in SEGMENT_ORDER]
    if canonical != sorted(canonical, key=SEGMENT_ORDER.index):
        diags.append(
            Diagnostic(
                "warning", "segment-order",
                "segments are not in canonical protocol order; executing as written",
                document.segments[0].line, 1, canonical[0],
            )
        )

    schedule = Schedule(
        segments=tuple(resolved),
        layout=document.layout,
        closing_ramp_s=document.closing_ramp_s or 0.0,
        resonance=resonance,
    )
    return ValidationResult(schedule, diags)


# ---------------------------------------------------------------------------
# serialization

def _segment_line(label: str, kind: str, cavity: str, site: str, fields: list[tuple[str, str]]) -> str:
    parts = [f"segment {label} {kind}", f"cavity={cavity}", f"site={site}"]
    parts += [f"{key}={value}" for key, value in fields]
    return " ".join(parts)


def _rate_field(key: str, value: float | str | None) -> list[tuple[str, str]]:
    if value is None:
        return []
    if isinstance(value, str):
        return [(key, value)]
    return [(key, _rate_text(value) + "rad/s")]


def serialize_schedule(obj: Schedule | ScheduleDocument) -> str:
    """Canonical ``.sched`` text. Byte-stable under parse -> serialize."""
    lines = [f"schedule {FORMAT_VERSION}"]
    lay = obj.layout
    if lay is not None:
        lines.append(
            f"layout {BASIS_ORDERING_TAG} n_left={lay.n_left} n_right={lay.n_right} "
            f"cutoff_left={lay.fock_cutoff_left} cutoff_right={lay.fock_cutoff_right}"
        )
    params = obj.params if isinstance(obj, ScheduleDocument) else {}
    for name, value in params.items():
        lines.append(f"param {name} {_rate_text(value)}rad/s")
    for seg in obj.segments:
        fields = _rate_field("coupling", seg.coupling)
        fields += _rate_field("detuning", seg.detuning)
        fields += _rate_field("coupling2", seg.coupling2)
        fields += _rate_field("detuning2", seg.detuning2)
        duration = seg.duration_s
        fields.append(("duration", "auto" if duration == "auto" else _time_text(duration) + "ns"))
        fields.append(("ramp", _time_text(seg.ramp_s) + "ns"))
        lines.append(_segment_line(seg.label, seg.kind, seg.cavity, seg.site, fields))
    if obj.closing_ramp_s is not None:
        lines.append(f"closing_ramp {_time_text(obj.closing_ramp_s)}ns")
    return "\n".join(lines) + "\n"
