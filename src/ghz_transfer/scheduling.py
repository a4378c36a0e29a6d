"""Pulse schedules: segment durations, ramp accounting, timing budget.

The transfer runs in five steps of one or two resonant pulses each, with
the dispersive phase window in the middle. Durations follow from the pulse
areas alone:

* a resonant pulse that must move the whole population of a two-state
  block lasts a quarter Rabi period, pi/(2 g_eff);
* blocks reached through a two-photon cavity component see the bosonic
  sqrt(2) enhancement, so their quarter period is pi/(2 sqrt(2) g);
* the dispersive window must close at a time where BOTH conditioned
  phases e^(i lam t) and e^(i lam' t) hit -1, i.e. t = (2m+1) pi/lam =
  (2k+1) pi/lam' for integers m, k >= 0.

Every segment carries the level-adjustment (ramp) cost of retuning the
hardware INTO that segment; the trailing restore after the last pulse is
the schedule's closing ramp. The budget properties use ``math.fsum`` so
the reported totals are the exactly rounded sums of their atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ghz_transfer.hamiltonians import EffectiveRates, PhysicalParams
from ghz_transfer.hilbert import SystemLayout, build_layout

__all__ = [
    "SchedulingError",
    "PulseSegment",
    "Schedule",
    "ResonanceSolution",
    "TimingBudget",
    "SEGMENT_ORDER",
    "build_schedule",
    "solve_resonance",
    "timing_budget",
    "cavity_lifetime",
]

SQRT2 = math.sqrt(2.0)

SEGMENT_KINDS = ("resonant_ef", "resonant_ge", "dispersive")

# canonical labels in execution order; step3 drops out when there are no
# spectator qudits to phase-correct
SEGMENT_ORDER = (
    "step1a", "step1b",
    "step2a", "step2b",
    "step3",
    "step4a", "step4b",
    "step5a", "step5b",
)

# factor f of each resonant step's quarter period pi/(2 f g): sqrt(2) where
# the pulse meets a two-photon cavity component
QUARTER_PERIOD_FACTOR = {
    "step1a": 1.0, "step1b": SQRT2,
    "step2a": SQRT2, "step2b": 1.0,
    "step4a": 1.0, "step4b": SQRT2,
    "step5a": SQRT2, "step5b": 1.0,
}

# a dispersive window closes both phases when their odd-multiple times
# agree to this relative mismatch; solve_resonance scans m up to the bound
RESONANCE_TOLERANCE = 1e-6
RESONANCE_BOUND = 100


class SchedulingError(ValueError):
    """Raised when a schedule cannot be built from the given parameters."""


@dataclass(frozen=True)
class PulseSegment:
    """One contiguous pulse with the retune cost paid before it starts.

    Times are in seconds; a display in ns derives them with
    :func:`~ghz_transfer.units.seconds_to_ns`.
    """

    label: str
    kind: str
    cavity: str
    site: str
    coupling: float  # rad/s
    duration_s: float = 0.0
    ramp_s: float = 0.0
    detuning: float | None = None
    coupling2: float | None = None
    detuning2: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.cavity not in ("L", "R"):
            raise ValueError(f"segment cavity must be 'L' or 'R', got {self.cavity!r}")
        if self.kind == "dispersive":
            if self.detuning is None or self.coupling2 is None or self.detuning2 is None:
                raise ValueError("dispersive segments need detuning, coupling2 and detuning2")
        elif self.detuning is not None or self.coupling2 is not None or self.detuning2 is not None:
            raise ValueError(f"{self.kind} segments take no detuning fields")
        if self.coupling <= 0:
            raise ValueError("segment coupling must be positive")
        if self.duration_s < 0 or self.ramp_s < 0:
            raise ValueError("segment times must be nonnegative")


@dataclass(frozen=True)
class Schedule:
    """An ordered pulse sequence, the register it runs on, and the trailing restore ramp."""

    segments: tuple[PulseSegment, ...]
    layout: SystemLayout
    closing_ramp_s: float = 0.0
    resonance: tuple[int, int] | None = None  # (m, k) of the dispersive window

    def __post_init__(self) -> None:
        labels = [seg.label for seg in self.segments]
        if len(set(labels)) != len(labels):
            raise ValueError("segment labels must be unique")

    def __iter__(self):
        return iter(self.segments)

    def segment(self, label: str) -> PulseSegment:
        for seg in self.segments:
            if seg.label == label:
                return seg
        raise KeyError(f"no segment labelled {label!r}")

    @property
    def tau_r(self) -> float:
        """Total resonant pulse time."""
        return math.fsum(s.duration_s for s in self.segments if s.kind != "dispersive")

    @property
    def tau_o(self) -> float:
        """Total dispersive window time."""
        return math.fsum(s.duration_s for s in self.segments if s.kind == "dispersive")

    @property
    def tau_a(self) -> float:
        """Total level-adjustment time, closing ramp included."""
        return math.fsum([s.ramp_s for s in self.segments] + [self.closing_ramp_s])

    @property
    def tau(self) -> float:
        """Whole protocol wall time."""
        atoms = [s.duration_s for s in self.segments]
        atoms += [s.ramp_s for s in self.segments]
        atoms.append(self.closing_ramp_s)
        return math.fsum(atoms)


@dataclass(frozen=True)
class ResonanceSolution:
    """Joint closing time of both conditioned phases."""

    m: int
    k: int
    duration_s: float
    residual: float  # relative mismatch between the two odd-multiple times


def solve_resonance(
    lam: float,
    lam_prime: float,
    *,
    tolerance: float = RESONANCE_TOLERANCE,
    bound: int = RESONANCE_BOUND,
) -> ResonanceSolution:
    """Smallest t = (2m+1) pi/lam that is also (2k+1) pi/lam' within tolerance.

    Scans m upward to ``bound``; for each m the best k is the nearest odd
    multiple on the primed side. Raises :class:`SchedulingError` when the
    two rates never line up, e.g. for an irrational ratio.
    """
    if lam <= 0 or lam_prime <= 0:
        raise SchedulingError("phase rates must be positive")
    for m in range(bound + 1):
        t_m = (2 * m + 1) * math.pi / lam
        k = max(0, round((t_m * lam_prime / math.pi - 1.0) / 2.0))
        t_k = (2 * k + 1) * math.pi / lam_prime
        residual = abs(t_m - t_k) / t_m
        if residual <= tolerance:
            return ResonanceSolution(m=m, k=k, duration_s=t_m, residual=residual)
    raise SchedulingError(
        f"no joint phase closing below m = {bound}: lam'/lam = {lam_prime / lam!r} "
        "does not give simultaneous odd multiples"
    )


def quarter_period(label: str, coupling: float) -> float:
    """Canonical duration pi/(2 f g) of the resonant step ``label``."""
    return math.pi / (2 * QUARTER_PERIOD_FACTOR[label] * coupling)


def build_schedule(params: PhysicalParams, n: int) -> Schedule:
    """The five-step transfer schedule for an n-qubit register per side.

    The resonant pulse durations depend only on the couplings, never on n:
    all pulses act on the first qubit pair and the coupler. The dispersive
    window exists only for n >= 2 (it corrects spectator phases) and its
    length comes from :func:`solve_resonance`. The schedule runs on
    ``build_layout(n, n)``, at the default Fock cutoffs.
    """
    if n < 1:
        raise SchedulingError("register needs at least one qubit per side")
    p = params

    def resonant(label, kind, cavity, site, coupling, ramp_s):
        return PulseSegment(
            label=label, kind=kind, cavity=cavity, site=site, coupling=coupling,
            duration_s=quarter_period(label, coupling), ramp_s=ramp_s,
        )

    resonance = None
    segs = [
        resonant("step1a", "resonant_ef", "L", "q1", p.mu1, p.tau1),
        resonant("step1b", "resonant_ge", "L", "q1", p.mu1_tilde, p.tau1),
        resonant("step2a", "resonant_ge", "L", "A", p.muAL, math.fsum([p.tau1, p.tauA])),
        resonant("step2b", "resonant_ge", "R", "A", p.muAR, p.tauA),
    ]
    if n >= 2:
        rates = EffectiveRates.from_params(p)
        sol = solve_resonance(rates.lam, rates.lam_prime)
        resonance = (sol.m, sol.k)
        segs.append(
            PulseSegment(
                label="step3", kind="dispersive", cavity="L", site="spectators",
                coupling=p.mu, detuning=p.delta,
                coupling2=p.mu_prime, detuning2=p.delta_prime,
                duration_s=sol.duration_s,
                ramp_s=math.fsum([p.tauA, p.tauq, p.tauqp]),
            )
        )
    # retuning into step4 undoes the spectator detunings (when any) and
    # shifts the coupler back to the left cavity
    step4a_ramp = math.fsum([p.tauA, p.tauq, p.tauqp]) if n >= 2 else p.tauA
    segs += [
        resonant("step4a", "resonant_ge", "L", "A", p.muAL, step4a_ramp),
        resonant("step4b", "resonant_ge", "R", "A", p.muAR, p.tauA),
        resonant("step5a", "resonant_ge", "R", "q1p", p.mu1p_tilde, math.fsum([p.tauA, p.tau1p])),
        resonant("step5b", "resonant_ef", "R", "q1p", p.mu1p, p.tau1p),
    ]
    return Schedule(
        segments=tuple(segs),
        layout=build_layout(n, n),
        closing_ramp_s=p.tau1p,
        resonance=resonance,
    )


@dataclass(frozen=True)
class TimingBudget:
    """Wall-time split of one transfer, all in seconds."""

    tau_r: float  # resonant pulses
    tau_o: float  # dispersive window
    tau_a: float  # level adjustments
    tau: float  # total
    m: int | None
    k: int | None
    cavity_lifetime_L: float | None = None
    cavity_lifetime_R: float | None = None

    def to_dict(self) -> dict:
        return {
            "tau_r_s": self.tau_r,
            "tau_o_s": self.tau_o,
            "tau_a_s": self.tau_a,
            "tau_s": self.tau,
            "resonance_m": self.m,
            "resonance_k": self.k,
            "cavity_lifetime_L_s": self.cavity_lifetime_L,
            "cavity_lifetime_R_s": self.cavity_lifetime_R,
        }


def timing_budget(params: PhysicalParams, n: int = 2) -> TimingBudget:
    """Budget of the n-qubit transfer (n only decides whether step3 exists)."""
    sched = build_schedule(params, n)
    m, k = sched.resonance if sched.resonance else (None, None)
    return TimingBudget(
        tau_r=sched.tau_r,
        tau_o=sched.tau_o,
        tau_a=sched.tau_a,
        tau=sched.tau,
        m=m,
        k=k,
        cavity_lifetime_L=1.0 / params.kappaL if params.kappaL else None,
        cavity_lifetime_R=1.0 / params.kappaR if params.kappaR else None,
    )


def cavity_lifetime(q_factor: float, omega: float) -> float:
    """Photon lifetime 1/kappa = Q/omega of a cavity mode (omega in rad/s)."""
    if q_factor <= 0 or omega <= 0:
        raise ValueError("quality factor and mode frequency must be positive")
    return q_factor / omega
