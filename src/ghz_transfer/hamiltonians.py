"""Interaction-picture Hamiltonians and collapse channels of the protocol.

Every generator here is one stage of the five-step transfer: resonant
sideband pulses that trade qudit excitations for cavity photons, and the
dispersive stage in which detuned spectators pick up photon-number
conditioned phases. Couplings and detunings are angular frequencies
(rad/s), durations are seconds.

Conventions worth stating once:

* ``h_resonant_ef`` drives coupling * (a_dag |e><f| + h.c.), so a qudit in
  f emits one photon while dropping to e. ``h_resonant_ge`` is the same
  with the g/e pair and also serves the two-level coupler.
* The dispersive stage Hamiltonian is written with explicit e^(i delta t)
  phases (interaction picture); the factory also exposes the equivalent
  static form H = delta |f><f| + coupling (a |f><e| + h.c.) used by the
  frame-change evolution route.
* Every operator is a sum of Kronecker products of local factors, built
  in one pass (:func:`~ghz_transfer.hilbert.embed_sum`); products such as
  a_dag |e><f| are formed on the factors, never on the register, and on
  the sorted flat indices ``basis`` a builder is given. The ``*_term(s)``
  functions list the terms a builder sums, for finding that basis.
* Pure dephasing collapse operators use the projector form
  sqrt(2/T_phi) |e><e|, which gives the coherence decay 1/T_phi on top of
  the relaxation contribution 1/(2 T1), i.e. 1/T2 = 1/(2 T1) + 1/T_phi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from ghz_transfer.hilbert import (
    OperatorMatrix,
    SystemLayout,
    annihilation_op,
    embed_sum,
    local_moves,
    transition_op,
)
from ghz_transfer.units import parse_frequency, parse_time

__all__ = [
    "PhysicalParams",
    "EffectiveRates",
    "h_resonant_ef",
    "h_resonant_ge",
    "h_dispersive_reduced",
    "DispersiveGenerator",
    "collapse_operators",
    "sideband_term", "drive_terms", "collapse_terms", "hermitian_moves",
    "PARAM_SCHEMA", "schema_fields", "read_param",
    "load_params",
    "load_preset",
    "PRESET_NAMES",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Drive strengths, detunings, ramp times and coherence times.

    Couplings/detunings in rad/s, times in seconds. Decoherence fields are
    optional; ``None`` means the channel is absent (ideal hardware).
    """

    # resonant-stage couplings
    mu1: float
    mu1_tilde: float
    mu1p: float
    mu1p_tilde: float
    muAL: float
    muAR: float
    # dispersive-stage couplings and detunings
    mu: float
    mu_prime: float
    delta: float
    delta_prime: float
    # level-adjustment (ramp) clock costs
    tauA: float = 3e-9
    tau1: float = 3e-9
    tau1p: float = 3e-9
    tauq: float = 3e-9
    tauqp: float = 3e-9
    # coherence times; None disables the channel
    t1: float | None = None
    t2: float | None = None
    t1f: float | None = None
    t2f: float | None = None
    coupler_t1: float | None = None
    coupler_t2: float | None = None
    kappaL: float | None = None  # photon loss rates, 1/s
    kappaR: float | None = None

    def __post_init__(self) -> None:
        for block, entries in PARAM_SCHEMA.items():
            for key, name in entries.items():
                value = getattr(self, name)
                if value is None and block == "decoherence":
                    continue  # the channel is absent
                if math.isnan(value):
                    raise ValueError(f"{name} must be a number, got nan")
                if block in _RATE_BLOCKS:
                    what, rule, ok = block[:-1], "positive and finite", 0 < value < math.inf
                elif block == "ramps":
                    what, rule, ok = "ramp time", "nonnegative and finite", 0 <= value < math.inf
                elif key in _LIFETIMES:
                    what, rule, ok = "decay rate", "nonnegative and finite when set", 0 <= value < math.inf
                else:  # a coherence time; infinite is allowed: the channel is off
                    what, rule, ok = "coherence time", "positive when set", value > 0
                if not ok:
                    raise ValueError(f"{what} {name} must be {rule}")
        if self.delta < 5 * self.mu:
            warnings.warn(
                f"delta = {self.delta / self.mu:.2f} mu: dispersive treatment is marginal "
                "below delta ~ 5 mu",
                stacklevel=2,
            )
        if self.delta_prime < 5 * self.mu_prime:
            warnings.warn(
                f"delta_prime = {self.delta_prime / self.mu_prime:.2f} mu_prime: dispersive "
                "treatment is marginal below delta ~ 5 mu",
                stacklevel=2,
            )

    def with_overrides(self, **kwargs) -> "PhysicalParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EffectiveRates:
    """Second-order dispersive rates lam = mu^2/delta (and primed)."""

    lam: float
    lam_prime: float

    @classmethod
    def from_params(cls, params: PhysicalParams) -> "EffectiveRates":
        return cls(lam=params.mu**2 / params.delta, lam_prime=params.mu_prime**2 / params.delta_prime)


def _check_register(layout: SystemLayout, cavity: str, site: str) -> None:
    if cavity not in ("L", "R"):
        raise ValueError(f"cavity must be 'L' or 'R', got {cavity!r}")
    if site == "A":
        return  # the coupler reaches both cavities
    register = layout.left_qudits if cavity == "L" else layout.right_qudits
    if site not in register:
        if site in layout.site_names:
            raise ValueError(f"site {site!r} does not sit in cavity {cavity}")
        raise KeyError(f"unknown site {site!r}")


def h_resonant_ef(layout: SystemLayout, cavity: str, qubit: str, coupling: float, basis: np.ndarray) -> OperatorMatrix:
    """Sideband drive coupling * (a_dag |e><f| + h.c.) on a three-level qudit, on ``basis``."""
    if qubit == "A":
        raise ValueError("the coupler has no f level; use h_resonant_ge")
    return _hermitian(layout, [sideband_term(layout, cavity, qubit, "e", "f", coupling)], basis)


def h_resonant_ge(layout: SystemLayout, cavity: str, site: str, coupling: float, basis: np.ndarray) -> OperatorMatrix:
    """Sideband drive coupling * (a_dag |g><e| + h.c.) on ``basis``; works for the coupler too."""
    return _hermitian(layout, [sideband_term(layout, cavity, site, "g", "e", coupling)], basis)


def sideband_term(layout: SystemLayout, cavity: str, site: str, to_level: str, from_level: str, coupling: float):
    """The local factors of coupling * a_dag |to><from|, a sideband drive without its h.c."""
    _check_register(layout, cavity, site)
    mode = "cav" + cavity
    return {
        site: coupling * transition_op(layout.site_dim(site), to_level, from_level),
        mode: annihilation_op(layout.site_dim(mode)).conj().T,
    }


def _hermitian(layout, terms, basis, diagonal=None) -> OperatorMatrix:
    """The sum X + X^+ of ``terms`` plus a real ``diagonal`` on ``basis``, in one pass: Hermitian bit for bit."""
    matrix = embed_sum(layout, hermitian_moves(layout, terms), basis, diagonal=diagonal)
    return OperatorMatrix(matrix, layout, hermitian=True, by_construction=True, basis=basis)


def hermitian_moves(layout: SystemLayout, terms: list[dict]):
    """The local moves of ``terms``, each followed by its conjugate transpose: X + X^+."""
    return local_moves(layout, [x for term in terms for x in (term, {s: local.conj().T for s, local in term.items()})])


def _require_spectators(layout: SystemLayout) -> None:
    if not layout.left_spectators or not layout.right_spectators:
        raise ValueError(
            "dispersive generators need spectators on both sides (n >= 2 each); "
            "for the single-qubit register the dispersive stage is skipped"
        )


class DispersiveGenerator:
    """Time-dependent dispersive-stage Hamiltonian and its static frame, on a basis.

    Interaction picture:

        H(t) = mu  sum_l  (e^(+i delta  t) a |f>_l <e| + h.c.)
             + mu' sum_l' (e^(+i delta' t) b |f>_l'<e| + h.c.)

    over the spectator qudits l = 2..n and l' = 2'..n'. The equivalent
    static form (frame generator G = delta sum|f><f| + delta' sum|f><f|,
    mapping psi_interaction(t) = e^(+iGt) psi_static(t)) is exposed through
    :meth:`static_hamiltonian` and :meth:`frame_diagonal`. Every matrix
    and diagonal lives on ``basis``.
    """

    def __init__(self, layout: SystemLayout, params: PhysicalParams, basis: np.ndarray):
        _require_spectators(layout)
        self.layout = layout
        self.params = params
        self.basis = basis
        self._g_diag = g = np.zeros(len(basis))
        for sites, delta in ((layout.left_spectators, params.delta), (layout.right_spectators, params.delta_prime)):
            for site in sites:
                g += delta * (layout.level_index_array(site, basis) == 2)
        self._static = _hermitian(layout, drive_terms(layout, params), basis, g)

    def static_hamiltonian(self) -> OperatorMatrix:
        """Time-independent detuned-frame form G + (A + A_dag) + (B + B_dag), built once."""
        return self._static

    def frame_diagonal(self) -> np.ndarray:
        """Diagonal of the frame generator G (rad/s per basis state)."""
        return self._g_diag.copy()


def drive_terms(layout: SystemLayout, params: PhysicalParams) -> list[dict]:
    """The terms of the drive's A = mu a (x) sum_l |f><e|_l, then of B: annihilate a photon, promote e to f."""
    _require_spectators(layout)
    promote = transition_op(3, "f", "e")
    return [
        {site: promote, mode: coupling * annihilation_op(layout.site_dim(mode))}
        for mode, coupling, spectators in (
            ("cavL", params.mu, layout.left_spectators), ("cavR", params.mu_prime, layout.right_spectators)
        )
        for site in spectators
    ]


def h_dispersive_reduced(layout: SystemLayout, params: PhysicalParams, basis: np.ndarray) -> OperatorMatrix:
    """Spectator phase Hamiltonian -lam sum|e><e| a_dag a - lam' sum|e><e| b_dag b, on ``basis``.

    Diagonal in the product basis; exact once spectator f population is
    dropped from the second-order effective form.
    """
    _require_spectators(layout)
    rates = EffectiveRates.from_params(params)
    diag = np.zeros(len(basis))
    for sites, lam, cavity in ((layout.left_spectators, rates.lam, "cavL"),
                               (layout.right_spectators, rates.lam_prime, "cavR")):
        photons = layout.level_index_array(cavity, basis).astype(float)
        for site in sites:
            diag -= lam * (layout.level_index_array(site, basis) == 1) * photons
    return _hermitian(layout, [], basis, diag)


def _pure_dephasing_rate(t1: float | None, t2: float | None, label: str) -> float:
    """1/T_phi = 1/T2 - 1/(2 T1), clamped at zero; T2 > 2 T1 is unphysical."""
    if t2 is None:
        return 0.0
    rate = 1.0 / t2
    if t1 is not None:
        if t2 > 2.0 * t1 * (1.0 + 1e-12):
            raise ValueError(f"{label}: T2 = {t2} exceeds the 2*T1 = {2 * t1} limit")
        rate -= 1.0 / (2.0 * t1)
    return max(rate, 0.0)


def collapse_operators(layout: SystemLayout, params: PhysicalParams, basis: np.ndarray) -> list[OperatorMatrix]:
    """Lindblad collapse operators for the register, on ``basis``: one per :func:`collapse_terms` term, all from one
    pass, as a channel's factor holds at most one entry per column and so each term is one product."""
    terms = collapse_terms(layout, params)
    matrices = embed_sum(layout, local_moves(layout, terms), basis, each=True)
    herm = [all(np.array_equal(m, m.conj().T) for m in term.values()) for term in terms]
    return [OperatorMatrix(matrix, layout, hermitian, by_construction=True, basis=basis)
            for matrix, hermitian in zip(matrices, herm, strict=True)]


def collapse_terms(layout: SystemLayout, params: PhysicalParams) -> list[dict]:
    """The local factor of each collapse channel.

    Per qudit: relaxation sqrt(1/T1)|g><e| and sqrt(1/T1f)|e><f|, pure
    dephasing sqrt(2/T_phi)|e><e| and sqrt(2/T_phi_f)|f><f|. The coupler
    carries the qubit pair of channels, each cavity sqrt(kappa) a.
    Channels whose rate is zero or whose times are unset are omitted.
    """
    gamma_ge = 1.0 / params.t1 if params.t1 else 0.0
    gamma_ef = 1.0 / params.t1f if params.t1f else 0.0
    phi_e = _pure_dephasing_rate(params.t1, params.t2, "qudit")
    phi_f = _pure_dephasing_rate(params.t1f, params.t2f, "qudit f level")
    channels = []  # (rate, site, local operator)
    for site in layout.left_qudits + layout.right_qudits:
        channels += [
            (gamma_ge, site, transition_op(3, "g", "e")),
            (gamma_ef, site, transition_op(3, "e", "f")),
            (2.0 * phi_e, site, transition_op(3, "e", "e")),
            (2.0 * phi_f, site, transition_op(3, "f", "f")),
        ]

    gamma_c = 1.0 / params.coupler_t1 if params.coupler_t1 else 0.0
    phi_c = _pure_dephasing_rate(params.coupler_t1, params.coupler_t2, "coupler")
    channels += [(gamma_c, "A", transition_op(2, "g", "e")), (2.0 * phi_c, "A", transition_op(2, "e", "e"))]
    for mode, kappa in (("cavL", params.kappaL), ("cavR", params.kappaR)):
        channels.append((kappa or 0.0, mode, annihilation_op(layout.site_dim(mode))))
    return [{site: math.sqrt(rate) * local} for rate, site, local in channels if rate > 0]


# ---------------------------------------------------------------------------
# parameter files

# The parameter schema: file block -> file key -> the PhysicalParams field it sets, each field once.
# Couplings, detunings and the photon-loss rates kappaL/R are rates; ramps and coherence times
# are times. The file holds a photon-loss rate as the cavity lifetime 1/kappa.
PARAM_SCHEMA: dict[str, dict[str, str]] = {
    "couplings": {k: k for k in ("mu1", "mu1_tilde", "mu1p", "mu1p_tilde", "muAL", "muAR", "mu", "mu_prime")},
    "detunings": {"delta": "delta", "delta_prime": "delta_prime"},
    "ramps": {k: k for k in ("tauA", "tau1", "tau1p", "tauq", "tauqp")},
    "decoherence": {"t1": "t1", "t2": "t2", "t1_f": "t1f", "t2_f": "t2f", "coupler_t1": "coupler_t1",
                    "coupler_t2": "coupler_t2", "cavity_lifetime_L": "kappaL", "cavity_lifetime_R": "kappaR"},
}
_RATE_BLOCKS = ("couplings", "detunings")  # the required blocks, too
_LIFETIMES = ("cavity_lifetime_L", "cavity_lifetime_R")
_UNIT_PARSERS = {"rate": parse_frequency, "time": parse_time, "number": float}

PRESET_NAMES = ("transmon",)


def schema_fields(*blocks: str) -> tuple[str, ...]:
    """The fields ``blocks`` set, in table order; every field when no block is named."""
    return tuple(field for block in blocks or PARAM_SCHEMA for field in PARAM_SCHEMA[block].values())


def _read_value(value, kind: str, where: str) -> float:
    """A number as SI; a string as a plain number or a unit expression of ``kind``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{where} must be a number or a unit string, got {value!r}")
    try:
        return float(str(value))  # an integer beyond the float range reads as infinite
    except ValueError:
        pass
    try:
        return _UNIT_PARSERS[kind](value)
    except ValueError as err:
        raise ValueError(f"{where} takes a {kind}: {err}") from None


def read_param(field: str, value) -> float:
    """One field's SI value (``--set``): a number, a plain-number string, or a unit expression of its kind."""
    rates = schema_fields(*_RATE_BLOCKS) + tuple(PARAM_SCHEMA["decoherence"][key] for key in _LIFETIMES)
    return _read_value(value, "rate" if field in rates else "time", field)


# libyaml's parser when PyYAML has it (about eight times faster on the preset);
# both loaders use SafeConstructor and Resolver, so they give the same values
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_params(path: str | Path) -> PhysicalParams:
    """Read a parameter file: YAML blocks of ``PARAM_SCHEMA`` keys, ``couplings`` and ``detunings`` required.

    Photon loss is the cavity lifetimes or a ``cavity_q``/``cavity_freq`` pair (kappa = omega/Q). A value
    is SI, or a string: a plain number or a unit expression of the key's kind. Unknown keys are a ValueError.
    """
    try:
        return params_from_mapping(yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_YAML_LOADER))
    except yaml.YAMLError as err:  # its report spans lines; the diagnostic is one
        raise ValueError(f"{path} is not valid YAML: {' '.join(str(err).split())}") from None


def params_from_mapping(raw: dict) -> PhysicalParams:
    if not isinstance(raw, dict):
        raise ValueError("parameter file must hold a mapping at the top level")
    kwargs: dict[str, float] = {}
    for block, entries in raw.items():
        if block not in PARAM_SCHEMA:
            raise ValueError(f"unknown parameter block {block!r}; blocks are {', '.join(PARAM_SCHEMA)}")
        entries = {} if entries is None else entries  # YAML reads a block with no keys as null
        if not isinstance(entries, dict):
            raise ValueError(f"parameter block {block} must be a mapping, got {entries!r}")
        for key, value in entries.items():
            if block == "decoherence" and key in ("cavity_q", "cavity_freq"):
                continue  # read together, below
            if key not in PARAM_SCHEMA[block]:
                raise ValueError(f"unknown parameter {block}.{key}")
            value = _read_value(value, "rate" if block in _RATE_BLOCKS else "time", f"{block}.{key}")
            if key in _LIFETIMES:  # the file holds 1/kappa
                if not value > 0:
                    raise ValueError(f"{key} must be positive (.inf for a lossless cavity)")
                value = 1.0 / value
            kwargs[PARAM_SCHEMA[block][key]] = value
    missing = [f"{b}.{k}" for b in _RATE_BLOCKS for k, f in PARAM_SCHEMA[b].items() if f not in kwargs]
    if missing:
        raise ValueError(f"parameter file is missing {', '.join(missing)}")
    deco = raw.get("decoherence") or {}
    if "cavity_q" in deco or "cavity_freq" in deco:
        if not ("cavity_q" in deco and "cavity_freq" in deco):
            raise ValueError("cavity_q and cavity_freq must be given together")
        omega = _read_value(deco["cavity_freq"], "rate", "decoherence.cavity_freq")
        quality = _read_value(deco["cavity_q"], "number", "decoherence.cavity_q")
        kappa = omega / quality if quality else math.inf  # Q = 0 fails as an infinite rate
        kwargs = {"kappaL": kappa, "kappaR": kappa} | kwargs  # an explicit lifetime wins
    return PhysicalParams(**kwargs)


def load_preset(name: str) -> PhysicalParams:
    """Load a packaged parameter preset by name (see ``PRESET_NAMES``)."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    from importlib.resources import files

    text = files("ghz_transfer").joinpath(f"presets/{name}.yaml").read_text(encoding="utf-8")
    return params_from_mapping(yaml.load(text, Loader=_YAML_LOADER))
