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
* Pure dephasing collapse operators use the projector form
  sqrt(2/T_phi) |e><e|, which gives the coherence decay 1/T_phi on top of
  the relaxation contribution 1/(2 T1), i.e. 1/T2 = 1/(2 T1) + 1/T_phi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp
import yaml

from ghz_transfer.hilbert import (
    OperatorMatrix,
    SystemLayout,
    embed_site_operator,
    mode_annihilation,
    mode_creation,
    transition_op,
)
from ghz_transfer.units import parse_frequency, parse_time

__all__ = [
    "PhysicalParams",
    "EffectiveRates",
    "h_resonant_ef",
    "h_resonant_ge",
    "h_dispersive_effective",
    "h_dispersive_reduced",
    "DispersiveGenerator",
    "collapse_operators",
    "load_params",
    "save_params",
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
        for name in ("mu1", "mu1_tilde", "mu1p", "mu1p_tilde", "muAL", "muAR", "mu", "mu_prime"):
            if getattr(self, name) <= 0:
                raise ValueError(f"coupling {name} must be positive")
        for name in ("delta", "delta_prime"):
            if getattr(self, name) <= 0:
                raise ValueError(f"detuning {name} must be positive")
        for name in ("tauA", "tau1", "tau1p", "tauq", "tauqp"):
            if getattr(self, name) < 0:
                raise ValueError(f"ramp time {name} must be nonnegative")
        for name in ("t1", "t2", "t1f", "t2f", "coupler_t1", "coupler_t2"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"coherence time {name} must be positive when set")
        for name in ("kappaL", "kappaR"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"decay rate {name} must be nonnegative when set")
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


def h_resonant_ef(layout: SystemLayout, cavity: str, qubit: str, coupling: float) -> OperatorMatrix:
    """Sideband drive coupling * (a_dag |e><f| + h.c.) on a three-level qudit."""
    if qubit == "A":
        raise ValueError("the coupler has no f level; use h_resonant_ge")
    _check_register(layout, cavity, qubit)
    adag = mode_creation(layout, cavity)
    lower = embed_site_operator(layout, qubit, transition_op(3, "e", "f"))
    half = coupling * (adag @ lower)
    return OperatorMatrix((half.matrix + half.matrix.getH()).tocsr(), layout, hermitian=True)


def h_resonant_ge(layout: SystemLayout, cavity: str, site: str, coupling: float) -> OperatorMatrix:
    """Sideband drive coupling * (a_dag |g><e| + h.c.); works for the coupler too."""
    _check_register(layout, cavity, site)
    dim = layout.site_dim(site)
    adag = mode_creation(layout, cavity)
    lower = embed_site_operator(layout, site, transition_op(dim, "g", "e"))
    half = coupling * (adag @ lower)
    return OperatorMatrix((half.matrix + half.matrix.getH()).tocsr(), layout, hermitian=True)


def _require_spectators(layout: SystemLayout) -> None:
    if not layout.left_spectators or not layout.right_spectators:
        raise ValueError(
            "dispersive generators need spectators on both sides (n >= 2 each); "
            "for the single-qubit register the dispersive stage is skipped"
        )


class DispersiveGenerator:
    """Time-dependent dispersive-stage Hamiltonian and its static frame.

    Interaction picture:

        H(t) = mu  sum_l  (e^(+i delta  t) a |f>_l <e| + h.c.)
             + mu' sum_l' (e^(+i delta' t) b |f>_l'<e| + h.c.)

    over the spectator qudits l = 2..n and l' = 2'..n'. The equivalent
    static form (frame generator G = delta sum|f><f| + delta' sum|f><f|,
    mapping psi_interaction(t) = e^(+iGt) psi_static(t)) is exposed through
    :meth:`static_hamiltonian` and :meth:`frame_diagonal`.
    """

    def __init__(self, layout: SystemLayout, params: PhysicalParams):
        _require_spectators(layout)
        self.layout = layout
        self.params = params
        a = mode_annihilation(layout, "L")
        b = mode_annihilation(layout, "R")
        raise_left = _summed_transition(layout, layout.left_spectators, "f", "e")
        raise_right = _summed_transition(layout, layout.right_spectators, "f", "e")
        # A = mu * a (x) sum_l |f><e|: annihilate a photon, promote e to f
        self._A = (params.mu * (a @ raise_left)).matrix
        self._B = (params.mu_prime * (b @ raise_right)).matrix
        self._A_dag = self._A.getH().tocsr()
        self._B_dag = self._B.getH().tocsr()
        g = np.zeros(layout.dim)
        for site in layout.left_spectators:
            g += params.delta * (layout.level_index_array(site) == 2)
        for site in layout.right_spectators:
            g += params.delta_prime * (layout.level_index_array(site) == 2)
        self._g_diag = g

    @property
    def max_detuning(self) -> float:
        return max(self.params.delta, self.params.delta_prime)

    def at(self, t: float) -> OperatorMatrix:
        """The Hamiltonian at one instant, as a sparse Hermitian operator."""
        phase_l = np.exp(1j * self.params.delta * t)
        phase_r = np.exp(1j * self.params.delta_prime * t)
        mat = phase_l * self._A + np.conj(phase_l) * self._A_dag
        mat = mat + phase_r * self._B + np.conj(phase_r) * self._B_dag
        return OperatorMatrix(mat.tocsr(), self.layout, hermitian=True)

    def apply(self, t: float, amplitudes: np.ndarray) -> np.ndarray:
        """H(t) @ amplitudes without assembling the summed matrix."""
        phase_l = np.exp(1j * self.params.delta * t)
        phase_r = np.exp(1j * self.params.delta_prime * t)
        out = phase_l * (self._A @ amplitudes)
        out += np.conj(phase_l) * (self._A_dag @ amplitudes)
        out += phase_r * (self._B @ amplitudes)
        out += np.conj(phase_r) * (self._B_dag @ amplitudes)
        return out

    def static_hamiltonian(self) -> OperatorMatrix:
        """Time-independent detuned-frame form G + (A + A_dag) + (B + B_dag)."""
        mat = sp.diags(self._g_diag, format="csr").astype(complex)
        mat = mat + self._A + self._A_dag + self._B + self._B_dag
        return OperatorMatrix(mat.tocsr(), self.layout, hermitian=True)

    def frame_diagonal(self) -> np.ndarray:
        """Diagonal of the frame generator G (rad/s per basis state)."""
        return self._g_diag.copy()


def _summed_transition(layout: SystemLayout, sites, to_level: str, from_level: str) -> OperatorMatrix:
    total = None
    for site in sites:
        term = embed_site_operator(layout, site, transition_op(3, to_level, from_level))
        total = term if total is None else total + term
    assert total is not None
    return total


def h_dispersive_effective(layout: SystemLayout, params: PhysicalParams) -> OperatorMatrix:
    """Second-order effective dispersive Hamiltonian.

    Stark terms lam (|f><f| a a_dag - |e><e| a_dag a) per left spectator
    plus the photon-mediated dipole exchange lam |f>_l<e| (x) |e>_k<f| over
    ordered spectator pairs l != k, and the primed analogues on the right.
    """
    _require_spectators(layout)
    rates = EffectiveRates.from_params(params)
    a = mode_annihilation(layout, "L")
    b = mode_annihilation(layout, "R")
    terms = []
    for lam, mode, spectators in (
        (rates.lam, a, layout.left_spectators),
        (rates.lam_prime, b, layout.right_spectators),
    ):
        n_op = (mode.dagger() @ mode).matrix
        anti_n = (mode @ mode.dagger()).matrix
        for site in spectators:
            ff = embed_site_operator(layout, site, transition_op(3, "f", "f")).matrix
            ee = embed_site_operator(layout, site, transition_op(3, "e", "e")).matrix
            terms.append(lam * (ff @ anti_n - ee @ n_op))
        for site_l in spectators:
            fe_l = embed_site_operator(layout, site_l, transition_op(3, "f", "e")).matrix
            for site_k in spectators:
                if site_k == site_l:
                    continue
                ef_k = embed_site_operator(layout, site_k, transition_op(3, "e", "f")).matrix
                terms.append(lam * (fe_l @ ef_k))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return OperatorMatrix(total.tocsr(), layout, hermitian=True)


def h_dispersive_reduced(layout: SystemLayout, params: PhysicalParams) -> OperatorMatrix:
    """Spectator phase Hamiltonian -lam sum|e><e| a_dag a - lam' sum|e><e| b_dag b.

    Diagonal in the product basis; exact once spectator f population is
    dropped from the effective form.
    """
    _require_spectators(layout)
    rates = EffectiveRates.from_params(params)
    diag = np.zeros(layout.dim)
    n_a = layout.level_index_array("cavL").astype(float)
    n_b = layout.level_index_array("cavR").astype(float)
    for site in layout.left_spectators:
        diag -= rates.lam * (layout.level_index_array(site) == 1) * n_a
    for site in layout.right_spectators:
        diag -= rates.lam_prime * (layout.level_index_array(site) == 1) * n_b
    return OperatorMatrix(sp.diags(diag.astype(complex), format="csr"), layout, hermitian=True)


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


def collapse_operators(layout: SystemLayout, params: PhysicalParams) -> list[OperatorMatrix]:
    """Lindblad collapse operators for the register.

    Per qudit: relaxation sqrt(1/T1)|g><e| and sqrt(1/T1f)|e><f|, pure
    dephasing sqrt(2/T_phi)|e><e| and sqrt(2/T_phi_f)|f><f|. The coupler
    carries the qubit pair of channels, each cavity sqrt(kappa) a.
    Channels whose rate is zero or whose times are unset are omitted.
    """
    ops: list[OperatorMatrix] = []

    gamma_ge = 1.0 / params.t1 if params.t1 else 0.0
    gamma_ef = 1.0 / params.t1f if params.t1f else 0.0
    phi_e = _pure_dephasing_rate(params.t1, params.t2, "qudit")
    phi_f = _pure_dephasing_rate(params.t1f, params.t2f, "qudit f level")
    for site in layout.left_qudits + layout.right_qudits:
        if gamma_ge > 0:
            ops.append(math.sqrt(gamma_ge) * embed_site_operator(layout, site, transition_op(3, "g", "e")))
        if gamma_ef > 0:
            ops.append(math.sqrt(gamma_ef) * embed_site_operator(layout, site, transition_op(3, "e", "f")))
        if phi_e > 0:
            ops.append(math.sqrt(2.0 * phi_e) * embed_site_operator(layout, site, transition_op(3, "e", "e")))
        if phi_f > 0:
            ops.append(math.sqrt(2.0 * phi_f) * embed_site_operator(layout, site, transition_op(3, "f", "f")))

    gamma_c = 1.0 / params.coupler_t1 if params.coupler_t1 else 0.0
    phi_c = _pure_dephasing_rate(params.coupler_t1, params.coupler_t2, "coupler")
    if gamma_c > 0:
        ops.append(math.sqrt(gamma_c) * embed_site_operator(layout, "A", transition_op(2, "g", "e")))
    if phi_c > 0:
        ops.append(math.sqrt(2.0 * phi_c) * embed_site_operator(layout, "A", transition_op(2, "e", "e")))

    if params.kappaL:
        ops.append(math.sqrt(params.kappaL) * mode_annihilation(layout, "L"))
    if params.kappaR:
        ops.append(math.sqrt(params.kappaR) * mode_annihilation(layout, "R"))
    return ops


# ---------------------------------------------------------------------------
# parameter files

_COUPLING_FIELDS = ("mu1", "mu1_tilde", "mu1p", "mu1p_tilde", "muAL", "muAR", "mu", "mu_prime")
_DETUNING_FIELDS = ("delta", "delta_prime")
_RAMP_FIELDS = ("tauA", "tau1", "tau1p", "tauq", "tauqp")
_TIME_FIELDS = {"t1": "t1", "t2": "t2", "t1_f": "t1f", "t2_f": "t2f",
                "coupler_t1": "coupler_t1", "coupler_t2": "coupler_t2"}
_LIFETIME_FIELDS = {"cavity_lifetime_L": "kappaL", "cavity_lifetime_R": "kappaR"}

PRESET_NAMES = ("transmon",)


def _as_frequency(value) -> float:
    if isinstance(value, str):
        return parse_frequency(value)
    return float(value)


def _as_time(value) -> float:
    if isinstance(value, str):
        return parse_time(value)
    return float(value)


def load_params(path: str | Path) -> PhysicalParams:
    """Read a parameter file.

    YAML with four blocks: ``couplings`` and ``detunings`` (values either
    unit strings like ``2pi*50 MHz`` or raw rad/s numbers), ``ramps``
    (``3 ns`` style or raw seconds) and an optional ``decoherence`` block
    with qudit/coupler lifetimes plus either explicit cavity lifetimes
    (``cavity_lifetime_L``) or a shared ``cavity_q``/``cavity_freq`` pair
    from which kappa = omega/Q is derived.
    """
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    return params_from_mapping(raw)


def params_from_mapping(raw: dict) -> PhysicalParams:
    if not isinstance(raw, dict):
        raise ValueError("parameter file must hold a mapping at the top level")
    kwargs: dict[str, float | None] = {}
    couplings = raw.get("couplings", {})
    for name in _COUPLING_FIELDS:
        if name not in couplings:
            raise ValueError(f"parameter file is missing couplings.{name}")
        kwargs[name] = _as_frequency(couplings[name])
    detunings = raw.get("detunings", {})
    for name in _DETUNING_FIELDS:
        if name not in detunings:
            raise ValueError(f"parameter file is missing detunings.{name}")
        kwargs[name] = _as_frequency(detunings[name])
    for name in _RAMP_FIELDS:
        if name in raw.get("ramps", {}):
            kwargs[name] = _as_time(raw["ramps"][name])

    deco = raw.get("decoherence") or {}
    for file_key, field in _TIME_FIELDS.items():
        if file_key in deco:
            kwargs[field] = _as_time(deco[file_key])
    if "cavity_q" in deco or "cavity_freq" in deco:
        if not ("cavity_q" in deco and "cavity_freq" in deco):
            raise ValueError("cavity_q and cavity_freq must be given together")
        omega = _as_frequency(deco["cavity_freq"])
        kappa = omega / float(deco["cavity_q"])
        kwargs.setdefault("kappaL", kappa)
        kwargs.setdefault("kappaR", kappa)
    for file_key, field in _LIFETIME_FIELDS.items():
        if file_key in deco:
            lifetime = _as_time(deco[file_key])
            if not lifetime > 0:
                raise ValueError(f"{file_key} must be positive (.inf for a lossless cavity)")
            kwargs[field] = 1.0 / lifetime
    unknown = set(deco) - set(_TIME_FIELDS) - set(_LIFETIME_FIELDS) - {"cavity_q", "cavity_freq"}
    if unknown:
        raise ValueError(f"unknown decoherence keys: {sorted(unknown)}")
    return PhysicalParams(**kwargs)


def save_params(params: PhysicalParams, path: str | Path) -> None:
    """Write a parameter file in base units (rad/s and seconds).

    Photon loss is written as the cavity lifetime 1/kappa, so a nonzero
    kappa can load back one ulp off (1/(1/49.0) is 49.00000000000001);
    every other field, ``None`` and zero rates included, comes back exactly.
    """
    payload = {
        "couplings": {name: float(getattr(params, name)) for name in _COUPLING_FIELDS},
        "detunings": {name: float(getattr(params, name)) for name in _DETUNING_FIELDS},
        "ramps": {name: float(getattr(params, name)) for name in _RAMP_FIELDS},
    }
    deco = {}
    for file_key, field in _TIME_FIELDS.items():
        value = getattr(params, field)
        if value is not None:
            deco[file_key] = float(value)
    for file_key, field in _LIFETIME_FIELDS.items():
        kappa = getattr(params, field)
        if kappa is not None:
            # a lossless cavity lives forever: .inf, which loads back as 0.0
            deco[file_key] = 1.0 / kappa if kappa else math.inf
    if deco:
        payload["decoherence"] = deco
    Path(path).write_text(yaml.safe_dump(payload, sort_keys=True), encoding="utf-8")


def load_preset(name: str) -> PhysicalParams:
    """Load a packaged parameter preset by name (see ``PRESET_NAMES``)."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    from importlib.resources import files

    text = files("ghz_transfer").joinpath(f"presets/{name}.yaml").read_text(encoding="utf-8")
    return params_from_mapping(yaml.safe_load(text))
