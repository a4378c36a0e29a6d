"""Oracle states, occupation estimates, and encoded-state helpers.

The transfer protocol has a closed-form state at every stage boundary, so
verification never needs a reference simulation: this module writes those
states down directly.

Encoding conventions (the load-bearing part):

* the shared state is alpha |g>_1 prod |+>_l + beta |f>_1 prod |->_l with
  |+-> = (|g> +- |e>)/sqrt(2) on the spectators;
* the g branch (coefficient alpha) never moves: every pulse annihilates
  it, so at each checkpoint it is the same all-ground, zero-photon ket;
* the f branch carries all the action. Each two-pulse resonant step is a
  pair of quarter Rabi periods, each contributing -i, so the branch
  coefficient walks through beta -> -beta -> +beta -> ... exactly as the
  stage states below record;
* during the phase window the f branch's left spectators read
  (|g> - e^(i lam t)|e>)/sqrt(2) and the right ones
  (|g> + e^(i lam' t)|e>)/sqrt(2): at t3 both phases hit -1, which hands
  the +- pattern from the left register to the right one.

Checkpoint names: ``initial``, ``after_step1a``, ``after_step1``,
``after_step2a``, ``after_step2``, ``during_step3`` (takes ``t`` and
``rates``), ``after_step3``, ``after_step4a``, ``after_step4``,
``after_step5a``, ``final``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ghz_transfer.hamiltonians import EffectiveRates
from ghz_transfer.hilbert import QuantumState, SystemLayout, _distinct

__all__ = [
    "GhzSpec",
    "random_ghz_spec",
    "CHECKPOINTS",
    "STAGE_CHECKPOINTS",
    "make_oracle_state",
    "oracle_branches",
    "occupation_probability",
    "logical_encode_pulse",
]

INV_SQRT2 = 1.0 / math.sqrt(2.0)

PLUS = (INV_SQRT2, INV_SQRT2, 0.0)
MINUS = (INV_SQRT2, -INV_SQRT2, 0.0)

# every checkpoint the oracle chain defines, in protocol order
CHECKPOINTS = (
    "initial",
    "after_step1a",
    "after_step1",
    "after_step2a",
    "after_step2",
    "during_step3",
    "after_step3",
    "after_step4a",
    "after_step4",
    "after_step5a",
    "final",
)

# the stage boundaries used for verification reports
STAGE_CHECKPOINTS = (
    "initial",
    "after_step1",
    "after_step2",
    "after_step3",
    "after_step4",
    "final",
)


@dataclass(frozen=True)
class GhzSpec:
    """The (alpha, beta) amplitudes of an n-qubit shared state."""

    alpha: complex
    beta: complex
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(total - 1.0) <= 1e-10:  # NaN fails here too
            raise ValueError(f"|alpha|^2 + |beta|^2 = {total!r}, must be 1")


def random_ghz_spec(n: int, rng: np.random.Generator) -> GhzSpec:
    """Haar-uniform (alpha, beta) with the global phase fixed (alpha real >= 0)."""
    raw = rng.normal(size=4)
    vec = np.array([raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]])
    vec /= np.linalg.norm(vec)
    phase = vec[0] / abs(vec[0]) if abs(vec[0]) > 1e-12 else 1.0
    vec = vec / phase
    return GhzSpec(alpha=complex(vec[0].real), beta=complex(vec[1]), n=n)


@dataclass(frozen=True)
class _FBranch:
    """Configuration of the moving branch at one checkpoint."""

    coeff: complex  # multiplies beta
    q1: str | tuple
    coupler: str
    q1p: str | tuple
    left_spec: tuple
    right_spec: tuple
    photons: tuple[int, int]


def _f_branch(checkpoint: str, t: float | None, rates: EffectiveRates | None) -> _FBranch:
    if checkpoint == "during_step3":
        if t is None or rates is None:
            raise ValueError("during_step3 needs t and rates")
        left = (INV_SQRT2, -INV_SQRT2 * np.exp(1j * rates.lam * t), 0.0)
        right = (INV_SQRT2, INV_SQRT2 * np.exp(1j * rates.lam_prime * t), 0.0)
        return _FBranch(1.0, "g", "g", "g", left, right, (1, 1))
    if t is not None or rates is not None:
        raise ValueError(f"checkpoint {checkpoint!r} takes no t/rates")
    table = {
        "initial": _FBranch(1.0, "f", "g", "g", MINUS, PLUS, (0, 0)),
        "after_step1a": _FBranch(-1j, "e", "g", "g", MINUS, PLUS, (1, 0)),
        "after_step1": _FBranch(-1.0, "g", "g", "g", MINUS, PLUS, (2, 0)),
        "after_step2a": _FBranch(1j, "g", "e", "g", MINUS, PLUS, (1, 0)),
        "after_step2": _FBranch(1.0, "g", "g", "g", MINUS, PLUS, (1, 1)),
        "after_step3": _FBranch(1.0, "g", "g", "g", PLUS, MINUS, (1, 1)),
        "after_step4a": _FBranch(-1j, "g", "e", "g", PLUS, MINUS, (0, 1)),
        "after_step4": _FBranch(-1.0, "g", "g", "g", PLUS, MINUS, (0, 2)),
        "after_step5a": _FBranch(1j, "g", "g", "e", PLUS, MINUS, (0, 1)),
        "final": _FBranch(1.0, "g", "g", "f", PLUS, MINUS, (0, 0)),
    }
    if checkpoint not in table:
        raise KeyError(f"unknown checkpoint {checkpoint!r}; one of {CHECKPOINTS}")
    return table[checkpoint]


_LEVEL_VEC = {"g": (1.0, 0.0, 0.0), "e": (0.0, 1.0, 0.0), "f": (0.0, 0.0, 1.0)}

_G_BRANCH = _FBranch(1.0, "g", "g", "g", PLUS, PLUS, (0, 0))


def _branch_vectors(layout: SystemLayout, branch: _FBranch) -> dict:
    """Each factor's local vector in ``branch``."""
    vectors = {"q1": _LEVEL_VEC.get(branch.q1, branch.q1), "q1p": _LEVEL_VEC.get(branch.q1p, branch.q1p)}
    vectors["A"] = (1.0, 0.0) if branch.coupler == "g" else (0.0, 1.0)
    for site in layout.left_spectators:
        vectors[site] = branch.left_spec
    for site in layout.right_spectators:
        vectors[site] = branch.right_spec
    for mode, photons in zip(("cavL", "cavR"), branch.photons):
        vectors[mode] = tuple(float(level == photons) for level in range(layout.site_dim(mode)))
    return vectors


def _branch_kets(layout: SystemLayout, branches: list[_FBranch]) -> tuple[np.ndarray, np.ndarray]:
    """The unit kets of ``branches`` on their own supports, one row each: the sorted flat indices where the ket is
    nonzero and its amplitudes there, each the product of one entry per factor, multiplied left to right as a
    ``np.kron`` chain does.

    Both are grown factor by factor, so a ket at n spans 4^(n-1) states (each spectator in g and e), never the
    register. Every branch must have as many nonzero levels on each factor as the others, as the checkpoint
    table's do.
    """
    vectors = [_branch_vectors(layout, branch) for branch in branches]
    indices, amplitudes = np.zeros((len(branches), 1), dtype=np.int64), None
    for site, dim in zip(layout.site_names, layout.factor_dims):
        local = np.array([each[site] for each in vectors], dtype=complex)
        levels = np.nonzero(local)[1].reshape(len(branches), 1, -1)
        values = np.take_along_axis(local[:, None], levels, axis=2)
        indices = (indices[:, :, None] * dim + levels).reshape(len(branches), -1)
        # left to right, one factor at a time, as the chain on a support multiplies
        amplitudes = values[:, 0] if amplitudes is None else (amplitudes[:, :, None] * values).reshape(len(branches), -1)
    return indices, amplitudes


@lru_cache(maxsize=4)
def _stage_kets(layout: SystemLayout) -> dict[str | None, tuple[np.ndarray, np.ndarray]]:
    """The g branch's ket, under None, and the f branch's ket of each checkpoint that takes no t, as
    :func:`_branch_kets` forms them: all at once, once per layout, shared and read-only."""
    labels = [label for label in CHECKPOINTS if label != "during_step3"]
    indices, amplitudes = _branch_kets(layout, [_G_BRANCH] + [_f_branch(label, None, None) for label in labels])
    indices.flags.writeable = amplitudes.flags.writeable = False
    return dict(zip([None, *labels], zip(indices, amplitudes)))


def _placed(ket: tuple[np.ndarray, np.ndarray], support: np.ndarray) -> np.ndarray:
    """The amplitudes of ``ket``, on its own sorted indices, at the flat indices ``support``: +0 off its own."""
    indices, amplitudes = ket
    at = np.minimum(indices.searchsorted(support), indices.size - 1)  # each index's place among the ket's, if any
    return np.where(indices[at] == support, amplitudes[at], 0)


def _oracle_support(layout: SystemLayout, checkpoint: str) -> np.ndarray:
    """The sorted basis indices either branch of a checkpoint occupies."""
    kets = _stage_kets(layout)
    return _distinct(np.concatenate((kets[None][0], kets[checkpoint][0])))


def _oracle_parts(
    layout: SystemLayout, spec: GhzSpec, checkpoint: str, support: np.ndarray,
    *, t: float | None = None, rates: EffectiveRates | None = None,
) -> tuple[np.ndarray, np.ndarray, complex, complex]:
    """:func:`oracle_branches`' tuple, with plain kets on the flat indices ``support``.

    Each ket is formed on its own support and placed: an entry has the same
    bits on any support, and is +0 where the ket has none.
    """
    if layout.n_left != spec.n or layout.n_right != spec.n:
        raise ValueError(
            f"spec is for n = {spec.n}, layout hosts ({layout.n_left}, {layout.n_right})"
        )
    branch, kets = _f_branch(checkpoint, t, rates), _stage_kets(layout)
    f_ket = kets[checkpoint] if t is None else [rows[0] for rows in _branch_kets(layout, [branch])]
    g_part, f_part = _placed(kets[None], support), _placed(f_ket, support)
    return g_part, f_part, complex(spec.alpha), complex(branch.coeff) * complex(spec.beta)


def oracle_branches(
    layout: SystemLayout,
    spec: GhzSpec,
    checkpoint: str,
    *,
    t: float | None = None,
    rates: EffectiveRates | None = None,
) -> tuple[QuantumState, QuantumState, complex, complex]:
    """Unit branch kets and their coefficients at a checkpoint.

    Returns ``(g_branch, f_branch, coeff_g, coeff_f)`` with the oracle
    state equal to ``coeff_g * g_branch + coeff_f * f_branch``. The pulse
    bookkeeping ((-i) per quarter period) lives in ``coeff_f``, so a
    correct simulation overlaps with ``f_branch`` at exactly
    ``coeff_f = (phase table) * beta``, with no residual sign to explain.
    Both kets are on the whole register.
    """
    register = np.arange(layout.dim)
    g_part, f_part, c_g, c_f = _oracle_parts(layout, spec, checkpoint, register, t=t, rates=rates)
    return QuantumState(g_part, layout, basis=register), QuantumState(f_part, layout, basis=register), c_g, c_f


def make_oracle_state(
    layout: SystemLayout,
    spec: GhzSpec,
    checkpoint: str,
    *,
    t: float | None = None,
    rates: EffectiveRates | None = None,
) -> QuantumState:
    """The exact reduced-dynamics state at a protocol checkpoint, on the whole register."""
    register = np.arange(layout.dim)
    g_part, f_part, c_g, c_f = _oracle_parts(layout, spec, checkpoint, register, t=t, rates=rates)
    return QuantumState(c_g * g_part + c_f * f_part, layout, basis=register)


def occupation_probability(mu: float, delta: float) -> float:
    """Peak e->f transfer probability of a detuned spectator, 4 mu^2/(4 mu^2 + delta^2)."""
    if mu <= 0 or delta <= 0:
        raise ValueError("coupling and detuning must be positive")
    return 4.0 * mu**2 / (4.0 * mu**2 + delta**2)


def logical_encode_pulse() -> np.ndarray:
    """Single-qudit unitary linking the two share encodings.

    Columns map g -> (g+e)/sqrt(2), e -> f, f -> (g-e)/sqrt(2): applied to
    a first-share ket alpha|g> + beta|f> it produces the spectator-style
    ket alpha|+> + beta|->, and its inverse is the readout pulse that
    turns a received share back into the g/f pair.
    """
    return np.array(
        [
            [INV_SQRT2, 0.0, INV_SQRT2],
            [INV_SQRT2, 0.0, -INV_SQRT2],
            [0.0, 1.0, 0.0],
        ],
        dtype=complex,
    )
