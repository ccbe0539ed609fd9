"""Four-photon polarization entanglement: states, analyzers, correlations.

Hilbert-space layout: a pure state is 16 complex amplitudes over the H/V
product basis of the four spatial modes a, b, c, d. A basis pattern is the
bit tuple (b_a, b_b, b_c, b_d) packed big-endian into an index (mode a is
the most significant bit); bit 0 means H, bit 1 means V.

Polarization analyzers are parameterized by a single phase phi with
eigenstates

    |+, phi> = (|R> + e^{i phi} |L>) / sqrt(2)        eigenvalue +1
    |-, phi> = (|R> - e^{i phi} |L>) / sqrt(2)        eigenvalue -1

where the circular basis is pinned to |R> = (|H> + i|V>)/sqrt(2) and
|L> = (|H> - i|V>)/sqrt(2). Under this convention phi = 0 analyzes {H, V}
and phi = pi/2 analyzes the +/-45 degree linear basis. Outcome bit 0 maps
to the +1 eigenvalue (the transmitted analyzer port), bit 1 to -1. The
convention is locked in by the test suite, which checks sampled
correlations against the closed-form correlation function for random
analyzer angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .adversary import AttackConfig

MODES = ("a", "b", "c", "d")
N_MODES = 4
N_PATTERNS = 16

#: Tolerance for norms of freshly constructed states.
CONSTRUCTION_NORM_TOL = 1e-12
#: Tolerance accepted on states handed in from outside.
INPUT_NORM_TOL = 1e-9
#: Below this Born probability a measurement branch is unusable.
DEAD_BRANCH_PROB = 1e-15

PATTERNS = tuple(
    "".join("HV"[(idx >> shift) & 1] for shift in (3, 2, 1, 0))
    for idx in range(N_PATTERNS)
)

_PARITY = np.array([bin(i).count("1") & 1 for i in range(N_PATTERNS)], dtype=np.int64)
#: (-1)**parity for each of the 16 outcome patterns.
PARITY_SIGN = np.where(_PARITY == 0, 1.0, -1.0)


def pattern_index(pattern: str | Sequence[int]) -> int:
    """Map an 'HHVV'-style label or a 4-bit sequence to its pattern index."""
    if isinstance(pattern, str):
        if len(pattern) != N_MODES or any(ch not in "HV" for ch in pattern):
            raise ValueError(f"bad pattern label {pattern!r}")
        bits = [1 if ch == "V" else 0 for ch in pattern]
    else:
        bits = [int(b) for b in pattern]
        if len(bits) != N_MODES or any(b not in (0, 1) for b in bits):
            raise ValueError(f"bad pattern bits {pattern!r}")
    return (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3]


def pattern_bits(index: int) -> tuple[int, int, int, int]:
    """Inverse of :func:`pattern_index` for integer indices."""
    if not 0 <= index < N_PATTERNS:
        raise ValueError(f"pattern index {index} out of range")
    return ((index >> 3) & 1, (index >> 2) & 1, (index >> 1) & 1, index & 1)


def mode_axis(mode: str | int) -> int:
    """Resolve a mode given as 'a'..'d' or 0..3 to its tensor axis."""
    if isinstance(mode, str):
        try:
            return MODES.index(mode)
        except ValueError:
            raise ValueError(f"unknown mode {mode!r}") from None
    axis = int(mode)
    if not 0 <= axis < N_MODES:
        raise ValueError(f"mode axis {mode} out of range")
    return axis


@dataclass(frozen=True)
class PureState:
    """Normalized four-photon polarization state in the H/V product basis."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (N_PATTERNS,):
            raise ValueError(f"state needs {N_PATTERNS} amplitudes, got shape {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > INPUT_NORM_TOL:
            raise ValueError(f"state norm**2 = {norm_sq!r} is not 1 within {INPUT_NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, pattern: str | Sequence[int] | int) -> complex:
        idx = pattern if isinstance(pattern, int) else pattern_index(pattern)
        return complex(self.amplitudes[idx])

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one tensor axis per mode."""
        return self.amplitudes.reshape((2,) * N_MODES)


@dataclass(frozen=True)
class AnalyzerSetting:
    """One party's polarization analyzer orientation, as the phase phi."""

    phi: float


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the 16 joint outcome patterns."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        if probs.shape != (N_PATTERNS,):
            raise ValueError(f"distribution needs {N_PATTERNS} entries, got shape {probs.shape}")
        if np.any(probs < -CONSTRUCTION_NORM_TOL):
            raise ValueError("negative probability entry")
        probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if abs(total - 1.0) > CONSTRUCTION_NORM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def cdf(self) -> np.ndarray:
        c = np.cumsum(self.probs)
        c[-1] = 1.0
        return c


@dataclass(frozen=True)
class NoiseModel:
    """White-noise admixture at the distribution level.

    With visibility V the observed distribution is
    V * (pure distribution) + (1 - V) * (uniform over the 16 patterns),
    so every correlation scales by exactly V. The optional ``attack``
    field carries an intercept-resend configuration that perturbs the
    state itself before measurement; it is applied by the session layer,
    not by :func:`outcome_distribution`.
    """

    visibility: float = 1.0
    attack: "AttackConfig | None" = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility {self.visibility!r} outside [0, 1]")

    def mix(self, probs: np.ndarray) -> np.ndarray:
        return self.visibility * probs + (1.0 - self.visibility) / N_PATTERNS


@dataclass(frozen=True)
class BellSetting:
    """A pair of analyzer phases per party for the four-party inequality."""

    a: tuple[float, float]
    b: tuple[float, float]
    c: tuple[float, float]
    d: tuple[float, float]

    @classmethod
    def maximal_violation(cls) -> "BellSetting":
        """Angle pairs giving the strongest violation for this state (S ~ 1.886)."""
        q = math.pi / 4
        return cls(a=(q, -q), b=(0.0, math.pi / 2), c=(q, -q), d=(q, -q))

    def pairs(self) -> tuple[tuple[float, float], ...]:
        return (self.a, self.b, self.c, self.d)

    def phases_for(self, combo: Sequence[int]) -> tuple[float, float, float, float]:
        """Phases selected by a per-party setting-label combination (0 or 1 each)."""
        pairs = self.pairs()
        if len(combo) != N_MODES or any(lab not in (0, 1) for lab in combo):
            raise ValueError(f"bad setting combination {combo!r}")
        return tuple(pairs[i][combo[i]] for i in range(N_MODES))


_PSI4_AMPLITUDES = {
    "HHVV": 2.0,
    "HVHV": -1.0,
    "HVVH": -1.0,
    "VHHV": -1.0,
    "VHVH": -1.0,
    "VVHH": 2.0,
}


def make_psi4_minus() -> PureState:
    """The four-photon resource state |Psi4->.

    Six nonzero amplitudes {2, -1, -1, -1, -1, 2} / (2 sqrt(3)) on the
    patterns HHVV, HVHV, HVVH, VHHV, VHVH, VVHH; invariant under identical
    single-photon unitaries applied to all four modes.
    """
    amps = np.zeros(N_PATTERNS, dtype=np.complex128)
    scale = 1.0 / (2.0 * math.sqrt(3.0))
    for label, coeff in _PSI4_AMPLITUDES.items():
        amps[pattern_index(label)] = coeff * scale
    return PureState(amps)


def analyzer_eigenstate(phi: float, sign: int) -> np.ndarray:
    """H/V components (c_H, c_V) of the analyzer eigenstate |sign, phi>.

    The two sign branches are orthonormal for every phi; global phase is
    not fixed beyond the convention in the module docstring.
    """
    if sign not in (1, -1):
        raise ValueError(f"eigenvalue sign must be +1 or -1, got {sign!r}")
    phase = sign * np.exp(1j * phi)
    c_h = (1.0 + phase) / 2.0
    c_v = 1j * (1.0 - phase) / 2.0
    return np.array([c_h, c_v], dtype=np.complex128)


def analyzer_rows(phi: float) -> np.ndarray:
    """2x2 matrix whose row s is the eigenstate for outcome bit s (0 -> +1)."""
    return np.stack([analyzer_eigenstate(phi, +1), analyzer_eigenstate(phi, -1)])


def _settings_to_phis(settings: Sequence[AnalyzerSetting | float]) -> tuple[float, ...]:
    if len(settings) != N_MODES:
        raise ValueError(f"need {N_MODES} analyzer settings, got {len(settings)}")
    return tuple(s.phi if isinstance(s, AnalyzerSetting) else float(s) for s in settings)


def outcome_distribution(
    state: PureState,
    settings: Sequence[AnalyzerSetting | float],
    noise: NoiseModel | None = None,
) -> OutcomeDistribution:
    """Joint outcome distribution of four analyzer measurements on ``state``.

    Entry (b_a, b_b, b_c, b_d) is the squared projection of the state onto
    the product of per-mode eigenstates selected by the outcome bits,
    mixed with uniform noise according to ``noise``.
    """
    norm_sq = state.norm_squared()
    if abs(norm_sq - 1.0) > INPUT_NORM_TOL:
        raise ValueError(f"state norm**2 = {norm_sq!r} is not 1 within {INPUT_NORM_TOL}")
    phis = _settings_to_phis(settings)
    rows = [analyzer_rows(phi).conj() for phi in phis]
    projection = np.einsum(
        "ai,bj,ck,dl,ijkl->abcd", rows[0], rows[1], rows[2], rows[3], state.as_tensor()
    )
    probs = np.abs(projection.reshape(-1)) ** 2
    if noise is not None:
        probs = noise.mix(probs)
    probs /= probs.sum()
    return OutcomeDistribution(probs)


def correlation_analytic(phi_a: float, phi_b: float, phi_c: float, phi_d: float) -> float:
    """Closed-form four-photon correlation of the resource state.

    E = (2/3) cos(phi_a + phi_b - phi_c - phi_d)
      + (1/3) cos(phi_a - phi_b) cos(phi_c - phi_d)
    """
    return (2.0 / 3.0) * math.cos(phi_a + phi_b - phi_c - phi_d) + (1.0 / 3.0) * math.cos(
        phi_a - phi_b
    ) * math.cos(phi_c - phi_d)


def correlation_from_distribution(dist: OutcomeDistribution) -> float:
    """Expectation of the product of the four +/-1 outcomes."""
    return float(np.dot(dist.probs, PARITY_SIGN))


ALL_COMBOS = tuple(product((0, 1), repeat=N_MODES))

_SIGN_VECTORS = tuple(product((1, -1), repeat=N_MODES))
# coefficient of E[combo] in the inner sum for each sign vector:
# party x with setting label L contributes s_x**(L+1), i.e. s_x for the
# first setting and +1 for the second.
_SIGN_COEFF = {
    signs: {
        combo: math.prod(s ** (lab + 1) for s, lab in zip(signs, combo))
        for combo in ALL_COMBOS
    }
    for signs in _SIGN_VECTORS
}


def bell_S_from_table(values: Mapping[tuple[int, int, int, int], float]) -> float:
    """Four-party Bell quantity from one correlation value per setting combo.

    S = (1/16) * sum over the 16 sign vectors of |sum over the 16 setting
    combinations of the sign coefficient times E|. Local deterministic
    models obey S <= 1; the resource state reaches ~1.886.
    """
    missing = [c for c in ALL_COMBOS if c not in values]
    if missing:
        raise ValueError(f"missing correlation values for combinations {missing}")
    total = 0.0
    for signs in _SIGN_VECTORS:
        coeff = _SIGN_COEFF[signs]
        total += abs(sum(coeff[combo] * values[combo] for combo in ALL_COMBOS))
    return total / 16.0


def bell_S_gradient(
    values: Mapping[tuple[int, int, int, int], float]
) -> dict[tuple[int, int, int, int], float]:
    """dS/dE per setting combination (subgradient where an inner sum is 0)."""
    grad = {combo: 0.0 for combo in ALL_COMBOS}
    for signs in _SIGN_VECTORS:
        coeff = _SIGN_COEFF[signs]
        inner = sum(coeff[combo] * values[combo] for combo in ALL_COMBOS)
        direction = math.copysign(1.0, inner) if inner != 0.0 else 0.0
        for combo in ALL_COMBOS:
            grad[combo] += direction * coeff[combo] / 16.0
    return grad


def bell_S(setting: BellSetting, correlation: Callable[[float, float, float, float], float]) -> float:
    """Evaluate the Bell quantity with correlations supplied by ``correlation``."""
    table = {
        combo: float(correlation(*setting.phases_for(combo))) for combo in ALL_COMBOS
    }
    return bell_S_from_table(table)


def qber_from_visibility(v_bar: float) -> float:
    """Quantum bit error rate implied by an average visibility: (1 - V) / 2."""
    if not 0.0 <= v_bar <= 1.0:
        raise ValueError(f"visibility {v_bar!r} outside [0, 1]")
    return (1.0 - v_bar) / 2.0


def collapse_after_single_mode_measurement(
    state: PureState, mode: str | int, phi: float, outcome_sign: int
) -> tuple[float, PureState | None]:
    """Born probability and post-measurement state for one analyzed mode.

    The measured photon is replaced by the analyzer eigenstate
    |outcome_sign, phi>, the rest of the state is renormalized. Outcomes
    with probability below ``DEAD_BRANCH_PROB`` return ``None`` in place
    of the (undefined) collapsed state.
    """
    axis = mode_axis(mode)
    eigen = analyzer_eigenstate(phi, outcome_sign)
    reduced = np.tensordot(eigen.conj(), state.as_tensor(), axes=(0, axis))
    prob = float(np.sum(np.abs(reduced) ** 2))
    if prob < DEAD_BRANCH_PROB:
        return prob, None
    reduced = reduced / math.sqrt(prob)
    full = np.multiply.outer(eigen, reduced)
    full = np.moveaxis(full, 0, axis)
    return prob, PureState(full.reshape(-1))
