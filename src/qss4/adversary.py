"""Intercept-resend eavesdropping on one or more spatial modes.

Eve measures the photon of each attacked mode in a basis drawn from her
basis set and forwards the eigenstate she found; the parties then measure
the collapsed state. Attacks on several modes compose sequentially in
mode order a -> d (the order is contractual so that seeded runs
reproduce). Sampled sessions draw Eve's bases and outcomes in
``qss4.source``; this module holds the attack configuration and its exact
enumeration. Classical-channel tampering is out of scope: the channel is
authenticated by assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .quantum import (
    MODES,
    PARITY_SIGN,
    PureState,
    collapse_after_single_mode_measurement,
    make_psi4_minus,
    mode_axis,
    outcome_distribution,
)

_ODD_MASK = PARITY_SIGN < 0


@dataclass(frozen=True)
class AttackConfig:
    """Which modes Eve taps, her basis set, and how often she strikes."""

    attacked_modes: tuple[str, ...]
    eve_bases: tuple[float, ...]
    attack_fraction: float = 1.0

    def __post_init__(self) -> None:
        modes = tuple(self.attacked_modes)
        if any(m not in MODES for m in modes):
            raise ValueError(f"attacked_modes must be drawn from {MODES}, got {modes!r}")
        if len(set(modes)) != len(modes):
            raise ValueError("attacked_modes contains duplicates")
        # canonical a -> d composition order
        object.__setattr__(
            self, "attacked_modes", tuple(sorted(modes, key=MODES.index))
        )
        object.__setattr__(self, "eve_bases", tuple(float(b) for b in self.eve_bases))
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ValueError("attack_fraction must lie in [0, 1]")
        if self.attacked_modes and not self.eve_bases:
            raise ValueError("eve_bases must be nonempty when modes are attacked")


def enumerate_attack_branches(
    config: AttackConfig, state: PureState | None = None
) -> list[tuple[float, PureState]]:
    """All (probability, collapsed state) branches of one attacked round.

    Covers Eve's uniform basis choice per attacked mode and both outcomes
    per measurement with their exact Born weights; probabilities sum to 1.
    Branches of negligible probability are dropped.
    """
    if state is None:
        state = make_psi4_minus()
    if not config.attacked_modes:
        return [(1.0, state)]
    axes = [mode_axis(m) for m in config.attacked_modes]
    basis_weight = (1.0 / len(config.eve_bases)) ** len(axes)
    branches: list[tuple[float, PureState]] = []
    for bases in product(config.eve_bases, repeat=len(axes)):
        partial: list[tuple[float, PureState]] = [(basis_weight, state)]
        for axis, phi in zip(axes, bases):
            grown: list[tuple[float, PureState]] = []
            for weight, st in partial:
                for sign in (+1, -1):
                    prob, collapsed = collapse_after_single_mode_measurement(st, axis, phi, sign)
                    if collapsed is None:
                        continue
                    grown.append((weight * prob, collapsed))
            partial = grown
        branches.extend(partial)
    return branches


def _odd_parity_probability(state: PureState, phi: float) -> float:
    dist = outcome_distribution(state, (phi, phi, phi, phi))
    return float(dist.probs[_ODD_MASK].sum())


def expected_qber_under_attack(
    config: AttackConfig,
    protocol_bases: Sequence[float] | Iterable[float],
    visibility: float = 1.0,
) -> float:
    """Exact sifted-key error fraction under the attack, by enumeration.

    Averages the odd-parity probability over the protocol's matching-basis
    rounds (each keying phase equally likely) and over every Eve
    basis/outcome branch; no sampling is involved. Visibility mixes in the
    usual white-noise floor, which contributes errors at rate 1/2.
    """
    bases = tuple(float(b) for b in protocol_bases)
    if not bases:
        raise ValueError("protocol_bases must be nonempty")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    base_state = make_psi4_minus()
    branches = enumerate_attack_branches(config, base_state)
    f = config.attack_fraction if config.attacked_modes else 0.0
    total = 0.0
    for phi in bases:
        clean = _odd_parity_probability(base_state, phi)
        if f > 0.0:
            attacked = sum(w * _odd_parity_probability(st, phi) for w, st in branches)
        else:
            attacked = clean
        pure = (1.0 - f) * clean + f * attacked
        total += visibility * pure + (1.0 - visibility) * 0.5
    return total / len(bases)


def marginal_under_attack(
    config: AttackConfig, party_phase: float, mode: str | int
) -> np.ndarray:
    """One party's outcome marginal in matching-basis rounds, attack averaged.

    Exact enumeration; used to check that Eve cannot signal through any
    single party's statistics.
    """
    axis = mode_axis(mode)
    probs = np.zeros(2)
    for weight, st in enumerate_attack_branches(config):
        dist = outcome_distribution(st, (party_phase,) * 4)
        joint = dist.probs.reshape((2, 2, 2, 2))
        marg = joint.sum(axis=tuple(i for i in range(4) if i != axis))
        probs += weight * marg
    return probs


__all__ = [
    "AttackConfig",
    "enumerate_attack_branches",
    "expected_qber_under_attack",
    "marginal_under_attack",
]
