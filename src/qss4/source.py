"""Stochastic model of the pulsed four-photon source and detection.

Emission is Poisson in fixed acquisition windows; by default only the
first four-photon event of a window is kept, and each of its four photons
independently survives the detector with the configured efficiency. All
randomness flows through named, seed-derived streams so a session is
bit-reproducible and each party's basis sequence can be regenerated in
isolation. A session is held as :class:`SessionData`, three numpy
columns (rounds, labels, outcomes), never as per-window objects. A
record's analyzer phases are not stored: they follow from the schedules,
the round index and the basis labels (:func:`_phase_codes`).

Record files are line oriented, one round per line, comma separated:

    round_index,label_a,label_b,label_c,label_d,
    phi_a,phi_b,phi_c,phi_d,detected,bits

with phases derived from the schedules and printed via repr (exact float
round trip), labels and ``detected`` either 0 or 1, and ``bits`` exactly
four characters of 0/1 on a detected round and ``-`` on an undetected
one. :func:`read_records` rejects any other field; it checks that every
phase field parses as a float but does not keep the phases.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .quantum import (
    NoiseModel,
    PureState,
    make_psi4_minus,
    outcome_distribution,
)

#: Typical silicon avalanche photodiode efficiency at the source
#: wavelength, usable via :meth:`SourceConfig.lab_preset`.
LAB_DETECTOR_EFFICIENCY = 0.4

#: Right shifts that take a pattern index to the bits of parties a..d.
_BIT_SHIFTS = np.array([[3], [2], [1], [0]], dtype=np.int8)


@dataclass(frozen=True)
class SourceConfig:
    """Source and acquisition parameters.

    ``first_event_only`` keeps at most one event per window (the default
    acquisition rule); switching it off counts every surviving event in a
    window as an additional round record with the same window index.
    """

    four_photon_rate: float = 0.4
    window_seconds: float = 1.0
    first_event_only: bool = True
    detector_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.four_photon_rate < 0:
            raise ValueError("four_photon_rate must be >= 0")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must lie in [0, 1]")

    @classmethod
    def lab_preset(cls, **overrides) -> "SourceConfig":
        """Defaults with the measured 40% detector efficiency."""
        params = {"detector_efficiency": LAB_DETECTOR_EFFICIENCY}
        params.update(overrides)
        return cls(**params)

    @property
    def mean_events_per_window(self) -> float:
        return self.four_photon_rate * self.window_seconds

    def session_seconds(self, n_windows: int) -> float:
        """Wall time of a session."""
        return n_windows * self.window_seconds


@dataclass(frozen=True, eq=False)
class SessionData:
    """Columnar session log: entry ``i`` of every column is record ``i``.

    ``rounds`` (int64) holds window indices, ``labels`` (uint8, 4 x n) the
    per-party basis labels and ``outcomes`` (int8) the detected pattern
    index, -1 for an undetected round: 13 B per record. Equality compares
    columns.
    """

    rounds: np.ndarray
    labels: np.ndarray
    outcomes: np.ndarray

    @classmethod
    def concat(cls, parts: Sequence["SessionData"]) -> "SessionData":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts], axis=-1)
                     for f in fields(cls)))

    @property
    def detected(self) -> np.ndarray:
        return self.outcomes >= 0

    def bits_at(self, positions) -> np.ndarray:
        """(4, k) uint8 outcome bits of the (detected) records at ``positions``."""
        return ((self.outcomes[positions] >> _BIT_SHIFTS) & 1).astype(np.uint8)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionData):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class PartySchedule:
    """The two-phase set one party draws from, with an optional periodic override.

    On rounds where ``round_index % override_every == 0`` the party draws
    its basis label against ``override_phases`` instead of ``phases``.
    """

    phases: tuple[float, float]
    override_phases: tuple[float, float] | None = None
    override_every: int = 0

    def __post_init__(self) -> None:
        if (self.override_every > 0) != (self.override_phases is not None):
            raise ValueError("override_phases and override_every must be set together")


def _phase_codes(schedules: Sequence[PartySchedule], rounds: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
    """Each record's phase code: two bits per party, (override round, label)."""
    codes = np.zeros(len(rounds), dtype=np.int64)
    for i, sched in enumerate(schedules):
        codes |= labels[i].astype(np.int64) << (2 * i)
        if sched.override_every > 0:
            codes |= ((rounds % sched.override_every) == 0).astype(np.int64) << (2 * i + 1)
    return codes


def _phase_tuple(schedules: Sequence[PartySchedule], code: int) -> tuple[float, ...]:
    """The four analyzer phases that one phase code names."""
    return tuple(
        float((sched.override_phases if code >> (2 * i + 1) & 1 else sched.phases)
              [code >> (2 * i) & 1])
        for i, sched in enumerate(schedules)
    )


@dataclass
class SessionStreams:
    """Independent seeded streams for the four parties, source, adversary, protocol."""

    parties: tuple[np.random.Generator, np.random.Generator, np.random.Generator, np.random.Generator]
    source: np.random.Generator
    adversary: np.random.Generator
    protocol: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "SessionStreams":
        children = np.random.SeedSequence(seed).spawn(7)
        gens = [np.random.default_rng(child) for child in children]
        return cls(parties=tuple(gens[:4]), source=gens[4], adversary=gens[5], protocol=gens[6])

    @staticmethod
    def party_stream(seed: int, party_index: int) -> np.random.Generator:
        """Regenerate a single party's stream without touching the others."""
        children = np.random.SeedSequence(seed).spawn(7)
        return np.random.default_rng(children[party_index])


class _DistributionCache:
    """Outcome CDFs keyed by (state key, phase tuple); states keyed by Eve's path."""

    def __init__(self, base_state: PureState, noise: NoiseModel):
        self.noise = noise
        self.states: dict[tuple, PureState] = {(): base_state}
        self.branch: dict[tuple, tuple[float, tuple, tuple]] = {}
        self.cdfs: dict[tuple, np.ndarray] = {}

    def cdf(self, state_key: tuple, phases: tuple) -> np.ndarray:
        key = (state_key, phases)
        found = self.cdfs.get(key)
        if found is None:
            dist = outcome_distribution(self.states[state_key], phases, self.noise)
            found = dist.cdf()
            self.cdfs[key] = found
        return found

    def collapse_branch(self, state_key: tuple, mode_axis: int, phi: float) -> tuple[float, tuple, tuple]:
        """Probability of the +1 branch and the child state keys for both branches."""
        from .quantum import collapse_after_single_mode_measurement

        key = (state_key, mode_axis, phi)
        found = self.branch.get(key)
        if found is None:
            state = self.states[state_key]
            p_plus, plus_state = collapse_after_single_mode_measurement(state, mode_axis, phi, +1)
            _, minus_state = collapse_after_single_mode_measurement(state, mode_axis, phi, -1)
            plus_key = state_key + ((mode_axis, phi, +1),)
            minus_key = state_key + ((mode_axis, phi, -1),)
            if plus_state is not None:
                self.states[plus_key] = plus_state
            if minus_state is not None:
                self.states[minus_key] = minus_state
            found = (p_plus, plus_key if plus_state is not None else None,
                     minus_key if minus_state is not None else None)
            self.branch[key] = found
        return found


def _eve_state_key(
    cache: _DistributionCache,
    attack,
    rng: np.random.Generator,
) -> tuple:
    """Sample Eve's per-mode basis and outcome for one attacked round."""
    from .quantum import mode_axis as _axis

    key: tuple = ()
    for mode in attack.attacked_modes:
        axis = _axis(mode)
        phi = attack.eve_bases[int(rng.integers(len(attack.eve_bases)))]
        p_plus, plus_key, minus_key = cache.collapse_branch(key, axis, phi)
        take_plus = rng.random() < p_plus
        nxt = plus_key if take_plus else minus_key
        if nxt is None:
            nxt = minus_key if take_plus else plus_key
        key = nxt
    return key


def _sample_outcomes(
    cache: _DistributionCache,
    attack,
    adversary: np.random.Generator,
    schedules: Sequence[PartySchedule],
    phase_codes: np.ndarray,
    windows: np.ndarray,
    uniforms: np.ndarray,
    attacked: np.ndarray,
) -> np.ndarray:
    """Outcome pattern index of each detection; ``windows`` gives its window.

    Each attacked detection first walks Eve's collapse, in detection
    order, on the adversary stream. Detections are then grouped on
    (state, phase tuple) and every group is inverted through its CDF with
    one vectorized ``searchsorted``, each detection using its own uniform.
    """
    state_ids = {(): 0}
    state_of = np.zeros(len(windows), dtype=np.int64)
    for j in np.nonzero(attacked)[0]:
        key = _eve_state_key(cache, attack, adversary)
        state_of[j] = state_ids.setdefault(key, len(state_ids))
    states = list(state_ids)
    groups = state_of << 8 | phase_codes[windows]
    outcomes = np.empty(len(windows), dtype=np.int8)
    for group in np.unique(groups):
        members = np.nonzero(groups == group)[0]
        cdf = cache.cdf(states[group >> 8], _phase_tuple(schedules, int(group) & 0xFF))
        outcomes[members] = np.searchsorted(cdf, uniforms[members], side="right")
    return outcomes


def run_session(
    n_windows: int,
    schedules: Sequence[PartySchedule],
    state: PureState | None,
    noise: NoiseModel,
    config: SourceConfig,
    streams: SessionStreams | int,
    first_round_index: int = 0,
) -> SessionData:
    """Simulate ``n_windows`` acquisition windows and log one record per round.

    Basis labels come from the per-party streams, event counts and
    outcomes from the source stream, attack randomness (round selection,
    Eve's bases and outcomes) from the adversary stream. Identical seeds
    and configuration reproduce the session bit for bit.
    """
    if n_windows < 0:
        raise ValueError("n_windows must be >= 0")
    if len(schedules) != 4:
        raise ValueError("need one schedule per party")
    if isinstance(streams, int):
        streams = SessionStreams.from_seed(streams)
    if state is None:
        state = make_psi4_minus()

    round_indices = np.arange(first_round_index, first_round_index + n_windows, dtype=np.int64)
    labels = np.empty((4, n_windows), dtype=np.uint8)
    for i in range(4):
        labels[i] = streams.parties[i].integers(0, 2, n_windows)
    phase_codes = _phase_codes(schedules, round_indices, labels)

    counts = streams.source.poisson(config.mean_events_per_window, n_windows)

    attack = noise.attack
    attacking = attack is not None and attack.attack_fraction > 0 and attack.attacked_modes
    if attacking:
        attacked = streams.adversary.random(n_windows) < attack.attack_fraction
    else:
        attacked = np.zeros(n_windows, dtype=bool)

    cache = _DistributionCache(state, noise)

    if config.first_event_only:
        survive = np.all(
            streams.source.random((n_windows, 4)) < config.detector_efficiency, axis=1
        )
        hits = np.nonzero((counts > 0) & survive)[0]
        uniforms = streams.source.random(n_windows)
        outcomes = np.full(n_windows, -1, dtype=np.int8)
        outcomes[hits] = _sample_outcomes(
            cache, attack, streams.adversary, schedules, phase_codes,
            hits, uniforms[hits], attacked[hits],
        )
        return SessionData(round_indices, labels, outcomes)

    # count-all mode: every surviving event in a window becomes a record; a
    # window without one keeps a single undetected placeholder record
    total_events = int(counts.sum())
    survive = np.all(
        streams.source.random((total_events, 4)) < config.detector_efficiency, axis=1
    )
    uniforms = streams.source.random(total_events)
    hits = np.repeat(np.arange(n_windows), counts)[survive]
    sampled = _sample_outcomes(
        cache, attack, streams.adversary, schedules, phase_codes,
        hits, uniforms[survive], attacked[hits],
    )
    per_window = np.bincount(hits, minlength=n_windows)
    rows = np.repeat(np.arange(n_windows), np.maximum(per_window, 1))
    outcomes = np.full(len(rows), -1, dtype=np.int8)
    outcomes[per_window[rows] > 0] = sampled
    return SessionData(round_indices[rows], labels[:, rows], outcomes)


RECORD_HEADER = (
    "round_index,label_a,label_b,label_c,label_d,"
    "phi_a,phi_b,phi_c,phi_d,detected,bits"
)

#: Bits field of each pattern index, party a first; ``-`` when undetected.
_BITS_TEXT = [format(i, "04b") for i in range(16)]
_OUTCOME_OF_BITS = {text: i for i, text in enumerate(_BITS_TEXT)}
#: The four label fields of a line, as a 4-bit code, and the labels of each code.
_LABEL_CODE = {tuple(text): i for i, text in enumerate(_BITS_TEXT)}
_LABELS_OF_CODE = ((np.arange(16) >> _BIT_SHIFTS) & 1).astype(np.uint8)


def write_records(records: SessionData, path, schedules: Sequence[PartySchedule]) -> None:
    """Write a record file, deriving each record's phases from ``schedules``."""
    codes = _phase_codes(schedules, records.rounds, records.labels)
    # a phase code fixes the labels and phases of a record: one text per code used
    code_text = [""] * 256
    for code in np.flatnonzero(np.bincount(codes, minlength=256)).tolist():
        code_text[code] = ",".join([str(code >> (2 * i) & 1) for i in range(4)]
                                   + [repr(p) for p in _phase_tuple(schedules, code)])
    outcome_text = [f"1,{bits}" for bits in _BITS_TEXT] + ["0,-"]  # -1 picks the last
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RECORD_HEADER + "\n")
        fh.writelines(
            f"{r},{code_text[c]},{outcome_text[o]}\n"
            for r, c, o in zip(records.rounds.tolist(), codes.tolist(), records.outcomes.tolist())
        )


def read_records(path) -> SessionData:
    """Parse a record file, rejecting any field the writer cannot produce.

    Every distinct phase text is checked once to parse as a float; the
    phases are not kept, since they follow from the schedules.
    """
    rounds, labels, outcomes = [], [], []
    phase_texts: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != RECORD_HEADER:
            raise ValueError(f"unexpected record file header: {header!r}")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 11:
                raise ValueError(f"bad record line: {line!r}")
            detected, bits = parts[9], parts[10]
            if detected == "1" and bits in _OUTCOME_OF_BITS:
                outcomes.append(_OUTCOME_OF_BITS[bits])
            elif detected == "0" and bits == "-":
                outcomes.append(-1)
            else:
                raise ValueError(f"bad detected/bits fields {detected!r},{bits!r}: {line!r}")
            label_code = _LABEL_CODE.get(tuple(parts[1:5]))
            if label_code is None:
                raise ValueError(f"basis labels must be 0 or 1: {line!r}")
            rounds.append(int(parts[0]))
            labels.append(label_code)
            phase_texts.update(parts[5:9])
    for text in phase_texts:
        float(text)  # a phase field must parse as a float
    return SessionData(
        np.array(rounds, dtype=np.int64),
        np.take(_LABELS_OF_CODE, np.array(labels, dtype=np.int64), axis=1),
        np.array(outcomes, dtype=np.int8),
    )
