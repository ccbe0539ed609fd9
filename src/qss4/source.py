"""Stochastic model of the pulsed four-photon source and detection.

Emission is Poisson in fixed acquisition windows; by default only the
first four-photon event of a window is kept, and each of its four photons
independently survives the detector with the configured efficiency. All
randomness flows through named, seed-derived streams so a session is
bit-reproducible and each party's basis sequence can be regenerated in
isolation. A session is held as :class:`SessionData`, one numpy column
per field, never as per-window objects.

Record files are line oriented, one round per line, comma separated:

    round_index,label_a,label_b,label_c,label_d,
    phi_a,phi_b,phi_c,phi_d,detected,bits

with phases printed via repr (exact float round trip), labels and
``detected`` either 0 or 1, and ``bits`` exactly four characters of 0/1
on a detected round and ``-`` on an undetected one. :func:`read_records`
rejects any other field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .quantum import (
    NoiseModel,
    PureState,
    make_psi4_minus,
    outcome_distribution,
    pattern_bits,
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
    ``dead_time_seconds`` lengthens the effective per-round wall time in
    throughput accounting only; it never affects statistics.
    """

    four_photon_rate: float = 0.4
    window_seconds: float = 1.0
    first_event_only: bool = True
    detector_efficiency: float = 1.0
    dead_time_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.four_photon_rate < 0:
            raise ValueError("four_photon_rate must be >= 0")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must lie in [0, 1]")
        if self.dead_time_seconds < 0:
            raise ValueError("dead_time_seconds must be >= 0")

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
        """Wall time of a session, including per-round analyzer dead time."""
        return n_windows * (self.window_seconds + self.dead_time_seconds)


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One acquisition window (or one extra same-window event).

    ``labels`` are the per-party basis choices (0 or 1 into that party's
    two-phase set for the round), ``phases`` the resolved analyzer phases.
    ``outcome_bits`` (four 0/1 values) is present exactly when ``detected``
    is set. Sessions are stored as :class:`SessionData`; a record is a view
    of one of its entries.
    """

    round_index: int
    labels: tuple[int, int, int, int]
    phases: tuple[float, float, float, float]
    detected: bool
    outcome_bits: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.detected != (self.outcome_bits is not None):
            raise ValueError("outcome_bits must be present iff detected")
        if self.outcome_bits is not None and (
            len(self.outcome_bits) != 4 or any(b not in (0, 1) for b in self.outcome_bits)
        ):
            raise ValueError(f"outcome_bits must be four 0/1 values, got {self.outcome_bits!r}")


@dataclass(frozen=True, eq=False)
class SessionData:
    """Columnar session log: entry ``i`` of every column is record ``i``.

    ``rounds`` (int64) holds window indices, ``labels`` (uint8, 4 x n) the
    per-party basis labels, ``phases`` (float64, 4 x n) the resolved
    analyzer phases and ``outcomes`` (int8) the detected pattern index,
    -1 for an undetected round. Indexing and iteration yield
    :class:`RoundRecord` views built on demand; equality compares columns.
    """

    rounds: np.ndarray
    labels: np.ndarray
    phases: np.ndarray
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

    def __getitem__(self, i) -> RoundRecord:
        outcome = int(self.outcomes[i])
        return RoundRecord(
            round_index=int(self.rounds[i]),
            labels=tuple(self.labels[:, i].tolist()),
            phases=tuple(self.phases[:, i].tolist()),
            detected=outcome >= 0,
            outcome_bits=pattern_bits(outcome) if outcome >= 0 else None,
        )

    def __iter__(self) -> Iterator[RoundRecord]:
        return (self[i] for i in range(len(self)))

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

    def is_override_round(self, round_index: int) -> bool:
        return self.override_every > 0 and round_index % self.override_every == 0

    def round_phases(self, round_index: int) -> tuple[float, float]:
        if self.is_override_round(round_index):
            return self.override_phases  # type: ignore[return-value]
        return self.phases


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
    phases: np.ndarray,
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
        cdf = cache.cdf(states[group >> 8], tuple(phases[:, windows[members[0]]]))
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
    labels = np.stack(
        [streams.parties[i].integers(0, 2, n_windows) for i in range(4)]
    ).astype(np.uint8)
    phases = np.empty((4, n_windows), dtype=np.float64)
    # two bits per party, (override round, label), name each window's phase tuple
    phase_codes = np.zeros(n_windows, dtype=np.int64)
    for i, sched in enumerate(schedules):
        base = np.asarray(sched.phases, dtype=np.float64)
        phases[i] = base[labels[i]]
        phase_codes |= labels[i].astype(np.int64) << (2 * i)
        if sched.override_every > 0:
            mask = (round_indices % sched.override_every) == 0
            over = np.asarray(sched.override_phases, dtype=np.float64)
            phases[i, mask] = over[labels[i, mask]]
            phase_codes |= mask.astype(np.int64) << (2 * i + 1)

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
            cache, attack, streams.adversary, phases, phase_codes,
            hits, uniforms[hits], attacked[hits],
        )
        return SessionData(round_indices, labels, phases, outcomes)

    # count-all mode: every surviving event in a window becomes a record; a
    # window without one keeps a single undetected placeholder record
    total_events = int(counts.sum())
    survive = np.all(
        streams.source.random((total_events, 4)) < config.detector_efficiency, axis=1
    )
    uniforms = streams.source.random(total_events)
    hits = np.repeat(np.arange(n_windows), counts)[survive]
    sampled = _sample_outcomes(
        cache, attack, streams.adversary, phases, phase_codes,
        hits, uniforms[survive], attacked[hits],
    )
    per_window = np.bincount(hits, minlength=n_windows)
    rows = np.repeat(np.arange(n_windows), np.maximum(per_window, 1))
    outcomes = np.full(len(rows), -1, dtype=np.int8)
    outcomes[per_window[rows] > 0] = sampled
    return SessionData(round_indices[rows], labels[:, rows], phases[:, rows], outcomes)


RECORD_HEADER = (
    "round_index,label_a,label_b,label_c,label_d,"
    "phi_a,phi_b,phi_c,phi_d,detected,bits"
)

#: Bits field of each pattern index, party a first; ``-`` when undetected.
_BITS_TEXT = [format(i, "04b") for i in range(16)]
_OUTCOME_OF_BITS = {text: i for i, text in enumerate(_BITS_TEXT)}


def write_records(records: SessionData, path) -> None:
    columns = (
        [records.rounds.tolist()]
        + records.labels.tolist()
        + [[repr(p) for p in row] for row in records.phases.tolist()]
        + [[f"1,{_BITS_TEXT[o]}" if o >= 0 else "0,-" for o in records.outcomes.tolist()]]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RECORD_HEADER + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*columns))


def read_records(path) -> SessionData:
    """Parse a record file, rejecting any field the writer cannot produce."""
    rounds, labels, phases, outcomes = [], [], [], []
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
            if any(v not in ("0", "1") for v in parts[1:5]):
                raise ValueError(f"basis labels must be 0 or 1: {line!r}")
            rounds.append(int(parts[0]))
            labels.extend(parts[1:5])
            phases.extend(parts[5:9])
    n = len(rounds)
    return SessionData(
        np.array(rounds, dtype=np.int64),
        np.fromiter(map(int, labels), np.uint8, 4 * n).reshape(n, 4).T.copy(),
        np.fromiter(map(float, phases), np.float64, 4 * n).reshape(n, 4).T.copy(),
        np.array(outcomes, dtype=np.int8),
    )
