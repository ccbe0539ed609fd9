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

Record files hold the header line :data:`RECORD_HEADER`, then one line
``round_index,labels,bits`` per record: labels and bits are four 0/1
digits, party a first, and an undetected record's bits read ``-1``
(``17,0110,1001``; ``18,1100,-1``). :func:`write_records` is the only
statement of this grammar: :func:`read_records` parses the fields with
numpy, then rejects the file unless it is, byte for byte, what the
writer prints for the records it parsed.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields
from itertools import islice
from typing import Sequence

import numpy as np

from .quantum import NoiseModel, PureState, mode_axis, outcome_distribution

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
    """Independent seeded streams: four parties, source, adversary, protocol, postproc."""

    parties: tuple[np.random.Generator, np.random.Generator, np.random.Generator, np.random.Generator]
    source: np.random.Generator
    adversary: np.random.Generator
    protocol: np.random.Generator
    postproc: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "SessionStreams":
        # child i does not depend on the spawn count: a stream added last moves no other
        gens = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(8)]
        return cls(tuple(gens[:4]), *gens[4:])


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


def _eve_walk(cache: _DistributionCache, attack, bases: np.ndarray,
              draws: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """Eve's collapse path of every attacked detection, one tree level per attacked mode.

    Row k of ``bases`` (indices into ``attack.eve_bases``) and of ``draws``
    (uniforms) holds detection k's choices for the attacked modes, in
    mode order. A detection takes the +1 branch when its uniform is below
    that branch's probability; a dead branch falls through to its live
    sibling. Each distinct (node, basis) pair of a level costs one
    ``collapse_branch`` call, whatever the number of detections. Returns
    the state key of every tree node and each detection's final node.
    """
    n_bases = len(attack.eve_bases)
    # the tree has at most sum((2 * n_bases) ** level) nodes: ids and (node, basis) pairs fit
    small = np.min_scalar_type(
        n_bases * sum((2 * n_bases) ** level for level in range(len(attack.attacked_modes) + 1)))
    keys: list[tuple] = [()]
    node = np.zeros(len(bases), dtype=small)
    for level, mode in enumerate(attack.attacked_modes):
        pair = node * n_bases + bases[:, level].astype(small)
        width = len(keys) * n_bases
        threshold = np.zeros(width)
        children = np.zeros((2, width), dtype=small)
        for p in np.flatnonzero(np.bincount(pair, minlength=width)):
            p_plus, plus_key, minus_key = cache.collapse_branch(
                keys[p // n_bases], mode_axis(mode), attack.eve_bases[p % n_bases])
            threshold[p] = 0.0 if plus_key is None else 1.0 if minus_key is None else p_plus
            for side, child in enumerate((plus_key, minus_key)):
                if child is not None:
                    children[side, p] = len(keys)
                    keys.append(child)
        node = np.where(draws[:, level] < threshold[pair], children[0, pair], children[1, pair])
    return keys, node


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

    With m attacked detections, the adversary stream gives, in this order,
    ``integers(len(eve_bases), size=(m, modes))`` (Eve's basis per
    attacked mode) and ``random((m, modes))`` (her branch uniforms), row k
    belonging to the k-th attacked detection in detection order; with
    m = 0 nothing is drawn. :func:`_eve_walk` turns them into each
    detection's state. Detections are then sorted once on (state, phase
    code), and each group's contiguous slice is inverted through its CDF
    with one ``searchsorted``, every detection using its own uniform.
    """
    groups = phase_codes[windows]
    keys: list[tuple] = [()]
    rows = np.flatnonzero(attacked)
    if rows.size:
        shape = (rows.size, len(attack.attacked_modes))
        bases = adversary.integers(len(attack.eve_bases), size=shape)
        keys, node = _eve_walk(cache, attack, bases, adversary.random(shape))
        groups[rows] |= node.astype(groups.dtype) << 8
    sizes = np.bincount(groups)
    present = np.flatnonzero(sizes)
    dense = np.zeros(len(sizes), dtype=np.min_scalar_type(max(len(present) - 1, 0)))
    dense[present] = np.arange(len(present))
    # a stable sort of a uint8/uint16 key is numpy's O(n) radix sort
    order = np.argsort(dense[groups], kind="stable")
    del groups
    outcomes = np.empty(len(windows), dtype=np.int8)
    hi = 0
    for group, size in zip(present.tolist(), sizes[present].tolist()):
        lo, hi = hi, hi + size
        members = order[lo:hi]
        cdf = cache.cdf(keys[group >> 8], _phase_tuple(schedules, group & 0xFF))
        outcomes[members] = np.searchsorted(cdf, uniforms[members], side="right")
    return outcomes


def run_session(
    n_windows: int,
    schedules: Sequence[PartySchedule],
    state: PureState,
    noise: NoiseModel,
    config: SourceConfig,
    streams: SessionStreams,
    first_round_index: int = 0,
    attack=None,
) -> SessionData:
    """Simulate ``n_windows`` acquisition windows and log one record per round.

    ``attack`` is an intercept-resend ``AttackConfig`` that perturbs the
    state before measurement, or None. Basis labels come from the
    per-party streams, event counts and outcomes from the source stream,
    attack randomness from the adversary stream. An attack with a
    positive fraction and at least one mode draws, in this order,
    ``random(n_windows)`` (a window is attacked when its value is below
    the fraction), then ``integers(len(eve_bases), size=(m, modes))`` and
    ``random((m, modes))`` for the m attacked detections
    (:func:`_sample_outcomes`); no attack draws nothing. Identical seeds
    and configuration reproduce the session bit for bit.
    """
    if n_windows < 0:
        raise ValueError("n_windows must be >= 0")
    if len(schedules) != 4:
        raise ValueError("need one schedule per party")

    round_indices = np.arange(first_round_index, first_round_index + n_windows, dtype=np.int64)
    labels = np.empty((4, n_windows), dtype=np.uint8)
    for i in range(4):
        labels[i] = streams.parties[i].integers(0, 2, n_windows)
    phase_codes = _phase_codes(schedules, round_indices, labels)

    counts = streams.source.poisson(config.mean_events_per_window, n_windows)

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


RECORD_HEADER = "qss4 records v2: round_index,labels,bits"

#: The four 0/1 digits of each pattern index, party a first.
_BITS_TEXT = [format(i, "04b") for i in range(16)]
#: Line tail of each (label code, outcome + 1); an undetected record's bits read ``-1``.
_LINE_TAIL = [f",{labels},{bits}\n" for labels in _BITS_TEXT for bits in ["-1"] + _BITS_TEXT]
#: Pattern index of a 0/1 field parsed as a decimal number plus one ("0101" -> 102 -> 5);
#: index 0 is the undetected ``-1``. A non-canonical field maps to 0 and fails the text check.
_CODE_OF_FIELD = np.zeros(1113, dtype=np.int8)
_CODE_OF_FIELD[[0] + [int(text) + 1 for text in _BITS_TEXT]] = np.arange(-1, 16)
_LABELS_OF_CODE = ((np.arange(16) >> _BIT_SHIFTS) & 1).astype(np.uint8)
#: Records rendered per write, and per comparison when reading.
_CHUNK = 1 << 16


def _record_text(records: SessionData, lo: int) -> str:
    """The lines of records ``lo`` to ``lo + _CHUNK``: the one grammar of the file."""
    rows = slice(lo, lo + _CHUNK)
    codes = (records.labels[:, rows].astype(np.int64) << _BIT_SHIFTS).sum(axis=0)
    tails = (codes * 17 + records.outcomes[rows] + 1).tolist()
    return "".join([f"{r}{_LINE_TAIL[t]}" for r, t in zip(records.rounds[rows].tolist(), tails)])


def write_records(records: SessionData, path) -> None:
    """Write the header line, then one ``round_index,labels,bits`` line per record."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(RECORD_HEADER + "\n")
        for lo in range(0, len(records), _CHUNK):
            fh.write(_record_text(records, lo))


def _parse_fields(lines) -> np.ndarray:
    """Round, labels and bits of each record line, read as integers; blank lines are skipped."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=[("round", np.int64), ("labels", np.int16),
                                        ("bits", np.int16)],
                          delimiter=",", comments=None, usecols=(0, 1, 2), ndmin=1)


def _first_unparsed_line(fh) -> tuple[int, bytes]:
    """File line number and text of the first record line that :func:`_parse_fields` rejects.

    Each line parses on its own, so the search reads ``_CHUNK`` lines at a
    time and bisects the first chunk that fails.
    """
    def parses(lines) -> bool:
        try:
            _parse_fields(lines)
        except ValueError:
            return False
        return True

    number = 2
    for lines in iter(lambda: list(islice(fh, _CHUNK)), []):
        if parses(lines):
            number += len(lines)
            continue
        lo, hi = 0, len(lines)  # lines[lo:hi] holds the first line that fails
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if parses(lines[lo:mid]) else (lo, mid)
        return number + lo, lines[lo].rstrip(b"\n")
    raise AssertionError("every record line parses on its own")


def read_records(path) -> SessionData:
    """Parse a record file in one numpy pass, accepting only the writer's own text.

    The fields are read as integers; the file is then compared, chunk by
    chunk, with what :func:`write_records` prints for the parsed records,
    and any byte that differs rejects it. Round indices start at 0 or
    above and never decrease (count-all mode repeats a window's index).
    Every error past the header names its file line (the header is line 1).
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if header != (RECORD_HEADER + "\n").encode():
            raise ValueError(f"unexpected record file header: {header!r}")
        try:
            table = _parse_fields(fh)
        except ValueError:
            fh.seek(len(header))
            line, text = _first_unparsed_line(fh)
            raise ValueError(f"bad record line {line} of {path}: {text!r}") from None
        records = SessionData(
            table["round"].copy(),
            np.take(_LABELS_OF_CODE, _CODE_OF_FIELD[np.clip(table["labels"], 0, 1111) + 1], axis=1),
            _CODE_OF_FIELD[np.clip(table["bits"], -1, 1111) + 1],
        )
        fh.seek(len(header))
        # one more, empty chunk past the last record: the file must end there
        for lo in (*range(0, len(records), _CHUNK), len(records)):
            want = _record_text(records, lo).encode()
            got = fh.read(len(want) or 1)
            if got != want:
                at = len(os.path.commonprefix([got, want]))
                line = 2 + lo + want.count(b"\n", 0, at)
                text = got[got.rfind(b"\n", 0, at) + 1:].split(b"\n", 1)[0]
                raise ValueError(f"line {line} of {path} is not the writer's text: {text!r}")
    # the file is the writer's text, so record i is on line i + 2
    rounds = records.rounds
    bad = np.flatnonzero(np.append(rounds[:1] < 0, rounds[1:] < rounds[:-1]))
    if bad.size:
        raise ValueError(f"round index {rounds[bad[0]]} on line {bad[0] + 2} of {path} is "
                         "negative or below the previous line's")
    return records
