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
(``17,0110,1001``; ``18,1100,-1``). :func:`_record_text` is the only
statement of this grammar; it renders records as numpy bytes for
:func:`write_records`. :func:`read_records` reads the file in blocks of
:data:`_BLOCK` bytes, parses each at the writer's fixed offsets from the
line ends, and rejects the file unless each block is, byte for byte,
what :func:`_record_text` prints for the records it parsed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
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

_HEADER_LINE = (RECORD_HEADER + "\n").encode()
#: The four 0/1 digits of each pattern index, party a first.
_BITS_TEXT = [format(i, "04b") for i in range(16)]
#: Line tail of each (label code, outcome + 1); an undetected record's bits read ``-1``.
_LINE_TAIL = [f",{labels},{bits}\n".encode() for labels in _BITS_TEXT for bits in ["-1"] + _BITS_TEXT]
#: The line tails padded to 12 bytes, as three native uint32 words each.
_TAIL_WORDS = np.frombuffer(b"".join(tail.ljust(12) for tail in _LINE_TAIL),
                            dtype=np.uint32).reshape(-1, 3)
#: The four ASCII digits of 0..9999, as one native uint32 word each.
_DIGIT_WORDS = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel()
#: 10 ** k for k = 0..19; a round index has at most 19 digits and a sign.
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
#: Records rendered per write.
_CHUNK = 1 << 16
#: Bytes read per block; a block is parsed up to its last newline.
_BLOCK = 1 << 22
#: Bytes in the longest line the writer prints, ``-9223372036854775808,1111,1111`` and newline.
_LONGEST_LINE = 31


def _record_text(rounds: np.ndarray, labels: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """The lines of these records, as uint8 bytes: the one grammar of the file.

    Each record is one row of a table: its round index right-aligned in
    whole four-digit words, then its line tail. The digits come from one
    divmod by 10,000 per word, the tail from :data:`_TAIL_WORDS`; one
    boolean mask then drops the leading zeros and the padding.
    """
    negative = rounds < 0
    # -rounds wraps at -2**63, whose magnitude 2**63 the uint64 view still holds
    magnitude = np.where(negative, -rounds, rounds).view(np.uint64)
    width = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1) + negative
    words = -(-int(width.max(initial=1)) // 4)
    table = np.empty((len(rounds), words + 3), dtype=np.uint32)
    for word in range(words - 1, -1, -1):
        magnitude, low = np.divmod(magnitude, 10_000)
        table[:, word] = _DIGIT_WORDS.take(low)
    codes = labels[0] << 3 | labels[1] << 2 | labels[2] << 1 | labels[3]
    table[:, words:] = _TAIL_WORDS.take(codes * np.int16(17) + outcomes + 1, axis=0)
    text = table.view(np.uint8)
    digits = 4 * words
    text[np.flatnonzero(negative), digits - width[negative]] = ord("-")
    # the columns each (width, detected) pair fills: the last `width` digits, a 9 or 11 byte tail
    columns = np.arange(text.shape[1])
    widths, tails = np.arange(digits + 1).repeat(2), np.tile([9, 11], digits + 1)
    fills = (columns >= digits - widths[:, None]) & (columns < digits + tails[:, None])
    return text[fills.take(2 * width + (outcomes >= 0), axis=0)]


def write_records(records: SessionData, path) -> None:
    """Write the header line, then one ``round_index,labels,bits`` line per record."""
    with open(path, "wb") as fh:
        fh.write(_HEADER_LINE)
        for lo in range(0, len(records), _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            fh.write(_record_text(records.rounds[rows], records.labels[:, rows],
                                  records.outcomes[rows]))


def _parse_lines(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rounds, labels and outcomes of a block of whole lines, read at the writer's offsets.

    The bits are the four bytes before each newline, or ``-1`` when the
    byte two before it is ``-``; the labels are the four bytes before
    them and a comma, and the round is what comes before that comma.
    Any line the writer prints parses exactly. Any other line parses to
    some record, whose text then differs from it. Reads are clipped to
    the block, so no input raises.
    """
    ends = np.flatnonzero(block == ord("\n"))
    undetected = block.take(ends - 2, mode="clip") == ord("-")
    comma = ends - np.where(undetected, 8, 10)
    labels, bits = np.empty((2, 4, len(ends)), dtype=np.uint8)
    for party in range(4):
        block.take(comma + (1 + party), out=labels[party], mode="clip")
        block.take(ends - (4 - party), out=bits[party], mode="clip")
    labels &= 1
    bits &= 1
    codes = bits[0] << 3 | bits[1] << 2 | bits[2] << 1 | bits[3]
    outcomes = np.where(undetected, -1, codes.view(np.int8))
    starts = np.concatenate(([0], ends + 1))[:-1]
    negative = block.take(starts, mode="clip") == ord("-")
    width = comma - starts - negative
    magnitude = np.zeros(len(ends), dtype=np.uint64)
    digit = np.empty(len(ends), dtype=np.uint8)
    for k in range(min(int(width.max(initial=0)), len(_POW10))):
        block.take(comma - (1 + k), out=digit, mode="clip")
        digit -= ord("0")
        digit[width <= k] = 0
        magnitude += digit * _POW10[k]
    rounds = magnitude.view(np.int64)
    np.negative(rounds, out=rounds, where=negative)
    return rounds, labels, outcomes


def _bad_line(path, line: int, text: bytes) -> ValueError:
    return ValueError(f"bad record line {line} of {path}: {text[:_LONGEST_LINE]!r}")


def _check_block(block: np.ndarray, path, line: int):
    """The records of a block of whole lines that starts at file line ``line``.

    Returns them, the number of lines in the block and the file line of
    its first blank line (0 if none). The block must be, byte for byte,
    what :func:`_record_text` prints for its records, blank lines aside;
    otherwise the first other line that differs raises ``ValueError``.
    """
    parsed = _parse_lines(block)
    text = _record_text(*parsed)
    if np.array_equal(text, block):
        return parsed, len(parsed[0]), 0
    ends = np.flatnonzero(block == ord("\n"))
    blank = np.diff(ends, prepend=-1) == 1
    kept = np.flatnonzero(~blank)  # the offset of each line left in the block
    if blank.any():
        keep = np.ones(len(block), dtype=bool)
        keep[ends[blank]] = False
        block = block[keep]
        parsed = _parse_lines(block)
        text = _record_text(*parsed)
        if np.array_equal(text, block):
            return parsed, len(ends), line + int(np.argmax(blank))
    # both end each line with its only newline, so neither is a prefix of the other
    at = int(np.flatnonzero(text[:len(block)] != block[:len(text)])[0])
    lines = block.tobytes()
    start = lines.rfind(b"\n", 0, at) + 1
    raise _bad_line(path, line + int(kept[lines.count(b"\n", 0, start)]),
                    lines[start:lines.find(b"\n", start)])


def read_records(path) -> SessionData:
    """Parse a record file block by block, accepting only the writer's own text.

    One pass counts the lines, so the columns are allocated once. The
    second reads :data:`_BLOCK` bytes at a time and checks them up to the
    last newline (:func:`_check_block`): each block is parsed at the
    writer's fixed offsets (:func:`_parse_lines`) and compared with what
    :func:`_record_text` prints for the records parsed. The first byte
    that differs rejects the file and names its line; a blank line is
    named only when no other line is bad. Round indices start at 0 or
    above and never decrease (count-all mode repeats a window's index).
    Every error past the header names its file line (the header is line 1).
    """
    with open(path, "rb") as fh:
        header = fh.readline(len(_HEADER_LINE))
        if header != _HEADER_LINE:
            raise ValueError(f"unexpected record file header: {header!r}")
        buf = bytearray(_LONGEST_LINE + min(_BLOCK, os.fstat(fh.fileno()).st_size))
        data = np.frombuffer(buf, dtype=np.uint8)
        n = 0
        while size := fh.readinto(buf):
            n += int(np.count_nonzero(data[:size] == ord("\n")))
        records = SessionData(np.empty(n, dtype=np.int64), np.empty((4, n), dtype=np.uint8),
                              np.empty(n, dtype=np.int8))
        fh.seek(len(header))
        # records stored, the file line at the start of `buf`, bytes of it carried over
        done, line, carried, first_blank = 0, 2, 0, 0
        while size := fh.readinto(memoryview(buf)[carried:carried + _BLOCK]):
            size += carried
            cut = buf.rfind(b"\n", 0, size) + 1
            parsed, lines, blank = _check_block(data[:cut], path, line)
            hi = done + len(parsed[0])
            records.rounds[done:hi], records.labels[:, done:hi], records.outcomes[done:hi] = parsed
            done, line, first_blank = hi, line + lines, first_blank or blank
            carried = size - cut
            buf[:carried] = buf[cut:size]
            if carried >= _LONGEST_LINE:
                raise _bad_line(path, line, bytes(buf[:carried]))
        if carried:
            raise _bad_line(path, line, bytes(buf[:carried]))
        if first_blank:
            raise _bad_line(path, first_blank, b"")
    # the file is the writer's text, so record i is on line i + 2
    rounds = records.rounds
    bad = np.flatnonzero(np.append(rounds[:1] < 0, rounds[1:] < rounds[:-1]))
    if bad.size:
        raise ValueError(f"round index {rounds[bad[0]]} on line {bad[0] + 2} of {path} is "
                         "negative or below the previous line's")
    return records
