"""Four-party secret-sharing protocol: scheduling, sifting, checks, access logic.

The dealer (Alice by default) holds the reference key; the three other
parties form the access set and reconstruct each dealer bit as the XOR of
their own bits. Two operating modes exist:

* QBER mode: everyone keys on the {H,V}/{P,M} phases (0, pi/2); a random
  sample of the sifted key is revealed to estimate the error rate.
* Bell mode: everyone keys on the +/-22.5 degree phases (pi/4, -pi/4),
  except that Bob switches every fifth round to (0, pi/2); those override
  rounds feed a four-party Bell estimate instead of the key.

All inter-party data flows through the classical channel as typed
messages, so a session transcript can be audited and replayed. Each party
sends one ``BasisAnnouncement``: a bitmap of the records it detected and
its basis labels there, so that announcement is also its detection
announcement. The dealer's ``SiftDecision`` is a key bitmap and a Bell
bitmap over the records, and a ``SampleRequest`` a bitmap over the key.
Every bitmap goes through ``channel.encode_mask``, so no position list is
built on this path. With equal seeds the full transcript is byte-identical
run to run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .adversary import AttackConfig
from .channel import (
    MSG_ABORT,
    MSG_BASIS,
    MSG_BELL_REVEAL,
    MSG_SAMPLE_REQUEST,
    MSG_SAMPLE_REVEAL,
    MSG_SIFT,
    PARTIES,
    Channel,
    ProtocolMessage,
    WireError,
    encode_mask,
    payload_masks,
)
from .quantum import (
    ALL_COMBOS,
    BellSetting,
    NoiseModel,
    bell_S,
    bell_S_from_table,
    bell_S_gradient,
    correlation_analytic,
    make_psi4_minus,
    outcome_distribution,
)
from .source import (
    PartySchedule,
    SessionData,
    SessionStreams,
    SourceConfig,
    run_session,
)


class Mode(enum.Enum):
    QBER = "qber"
    BELL = "bell"


#: Keying phases analyzing {H,V} and {P,M}.
KEYING_PHASES = (0.0, math.pi / 2)
#: Keying phases of the Bell-capable basis set (+/-22.5 degrees).
BELL_PHASES = (math.pi / 4, -math.pi / 4)
#: In Bell mode, Bob diverts every this-many-th round to the override pair.
BELL_OVERRIDE_EVERY = 5
_BOB_INDEX = 1


class ProtocolError(RuntimeError):
    pass


class InsufficientStatisticsError(ProtocolError):
    """Not enough detections to run the requested check."""


class EmptySampleError(ProtocolError):
    """The requested check sample is empty (or swallows the whole key)."""


def check_dealer(dealer: str) -> None:
    """Raise ValueError unless ``dealer`` is one of the four parties; any may deal."""
    if dealer not in PARTIES:
        raise ValueError(f"unknown dealer {dealer!r}")


def party_schedules(mode: Mode) -> tuple[PartySchedule, PartySchedule, PartySchedule, PartySchedule]:
    """The basis plan of each of the four parties in ``mode``."""
    if mode is Mode.QBER:
        return tuple(PartySchedule(phases=KEYING_PHASES) for _ in range(4))
    schedules = []
    for i in range(4):
        if i == _BOB_INDEX:
            schedules.append(
                PartySchedule(
                    phases=BELL_PHASES,
                    override_phases=KEYING_PHASES,
                    override_every=BELL_OVERRIDE_EVERY,
                )
            )
        else:
            schedules.append(PartySchedule(phases=BELL_PHASES))
    return tuple(schedules)


@dataclass(frozen=True)
class Thresholds:
    """Abort criteria and check sizing; deliberately configurable artifacts."""

    qber_abort_above: float = 0.11
    bell_margin_sigmas: float = 2.0
    sample_fraction: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError("sample_fraction must lie strictly between 0 and 1")
        # the secure key length is defined only for a QBER below one half
        if not 0.0 <= self.qber_abort_above < 0.5:
            raise ValueError("qber_abort_above must lie in [0, 0.5)")
        # a negative margin would admit an S at or below the classical bound
        if not self.bell_margin_sigmas >= 0.0:
            raise ValueError("bell_margin_sigmas must be >= 0")


@dataclass
class SiftedKey:
    """Aligned per-party bit strings over the retained rounds."""

    indices: np.ndarray
    bits: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 1 or (np.diff(self.indices) <= 0).any():
            raise ValueError("retained indices must be 1-D and strictly increasing")
        n = len(self.indices)
        for party, arr in self.bits.items():
            if len(arr) != n:
                raise ValueError(f"bit string of {party} has length {len(arr)}, expected {n}")

    def __len__(self) -> int:
        return len(self.indices)

    def xor_of(self, parties: Sequence[str]) -> np.ndarray:
        out = np.zeros(len(self.indices), dtype=np.uint8)
        for p in parties:
            out ^= self.bits[p].astype(np.uint8)
        return out

    def access_xor(self, dealer: str) -> np.ndarray:
        """XOR of the three non-dealer strings (the access set's reconstruction)."""
        return self.xor_of([p for p in PARTIES if p != dealer])

    def without_positions(self, positions: np.ndarray) -> "SiftedKey":
        keep = np.ones(len(self.indices), dtype=bool)
        keep[positions] = False
        return SiftedKey(
            indices=self.indices[keep],
            bits={p: arr[keep] for p, arr in self.bits.items()},
        )


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one eavesdropping check."""

    kind: str
    sample_size: int
    estimate: float
    stderr: float
    threshold: float
    verdict: str

    def __post_init__(self) -> None:
        if self.kind not in ("qber", "bell"):
            raise ValueError(f"unknown check kind {self.kind!r}")
        if self.verdict not in ("proceed", "abort"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        safe = self.estimate <= self.threshold if self.kind == "qber" else self.estimate > self.threshold
        if (self.verdict == "proceed") != safe:
            raise ValueError("verdict contradicts estimate/threshold")


def reconstruct_dealer_bit(x_b: int, x_c: int, x_d: int) -> int:
    """Access-set reconstruction of one dealer bit: XOR of the three shares."""
    return (int(x_b) ^ int(x_c) ^ int(x_d)) & 1


def semi_access_predictor(
    observed: Mapping[str, int], dealer: str = "Alice", phi: float = 0.0
) -> dict[int, float]:
    """Exact conditional distribution of the dealer's bit given a partial view.

    ``observed`` maps one or two non-dealer party names to their outcome
    bits in a matching-basis round at common phase ``phi``. The full
    access set is rejected (its reconstruction is deterministic: use
    :func:`reconstruct_dealer_bit`), as is an empty view.
    """
    others = [p for p in PARTIES if p != dealer]
    names = list(observed)
    if not names:
        raise ValueError("observed subset is empty")
    if any(p not in others for p in names):
        bad = [p for p in names if p not in others]
        raise ValueError(f"{bad} not in the non-dealer set {others}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate parties in observed subset")
    if len(names) >= len(others):
        raise ValueError("full access set: use reconstruct_dealer_bit")

    dist = outcome_distribution(make_psi4_minus(), (phi, phi, phi, phi))
    joint = dist.probs.reshape((2, 2, 2, 2))
    index: list[object] = [slice(None)] * 4
    for name, bit in observed.items():
        if bit not in (0, 1):
            raise ValueError(f"bad bit {bit!r} for {name}")
        index[PARTIES.index(name)] = int(bit)
    conditioned = joint[tuple(index)]
    dealer_axis_rank = sum(
        1 for p in PARTIES[: PARTIES.index(dealer)] if p not in observed
    )
    remaining_axes = tuple(
        i for i in range(conditioned.ndim) if i != dealer_axis_rank
    )
    marginal = conditioned.sum(axis=remaining_axes) if remaining_axes else conditioned
    total = float(marginal.sum())
    if total <= 0.0:
        raise ValueError("conditioning event has probability zero")
    return {0: float(marginal[0]) / total, 1: float(marginal[1]) / total}


def sift(
    mode: Mode,
    labels: np.ndarray,
    round_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Retain rounds that every party announced and where all bases agree.

    ``labels`` is the (4, n) table of the four basis announcements, -1
    where a party announced nothing. A party announces a basis exactly
    for the rounds its ``detected`` bitmap marks, so a round with all four
    labels >= 0 is one that everyone detected. In Bell mode, such rounds
    falling on Bob's override cycle are routed to the Bell pool instead of
    the key pool. Returns (key positions, Bell positions) as strictly
    increasing int64 arrays of record positions; the dealer's
    ``SiftDecision`` sends them as two bitmaps over the n records.
    """
    idx = np.flatnonzero((labels >= 0).all(axis=0))
    if mode is Mode.BELL:
        override = (round_indices[idx] % BELL_OVERRIDE_EVERY) == 0
        bell = idx[override]
        key_candidates = idx[~override]
    else:
        bell = np.array([], dtype=np.int64)
        key_candidates = idx
    if key_candidates.size:
        agree = (labels[:, key_candidates] == labels[0, key_candidates]).all(axis=0)
        key = key_candidates[agree]
    else:
        key = key_candidates
    return key, bell


def _reveal(
    channel: Channel,
    msg_type: str,
    bits: Mapping[str, np.ndarray],
    dealer: str,
) -> np.ndarray:
    """Have every non-dealer reveal its ``bits`` to the dealer.

    ``bits`` maps each party to its bits at the positions the dealer
    already named (a ``SampleRequest``, or the ``SiftDecision``'s Bell
    bitmap), in increasing order, so a reveal carries the bits alone.
    Returns the round parities: the dealer's bits XOR the three revealed
    rows.
    """
    parity = bits[dealer].astype(np.uint8)
    for party in PARTIES:
        if party == dealer:
            continue
        revealed = bits[party].astype(np.uint8, copy=False)
        channel.send(
            ProtocolMessage(msg_type, sender=party, payload={"bits": revealed.tolist()}),
            to=dealer,
        )
        parity ^= revealed
    return parity


def estimate_qber(
    sifted: SiftedKey,
    sample_fraction: float,
    rng: np.random.Generator,
    channel: Channel,
    dealer: str = "Alice",
    abort_above: float = 0.11,
) -> tuple[CheckReport, SiftedKey]:
    """Reveal a random key sample and estimate the error fraction.

    The dealer picks the positions, the participants reveal their bits
    there, and an error is any sampled round where the dealer's bit
    differs from the XOR of the other three. Sampled positions are
    removed from the returned key.
    """
    n = len(sifted)
    if n == 0:
        raise InsufficientStatisticsError("sifted key is empty")
    if not 0.0 < sample_fraction < 1.0:
        raise ValueError("sample_fraction must lie strictly between 0 and 1")
    k = int(round(sample_fraction * n))
    if k == 0:
        raise EmptySampleError(f"sample of {sample_fraction!r} over {n} bits is empty")
    if k >= n:
        raise EmptySampleError("sample would consume the entire key")
    positions = np.sort(rng.choice(n, size=k, replace=False))
    channel.broadcast(
        ProtocolMessage(
            MSG_SAMPLE_REQUEST, sender=dealer, payload={"n": n, "sample": _mask_of(positions, n)}
        )
    )
    sample = {p: arr[positions] for p, arr in sifted.bits.items()}
    errors = int(np.count_nonzero(_reveal(channel, MSG_SAMPLE_REVEAL, sample, dealer)))
    estimate = errors / k
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / k)
    verdict = "proceed" if estimate <= abort_above else "abort"
    report = CheckReport(
        kind="qber",
        sample_size=k,
        estimate=estimate,
        stderr=stderr,
        threshold=abort_above,
        verdict=verdict,
    )
    return report, sifted.without_positions(positions)


def estimate_bell_table(labels: np.ndarray, parities: np.ndarray) -> tuple[dict, dict]:
    """Per-setting-combination correlation estimates from Bell-pool rounds.

    Returns (E table, per-combination variances of the mean). Raises when
    a combination has no records.
    """
    table: dict = {}
    variances: dict = {}
    combos = labels.astype(int)
    signs = 1.0 - 2.0 * parities.astype(float)
    keys = combos[:, 0] * 8 + combos[:, 1] * 4 + combos[:, 2] * 2 + combos[:, 3]
    for combo in ALL_COMBOS:
        key = combo[0] * 8 + combo[1] * 4 + combo[2] * 2 + combo[3]
        mask = keys == key
        n = int(mask.sum())
        if n == 0:
            raise InsufficientStatisticsError(f"no Bell-pool records for combination {combo}")
        value = float(signs[mask].mean())
        table[combo] = value
        variances[combo] = max(1.0 - value * value, 0.0) / n
    return table, variances


def bell_estimate_with_stderr(table: dict, variances: dict) -> tuple[float, float]:
    """Bell quantity and its delta-method standard error."""
    s_value = bell_S_from_table(table)
    grad = bell_S_gradient(table)
    var = sum(grad[c] ** 2 * variances[c] for c in ALL_COMBOS)
    return s_value, math.sqrt(max(var, 0.0))


def bell_check(
    pool_positions: np.ndarray,
    labels: np.ndarray,
    bits: Mapping[str, np.ndarray],
    channel: Channel,
    dealer: str = "Alice",
    margin_sigmas: float = 2.0,
    classical_bound: float = 1.0,
) -> CheckReport:
    """Estimate the Bell quantity from the override-round pool.

    Participants reveal their pool outcomes; the per-combination
    correlations are the empirical means of the round parities
    (unweighted across combinations). The verdict is proceed when the
    estimate clears the classical bound by ``margin_sigmas`` standard
    errors. Note the plug-in statistic sums absolute values of noisy
    inner sums, so it carries a positive small-sample bias that shrinks
    as the pool grows.
    """
    positions = np.asarray(pool_positions, dtype=np.int64)
    n = len(positions)
    if n == 0:
        raise InsufficientStatisticsError("Bell pool is empty")
    parity = _reveal(channel, MSG_BELL_REVEAL, bits, dealer)
    table, variances = estimate_bell_table(labels, parity)
    s_value, stderr = bell_estimate_with_stderr(table, variances)
    threshold = classical_bound + margin_sigmas * stderr
    verdict = "proceed" if s_value > threshold else "abort"
    return CheckReport(
        kind="bell",
        sample_size=n,
        estimate=s_value,
        stderr=stderr,
        threshold=threshold,
        verdict=verdict,
    )


def implied_qber(report: CheckReport) -> float:
    """The error rate a check implies for the key: its QBER, or the one S implies.

    S is translated under the white-noise model of :class:`NoiseModel`,
    where S scales with the visibility: V = S / S_max clipped to [0, 1],
    and q = (1 - V) / 2. Noise of another kind breaks that scaling.
    """
    if report.kind == "qber":
        return report.estimate
    s_max = bell_S(BellSetting.maximal_violation(), correlation_analytic)
    implied_v = min(max(report.estimate / s_max, 0.0), 1.0)
    return (1.0 - implied_v) / 2.0


@dataclass(frozen=True)
class SessionCounts:
    windows: int
    records: int
    detected: int
    key_pool: int
    bell_pool: int
    key_after_check: int


@dataclass
class SessionResult:
    mode: Mode
    dealer: str
    visibility: float
    seed: int
    records: SessionData
    channel: Channel
    counts: SessionCounts
    check_report: CheckReport
    sifted_key: SiftedKey | None
    source_config: SourceConfig | None = None

    @property
    def aborted(self) -> bool:
        return self.check_report.verdict == "abort"

    def sifted_bits_per_hour(self) -> float | None:
        """Pre-check key pool rate over the session wall time."""
        if self.source_config is None:
            return None
        seconds = self.source_config.session_seconds(self.counts.windows)
        if seconds <= 0:
            return None
        return self.counts.key_pool * 3600.0 / seconds


def _mask_of(positions: np.ndarray, n: int) -> str:
    """``positions`` among n entries as a wire bitmap."""
    mask = np.zeros(n, dtype=bool)
    mask[positions] = True
    return encode_mask(mask)


def _announce(
    channel: Channel, party: str, dealer: str, n: int, detected: str, labels: np.ndarray
) -> None:
    """Send ``party``'s ``detected`` bitmap over n records and its ``labels`` there.

    ``detected`` is already wire text; ``labels`` holds one 0/1 label per
    detected record and goes out as a bitmap too.
    """
    msg = ProtocolMessage(
        MSG_BASIS,
        sender=party,
        payload={"n": n, "detected": detected, "labels": encode_mask(labels)},
    )
    if party == dealer:
        channel.broadcast(msg)
    else:
        channel.send(msg, to=dealer)


def _label_table(labels: np.ndarray, detected_idx: np.ndarray, rows) -> np.ndarray:
    """The (4, n) int8 sift input with ``rows`` announced at ``detected_idx``.

    Each of ``rows`` holds its party's label at the detected records; every
    other entry is -1, as for a round nobody announced.
    """
    table = np.full(labels.shape, -1, dtype=np.int8)
    for row in rows:
        table[row, detected_idx] = labels[row, detected_idx]
    return table


def _dealer_table(table: np.ndarray, messages) -> np.ndarray:
    """Enter each received basis announcement into the dealer's ``table``.

    Raises WireError for any message that is not an announcement over the
    table's records with one label per detected record.
    """
    for msg in messages:
        masks = payload_masks(msg.msg_type, msg.payload)
        if msg.msg_type != MSG_BASIS or msg.payload["n"] != table.shape[1]:
            raise WireError(f"{msg.msg_type} from {msg.sender} is not an announcement "
                            f"over {table.shape[1]} records")
        table[PARTIES.index(msg.sender), np.flatnonzero(masks["detected"])] = masks["labels"]
    return table


def _expected_key_rate(mode: Mode, config: SourceConfig) -> float:
    lam = config.mean_events_per_window
    eff4 = config.detector_efficiency ** 4
    if config.first_event_only:
        detect = (1.0 - math.exp(-lam)) * eff4
    else:
        detect = lam * eff4
    agree = 1.0 / 8.0
    if mode is Mode.BELL:
        agree *= (BELL_OVERRIDE_EVERY - 1) / BELL_OVERRIDE_EVERY
    return detect * agree


def run_protocol(
    mode: Mode = Mode.QBER,
    visibility: float = 1.0,
    dealer: str = "Alice",
    source_config: SourceConfig | None = None,
    attack: AttackConfig | None = None,
    n_windows: int | None = None,
    target_sifted_bits: int | None = None,
    thresholds: Thresholds | None = None,
    seed: int = 0,
) -> SessionResult:
    """Run a full session: physics, announcements, sifting, check.

    Exactly one of ``n_windows`` and ``target_sifted_bits`` must be given;
    with a target, acquisition continues in chunks until the key pool
    reaches it, then the dealer's sift decision truncates to the target.
    The returned result carries the post-check sifted key, or None with
    an abort verdict.
    """
    if (n_windows is None) == (target_sifted_bits is None):
        raise ValueError("give exactly one of n_windows / target_sifted_bits")
    check_dealer(dealer)
    schedules = party_schedules(mode)
    config = source_config or SourceConfig()
    noise = NoiseModel(visibility=visibility)
    streams = SessionStreams.from_seed(seed)
    state = make_psi4_minus()

    if n_windows is not None:
        records = run_session(n_windows, schedules, state, noise, config, streams, attack=attack)
        windows = n_windows
    else:
        rate = _expected_key_rate(mode, config)
        if rate <= 0.0:
            raise InsufficientStatisticsError("source configuration yields no detections")
        need = int(target_sifted_bits / rate * 1.15) + 64
        chunks: list[SessionData] = []
        windows = key_bits = 0
        while True:
            chunk = run_session(
                need, schedules, state, noise, config, streams,
                first_round_index=windows, attack=attack,
            )
            chunks.append(chunk)
            windows += need
            # sifting is per record, so the key pool grows by each chunk's share
            # every party detected the same records, so every row is announced
            table = _label_table(chunk.labels, np.flatnonzero(chunk.detected), range(4))
            key_idx, _ = sift(mode, table, chunk.rounds)
            key_bits += len(key_idx)
            if key_bits >= target_sifted_bits:
                break
            shortfall = target_sifted_bits - key_bits
            need = max(int(shortfall / rate * 1.25) + 64, 256)
        records = SessionData.concat(chunks)

    return _protocol_over_records(
        records,
        mode=mode,
        dealer=dealer,
        thresholds=thresholds,
        check_rng=streams.protocol,
        visibility=visibility,
        seed=seed,
        windows=windows,
        target_sifted_bits=target_sifted_bits,
        source_config=config,
    )


def replay_protocol(
    records: SessionData,
    mode: Mode = Mode.QBER,
    dealer: str = "Alice",
    thresholds: Thresholds | None = None,
    seed: int = 0,
    target_sifted_bits: int | None = None,
    visibility: float = float("nan"),
) -> SessionResult:
    """Run the classical protocol over a recorded (or file-loaded) session.

    With the seed of the original session, the check phase draws the same
    sample positions, so replaying a dumped record file reproduces the
    live session's sift decision and check report exactly.
    """
    windows = 1 + int(records.rounds.max(initial=-1))
    return _protocol_over_records(
        records,
        mode=mode,
        dealer=dealer,
        thresholds=thresholds,
        check_rng=SessionStreams.from_seed(seed).protocol,
        visibility=visibility,
        seed=seed,
        windows=windows,
        target_sifted_bits=target_sifted_bits,
        source_config=None,
    )


def _protocol_over_records(
    records: SessionData,
    mode: Mode,
    dealer: str,
    thresholds: Thresholds | None,
    check_rng: np.random.Generator,
    visibility: float,
    seed: int,
    windows: int,
    target_sifted_bits: int | None,
    source_config: SourceConfig | None,
) -> SessionResult:
    check_dealer(dealer)
    thresholds = thresholds or Thresholds()
    detected_arr = records.detected
    n = len(records)

    channel = Channel()
    detected_idx = np.flatnonzero(detected_arr)
    table_labels = _label_table(records.labels, detected_idx, [PARTIES.index(dealer)])
    # the four parties share the detected column, so its bitmap is encoded once
    detected = encode_mask(detected_arr)
    for row, party in enumerate(PARTIES):
        _announce(channel, party, dealer, n, detected, records.labels[row, detected_idx])

    table_labels = _dealer_table(table_labels, channel.drain(dealer))
    key_idx, bell_idx = sift(mode, table_labels, records.rounds)
    if target_sifted_bits is not None:
        key_idx = key_idx[:target_sifted_bits]
    channel.broadcast(
        ProtocolMessage(
            MSG_SIFT,
            sender=dealer,
            payload={"n": n, "key": _mask_of(key_idx, n), "bell": _mask_of(bell_idx, n)},
        )
    )

    key_pool = SiftedKey(indices=key_idx, bits=dict(zip(PARTIES, records.bits_at(key_idx))))

    if mode is Mode.QBER:
        if len(key_pool) < 2:
            raise InsufficientStatisticsError(
                f"key pool of {len(key_pool)} bits cannot support a sample"
            )
        report, remaining = estimate_qber(
            key_pool,
            thresholds.sample_fraction,
            check_rng,
            channel,
            dealer=dealer,
            abort_above=thresholds.qber_abort_above,
        )
    else:
        pool_bits = dict(zip(PARTIES, records.bits_at(bell_idx)))
        pool_labels = table_labels[:, bell_idx].T
        report = bell_check(
            bell_idx,
            pool_labels,
            pool_bits,
            channel,
            dealer=dealer,
            margin_sigmas=thresholds.bell_margin_sigmas,
        )
        remaining = key_pool

    if report.verdict == "abort":
        channel.broadcast(
            ProtocolMessage(
                MSG_ABORT,
                sender=dealer,
                payload={
                    "kind": report.kind,
                    "reason": "check failed",
                    "estimate": report.estimate,
                    "threshold": report.threshold,
                },
            )
        )
        final_key = None
    else:
        final_key = remaining

    counts = SessionCounts(
        windows=windows,
        records=n,
        detected=int(detected_arr.sum()),
        key_pool=len(key_pool),
        bell_pool=len(bell_idx),
        key_after_check=len(final_key) if final_key is not None else 0,
    )
    return SessionResult(
        mode=mode,
        dealer=dealer,
        visibility=visibility,
        seed=seed,
        records=records,
        channel=channel,
        counts=counts,
        check_report=report,
        sifted_key=final_key,
        source_config=source_config,
    )


def format_key_transcript(key: SiftedKey, dealer: str = "Alice", width: int = 100) -> str:
    """Aligned four-row bit listing plus the access set's XOR row."""
    others = [p for p in PARTIES if p != dealer]
    xor_row = key.xor_of(others)
    note = " + ".join(f"x_{p[0]}" for p in others)
    lines = [f"# XOR row = {note} (mod 2); equals x_{dealer[0]} on error-free rounds"]
    n = len(key)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        lines.append(f"bits {lo}..{hi - 1}")
        for party in PARTIES:
            lines.append(f"x_{party[0]} {_bit_text(key.bits[party][lo:hi])}")
        lines.append("XOR " + _bit_text(xor_row[lo:hi]))
    return "\n".join(lines) + "\n"


def _bit_text(bits: np.ndarray) -> str:
    """0/1 values as a string of '0'/'1' characters."""
    return (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")


def format_session_report(result: SessionResult) -> str:
    """Structured key=value session report (schema documented in the README)."""
    r = result
    lines = [
        "[session]",
        f"mode={r.mode.value}",
        f"dealer={r.dealer}",
        f"seed={r.seed}",
        f"visibility={r.visibility:.6f}",
        f"windows={r.counts.windows}",
        f"records={r.counts.records}",
        f"detected={r.counts.detected}",
        f"key_pool={r.counts.key_pool}",
        f"bell_pool={r.counts.bell_pool}",
        f"key_after_check={r.counts.key_after_check}",
    ]
    per_hour = r.sifted_bits_per_hour()
    if per_hour is not None:
        lines.append(f"sifted_bits_per_hour={per_hour:.2f}")
    lines += [
        "[check]",
        f"kind={r.check_report.kind}",
        f"sample_size={r.check_report.sample_size}",
        f"estimate={r.check_report.estimate:.6f}",
        f"stderr={r.check_report.stderr:.6f}",
        f"threshold={r.check_report.threshold:.6f}",
        f"verdict={r.check_report.verdict}",
    ]
    return "\n".join(lines) + "\n"
