import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qss4.adversary import AttackConfig
from qss4.channel import (
    MSG_ABORT,
    MSG_BASIS,
    MSG_SAMPLE_REQUEST,
    MSG_SIFT,
    PARTIES,
    Channel,
    audit_outcome_hygiene,
    encode_wire,
    payload_masks,
)
from qss4.protocol import (
    BELL_PHASES,
    KEYING_PHASES,
    replay_protocol,
    CheckReport,
    EmptySampleError,
    InsufficientStatisticsError,
    Mode,
    SiftedKey,
    bell_check,
    bell_estimate_with_stderr,
    check_dealer,
    estimate_qber,
    format_key_transcript,
    implied_qber,
    party_schedules,
    reconstruct_dealer_bit,
    run_protocol,
    semi_access_predictor,
    sift,
)
from qss4.quantum import (
    ALL_COMBOS,
    BellSetting,
    NoiseModel,
    bell_S,
    bell_S_from_table,
    correlation_analytic,
    make_psi4_minus,
    outcome_distribution,
)
from qss4.source import SourceConfig, read_records, write_records


def test_roles():
    for dealer in PARTIES:
        check_dealer(dealer)
    with pytest.raises(ValueError):
        check_dealer("Eve")


def test_basis_schedules():
    qber = party_schedules(Mode.QBER)
    assert all(s.phases == KEYING_PHASES and s.override_every == 0 for s in qber)
    bell = party_schedules(Mode.BELL)
    assert all(s.phases == BELL_PHASES for s in bell)
    assert bell[1].override_every == 5
    assert bell[1].override_phases == KEYING_PHASES
    assert all(bell[i].override_every == 0 for i in (0, 2, 3))


def test_sift_keeps_agreeing_rounds():
    labels = np.array(
        [[0, 0, 1, -1, 0], [0, 1, 1, -1, -1], [0, 0, 1, -1, 0], [0, 0, 1, -1, 0]],
        dtype=np.int8,
    )
    key, bell = sift(Mode.QBER, labels, np.arange(1, 6))
    # round 1 disagrees on Bob, round 3 is unannounced, Bob did not announce round 4
    assert key.tolist() == [0, 2]
    assert bell.tolist() == []


def test_sift_routes_override_rounds_to_bell_pool():
    n = 10
    labels = np.zeros((4, n), dtype=np.int8)
    labels[1, 3] = 1  # disagreement in a key round
    rounds = np.arange(n)
    key, bell = sift(Mode.BELL, labels, rounds)
    assert bell.tolist() == [0, 5]  # Bob's override cycle
    assert 3 not in key
    assert set(key) == {1, 2, 4, 6, 7, 8, 9}
    labels[3, 5] = -1  # David did not announce an override round
    labels[2, 7] = -1  # nor Claire a key round
    key, bell = sift(Mode.BELL, labels, rounds)
    assert bell.tolist() == [0]
    assert set(key) == {1, 2, 4, 6, 8, 9}


def test_reconstruct_dealer_bit():
    assert reconstruct_dealer_bit(0, 1, 1) == 0
    assert reconstruct_dealer_bit(0, 0, 0) == 0
    assert reconstruct_dealer_bit(1, 0, 0) == 1


def _conditional_oracle(dealer, observed, phi):
    """Brute-force conditional from the joint distribution (independent path)."""
    joint = outcome_distribution(make_psi4_minus(), (phi,) * 4).probs.reshape(2, 2, 2, 2)
    axes = {p: i for i, p in enumerate(PARTIES)}
    num = np.zeros(2)
    for idx in np.ndindex(2, 2, 2, 2):
        if all(idx[axes[p]] == b for p, b in observed.items()):
            num[idx[axes[dealer]]] += joint[idx]
    return num / num.sum()


def test_semi_access_exact_values():
    assert semi_access_predictor({"Bob": 0, "Claire": 0})[1] == pytest.approx(1.0, abs=1e-12)
    assert semi_access_predictor({"Bob": 0, "Claire": 1})[0] == pytest.approx(0.8, abs=1e-12)
    assert semi_access_predictor({"Bob": 0})[0] == pytest.approx(2 / 3, abs=1e-12)


def test_semi_access_matches_brute_force():
    cases = [
        ("Alice", {"Bob": 0, "Claire": 0}),
        ("Alice", {"David": 1}),
        ("Claire", {"Alice": 0, "Bob": 0}),
        ("David", {"Bob": 1}),
        ("Bob", {"Alice": 1, "David": 0}),
    ]
    for phi in (0.0, math.pi / 2, 0.7):
        for dealer, observed in cases:
            got = semi_access_predictor(observed, dealer=dealer, phi=phi)
            want = _conditional_oracle(dealer, observed, phi)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_semi_access_basis_independent():
    for phi in (0.0, math.pi / 2, 1.234):
        assert semi_access_predictor({"Bob": 0}, phi=phi)[0] == pytest.approx(2 / 3, abs=1e-12)


def test_semi_access_rejections():
    with pytest.raises(ValueError, match="empty"):
        semi_access_predictor({})
    with pytest.raises(ValueError, match="reconstruct_dealer_bit"):
        semi_access_predictor({"Bob": 0, "Claire": 0, "David": 0})
    with pytest.raises(ValueError):
        semi_access_predictor({"Alice": 0})  # dealer observing itself
    with pytest.raises(ValueError):
        semi_access_predictor({"Bob": 2})


def _synthetic_key(n, error_positions=()):
    rng = np.random.default_rng(99)
    b = rng.integers(0, 2, n, dtype=np.uint8)
    c = rng.integers(0, 2, n, dtype=np.uint8)
    d = rng.integers(0, 2, n, dtype=np.uint8)
    a = (b ^ c ^ d).astype(np.uint8)
    for pos in error_positions:
        a[pos] ^= 1
    return SiftedKey(
        indices=list(range(n)),
        bits={"Alice": a, "Bob": b, "Claire": c, "David": d},
    )


def test_estimate_qber_sample_accounting():
    key = _synthetic_key(2000)
    channel = Channel()
    report, remaining = estimate_qber(key, 0.10, np.random.default_rng(1), channel)
    assert report.sample_size == 200
    assert len(remaining) == 1800
    assert report.estimate == 0.0
    assert report.verdict == "proceed"
    (request,) = [m for m in channel.transcript if m.msg_type == MSG_SAMPLE_REQUEST]
    assert request.payload["n"] == 2000
    revealed = set(np.flatnonzero(payload_masks(MSG_SAMPLE_REQUEST, request.payload)["sample"]))
    assert len(revealed) == 200
    assert revealed.isdisjoint(set(remaining.indices))


def test_estimate_qber_counts_planted_errors():
    errors = (0, 1, 2, 3, 4)
    key = _synthetic_key(50, error_positions=errors)
    channel = Channel()
    rng = np.random.default_rng(5)
    report, remaining = estimate_qber(key, 0.5, rng, channel, abort_above=0.5)
    sampled = sorted(set(range(50)) - set(remaining.indices))
    planted_in_sample = len(set(errors) & set(sampled))
    assert report.estimate == pytest.approx(planted_in_sample / 25)


def test_estimate_qber_empty_sample():
    key = _synthetic_key(5)
    with pytest.raises(EmptySampleError):
        estimate_qber(key, 0.01, np.random.default_rng(0), Channel())
    with pytest.raises(ValueError):
        estimate_qber(key, 1.5, np.random.default_rng(0), Channel())


def test_check_report_consistency():
    with pytest.raises(ValueError):
        CheckReport("qber", 10, estimate=0.2, stderr=0.0, threshold=0.11, verdict="proceed")
    with pytest.raises(ValueError):
        CheckReport("bell", 10, estimate=1.5, stderr=0.0, threshold=1.1, verdict="abort")


def test_implied_qber():
    qber = CheckReport("qber", 100, estimate=0.03, stderr=0.01, threshold=0.11, verdict="proceed")
    assert implied_qber(qber) == 0.03
    # white noise: S = V * S_max, q = (1 - V) / 2, with V clipped to [0, 1]
    s_max = bell_S(BellSetting.maximal_violation(), correlation_analytic)
    for s, q in ((0.9 * s_max, 0.05), (s_max, 0.0), (1.2 * s_max, 0.0), (-0.5, 0.5)):
        verdict = "proceed" if s > 1.0 else "abort"
        bell = CheckReport("bell", 100, estimate=s, stderr=0.0, threshold=1.0, verdict=verdict)
        assert implied_qber(bell) == pytest.approx(q)


def _synthetic_bell_pool(n, visibility, seed):
    rng = np.random.default_rng(seed)
    setting = BellSetting.maximal_violation()
    state = make_psi4_minus()
    noise = NoiseModel(visibility=visibility)
    combos = rng.integers(0, 2, (n, 4))
    bits = {p: np.zeros(n, dtype=np.uint8) for p in PARTIES}
    for i in range(n):
        combo = tuple(int(v) for v in combos[i])
        dist = outcome_distribution(state, setting.phases_for(combo), noise)
        idx = int(np.searchsorted(dist.cdf(), rng.random(), side="right"))
        idx = min(idx, 15)
        for j, p in enumerate(PARTIES):
            bits[p][i] = (idx >> (3 - j)) & 1
    return combos, bits


def test_bell_check_estimates_violation():
    combos, bits = _synthetic_bell_pool(40_000, 0.943, seed=31)
    channel = Channel()
    report = bell_check(list(range(len(combos))), combos, bits, channel)
    assert report.kind == "bell"
    assert report.verdict == "proceed"
    assert abs(report.estimate - 0.943 * 1.8856) < 3 * report.stderr


def test_bell_check_uniform_records_show_no_violation():
    rng = np.random.default_rng(17)
    n = 16_000
    combos = rng.integers(0, 2, (n, 4))
    bits = {p: rng.integers(0, 2, n, dtype=np.uint8) for p in PARTIES}
    report = bell_check(list(range(n)), combos, bits, Channel())
    assert report.verdict == "abort"
    assert report.estimate < 1.0


def test_bell_check_missing_combination():
    combos = np.zeros((100, 4), dtype=np.int64)  # only (0,0,0,0) present
    bits = {p: np.zeros(100, dtype=np.uint8) for p in PARTIES}
    with pytest.raises(InsufficientStatisticsError):
        bell_check(list(range(100)), combos, bits, Channel())


def test_bell_table_analytic_injection():
    # exact correlations per combination reproduce the closed-form value
    setting = BellSetting.maximal_violation()
    table = {
        combo: correlation_analytic(*setting.phases_for(combo)) for combo in ALL_COMBOS
    }
    assert abs(bell_S_from_table(table) - 1.886) < 1e-3
    variances = {combo: 0.0 for combo in ALL_COMBOS}
    s, stderr = bell_estimate_with_stderr(table, variances)
    assert stderr == 0.0


FAST_SOURCE = SourceConfig(four_photon_rate=3.0)


def test_noiseless_session_parity_law():
    result = run_protocol(
        mode=Mode.QBER, visibility=1.0, target_sifted_bits=800, seed=101,
        source_config=FAST_SOURCE,
    )
    assert not result.aborted
    assert result.check_report.estimate == 0.0
    key = result.sifted_key
    assert len(key) == 720
    assert np.array_equal(key.bits["Alice"], key.access_xor("Alice"))
    audit_outcome_hygiene(result.channel.transcript)


def test_noisy_session_qber_estimate():
    result = run_protocol(
        mode=Mode.QBER, visibility=0.9, target_sifted_bits=1000, seed=103,
        source_config=FAST_SOURCE,
    )
    report = result.check_report
    sigma = math.sqrt(0.05 * 0.95 / report.sample_size)
    assert abs(report.estimate - 0.05) < 3 * sigma
    assert result.counts.key_pool == 1000
    assert result.counts.key_after_check == 1000 - report.sample_size


def test_attacked_session_aborts():
    attack = AttackConfig(attacked_modes=("b",), eve_bases=KEYING_PHASES, attack_fraction=1.0)
    result = run_protocol(
        mode=Mode.QBER, visibility=1.0, target_sifted_bits=600, seed=105,
        source_config=FAST_SOURCE, attack=attack,
    )
    assert result.aborted
    assert result.sifted_key is None
    assert result.check_report.estimate > result.check_report.threshold
    assert any(m.msg_type == MSG_ABORT for m in result.channel.transcript)


def test_bell_session_routes_pools():
    result = run_protocol(
        mode=Mode.BELL, visibility=1.0, n_windows=4000, seed=107,
        source_config=FAST_SOURCE,
    )
    # override rounds make up one fifth of all windows
    assert result.counts.bell_pool > 0
    decision = next(m for m in result.channel.transcript if m.msg_type == MSG_SIFT)
    masks = payload_masks(MSG_SIFT, decision.payload)
    assert decision.payload["n"] == result.counts.records
    assert np.count_nonzero(masks["bell"]) == result.counts.bell_pool
    assert np.count_nonzero(masks["key"]) == result.counts.key_pool
    assert not (masks["key"] & masks["bell"]).any()
    assert (result.records.rounds[masks["bell"] == 1] % 5 == 0).all()
    assert not result.aborted
    key = result.sifted_key
    assert np.array_equal(key.bits["Alice"], key.access_xor("Alice"))


@pytest.mark.parametrize("kwargs", [
    dict(mode=Mode.QBER, visibility=0.95, target_sifted_bits=300, seed=13, dealer="Claire"),
    dict(mode=Mode.BELL, visibility=1.0, n_windows=2000, seed=107),
])
def test_one_basis_announcement_per_party(kwargs):
    result = run_protocol(source_config=FAST_SOURCE, **kwargs)
    transcript = result.channel.transcript
    announced = transcript[: next(i for i, m in enumerate(transcript) if m.msg_type == MSG_SIFT)]
    assert [(m.msg_type, m.sender) for m in announced] == [(MSG_BASIS, p) for p in PARTIES]
    # a basis announcement doubles as the detection announcement
    detected = result.records.detected
    for row, msg in enumerate(announced):
        assert msg.payload["n"] == result.counts.records
        masks = payload_masks(MSG_BASIS, msg.payload)
        assert np.array_equal(masks["detected"], detected)
        assert np.array_equal(masks["labels"], result.records.labels[row, detected])


@pytest.mark.parametrize("kwargs, bound", [
    # 1.65 B/record with bitmaps; the list-based format took 29.0
    (dict(visibility=0.95, target_sifted_bits=2000, source_config=FAST_SOURCE), 4.0),
    # 0.190 B/record with bitmaps; the list-based format took 16,288 B = 0.2715
    (dict(visibility=1.0, n_windows=60_000, source_config=SourceConfig.lab_preset()), 0.2715),
])
def test_wire_bytes_per_record(kwargs, bound):
    result = run_protocol(mode=Mode.QBER, seed=31, **kwargs)
    wire = sum(len(encode_wire(m)) for m in result.channel.transcript)
    assert wire / result.counts.records <= bound


def test_session_transcripts_reproducible(tmp_path):
    kwargs = dict(
        mode=Mode.QBER, visibility=0.95, target_sifted_bits=300, seed=13,
        source_config=FAST_SOURCE,
    )
    first = run_protocol(**kwargs)
    second = run_protocol(**kwargs)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    first.channel.dump_transcript(p1)
    second.channel.dump_transcript(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert first.records == second.records


def test_run_protocol_argument_validation():
    with pytest.raises(ValueError):
        run_protocol(n_windows=10, target_sifted_bits=10)
    with pytest.raises(ValueError):
        run_protocol()


def test_run_protocol_insufficient_detections():
    with pytest.raises(InsufficientStatisticsError):
        run_protocol(
            mode=Mode.QBER, n_windows=3, seed=1,
            source_config=SourceConfig(four_photon_rate=1e-6),
        )


def test_dealer_parametric_sessions():
    result = run_protocol(
        mode=Mode.QBER, visibility=1.0, target_sifted_bits=200, seed=19,
        source_config=FAST_SOURCE, dealer="Claire",
    )
    key = result.sifted_key
    assert np.array_equal(key.bits["Claire"], key.access_xor("Claire"))


def test_format_key_transcript_layout():
    key = _synthetic_key(250)
    text = format_key_transcript(key, dealer="Alice", width=100)
    lines = text.splitlines()
    assert lines[0].startswith("# XOR row = x_B + x_C + x_D")
    blocks = [l for l in lines if l.startswith("bits ")]
    assert blocks == ["bits 0..99", "bits 100..199", "bits 200..249"]
    rows = [l for l in lines if l.startswith("x_A ")]
    assert len(rows[0]) == 4 + 100
    xor_rows = [l for l in lines if l.startswith("XOR ")]
    # noiseless synthetic key: XOR row equals the dealer row
    assert xor_rows[0][4:] == rows[0][4:]


def test_sifted_key_validation():
    with pytest.raises(ValueError):
        SiftedKey(indices=[3, 2], bits={p: np.zeros(2, np.uint8) for p in PARTIES})
    with pytest.raises(ValueError):
        SiftedKey(indices=[0, 1], bits={"Alice": np.zeros(3, np.uint8)})
    with pytest.raises(ValueError):
        SiftedKey(indices=[1, 1], bits={p: np.zeros(2, np.uint8) for p in PARTIES})
    with pytest.raises(ValueError):
        SiftedKey(indices=[[0, 1], [2, 3]], bits={})
    key = SiftedKey(
        indices=np.array([2, 5, 9], dtype=np.int32),
        bits={p: np.arange(3, dtype=np.uint8) for p in PARTIES},
    )
    assert key.indices.dtype == np.int64
    assert key.indices.tolist() == [2, 5, 9]
    # a repeated position is dropped once
    rest = key.without_positions(np.array([1, 1]))
    assert rest.indices.tolist() == [2, 9]
    assert all(rest.bits[p].tolist() == [0, 2] for p in PARTIES)


def test_replay_from_record_file(tmp_path):
    live = run_protocol(
        mode=Mode.QBER, visibility=0.92, target_sifted_bits=400, seed=77,
        source_config=FAST_SOURCE,
    )
    path = tmp_path / "session.records"
    write_records(live.records, path)
    replayed = replay_protocol(read_records(path), mode=Mode.QBER, seed=77,
                               target_sifted_bits=400)
    assert replayed.check_report == live.check_report
    assert np.array_equal(replayed.sifted_key.indices, live.sifted_key.indices)
    assert all(
        np.array_equal(replayed.sifted_key.bits[p], live.sifted_key.bits[p])
        for p in PARTIES
    )


def test_record_file_bytes_per_record(tmp_path):
    # the 6k-bit recording of the replay benchmark: 15.7 B/record; the
    # file with phase and detected columns took 66.7
    live = run_protocol(mode=Mode.QBER, visibility=0.95, target_sifted_bits=6000, seed=1,
                        source_config=FAST_SOURCE)
    path = tmp_path / "session.records"
    write_records(live.records, path)
    assert path.stat().st_size / live.counts.records <= 16


# no shrink phase: a smaller seed is no simpler session, and shrinking a
# failure over seeds takes minutes
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(Mode),
    first_event_only=st.booleans(),
    attacked=st.booleans(),
    target=st.booleans(),
)
def test_live_equals_replay_over_record_file(seed, mode, first_event_only, attacked, target):
    phases = KEYING_PHASES if mode is Mode.QBER else BELL_PHASES
    size = dict(target_sifted_bits=300) if target else dict(n_windows=3000)
    live = run_protocol(
        mode=mode, visibility=0.95, seed=seed,
        source_config=SourceConfig(four_photon_rate=3.0, first_event_only=first_event_only),
        attack=AttackConfig(("b",), phases, 0.3) if attacked else None,
        **size,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.records"
        write_records(live.records, path)
        replayed = replay_protocol(read_records(path), mode=mode, seed=seed,
                                   target_sifted_bits=size.get("target_sifted_bits"))
    assert replayed.records == live.records
    assert replayed.check_report == live.check_report
    assert replayed.counts == live.counts
    assert (replayed.sifted_key is None) == (live.sifted_key is None)
    if live.sifted_key is not None:
        assert np.array_equal(replayed.sifted_key.indices, live.sifted_key.indices)
        for p in PARTIES:
            assert np.array_equal(replayed.sifted_key.bits[p], live.sifted_key.bits[p])
    assert ([encode_wire(m) for m in replayed.channel.transcript]
            == [encode_wire(m) for m in live.channel.transcript])


def test_semi_access_map_guess_accuracy():
    # best-guess success rates over matching-basis rounds: 2/3 for a single
    # party; for a pair 1*P(agree) + 0.8*P(disagree) with P(agree) = 1/6
    # (only the two 1/12 patterns have equal pair bits), i.e. 5/6; never 1.0
    n = 100_000
    rng = np.random.default_rng(811)
    counts = rng.multinomial(
        n, outcome_distribution(make_psi4_minus(), (0.0,) * 4).probs
    ).reshape(2, 2, 2, 2)

    guess = {b: max((0, 1), key=lambda a: semi_access_predictor({"Bob": b})[a]) for b in (0, 1)}
    single_hits = sum(
        counts[a, b, :, :].sum() for b in (0, 1) for a in (guess[b],)
    )
    p_single = single_hits / n
    sigma = math.sqrt((2 / 3) * (1 / 3) / n)
    assert abs(p_single - 2 / 3) <= 3 * sigma
    assert p_single < 1.0

    pair_hits = 0
    for b in (0, 1):
        for c in (0, 1):
            dist = semi_access_predictor({"Bob": b, "Claire": c})
            best = max((0, 1), key=lambda a: dist[a])
            pair_hits += counts[best, b, c, :].sum()
    p_pair = pair_hits / n
    sigma = math.sqrt((5 / 6) * (1 / 6) / n)
    assert abs(p_pair - 5 / 6) <= 3 * sigma
    assert p_pair < 1.0
