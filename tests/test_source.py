import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import qss4.quantum
import qss4.source
from qss4.adversary import AttackConfig, enumerate_attack_branches
from qss4.quantum import NoiseModel, PureState, make_psi4_minus, mode_axis, outcome_distribution
from qss4.source import (
    RECORD_HEADER,
    PartySchedule,
    SessionData,
    SessionStreams,
    SourceConfig,
    read_records,
    run_session,
    write_records,
)
from qss4.source import _DistributionCache, _eve_walk

SCHEDULES = tuple(PartySchedule(phases=(0.0, math.pi / 2)) for _ in range(4))


def _session(n, seed=0, config=None, visibility=1.0, schedules=SCHEDULES, state=None):
    return run_session(
        n,
        schedules,
        state or make_psi4_minus(),
        NoiseModel(visibility=visibility),
        config or SourceConfig(),
        SessionStreams.from_seed(seed),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SourceConfig(four_photon_rate=-1)
    with pytest.raises(ValueError):
        SourceConfig(window_seconds=0)
    with pytest.raises(ValueError):
        SourceConfig(detector_efficiency=1.5)
    assert SourceConfig.lab_preset().detector_efficiency == 0.4


def test_schedule_override():
    with pytest.raises(ValueError):
        PartySchedule(phases=(1.0, 2.0), override_every=5)


def test_sample_window_zero_rate():
    records = _session(2000, config=SourceConfig(four_photon_rate=0.0))
    assert len(records) == 2000
    assert not records.detected.any()
    assert (records.outcomes == -1).all()


def test_sample_window_point_mass():
    amplitudes = np.zeros(16, dtype=np.complex128)
    amplitudes[0b0011] = 1.0
    schedules = tuple(PartySchedule(phases=(0.0, 0.0)) for _ in range(4))
    records = _session(
        200, seed=1, config=SourceConfig(four_photon_rate=50.0),
        schedules=schedules, state=PureState(amplitudes),
    )
    assert records.detected.all()
    bits = records.bits_at(np.arange(len(records)))
    assert (bits.T == (0, 0, 1, 1)).all()


def test_sample_window_detection_rate():
    n = 120_000
    records = _session(n, seed=2, config=SourceConfig(four_photon_rate=0.4))
    p = 1 - math.exp(-0.4)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(records.detected.sum() / n - p) < 3 * sigma


def test_session_deterministic():
    a = _session(512, seed=42)
    b = _session(512, seed=42)
    assert a == b
    c = _session(512, seed=43)
    assert a != c


def test_party_stream_reproducible_in_isolation():
    records = _session(200, seed=9)
    solo = SessionStreams.from_seed(9).parties[2].integers(0, 2, 200)
    assert records.labels[2].tolist() == solo.tolist()


def test_detection_statistics_with_efficiency():
    config = SourceConfig(four_photon_rate=0.7, detector_efficiency=0.8)
    records = _session(60_000, seed=5, config=config)
    detected = records.detected.sum()
    p = (1 - math.exp(-0.7)) * 0.8**4
    sigma = math.sqrt(p * (1 - p) * len(records))
    assert abs(detected - p * len(records)) < 3 * sigma


def test_outcome_marginal_chisquare():
    config = SourceConfig(four_photon_rate=4.0)
    schedules = tuple(PartySchedule(phases=(0.0, 0.0)) for _ in range(4))
    records = _session(40_000, seed=6, config=config, schedules=schedules)
    bits = records.bits_at(np.nonzero(records.detected)[0]).astype(np.int64)
    dist = outcome_distribution(make_psi4_minus(), (0.0,) * 4)
    counts = np.bincount((bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3], minlength=16)
    support = dist.probs > 1e-12
    assert counts[~support].sum() == 0
    expected = dist.probs[support] * counts.sum()
    _, p_value = stats.chisquare(counts[support], expected)
    assert p_value > 0.001


def test_count_all_mode_yields_extra_records():
    config = SourceConfig(four_photon_rate=2.0, first_event_only=False)
    records = _session(5000, seed=7, config=config)
    assert len(records) > 5000
    assert (np.diff(records.rounds) >= 0).all()
    detected = records.detected.sum()
    expect = 2.0 * 5000
    assert abs(detected - expect) < 3 * math.sqrt(expect)
    # undetected windows still produce exactly one placeholder record
    shared = np.bincount(records.rounds)[records.rounds] > 1
    assert records.detected[shared].all()


def test_record_file_roundtrip(tmp_path):
    path = tmp_path / "session.records"
    for config, n in ((SourceConfig(four_photon_rate=1.0), 300),  # first event per window
                      (SourceConfig(four_photon_rate=2.0, first_event_only=False), 300),
                      (SourceConfig(), 0)):  # header only
        records = _session(n, seed=8, config=config)
        write_records(records, path)
        assert read_records(path) == records
        lines = path.read_text().splitlines()
        assert lines[0] == RECORD_HEADER and len(lines) == 1 + len(records)


def test_record_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.records"
    v1_header = "round_index,label_a,label_b,label_c,label_d,phi_a,phi_b,phi_c,phi_d,detected,bits"
    for text in ("nope\n", "", f"{v1_header}\n0,0,0,0,0,0.0,0.0,0.0,0.0,0,-\n",
                 f"{RECORD_HEADER}\r\n0,0000,-1\n", RECORD_HEADER):
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="header"):
            read_records(path)


def test_session_data_views():
    records = _session(400, seed=10, config=SourceConfig(four_photon_rate=1.0))
    assert len(records) == 400
    assert sum(getattr(records, f.name).nbytes for f in fields(SessionData)) == 13 * 400
    positions = np.nonzero(records.detected)[0]
    bits = records.bits_at(positions)
    assert bits.shape == (4, len(positions)) and bits.dtype == np.uint8
    assert [tuple(col) for col in bits.T.tolist()] == [
        tuple(int(records.outcomes[i]) >> shift & 1 for shift in (3, 2, 1, 0)) for i in positions
    ]
    columns = (records.rounds, records.labels, records.outcomes)
    head = SessionData(*(col[..., :150] for col in columns))
    tail = SessionData(*(col[..., 150:] for col in columns))
    assert SessionData.concat([head, tail]) == records
    assert head != records


def _write_lines(path, *lines):
    path.write_text("\n".join((RECORD_HEADER,) + lines) + "\n")


@pytest.mark.parametrize(
    "line, problem",
    [
        ("1,0110,0123", "line 3 of"),
        ("1,0110,01", "line 3 of"),
        ("1,0110,01010", "line 3 of"),
        ("1,0110,-", "bad record line"),
        ("1,0110,-01", "line 3 of"),
        ("1,0110,-2", "line 3 of"),
        ("1,0120,0101", "line 3 of"),
        ("1,011,0101", "line 3 of"),
        ("1,01101,0101", "line 3 of"),
        ("1,0110,0101,0", "line 3 of"),
        ("1,0110", "bad record line"),
        ("1,0110,x", "bad record line"),
        (" 1,0110,0101", "line 3 of"),
        ("1 ,0110,0101", "line 3 of"),
        ("+1,0110,0101", "line 3 of"),
        ("01,0110,0101", "line 3 of"),
        ("1,0,1,1,0,0.0,0.0,0.0,0.0,1,0101", "line 3 of"),
        ("-1,0000,-1", "round index -1"),
    ],
)
def test_record_file_rejects_bad_fields(tmp_path, line, problem):
    path = tmp_path / "bad.records"
    _write_lines(path, "0,0000,-1", line)
    with pytest.raises(ValueError, match=problem):
        read_records(path)
    _write_lines(path, "0,0000,-1")
    assert len(read_records(path)) == 1


_MANY_LINES = "".join(f"{i},0000,-1\n" for i in range(70_000)).encode()


@pytest.mark.parametrize(
    "body, line",
    [
        (b"0,0000,-1\n\n1,0000,-1\n", 3),
        (b"0,0000,-1\n1,0000,-1\n\n", 4),
        (b"0,0000,-1\n1,0000,-1\r\n", 3),
        (b"0,0000,-1\r\n1,0000,-1\r\n", 2),
        (b"0,0000,-1\n1,0000,-1", 3),
        # a field that does not parse, or a round out of order, is named by its file line too
        (b"0,0000,-1\n1,0110,x\n", 3),
        (b"0,0000,-1\n\n1,0110,x\n", 4),
        (b"0,0000,-1\n\n1,0110\n", 4),
        (b"\n\n0,0000,-1\n1,0110,-\n", 5),
        (_MANY_LINES + b"70000,0110,x\n", 70002),
        (b"0,0000,-1\n2,0000,-1\n1,0000,-1\n", 4),
        (_MANY_LINES + b"-1,0000,-1\n", 70002),
    ],
    ids=["blank-line", "blank-last-line", "crlf-last", "crlf", "no-final-newline",
         "bad-field", "bad-field-after-blank-line", "missing-field-after-blank-line",
         "bad-field-after-two-blank-lines", "bad-field-past-a-chunk", "round-order",
         "round-order-past-a-chunk"],
)
def test_record_file_rejects_bad_line_ends(tmp_path, body, line):
    path = tmp_path / "bad.records"
    path.write_bytes(f"{RECORD_HEADER}\n".encode() + body)
    with pytest.raises(ValueError, match=f"line {line} "):
        read_records(path)


def _reference_text(records):
    """The record file as an f-string per line prints it: a reference independent of the writer."""
    lines = [RECORD_HEADER]
    for r, labels, outcome in zip(records.rounds.tolist(), records.labels.T.tolist(),
                                  records.outcomes.tolist()):
        bits = "-1" if outcome < 0 else format(outcome, "04b")
        lines.append(f"{r},{''.join(map(str, labels))},{bits}")
    return ("\n".join(lines) + "\n").encode()


def _records(rounds, labels, outcomes):
    return SessionData(np.array(rounds, dtype=np.int64),
                       np.array(labels, dtype=np.uint8).reshape(-1, 4).T.copy(),
                       np.array(outcomes, dtype=np.int8))


#: Round indices at digit-width edges, up to 10**12 and the largest int64.
_EDGE_ROUNDS = sorted({0, 1, 2**63 - 1} | {10**k + d for k in range(1, 13) for d in (-1, 0)})


@st.composite
def _record_sessions(draw):
    """Non-decreasing rounds (count-all repeats included), labels and outcomes."""
    n = draw(st.integers(0, 12))
    rounds = draw(st.lists(st.one_of(st.sampled_from(_EDGE_ROUNDS), st.integers(0, 10**12)),
                           min_size=n, max_size=n))
    repeats = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rounds = np.repeat(np.sort(np.array(rounds, dtype=np.int64)), repeats)
    labels = draw(st.lists(st.integers(0, 1), min_size=4 * len(rounds), max_size=4 * len(rounds)))
    outcome = st.just(-1) if draw(st.booleans()) else st.integers(-1, 15)
    outcomes = draw(st.lists(outcome, min_size=len(rounds), max_size=len(rounds)))
    return _records(rounds, labels, outcomes)


@settings(max_examples=100, deadline=None)
@given(_record_sessions(), st.sampled_from([1, 7, 1 << 16]), st.sampled_from([1, 7, 0, 1 << 22]))
@example(_records([], [], []), 1, 1)  # the header alone
def test_record_file_matches_reference_renderer(records, chunk, block):
    text = _reference_text(records)
    # block 0 stands for the length of the first record line
    block = block or len(text.split(b"\n")[1]) + 1
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(qss4.source, "_CHUNK", chunk)
        patch.setattr(qss4.source, "_BLOCK", block)
        path = Path(tmp) / "session.records"
        write_records(records, path)
        assert path.read_bytes() == text
        assert read_records(path) == records


def test_record_text_matches_reference_at_int64_edges(tmp_path):
    rounds = [-2**63, -2**63 + 1, -10**12, -10, -9, -1, 0, 9, 10, 2**63 - 1]
    records = _records(rounds, [1, 0, 1, 1] * len(rounds), [-1, 0, 15, 5, -1, 9, 3, -1, 1, 2])
    path = tmp_path / "session.records"
    write_records(records, path)
    assert path.read_bytes() == _reference_text(records)
    with pytest.raises(ValueError, match=f"round index {-2**63} on line 2 "):
        read_records(path)


@pytest.mark.parametrize("digits", ["9223372036854775808", "18446744073709551616",
                                    "9" * 20, "1" * 25, "1" * 400],
                         ids=["2**63", "2**64", "20-digits", "25-digits", "400-digits"])
def test_record_file_rejects_rounds_past_int64(tmp_path, digits):
    # the parsed round wraps, so its text differs from the line
    path = tmp_path / "bad.records"
    _write_lines(path, "0,0000,-1", f"{digits},0110,0101")
    with pytest.raises(ValueError, match="bad record line 3 of"):
        read_records(path)


def _mutants(text):
    """``text`` with one byte substituted, inserted or deleted, at every position."""
    alphabet = b"\n\r019-, x"
    for at in range(len(text) + 1):
        yield text[:at] + text[at + 1:]
        for byte in alphabet:
            yield text[:at] + bytes([byte]) + text[at:]
            yield text[:at] + bytes([byte]) + text[at + 1:]


@pytest.mark.parametrize("block", [7, 1 << 22])
def test_record_file_single_byte_mutants_are_named_or_exact(tmp_path, monkeypatch, block):
    monkeypatch.setattr(qss4.source, "_BLOCK", block)
    records = _records([0, 9, 9, 10, 99, 100], [0, 1, 1, 0] * 6, [-1, 5, -1, 15, 0, -1])
    path = tmp_path / "session.records"
    write_records(records, path)
    text = path.read_bytes()
    header = len(RECORD_HEADER) + 1
    for mutant in set(_mutants(text)) - {text}:
        path.write_bytes(mutant)
        try:
            parsed = read_records(path)
        except ValueError as error:
            if mutant[:header] != text[:header]:
                assert "header" in str(error)
                continue
            line = re.search(r"line (\d+) of", str(error))
            last = mutant.count(b"\n") + (not mutant.endswith(b"\n"))
            assert line and 2 <= int(line[1]) <= last + 1, (mutant, error)
        else:
            write_records(parsed, path)
            assert path.read_bytes() == mutant


def _walk_one(cache, attack, bases, draws):
    """Eve's final state key for one attacked detection, walked with scalar reads."""
    key = ()
    for mode, basis, u in zip(attack.attacked_modes, bases.tolist(), draws.tolist()):
        p_plus, plus_key, minus_key = cache.collapse_branch(
            key, mode_axis(mode), attack.eve_bases[basis])
        take_plus = u < p_plus
        key = plus_key if take_plus else minus_key
        if key is None:
            key = minus_key if take_plus else plus_key
    return key


def _reference_session(n, schedules, noise, config, seed, attack):
    """Per-window loop over the same streams: the reference for run_session."""
    streams = SessionStreams.from_seed(seed)
    labels = [streams.parties[i].integers(0, 2, n) for i in range(4)]
    phases = [
        tuple((sched.override_phases if sched.override_every and w % sched.override_every == 0
               else sched.phases)[labels[i][w]] for i, sched in enumerate(schedules))
        for w in range(n)
    ]
    counts = streams.source.poisson(config.mean_events_per_window, n)
    if attack is not None and attack.attack_fraction > 0 and attack.attacked_modes:
        attacked = streams.adversary.random(n) < attack.attack_fraction
    else:
        attacked = np.zeros(n, dtype=bool)
    cache = _DistributionCache(make_psi4_minus(), noise)
    events = n if config.first_event_only else int(counts.sum())
    survive = np.all(streams.source.random((events, 4)) < config.detector_efficiency, axis=1)
    uniforms = streams.source.random(events)
    windows = range(n) if config.first_event_only else np.repeat(np.arange(n), counts)
    # Eve's blocks for the m attacked detections, one row each in detection order
    m = sum(1 for event, w in enumerate(windows) if survive[event] and counts[w] > 0 and attacked[w])
    if m:
        shape = (m, len(attack.attacked_modes))
        eve = zip(streams.adversary.integers(len(attack.eve_bases), size=shape),
                  streams.adversary.random(shape))
    hits = [[] for _ in range(n)]
    for event, w in enumerate(windows):
        if survive[event] and counts[w] > 0:
            key = _walk_one(cache, attack, *next(eve)) if attacked[w] else ()
            idx = int(np.searchsorted(cache.cdf(key, phases[w]), uniforms[event], side="right"))
            hits[w].append(idx)
    rows = [(w, idx) for w in range(n) for idx in hits[w] or [-1]]
    row_windows = [w for w, _ in rows]
    return SessionData(
        np.array(row_windows, dtype=np.int64),
        np.array([[l[w] for w in row_windows] for l in labels], dtype=np.uint8).reshape(4, -1),
        np.array([idx for _, idx in rows], dtype=np.int8),
    )


BELL_SCHEDULES = tuple(
    PartySchedule(phases=(math.pi / 4, -math.pi / 4),
                  **({"override_phases": (0.0, math.pi / 2), "override_every": 5} if i == 1 else {}))
    for i in range(4)
)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("first_event_only", [True, False])
@pytest.mark.parametrize("schedules", [SCHEDULES, BELL_SCHEDULES], ids=["qber", "bell"])
@pytest.mark.parametrize("attack", [None, ("b", 0.4), ("bd", 1.0)], ids=["plain", "b", "bd"])
def test_run_session_matches_per_window_reference(seed, first_event_only, schedules, attack):
    if attack is not None:
        attack = AttackConfig(attacked_modes=tuple(attack[0]), eve_bases=(0.0, math.pi / 2),
                              attack_fraction=attack[1])
    noise = NoiseModel(visibility=0.9)
    config = SourceConfig(four_photon_rate=1.5, detector_efficiency=0.9,
                          first_event_only=first_event_only)
    records = run_session(600, schedules, make_psi4_minus(), noise, config,
                          SessionStreams.from_seed(seed), attack=attack)
    reference = _reference_session(600, schedules, noise, config, seed, attack)
    for f in fields(SessionData):
        assert np.array_equal(getattr(records, f.name), getattr(reference, f.name)), f.name


def _state_label(state):
    return tuple((state.amplitudes.round(9) + 0).tolist())


def test_eve_walk_branch_frequencies_match_enumeration():
    attack = AttackConfig(attacked_modes=("b", "d"), eve_bases=(0.0, math.pi / 2))
    cache = _DistributionCache(make_psi4_minus(), NoiseModel())
    rng = np.random.default_rng(21)
    m = 200_000
    keys, node = _eve_walk(cache, attack, rng.integers(2, size=(m, 2)), rng.random((m, 2)))
    found = {}
    for leaf, count in enumerate(np.bincount(node, minlength=len(keys))):
        if count:
            label = _state_label(cache.states[keys[leaf]])
            found[label] = found.get(label, 0) + int(count)
    weights = {}
    for weight, state in enumerate_attack_branches(attack):
        weights[_state_label(state)] = weights.get(_state_label(state), 0.0) + weight
    assert set(found) <= set(weights) and len(weights) > 4
    for label, weight in weights.items():
        sigma = math.sqrt(weight * (1 - weight) / m)
        assert abs(found.get(label, 0) / m - weight) < 5 * sigma


def test_eve_walk_dead_branch_falls_through_to_sibling():
    # mode a is H with probability 1e-17: the +1 branch is dead but its probability is not 0
    amplitudes = np.zeros(16, dtype=np.complex128)
    amplitudes[0b0011] = math.sqrt(1e-17)
    amplitudes[0b1011] = math.sqrt(1 - 1e-17)
    cache = _DistributionCache(PureState(amplitudes), NoiseModel())
    attack = AttackConfig(attacked_modes=("a", "b"), eve_bases=(0.0,))
    draws = np.concatenate([np.zeros((3, 2)), np.random.default_rng(4).random((500, 2))])
    keys, node = _eve_walk(cache, attack, np.zeros((len(draws), 2), dtype=np.int64), draws)
    assert cache.collapse_branch((), 0, 0.0)[0] > 0.0  # a uniform of 0 does pick the dead branch
    assert {keys[leaf] for leaf in node.tolist()} == {((0, 0.0, -1), (1, 0.0, +1))}


def test_eve_walk_cost_independent_of_window_count(monkeypatch):
    calls = {"collapse": 0, "branch": 0}
    collapse = qss4.quantum.collapse_after_single_mode_measurement
    branch = _DistributionCache.collapse_branch

    def counted_collapse(*args):
        calls["collapse"] += 1
        return collapse(*args)

    def counted_branch(*args):
        calls["branch"] += 1
        return branch(*args)

    monkeypatch.setattr(qss4.quantum, "collapse_after_single_mode_measurement", counted_collapse)
    monkeypatch.setattr(_DistributionCache, "collapse_branch", counted_branch)
    attack = AttackConfig(attacked_modes=("b", "d"), eve_bases=(0.0, math.pi / 2))
    counts = []
    for n in (10_000, 100_000):
        calls.update(collapse=0, branch=0)
        run_session(n, BELL_SCHEDULES, make_psi4_minus(), NoiseModel(visibility=0.97),
                    SourceConfig(four_photon_rate=3.0), SessionStreams.from_seed(5), attack=attack)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["branch"] == 2 + 8  # one call per (node, basis) pair: level b, then level d
