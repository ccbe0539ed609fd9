import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss4.channel import (
    MSG_ABORT,
    MSG_BASIS,
    MSG_BELL_REVEAL,
    MSG_CIPHERTEXT,
    MSG_DETECTION,
    MSG_HASH_SEED,
    MSG_PARITY,
    MSG_SAMPLE_REQUEST,
    MSG_SAMPLE_REVEAL,
    MSG_SIFT,
    PARTIES,
    Channel,
    ChannelClosedError,
    ProtocolMessage,
    TranscriptAuditError,
    WireError,
    audit_outcome_hygiene,
    decode_wire,
    encode_wire,
    iter_frames,
)

REPRESENTATIVE = [
    ProtocolMessage(MSG_DETECTION, "Bob", None, {"indices": [0, 3, 7]}),
    ProtocolMessage(MSG_BASIS, "Bob", None, {"indices": [0, 3], "labels": [1, 0]}),
    ProtocolMessage(MSG_SIFT, "Alice", None, {"key_indices": [3], "bell_indices": []}),
    ProtocolMessage(MSG_SAMPLE_REQUEST, "Alice", None, {"positions": [1, 2]}),
    ProtocolMessage(MSG_SAMPLE_REVEAL, "Claire", None, {"positions": [1, 2], "bits": [0, 1]}),
    ProtocolMessage(MSG_BELL_REVEAL, "David", None, {"positions": [5], "bits": [1]}),
    ProtocolMessage(
        MSG_PARITY,
        "Alice",
        [0, 128],
        {"kind": "block_parities", "pass_index": 0, "ranges": [[0, 15]], "parities": [1]},
    ),
    ProtocolMessage(MSG_HASH_SEED, "Alice", None, {"bits_hex": "a0ff", "n_in": 10, "n_out": 7}),
    ProtocolMessage(MSG_CIPHERTEXT, "Alice", None, {"bits_hex": "0b", "length": 6}),
    ProtocolMessage(MSG_ABORT, "Alice", None, {"kind": "qber", "reason": "check failed", "estimate": 0.3, "threshold": 0.11}),
]


def test_wire_roundtrip_all_types():
    for msg in REPRESENTATIVE:
        assert decode_wire(encode_wire(msg)) == msg


def test_wire_truncated_and_mismatched():
    frame = encode_wire(REPRESENTATIVE[0])
    with pytest.raises(WireError, match="length mismatch"):
        decode_wire(frame[:-2])
    with pytest.raises(WireError, match="shorter"):
        decode_wire(frame[:3])
    with pytest.raises(WireError, match="length mismatch"):
        decode_wire(frame + b"xx")


def _raw_frame(obj) -> bytes:
    """A frame built outside the codec, so the strict constructor never sees it."""
    body = json.dumps(obj).encode()
    return len(body).to_bytes(4, "big") + body


def test_wire_unknown_type_is_named():
    frame = _raw_frame({"type": "Gossip", "sender": "Alice", "round": None, "payload": {}})
    with pytest.raises(WireError, match="Gossip"):
        decode_wire(frame)
    with pytest.raises(WireError, match="unknown type 'Gossip'"):
        ProtocolMessage("Gossip", "Alice", None, {})


def test_message_schema_enforced():
    with pytest.raises(WireError, match="unexpected keys"):
        ProtocolMessage(MSG_DETECTION, "Bob", None, {"bogus": 1})
    # announcements can never carry outcome bits
    with pytest.raises(WireError, match="outcome material"):
        ProtocolMessage(MSG_BASIS, "Bob", None, {"indices": [0], "labels": [1], "bits": [1]})
    with pytest.raises(WireError, match="unknown sender"):
        ProtocolMessage(MSG_DETECTION, "Eve", None, {"indices": []})


def test_payload_jsonified():
    msg = ProtocolMessage(
        MSG_DETECTION, "Bob", None, {"indices": [np.int64(4), np.int64(9)]}
    )
    assert msg.payload == {"indices": [4, 9]}
    assert decode_wire(encode_wire(msg)) == msg


def test_payload_copied_and_test_encoded():
    indices = [1, 2]
    msg = ProtocolMessage(MSG_BASIS, "Bob", None, {"indices": indices, "labels": (0, 1)})
    frame = encode_wire(msg)
    indices.append(3)
    assert msg.payload == {"indices": [1, 2], "labels": [0, 1]}
    assert encode_wire(msg) == frame
    for bad in (object(), np.array([1, 2])):
        with pytest.raises(TypeError, match="not wire-encodable"):
            ProtocolMessage(MSG_DETECTION, "Bob", None, {"indices": bad})


_payload_strategies = {
    MSG_DETECTION: st.fixed_dictionaries(
        {"indices": st.lists(st.integers(0, 10_000), max_size=20)}
    ),
    MSG_SAMPLE_REVEAL: st.fixed_dictionaries(
        {
            "positions": st.lists(st.integers(0, 5000), max_size=20),
            "bits": st.lists(st.integers(0, 1), max_size=20),
        }
    ),
    MSG_PARITY: st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["block_parities", "search_parity", "verify"]),
            "parities": st.lists(st.integers(0, 1), max_size=10),
            "ranges": st.lists(
                st.tuples(st.integers(0, 100), st.integers(0, 100)).map(list), max_size=10
            ),
        }
    ),
    MSG_ABORT: st.fixed_dictionaries(
        {"reason": st.text(max_size=30), "estimate": st.floats(0, 1), "threshold": st.floats(0, 1)}
    ),
}


@st.composite
def messages(draw):
    msg_type = draw(st.sampled_from(sorted(_payload_strategies)))
    return ProtocolMessage(
        msg_type=msg_type,
        sender=draw(st.sampled_from(PARTIES)),
        round=draw(
            st.one_of(
                st.none(),
                st.integers(0, 10_000),
                st.tuples(st.integers(0, 100), st.integers(0, 100)).map(list),
            )
        ),
        payload=draw(_payload_strategies[msg_type]),
    )


@settings(max_examples=150, deadline=None)
@given(messages())
def test_wire_roundtrip_property(msg):
    frame = encode_wire(msg)
    assert decode_wire(frame) == msg
    # the spliced frame equals one sorted, compact encode of the whole object
    whole = {"type": msg.msg_type, "sender": msg.sender, "round": msg.round,
             "payload": msg.payload}
    assert frame[4:] == json.dumps(whole, sort_keys=True, separators=(",", ":")).encode()


def test_channel_fifo_and_roundtrip():
    ch = Channel()
    first = ProtocolMessage(MSG_DETECTION, "Bob", None, {"indices": [1]})
    second = ProtocolMessage(MSG_DETECTION, "Bob", None, {"indices": [2]})
    ch.send(first, to="Alice")
    ch.send(second, to="Alice")
    assert ch.recv("Alice") == first
    assert ch.recv("Alice") == second
    assert ch.recv("Alice") is None


def test_channel_broadcast():
    ch = Channel()
    msg = ProtocolMessage(MSG_SIFT, "Alice", None, {"key_indices": [], "bell_indices": []})
    receipts = ch.broadcast(msg)
    assert {r.recipient for r in receipts} == {"Bob", "Claire", "David"}
    for party in ("Bob", "Claire", "David"):
        assert ch.recv(party) == msg
    assert ch.recv("Alice") is None


def test_channel_per_sender_order_with_interleaving():
    ch = Channel()
    for i in range(3):
        ch.broadcast(ProtocolMessage(MSG_DETECTION, "Bob", i, {"indices": [i]}))
        ch.broadcast(ProtocolMessage(MSG_DETECTION, "Claire", i, {"indices": [i]}))
    inbox = ch.drain("David")
    bob_rounds = [m.round for m in inbox if m.sender == "Bob"]
    claire_rounds = [m.round for m in inbox if m.sender == "Claire"]
    assert bob_rounds == [0, 1, 2]
    assert claire_rounds == [0, 1, 2]


def test_channel_concurrent_senders():
    per_thread = 400
    seqs: list[int] = []
    seqs_lock = threading.Lock()
    ch = Channel()
    start = threading.Barrier(len(PARTIES))

    def produce(sender: str) -> None:
        to = PARTIES[(PARTIES.index(sender) + 1) % len(PARTIES)]
        msgs = [
            ProtocolMessage(MSG_DETECTION, sender, i, {"indices": [i]}) for i in range(per_thread)
        ]
        mine = []
        start.wait(timeout=30)
        for i, msg in enumerate(msgs):
            if i % 2:
                mine.append(ch.broadcast(msg)[0].seq)
            else:
                mine.append(ch.send(msg, to=to).seq)
        with seqs_lock:
            seqs.extend(mine)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=produce, args=(p,)) for p in PARTIES]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)

    total = per_thread * len(PARTIES)
    transcript = ch.transcript
    assert len(transcript) == total
    assert sorted(seqs) == list(range(total))
    position = {id(m): k for k, m in enumerate(transcript)}
    broadcast_rounds = list(range(1, per_thread, 2))
    for party in PARTIES:
        inbox = ch.drain(party)
        # one lock orders sends and deliveries alike
        delivered = [position[id(m)] for m in inbox]
        assert delivered == sorted(delivered)
        previous = PARTIES[PARTIES.index(party) - 1]
        for sender in PARTIES:
            rounds = [m.round for m in inbox if m.sender == sender]
            if sender == party:
                assert rounds == []
            elif sender == previous:
                assert rounds == list(range(per_thread))
            else:
                assert rounds == broadcast_rounds


def test_channel_closed():
    ch = Channel()
    ch.close()
    with pytest.raises(ChannelClosedError):
        ch.send(REPRESENTATIVE[0], to="Alice")
    with pytest.raises(ChannelClosedError):
        ch.broadcast(REPRESENTATIVE[0])


def test_channel_unknown_recipient():
    ch = Channel()
    with pytest.raises(KeyError):
        ch.send(REPRESENTATIVE[0], to="Eve")


def test_transcript_dump_roundtrip(tmp_path):
    ch = Channel()
    for msg in REPRESENTATIVE:
        ch.broadcast(msg)
    path = tmp_path / "transcript.bin"
    ch.dump_transcript(path)
    loaded = list(iter_frames(path.read_bytes()))
    assert loaded == list(ch.transcript)


def test_audit_accepts_clean_transcript():
    assert audit_outcome_hygiene(REPRESENTATIVE) == len(REPRESENTATIVE)


def test_audit_rejects_outcome_bits_in_announcement():
    basis = {"type": MSG_BASIS, "sender": "Bob", "round": None}
    frame = _raw_frame({**basis, "payload": {"indices": [0], "labels": [1], "bits": [1]}})
    with pytest.raises(TranscriptAuditError, match="outcome material"):
        audit_outcome_hygiene(frame)
    frame = _raw_frame({**basis, "payload": {"indices": [0], "labels": [1], "note": "x"}})
    with pytest.raises(TranscriptAuditError, match=f"message 1: {MSG_BASIS} carries unexpected keys"):
        audit_outcome_hygiene(encode_wire(REPRESENTATIVE[0]) + frame)


def test_audit_rejects_unknown_type():
    with pytest.raises(TranscriptAuditError, match="unknown type"):
        audit_outcome_hygiene([{"type": "Gossip", "payload": {}}])
