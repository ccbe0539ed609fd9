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
    MSG_HASH_SEED,
    MSG_PARITY,
    MSG_SAMPLE_REQUEST,
    MSG_SAMPLE_REVEAL,
    MSG_SIFT,
    PARTIES,
    Channel,
    ProtocolMessage,
    TranscriptAuditError,
    WireError,
    audit_outcome_hygiene,
    decode_wire,
    encode_wire,
    iter_frames,
)

REPRESENTATIVE = [
    ProtocolMessage(MSG_SAMPLE_REQUEST, "Bob", {"positions": [0, 3, 7]}),
    ProtocolMessage(MSG_BASIS, "Bob", {"indices": [0, 3], "labels": [1, 0]}),
    ProtocolMessage(MSG_SIFT, "Alice", {"key_indices": [3], "bell_indices": []}),
    ProtocolMessage(MSG_SAMPLE_REQUEST, "Alice", {"positions": [1, 2]}),
    ProtocolMessage(MSG_SAMPLE_REVEAL, "Claire", {"bits": [0, 1]}),
    ProtocolMessage(MSG_BELL_REVEAL, "David", {"bits": [1]}),
    ProtocolMessage(
        MSG_PARITY,
        "Alice",
        {"kind": "block_parities", "pass_index": 0, "ranges": [[0, 15]], "parities": [1]},
    ),
    ProtocolMessage(MSG_HASH_SEED, "Alice", {"bits_hex": "a0ff", "n_in": 10, "n_out": 7}),
    ProtocolMessage(MSG_CIPHERTEXT, "Alice", {"bits_hex": "0b", "length": 6}),
    ProtocolMessage(MSG_ABORT, "Alice", {"kind": "qber", "reason": "check failed", "estimate": 0.3, "threshold": 0.11}),
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


#: A party's basis announcement is its detection announcement, so the separate
#: detection message of older transcripts is an unknown type.
RETIRED_TYPE = "DetectionAnnouncement"
RETIRED_FRAME = _raw_frame(
    {"type": RETIRED_TYPE, "sender": "Bob", "payload": {"indices": [0, 3]}}
)


def test_wire_unknown_type_is_named():
    frame = _raw_frame({"type": "Gossip", "sender": "Alice", "payload": {}})
    with pytest.raises(WireError, match="Gossip"):
        decode_wire(frame)
    with pytest.raises(WireError, match="unknown type 'Gossip'"):
        ProtocolMessage("Gossip", "Alice", {})
    with pytest.raises(WireError, match=f"unknown type '{RETIRED_TYPE}'"):
        decode_wire(RETIRED_FRAME)


def test_message_schema_enforced():
    with pytest.raises(WireError, match="unexpected keys"):
        ProtocolMessage(MSG_SAMPLE_REQUEST, "Bob", {"bogus": 1})
    # announcements can never carry outcome bits
    with pytest.raises(WireError, match="outcome material"):
        ProtocolMessage(MSG_BASIS, "Bob", {"indices": [0], "labels": [1], "bits": [1]})
    with pytest.raises(WireError, match="unknown sender"):
        ProtocolMessage(MSG_SAMPLE_REQUEST, "Eve", {"positions": []})
    # a reveal answers in the order the dealer named the positions, so it repeats none
    for reveal in (MSG_SAMPLE_REVEAL, MSG_BELL_REVEAL):
        old = _raw_frame({"type": reveal, "sender": "Bob", "payload": {"positions": [1], "bits": [0]}})
        with pytest.raises(WireError, match=r"unexpected keys \['positions'\]"):
            decode_wire(old)


def test_payload_jsonified():
    msg = ProtocolMessage(
        MSG_SAMPLE_REQUEST, "Bob", {"positions": [np.int64(4), np.int64(9)]}
    )
    assert msg.payload == {"positions": [4, 9]}
    assert decode_wire(encode_wire(msg)) == msg


def test_payload_copied_and_test_encoded():
    indices = [1, 2]
    msg = ProtocolMessage(MSG_BASIS, "Bob", {"indices": indices, "labels": (0, 1)})
    frame = encode_wire(msg)
    indices.append(3)
    assert msg.payload == {"indices": [1, 2], "labels": [0, 1]}
    assert encode_wire(msg) == frame
    for bad in (object(), np.array([1, 2])):
        with pytest.raises(TypeError, match="not wire-encodable"):
            ProtocolMessage(MSG_SAMPLE_REQUEST, "Bob", {"positions": bad})


_payload_strategies = {
    MSG_BASIS: st.fixed_dictionaries(
        {
            "indices": st.lists(st.integers(0, 10_000), max_size=20),
            "labels": st.lists(st.integers(0, 1), max_size=20),
        }
    ),
    MSG_SAMPLE_REVEAL: st.fixed_dictionaries({"bits": st.lists(st.integers(0, 1), max_size=20)}),
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
        payload=draw(_payload_strategies[msg_type]),
    )


@settings(max_examples=150, deadline=None)
@given(messages())
def test_wire_roundtrip_property(msg):
    frame = encode_wire(msg)
    assert decode_wire(frame) == msg
    # the spliced frame equals one sorted, compact encode of the whole object
    whole = {"type": msg.msg_type, "sender": msg.sender, "payload": msg.payload}
    assert frame[4:] == json.dumps(whole, sort_keys=True, separators=(",", ":")).encode()


def test_channel_fifo_and_roundtrip():
    ch = Channel()
    first = ProtocolMessage(MSG_SAMPLE_REQUEST, "Bob", {"positions": [1]})
    second = ProtocolMessage(MSG_SAMPLE_REQUEST, "Bob", {"positions": [2]})
    ch.send(first, to="Alice")
    ch.send(second, to="Alice")
    assert ch.drain("Alice") == [first, second]
    assert ch.drain("Alice") == []


def test_channel_broadcast():
    ch = Channel()
    msg = ProtocolMessage(MSG_SIFT, "Alice", {"key_indices": [], "bell_indices": []})
    ch.broadcast(msg)
    for party in ("Bob", "Claire", "David"):
        assert ch.drain(party) == [msg]
    assert ch.drain("Alice") == []
    assert ch.transcript == (msg,)


def test_channel_per_sender_order_with_interleaving():
    ch = Channel()
    for i in range(3):
        ch.broadcast(ProtocolMessage(MSG_SAMPLE_REQUEST, "Bob", {"positions": [i]}))
        ch.broadcast(ProtocolMessage(MSG_SAMPLE_REQUEST, "Claire", {"positions": [i]}))
    inbox = ch.drain("David")
    bob_tags = [m.payload["positions"][0] for m in inbox if m.sender == "Bob"]
    claire_tags = [m.payload["positions"][0] for m in inbox if m.sender == "Claire"]
    assert bob_tags == [0, 1, 2]
    assert claire_tags == [0, 1, 2]


def test_channel_concurrent_senders():
    per_thread = 400
    sent: list[ProtocolMessage] = []
    sent_lock = threading.Lock()
    ch = Channel()
    start = threading.Barrier(len(PARTIES))

    def produce(sender: str) -> None:
        to = PARTIES[(PARTIES.index(sender) + 1) % len(PARTIES)]
        msgs = [
            ProtocolMessage(MSG_SAMPLE_REQUEST, sender, {"positions": [i]})
            for i in range(per_thread)
        ]
        start.wait(timeout=30)
        for i, msg in enumerate(msgs):
            if i % 2:
                ch.broadcast(msg)
            else:
                ch.send(msg, to=to)
        with sent_lock:
            sent.extend(msgs)

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
    # every sent message object is in the transcript exactly once
    assert len(sent) == total
    assert sorted(map(id, transcript)) == sorted(map(id, sent))
    position = {id(m): k for k, m in enumerate(transcript)}
    broadcast_tags = list(range(1, per_thread, 2))
    for party in PARTIES:
        inbox = ch.drain(party)
        # one lock orders sends and deliveries alike
        delivered = [position[id(m)] for m in inbox]
        assert delivered == sorted(delivered)
        previous = PARTIES[PARTIES.index(party) - 1]
        for sender in PARTIES:
            tags = [m.payload["positions"][0] for m in inbox if m.sender == sender]
            if sender == party:
                assert tags == []
            elif sender == previous:
                assert tags == list(range(per_thread))
            else:
                assert tags == broadcast_tags


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
    basis = {"type": MSG_BASIS, "sender": "Bob"}
    frame = _raw_frame({**basis, "payload": {"indices": [0], "labels": [1], "bits": [1]}})
    with pytest.raises(TranscriptAuditError, match="outcome material"):
        audit_outcome_hygiene(frame)
    frame = _raw_frame({**basis, "payload": {"indices": [0], "labels": [1], "note": "x"}})
    with pytest.raises(TranscriptAuditError, match=f"message 1: {MSG_BASIS} carries unexpected keys"):
        audit_outcome_hygiene(encode_wire(REPRESENTATIVE[0]) + frame)


def test_audit_rejects_unknown_type():
    with pytest.raises(TranscriptAuditError, match="unknown type"):
        audit_outcome_hygiene([{"type": "Gossip", "payload": {}}])
    with pytest.raises(TranscriptAuditError, match=f"message 1: unknown type '{RETIRED_TYPE}'"):
        audit_outcome_hygiene(encode_wire(REPRESENTATIVE[1]) + RETIRED_FRAME)


def test_frame_with_round_key_is_rejected():
    old = _raw_frame({"type": MSG_SAMPLE_REQUEST, "sender": "Bob", "round": None,
                      "payload": {"positions": [1]}})
    with pytest.raises(WireError, match="type/sender/payload"):
        decode_wire(old)
    with pytest.raises(WireError, match="type/sender/payload"):
        decode_wire(old, validate=False)
    with pytest.raises(WireError, match="type/sender/payload"):
        audit_outcome_hygiene(encode_wire(REPRESENTATIVE[0]) + old)
