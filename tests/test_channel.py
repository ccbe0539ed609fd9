import binascii
import json
import sys
import threading
import zlib

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
    decode_mask,
    decode_wire,
    encode_mask,
    encode_wire,
    iter_frames,
    payload_masks,
)
from qss4.protocol import _dealer_parities, _dealer_table


def _mask(n, positions=()):
    mask = np.zeros(n, dtype=np.uint8)
    mask[list(positions)] = 1
    return encode_mask(mask)


def _tag(sender, i):
    """A sample request over ``i`` key bits, so ``payload["n"]`` tags it."""
    return ProtocolMessage(MSG_SAMPLE_REQUEST, sender, {"n": i, "sample": _mask(i)})


REPRESENTATIVE = [
    ProtocolMessage(MSG_SAMPLE_REQUEST, "Bob", {"n": 8, "sample": _mask(8, [0, 3, 7])}),
    ProtocolMessage(MSG_BASIS, "Bob", {"n": 5, "detected": _mask(5, [0, 3]),
                                       "labels": _mask(2, [0])}),
    ProtocolMessage(MSG_SIFT, "Alice", {"n": 5, "key": _mask(5, [3]), "bell": _mask(5)}),
    ProtocolMessage(MSG_SAMPLE_REQUEST, "Alice", {"n": 3, "sample": _mask(3, [1, 2])}),
    ProtocolMessage(MSG_SAMPLE_REVEAL, "Claire", {"n": 2, "bits": _mask(2, [1])}),
    ProtocolMessage(MSG_BELL_REVEAL, "David", {"n": 1, "bits": _mask(1, [0])}),
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

#: Payloads of the list-based wire format, where every position set was a
#: JSON list, and the position key of each.
OLD_PAYLOADS = {
    MSG_BASIS: ({"indices": [0, 3], "labels": [1, 0]}, "indices"),
    MSG_SIFT: ({"key_indices": [3], "bell_indices": []}, "key_indices"),
    MSG_SAMPLE_REQUEST: ({"positions": [1, 2]}, "positions"),
}


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
        ProtocolMessage(MSG_BASIS, "Bob", {**REPRESENTATIVE[1].payload, "bits": [1]})
    with pytest.raises(WireError, match="unknown sender"):
        ProtocolMessage(MSG_SAMPLE_REQUEST, "Eve", {"n": 0, "sample": _mask(0)})
    # a frame of the list-based format fails at the boundary, with no version check
    for msg_type, (payload, key) in OLD_PAYLOADS.items():
        old = _raw_frame({"type": msg_type, "sender": "Alice", "payload": payload})
        with pytest.raises(WireError, match=rf"unexpected keys \[.*'{key}'"):
            decode_wire(old)
    # a reveal answers in the order the dealer named the positions, so it repeats none
    for reveal in (MSG_SAMPLE_REVEAL, MSG_BELL_REVEAL):
        old = _raw_frame({"type": reveal, "sender": "Bob", "payload": {"positions": [1], "bits": [0]}})
        with pytest.raises(WireError, match=r"unexpected keys \['positions'\]"):
            decode_wire(old)


def test_payload_jsonified():
    msg = ProtocolMessage(MSG_SAMPLE_REQUEST, "Bob", {"n": np.int64(9), "sample": _mask(9, [4])})
    assert msg.payload == {"n": 9, "sample": _mask(9, [4])}
    assert decode_wire(encode_wire(msg)) == msg


def test_payload_copied_and_test_encoded():
    bits = [1, 2]
    msg = ProtocolMessage(MSG_SAMPLE_REVEAL, "Bob", {"bits": bits})
    frame = encode_wire(msg)
    bits.append(3)
    assert msg.payload == {"bits": [1, 2]}
    assert encode_wire(msg) == frame
    for bad in (object(), np.array([1, 2])):
        with pytest.raises(TypeError, match="not wire-encodable"):
            ProtocolMessage(MSG_SAMPLE_REQUEST, "Bob", {"n": 2, "sample": bad})


@st.composite
def _announcements(draw):
    detected = np.array(draw(st.lists(st.integers(0, 1), max_size=40)), dtype=np.uint8)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=int(detected.sum()),
                                    max_size=int(detected.sum()))), dtype=np.uint8)
    return {"n": len(detected), "detected": encode_mask(detected), "labels": encode_mask(labels)}


@st.composite
def _reveals(draw):
    bits = np.array(draw(st.lists(st.integers(0, 1), max_size=20)), dtype=np.uint8)
    return {"n": len(bits), "bits": encode_mask(bits)}


_payload_strategies = {
    MSG_BASIS: _announcements(),
    MSG_SAMPLE_REVEAL: _reveals(),
    MSG_BELL_REVEAL: _reveals(),
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
    first, second = _tag("Bob", 1), _tag("Bob", 2)
    ch.send(first, to="Alice")
    ch.send(second, to="Alice")
    assert ch.drain("Alice") == [first, second]
    assert ch.drain("Alice") == []


def test_channel_broadcast():
    ch = Channel()
    msg = REPRESENTATIVE[2]
    ch.broadcast(msg)
    for party in ("Bob", "Claire", "David"):
        assert ch.drain(party) == [msg]
    assert ch.drain("Alice") == []
    assert ch.transcript == (msg,)


def test_channel_per_sender_order_with_interleaving():
    ch = Channel()
    for i in range(3):
        ch.broadcast(_tag("Bob", i))
        ch.broadcast(_tag("Claire", i))
    inbox = ch.drain("David")
    bob_tags = [m.payload["n"] for m in inbox if m.sender == "Bob"]
    claire_tags = [m.payload["n"] for m in inbox if m.sender == "Claire"]
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
        msgs = [_tag(sender, i) for i in range(per_thread)]
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
            tags = [m.payload["n"] for m in inbox if m.sender == sender]
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
    announced = REPRESENTATIVE[1].payload
    frame = _raw_frame({**basis, "payload": {**announced, "bits": [1]}})
    with pytest.raises(TranscriptAuditError, match="outcome material"):
        audit_outcome_hygiene(frame)
    frame = _raw_frame({**basis, "payload": {**announced, "note": "x"}})
    with pytest.raises(TranscriptAuditError, match=f"message 1: {MSG_BASIS} carries unexpected keys"):
        audit_outcome_hygiene(encode_wire(REPRESENTATIVE[0]) + frame)


def test_audit_rejects_unknown_type():
    with pytest.raises(TranscriptAuditError, match="unknown type"):
        audit_outcome_hygiene([{"type": "Gossip", "payload": {}}])
    with pytest.raises(TranscriptAuditError, match=f"message 1: unknown type '{RETIRED_TYPE}'"):
        audit_outcome_hygiene(encode_wire(REPRESENTATIVE[1]) + RETIRED_FRAME)


def test_frame_with_round_key_is_rejected():
    old = _raw_frame({"type": MSG_SAMPLE_REQUEST, "sender": "Bob", "round": None,
                      "payload": REPRESENTATIVE[0].payload})
    with pytest.raises(WireError, match="type/sender/payload"):
        decode_wire(old)
    with pytest.raises(WireError, match="type/sender/payload"):
        decode_wire(old, validate=False)
    with pytest.raises(WireError, match="type/sender/payload"):
        audit_outcome_hygiene(encode_wire(REPRESENTATIVE[0]) + old)


@settings(max_examples=120, deadline=None)
@given(
    n=st.sampled_from([0, 1, 7, 8, 9]) | st.integers(0, 5000),
    density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_roundtrip(n, density, seed):
    rng = np.random.default_rng(seed)
    detected = (rng.random(n) < density).astype(np.uint8)
    labels = rng.integers(0, 2, int(detected.sum()), dtype=np.uint8)
    assert np.array_equal(decode_mask(encode_mask(detected), n), detected)
    payload = {"n": n, "detected": encode_mask(detected), "labels": encode_mask(labels)}
    msg = decode_wire(encode_wire(ProtocolMessage(MSG_BASIS, "Bob", payload)))
    masks = payload_masks(MSG_BASIS, msg.payload)
    assert np.array_equal(masks["detected"], detected)
    assert np.array_equal(masks["labels"], labels)
    table = _dealer_table(np.full((4, n), -1, dtype=np.int8), [msg])
    assert np.array_equal(table[1][detected == 1], labels)
    assert (table[1][detected == 0] == -1).all() and (table[[0, 2, 3]] == -1).all()


def _b64(stream: bytes) -> str:
    return binascii.b2a_base64(stream, newline=False).decode()


def _bad_bitmaps(mask):
    """Bitmap faults every wire bitmap must reject: case -> (text, error).

    ``mask`` has 13 entries and a zero last padding bit, as do both callers'.
    """
    text = encode_mask(mask)
    stream = binascii.a2b_base64(text)
    padded = np.packbits(mask)
    padded[-1] |= 1
    return {
        "non-zero padding bits": (_b64(zlib.compress(padded.tobytes(), 1)), "padding bits"),
        "corrupt zlib checksum": (_b64(stream[:-1] + bytes([stream[-1] ^ 1])),
                                  "incorrect data check"),
        "truncated zlib stream": (_b64(stream[:-1]), "complete zlib stream"),
        "trailing bytes": (_b64(stream + b"\0"), "complete zlib stream"),
        "truncated text": (text[:-1], "Incorrect padding"),
        "not base64": ("zz", "Incorrect padding"),
        "not ASCII": ("\u00e9" * 4, "only ASCII characters"),
        "base64 with a newline": (text + "\n", "canonical base64"),
        "base64 with a space": (text[:4] + " " + text[4:], "canonical base64"),
        "base64 with non-zero pad bits": (text[:-3] + chr(ord(text[-3]) + 1) + text[-2:],
                                          "canonical base64"),
        "base64 without its padding": (text.rstrip("="), "Incorrect padding"),
        "inflates past ceil(n/8)": (_b64(zlib.compress(bytes(1 << 20), 1)),
                                    "13 entries take 2 bytes, got more"),
    }


def _bad_announcements():
    """Announcements over 13 records that must never decode: case -> (payload, error)."""
    n = 13
    detected = np.zeros(n, dtype=np.uint8)
    detected[[0, 2, 5, 12]] = 1
    good = {"n": n, "detected": encode_mask(detected), "labels": encode_mask([1, 0, 1, 1])}
    cases = {case: ({**good, "detected": text}, error)
             for case, (text, error) in _bad_bitmaps(detected).items()}
    return {
        **cases,
        "wrong n": ({**good, "n": n + 8}, "21 entries take 3 bytes, got 2"),
        "n not an int": ({**good, "n": 13.0}, "non-negative int"),
        "labels longer than popcount": (
            {**good, "labels": encode_mask(np.ones(12, np.uint8))},
            "4 entries take 1 bytes, got more"),
        "labels shorter than popcount": (
            {**good, "labels": encode_mask(np.zeros(0, np.uint8))},
            "4 entries take 1 bytes, got 0"),
        "old hex bitmap": ({**good, "detected": zlib.compress(np.packbits(detected), 1).hex()},
                           "incorrect header check"),
        "missing key": ({"n": n, "detected": good["detected"]}, r"lacks keys \['labels'\]"),
    }


@pytest.mark.parametrize("case", sorted(_bad_announcements()))
def test_bad_announcement_is_wire_error(case):
    payload, error = _bad_announcements()[case]
    with pytest.raises(WireError, match=error):
        decode_wire(_raw_frame({"type": MSG_BASIS, "sender": "Bob", "payload": payload}))
    table = np.full((4, 13), -1, dtype=np.int8)
    with pytest.raises(WireError, match=error):
        _dealer_table(table, [ProtocolMessage(MSG_BASIS, "Bob", payload)])
    assert (table == -1).all()


def _bad_reveals():
    """Reveals of the 13 bits the dealer named that must never decode: case -> (payload, error)."""
    n = 13
    bits = np.zeros(n, dtype=np.uint8)
    bits[[1, 4, 5, 11]] = 1
    good = {"n": n, "bits": encode_mask(bits)}
    cases = {case: ({**good, "bits": text}, error)
             for case, (text, error) in _bad_bitmaps(bits).items()}
    return {
        **cases,
        "wrong n": ({**good, "n": n + 8}, "21 entries take 3 bytes, got 2"),
        "n not an int": ({**good, "n": True}, "non-negative int"),
        "list-form bits": ({**good, "bits": bits.tolist()}, "not 'list'"),
        "old hex bitmap": ({**good, "bits": zlib.compress(np.packbits(bits), 1).hex()},
                           "incorrect header check"),
        "missing n": ({"bits": good["bits"]}, r"lacks keys \['n'\]"),
    }


def _reveals_to_dealer(msg_type, bad_payload):
    """Three reveals of 13 bits to Alice, Bob's carrying ``bad_payload``."""
    good = {"n": 13, "bits": encode_mask(np.ones(13, np.uint8))}
    return [ProtocolMessage(msg_type, "Bob", bad_payload),
            ProtocolMessage(msg_type, "Claire", good),
            ProtocolMessage(msg_type, "David", good)]


@pytest.mark.parametrize("case", sorted(_bad_reveals()))
@pytest.mark.parametrize("msg_type", [MSG_SAMPLE_REVEAL, MSG_BELL_REVEAL])
def test_bad_reveal_is_wire_error(msg_type, case):
    payload, error = _bad_reveals()[case]
    with pytest.raises(WireError, match=error):
        decode_wire(_raw_frame({"type": msg_type, "sender": "Bob", "payload": payload}))
    with pytest.raises(WireError, match=error):
        _dealer_parities("Alice", np.zeros(13, np.uint8), msg_type,
                         _reveals_to_dealer(msg_type, payload))


def test_dealer_parities_check_count_type_and_senders():
    own = np.zeros(13, np.uint8)
    own[[0, 12]] = 1
    reveals = _reveals_to_dealer(MSG_BELL_REVEAL, {"n": 13, "bits": _mask(13, [0, 2])})
    parities = _dealer_parities("Alice", own, MSG_BELL_REVEAL, reveals)
    assert np.flatnonzero(parities).tolist() == [2, 12]
    # a well-formed reveal of 12 bits decodes, but the dealer named 13 positions
    short = ProtocolMessage(MSG_BELL_REVEAL, "Bob", {"n": 12, "bits": _mask(12, [0])})
    assert decode_wire(encode_wire(short)) == short
    with pytest.raises(WireError, match="BellReveal from Bob is not a BellReveal of 13 bits"):
        _dealer_parities("Alice", own, MSG_BELL_REVEAL, [short] + reveals[1:])
    with pytest.raises(WireError, match="BellReveal from Bob is not a SampleReveal of 13 bits"):
        _dealer_parities("Alice", own, MSG_SAMPLE_REVEAL, reveals)
    for senders in (reveals[:2], reveals + reveals[2:], reveals[1:] + [_tag("Alice", 13)]):
        with pytest.raises(WireError, match="one BellReveal from each non-dealer"):
            _dealer_parities("Alice", own, MSG_BELL_REVEAL, senders)


def test_dealer_table_checks_records_and_type():
    n = 13
    good = ProtocolMessage(MSG_BASIS, "Bob", {"n": n, "detected": _mask(n, [0, 2, 5, 12]),
                                              "labels": _mask(4, [0, 2, 3])})
    table = _dealer_table(np.full((4, n), -1, dtype=np.int8), [good])
    assert table[1].tolist() == [1, -1, 0, -1, -1, 1, -1, -1, -1, -1, -1, -1, 1]
    # an announcement that decodes but covers other records than the table's
    with pytest.raises(WireError, match="over 14 records"):
        _dealer_table(np.full((4, n + 1), -1, dtype=np.int8), [good])
    with pytest.raises(WireError, match="not an announcement"):
        _dealer_table(np.full((4, 5), -1, dtype=np.int8), [REPRESENTATIVE[2]])


@pytest.mark.parametrize("msg", [REPRESENTATIVE[0], REPRESENTATIVE[2]])
def test_sift_and_sample_bitmaps_checked(msg):
    body = {"type": msg.msg_type, "sender": msg.sender}
    for key in msg.payload:
        lacking = {k: v for k, v in msg.payload.items() if k != key}
        with pytest.raises(WireError, match=f"lacks keys \\['{key}'\\]"):
            decode_wire(_raw_frame({**body, "payload": lacking}))
    with pytest.raises(WireError, match=f"bad bitmap of {msg.payload['n'] + 8} entries"):
        decode_wire(_raw_frame({**body, "payload": {**msg.payload, "n": msg.payload["n"] + 8}}))
