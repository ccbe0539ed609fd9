"""Authenticated classical message layer between the four parties.

In-process implementation with per-recipient FIFO inboxes, a transcript of
every message in send order, and a documented wire format for
process-separated deployments: each frame is a 4-byte big-endian payload
length followed by a UTF-8 JSON object with exactly the fields
{"type", "sender", "payload"}. JSON is serialized with sorted
keys and compact separators, so transcripts are byte-reproducible.

``encode_wire`` is the only codec. A payload is schema checked and
JSON-encoded once, when its message is built; ``encode_wire`` reuses that
text, so a message that exists can be encoded and its frame is fixed from
construction on. One schema rule is shared by the constructor (and therefore by
``decode_wire``) and by the hygiene audit: basis announcements can never
carry outcome bits, and an audit pass over any transcript (including raw
frames produced elsewhere) verifies that secret-bearing fields appear only
in the reveal and parity-exchange message types.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

PARTIES = ("Alice", "Bob", "Claire", "David")

MSG_BASIS = "BasisAnnouncement"
MSG_SIFT = "SiftDecision"
MSG_SAMPLE_REQUEST = "SampleRequest"
MSG_SAMPLE_REVEAL = "SampleReveal"
MSG_BELL_REVEAL = "BellReveal"
MSG_PARITY = "ParityExchange"
MSG_HASH_SEED = "HashSeed"
MSG_CIPHERTEXT = "Ciphertext"
MSG_ABORT = "Abort"

#: Allowed payload keys per message type.
PAYLOAD_SCHEMA: dict[str, frozenset[str]] = {
    MSG_BASIS: frozenset({"indices", "labels"}),
    MSG_SIFT: frozenset({"key_indices", "bell_indices"}),
    MSG_SAMPLE_REQUEST: frozenset({"positions"}),
    MSG_SAMPLE_REVEAL: frozenset({"bits"}),
    MSG_BELL_REVEAL: frozenset({"bits"}),
    MSG_PARITY: frozenset(
        {"kind", "pass_index", "block_size", "ranges", "parities", "perm_seed", "verify_seed", "ok"}
    ),
    MSG_HASH_SEED: frozenset({"bits_hex", "n_in", "n_out"}),
    MSG_CIPHERTEXT: frozenset({"bits_hex", "length"}),
    MSG_ABORT: frozenset({"kind", "reason", "estimate", "threshold"}),
}

#: Payload keys that carry measurement outcome or parity material.
SECRET_KEYS = frozenset({"bits", "parities"})
#: The only message types allowed to carry such material.
SECRET_OK_TYPES = frozenset({MSG_SAMPLE_REVEAL, MSG_BELL_REVEAL, MSG_PARITY})


class WireError(ValueError):
    """Malformed frame, unknown message type, or length mismatch."""


class TranscriptAuditError(AssertionError):
    """A transcript violates the outcome-bit hygiene rules."""


def _numpy_scalar(value):
    """``json.dumps`` hook: a numpy scalar encodes as its python value."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"payload value {value!r} is not wire-encodable")


# One encoder for every call: json.dumps with these options builds a new one
# each time, which costs more than encoding a small value.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_numpy_scalar).encode


def _schema_violation(msg_type, payload) -> str | None:
    """Why a ``msg_type`` message may not carry ``payload``, or None if it may."""
    if msg_type not in PAYLOAD_SCHEMA:
        return f"unknown type {msg_type!r}"
    if not isinstance(payload, dict):
        return f"{msg_type} payload is not an object"
    secret = payload.keys() & SECRET_KEYS
    if secret and msg_type not in SECRET_OK_TYPES:
        return f"{msg_type} carries outcome material {sorted(secret)}"
    extra = payload.keys() - PAYLOAD_SCHEMA[msg_type]
    if extra:
        return f"{msg_type} carries unexpected keys {sorted(extra)}"
    return None


@dataclass(frozen=True)
class ProtocolMessage:
    """One typed classical-channel message.

    The payload is encoded when the message is built, so its frame is
    fixed then: later edits to nested payload values do not reach the wire.
    """

    msg_type: str
    sender: str
    payload: dict = field(default_factory=dict)
    _payload_json: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        violation = _schema_violation(self.msg_type, self.payload)
        if violation is not None:
            raise WireError(violation)
        if self.sender not in PARTIES:
            raise WireError(f"unknown sender {self.sender!r}")
        # Copy list values so a caller's later edits cannot reach the message.
        payload = {
            k: list(v) if isinstance(v, (list, tuple)) else v for k, v in self.payload.items()
        }
        object.__setattr__(self, "payload", payload)
        # raises TypeError now for a payload encode_wire could not write
        object.__setattr__(self, "_payload_json", _dumps(payload))


def encode_wire(msg: ProtocolMessage) -> bytes:
    # the frame object in _dumps's sorted key order, with the cached payload spliced in
    body = (
        f'{{"payload":{msg._payload_json},"sender":{_dumps(msg.sender)},'
        f'"type":{_dumps(msg.msg_type)}}}'
    ).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def decode_wire(frame: bytes, validate: bool = True) -> ProtocolMessage | dict:
    """Decode exactly one frame.

    With ``validate=False`` the raw decoded object is returned without
    schema enforcement, which lets the audit inspect frames that the
    strict constructor would reject.
    """
    if len(frame) < 4:
        raise WireError("frame shorter than its length prefix")
    declared = int.from_bytes(frame[:4], "big")
    if len(frame) - 4 != declared:
        raise WireError(
            f"length mismatch: prefix says {declared} bytes, frame carries {len(frame) - 4}"
        )
    try:
        obj = json.loads(frame[4:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame body: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"type", "sender", "payload"}:
        raise WireError("frame body must be an object with type/sender/payload")
    if not validate:
        return obj
    return ProtocolMessage(msg_type=obj["type"], sender=obj["sender"], payload=obj["payload"])


def iter_frames(data: bytes, validate: bool = True) -> Iterator[ProtocolMessage | dict]:
    """Yield messages from a buffer of consecutive frames."""
    offset = 0
    while offset < len(data):
        if len(data) - offset < 4:
            raise WireError("trailing bytes shorter than a length prefix")
        declared = int.from_bytes(data[offset : offset + 4], "big")
        end = offset + 4 + declared
        if end > len(data):
            raise WireError("truncated final frame")
        yield decode_wire(data[offset:end], validate=validate)
        offset = end


class Channel:
    """FIFO message fabric with a global transcript.

    Safe for concurrent producers/consumers; each party's inbox should be
    consumed by that party only. Delivery is immediate, so under the
    single-threaded deterministic scheduler (parties acting in a fixed
    turn order) transcripts are byte-reproducible.
    """

    def __init__(self):
        self._inboxes: dict[str, list[ProtocolMessage]] = {p: [] for p in PARTIES}
        self._transcript: list[ProtocolMessage] = []
        self._lock = threading.Lock()

    def send(self, msg: ProtocolMessage, to: str) -> None:
        with self._lock:
            if to not in self._inboxes:
                raise KeyError(f"unknown recipient {to!r}")
            self._transcript.append(msg)
            self._inboxes[to].append(msg)

    def broadcast(self, msg: ProtocolMessage) -> None:
        with self._lock:
            self._transcript.append(msg)
            for party in PARTIES:
                if party != msg.sender:
                    self._inboxes[party].append(msg)

    def drain(self, party: str) -> list[ProtocolMessage]:
        with self._lock:
            out = self._inboxes[party]
            self._inboxes[party] = []
            return out

    @property
    def transcript(self) -> tuple[ProtocolMessage, ...]:
        with self._lock:
            return tuple(self._transcript)

    def dump_transcript(self, path) -> None:
        with open(path, "wb") as fh:
            fh.writelines(encode_wire(m) for m in self.transcript)


def audit_outcome_hygiene(transcript: Iterable[ProtocolMessage | dict | bytes]) -> int:
    """Assert that outcome material appears only where it is allowed.

    Accepts ProtocolMessage objects, raw decoded frame dicts, or a bytes
    buffer of consecutive frames. Returns the number of messages checked;
    raises TranscriptAuditError on the first violation.
    """
    if isinstance(transcript, (bytes, bytearray)):
        transcript = iter_frames(bytes(transcript), validate=False)
    checked = 0
    for entry in transcript:
        if isinstance(entry, ProtocolMessage):
            mtype, payload = entry.msg_type, entry.payload
        else:
            mtype, payload = entry.get("type"), entry.get("payload", {})
        violation = _schema_violation(mtype, payload)
        if violation is not None:
            raise TranscriptAuditError(f"message {checked}: {violation}")
        checked += 1
    return checked
