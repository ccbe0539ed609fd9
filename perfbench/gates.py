"""Per-operation correctness checks and exact counts, run outside the timed region.

Every check reads what a user would get: the files a ``qss-run`` writes,
or the objects ``replay_protocol`` returns. A check that fails adds a
line to ``Outcome.problems``; the caller counts an exception raised while
checking as a failure too, so one bad operation never ends the run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from qss4.adversary import AttackConfig, expected_qber_under_attack
from qss4.channel import MSG_PARITY, audit_outcome_hygiene, encode_wire, iter_frames
from qss4.postproc import read_key_file
from qss4.protocol import BELL_PHASES, KEYING_PHASES
from qss4.quantum import BellSetting, bell_S, correlation_analytic, qber_from_visibility

#: How far the check estimate may sit from the configured physics.
MAX_GAP_SIGMAS = 5.0

S_MAX = bell_S(BellSetting.maximal_violation(), correlation_analytic)


@dataclass
class Outcome:
    """What one operation produced, as checked."""

    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)  # exact for a fixed seed
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def read_report(path: Path) -> dict[str, str]:
    text = path.read_text(encoding="utf-8")
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.iterdir() if p.is_file()):
        h.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def transcript_counts(data: bytes) -> tuple[dict[str, float], int]:
    """Frames, messages and bytes per type, and the parity bits on the wire."""
    counts: dict[str, float] = {"frames": 0}
    parity_bits = 0
    offset = 0
    for frame in iter_frames(data, validate=False):
        size = 4 + int.from_bytes(data[offset:offset + 4], "big")
        offset += size
        kind = frame["type"]
        counts["frames"] += 1
        counts[f"messages.{kind}"] = counts.get(f"messages.{kind}", 0) + 1
        counts[f"bytes.{kind}"] = counts.get(f"bytes.{kind}", 0) + size
        if kind == MSG_PARITY:
            parity_bits += len(frame["payload"].get("parities", []))
    return counts, parity_bits


def expected_qber(spec) -> float:
    if not spec.attack:
        return qber_from_visibility(spec.visibility)
    modes, _, fraction = spec.attack.partition(":")
    keying = BELL_PHASES if spec.mode == "bell" else KEYING_PHASES
    attack = AttackConfig(tuple(modes), keying, float(fraction or 1.0))
    return expected_qber_under_attack(attack, keying, spec.visibility)


def qber_gap_sigma(spec, report: dict[str, str]) -> float:
    """Check estimate minus the configured QBER, in standard errors.

    QBER mode compares the sampled error rate; Bell mode translates S into
    the QBER its visibility implies, as ``qss-run`` does, without clipping.
    """
    expected = expected_qber(spec)
    estimate = float(report["estimate"])
    if report["kind"] == "qber":
        sigma = math.sqrt(expected * (1.0 - expected) / int(report["sample_size"]))
    else:
        estimate = (1.0 - estimate / S_MAX) / 2.0
        sigma = float(report["stderr"]) / (2.0 * S_MAX)
    if sigma == 0.0:
        return 0.0 if estimate == expected else math.inf
    return (estimate - expected) / sigma


def check_session(spec, out: Path, rc: int) -> Outcome:
    """Gate for one live ``qss-run`` session written to ``out``."""
    result = Outcome()
    problems = result.problems
    if rc != 0:
        problems.append(f"exit code {rc}")
        return result
    report = read_report(out / "session_report.txt")
    for key, want in (("verdict", "proceed"), ("keys_match", "yes"), ("roundtrip", "ok")):
        if report.get(key) != want:
            problems.append(f"{key}={report.get(key)!r}, want {want!r}")
    final_length = int(report.get("final_length", 0))
    dealer = read_key_file(out / "dealer_key.hex")
    access = read_key_file(out / "access_key.hex")
    if not (len(dealer.bits) == len(access.bits) == final_length > 0):
        problems.append(f"key lengths {len(dealer.bits)}/{len(access.bits)}, final_length {final_length}")
    elif not (dealer.bits == access.bits).all():
        problems.append("dealer and access final keys differ")

    wire = (out / "wire_transcript.bin").read_bytes()
    counts, parity_bits = transcript_counts(wire)
    if audit_outcome_hygiene(wire) != counts["frames"]:
        problems.append("hygiene audit did not check every frame")
    leaked = int(report["leaked_bits"])
    if leaked != parity_bits:
        problems.append(f"leaked_bits {leaked} != {parity_bits} parity bits on the wire")

    gap = qber_gap_sigma(spec, report)
    if not abs(gap) <= MAX_GAP_SIGMAS:
        problems.append(f"check estimate {gap:+.2f} sigma from the configured QBER")

    windows = int(report["windows"])
    result.counts = {
        **counts,
        "windows": windows,
        "records": int(report["records"]),
        "detected": int(report["detected"]),
        "key_pool": int(report["key_pool"]),
        "bell_pool": int(report["bell_pool"]),
        "reconciled_bits": int(report["reconciled_bits"]),
        "corrected": int(report["corrected_errors"]),
        "passes": int(report["passes_used"]),
        "leaked_bits": leaked,
        "final_bits": final_length,
        "wire_bytes": len(wire),
        "artifact_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
        "qber_gap_sigma": gap,
    }
    result.digest = digest_dir(out)
    return result


def check_replay(live: Outcome, live_dir: Path, replayed, audited: int) -> Outcome:
    """Gate for one replay: it must reproduce the recorded live session."""
    result = Outcome()
    problems = result.problems
    report = read_report(live_dir / "session_report.txt")
    rep = replayed.check_report
    for key, got in (
        ("key_pool", str(replayed.counts.key_pool)),
        ("sample_size", str(rep.sample_size)),
        ("estimate", f"{rep.estimate:.6f}"),
        ("verdict", rep.verdict),
    ):
        if report[key] != got:
            problems.append(f"replay {key}={got}, live session {report[key]}")
    replay_wire = b"".join(encode_wire(m) for m in replayed.channel.transcript)
    wire = (live_dir / "wire_transcript.bin").read_bytes()
    if not wire.startswith(replay_wire):
        problems.append("replayed messages are not a prefix of the live transcript")
    if audited != live.counts["frames"]:
        problems.append(f"audit checked {audited} of {live.counts['frames']} frames")
    if replayed.counts.windows != live.counts["windows"]:
        problems.append(f"replay saw {replayed.counts.windows} windows, live {live.counts['windows']}")
    result.counts = dict(live.counts)
    result.digest = hashlib.sha256(replay_wire).hexdigest()
    return result
