"""Span recorder for the traced run.

The pipeline resolves its layers through module-level names, so the
traced run swaps those names for timing wrappers and puts the originals
back afterwards. Nothing under ``src/`` changes. A span is recorded only
while an operation is active (``Tracer.op`` is set), so the benchmark's own
correctness checks, which call some of the same functions, stay out of the
trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    op: str
    work: int = 0  # size of the call where the layer defines one (PA: n_in * n_out)


def _pa_bit_ops(key, seed, n_out=None) -> int:
    return int(seed.n_in) * int(seed.n_out)


#: (module, attribute, span name). ``VernamPad`` is a class whose instances
#: are used after construction, so its methods are timed as well.
WRAP_TARGETS = (
    ("qss4.cli", "run_protocol", "protocol.run_protocol"),
    ("qss4.cli", "run_key_pipeline", "postproc.pipeline"),
    ("qss4.cli", "write_key_file", "cli.artifacts"),
    ("qss4.cli", "format_session_report", "cli.artifacts"),
    ("qss4.cli", "format_pipeline_report", "cli.artifacts"),
    ("qss4.cli", "format_key_transcript", "cli.artifacts"),
    ("qss4.cli", "write_records", "source.write_records"),
    ("qss4.cli", "VernamPad", "postproc.otp"),
    ("qss4.cli", "ProtocolMessage", "channel.message_build"),
    ("qss4.protocol", "run_session", "source.run_session"),
    ("qss4.protocol", "sift", "protocol.sift"),
    ("qss4.protocol", "estimate_qber", "protocol.check"),
    ("qss4.protocol", "bell_check", "protocol.check"),
    ("qss4.protocol", "ProtocolMessage", "channel.message_build"),
    ("qss4.protocol", "replay_protocol", "protocol.replay"),
    ("qss4.postproc", "reconcile", "postproc.reconcile"),
    ("qss4.postproc", "privacy_amplify", "postproc.pa"),
    ("qss4.postproc", "ProtocolMessage", "channel.message_build"),
    ("qss4.channel", "encode_wire", "channel.encode"),
    ("qss4.channel", "decode_wire", "channel.decode"),
    ("qss4.channel", "audit_outcome_hygiene", "channel.audit"),
    ("qss4.channel", "Channel.dump_transcript", "cli.artifacts"),
    ("qss4.source", "outcome_distribution", "quantum.outcome_distribution"),
    ("qss4.source", "read_records", "source.read_records"),
    ("qss4.quantum", "collapse_after_single_mode_measurement", "quantum.collapse"),
)

#: Work counted per call, by span name.
WORK = {"postproc.pa": _pa_bit_ops}


def _owner(module: str, attr_path: str):
    """The object holding the last name of ``attr_path``, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    for name in attr_path.split(".")[:-1]:
        owner = getattr(owner, name, None)
    return owner


class Tracer:
    """In-memory spans with parent links, grouped by operation id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self.unresolved: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            size = work(*args, **kwargs) if work is not None else 0
            span = Span(name, time.perf_counter(), 0.0,
                        tracer._stack[-1] if tracer._stack else -1, tracer.op, size)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        """Swap every resolvable wrap target; remember the ones that are gone."""
        self.unresolved = []
        for module, attr_path, name in WRAP_TARGETS:
            owner = _owner(module, attr_path)
            attr = attr_path.rsplit(".", 1)[-1]
            original = getattr(owner, attr, None)
            if original is None:
                self.unresolved.append(f"{module}.{attr_path}")
                continue
            if attr == "VernamPad":
                replacement = type("TracedVernamPad", (original,), {
                    method: self.wrap(name, getattr(original, method))
                    for method in ("__init__", "encrypt", "decrypt")
                })
            else:
                replacement = self.wrap(name, original, WORK.get(name))
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def unresolved_layers(self) -> set[str]:
        """Span names that a missing wrap target would have produced."""
        missing = set(self.unresolved)
        return {name for module, attr_path, name in WRAP_TARGETS
                if f"{module}.{attr_path}" in missing}

    def op_spans(self, op: str) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.op == op]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def summarize(tracer: Tracer, op: str) -> dict:
    """Per-name busy time, call count and work of one operation's spans.

    ``self:<name>`` holds a span's duration minus its direct children;
    ``root`` the summed duration of the spans with no parent, which is the
    part of the operation the trace covers.
    """
    spans = tracer.op_spans(op)
    out: dict[str, float] = {"root": 0.0}
    child_time: dict[int, float] = {}
    for _, s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    for i, s in spans:
        dur = s.end - s.start
        out[s.name] = out.get(s.name, 0.0) + dur
        out[f"calls:{s.name}"] = out.get(f"calls:{s.name}", 0) + 1
        out[f"work:{s.name}"] = out.get(f"work:{s.name}", 0) + s.work
        out[f"self:{s.name}"] = out.get(f"self:{s.name}", 0.0) + dur - child_time.get(i, 0.0)
        if s.parent < 0:
            out["root"] += dur
    return out
