"""Session benchmark for qss4: one workload per process, closed loop, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload qber-dense --seed 1 --seconds 20 --trace 0

Each operation is one real session driven through the public entry points:
``qss4.cli.main(["qss-run", ...])`` for the live workloads, and
``read_records`` -> ``replay_protocol`` -> ``audit_outcome_hygiene`` for
``replay-audit``. A run imports the package from ``src/``, prepares the
workload (timed as ``setup_s``), runs one untimed warm-up operation, then
repeats the operation with the same seed until ``--seconds`` of operation
time have been measured. Every operation is checked after its timer stops
(see ``gates.py``); all operations of a run must produce byte-identical
artifacts.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` half of the
time runs untraced and half traced (see ``spans.py``), and the JSON holds
the per-layer metrics. Spans are written to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed operations per run (per half in a traced run), even past --seconds.
MIN_OPS = 3

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qss4.cli; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    """One seeded ``qss-run`` configuration; ``replay`` replays its recording."""

    name: str
    mode: str
    visibility: float
    rate: float
    efficiency: float = 1.0
    attack: str = ""
    windows: int | None = None
    target_bits: int | None = None
    replay: bool = False

    def argv(self, seed: int, out: Path) -> list[str]:
        args = ["qss-run", "--seed", str(seed), "--mode", self.mode, "--out-dir", str(out),
                "--visibility", repr(self.visibility), "--rate", repr(self.rate),
                "--detector-efficiency", repr(self.efficiency)]
        if self.attack:
            args += ["--attack", self.attack]
        if self.windows is not None:
            args += ["--windows", str(self.windows)]
        else:
            args += ["--target-bits", str(self.target_bits)]
        if self.replay:
            args += ["--dump-records", str(out / "records.csv")]
        return args


# Sizes keep one operation at 1.5-5 s on a 2-core host, so a 20 s run
# holds 4-15 timed operations. Why each workload exists: BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("qber-dense", "qber", visibility=0.95, rate=3.0, target_bits=12000),
    Workload("lab-sparse", "qber", visibility=1.0, rate=0.4, efficiency=0.4, windows=200_000),
    Workload("bell-attacked", "bell", visibility=0.97, rate=3.0, attack="b:0.08", windows=100_000),
    Workload("replay-audit", "qber", visibility=0.95, rate=3.0, target_bits=6000, replay=True),
)}


def raised() -> "gates.Outcome":
    """A failed outcome for the exception being handled, traceback on stderr."""
    traceback.print_exc(file=sys.stderr)
    return gates.Outcome(problems=["raised " + traceback.format_exc().splitlines()[-1]])


def time_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Bench:
    """State of one run: the workload, its reference outputs and what each op gave."""

    def __init__(self, workload: Workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.dir = WORK / workload.name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None  # Outcome of the first operation that got as far as its counts
        self.recording = None  # Outcome of the recorded session (replay-audit)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> list[float]:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        times = []
        for i in range(SETUP_REPEATS):
            seconds = time_import()
            if self.workload.replay:
                out = self.dir / f"setup-{i}"
                rc, elapsed = self._call_cli(out, f"setup-{i}")
                seconds += elapsed
                try:
                    outcome = gates.check_session(self.workload, out, rc)
                except Exception:  # noqa: BLE001 - a broken recording fails the run
                    outcome = raised()
                if self.recording is None:
                    self.recording = outcome
                elif outcome.digest != self.recording.digest:
                    outcome.problems.append("recorded session differs between set-ups")
                self.problems += [f"set-up {i}: {p}" for p in outcome.problems]
            times.append(seconds)
        return times

    # -- one operation -----------------------------------------------------

    @contextlib.contextmanager
    def _as_op(self, op: str | None):
        """Attribute spans to ``op`` while the block runs (traced runs only)."""
        if self.tracer is not None:
            self.tracer.op = op
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.op = None

    def _call_cli(self, out: Path, op: str | None):
        shutil.rmtree(out, ignore_errors=True)
        argv = self.workload.argv(self.seed, out)
        gc.collect()
        with self._as_op(op), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = qss4.cli.main(argv)
            elapsed = time.perf_counter() - t0
        return rc, elapsed

    def _replay(self, op: str | None):
        src = self.dir / "setup-0"
        gc.collect()
        with self._as_op(op):
            t0 = time.perf_counter()
            records = qss4.source.read_records(src / "records.csv")
            replayed = qss4.protocol.replay_protocol(
                records, mode=qss4.protocol.Mode(self.workload.mode), seed=self.seed,
                target_sifted_bits=self.workload.target_bits, visibility=self.workload.visibility)
            audited = qss4.channel.audit_outcome_hygiene((src / "wire_transcript.bin").read_bytes())
            elapsed = time.perf_counter() - t0
        return (replayed, audited), elapsed

    def op(self, op: str | None = None) -> tuple[float, "gates.Outcome"]:
        """Run, time and check one operation; an exception is its failure."""
        self.attempted += 1
        elapsed = math.nan
        try:
            if self.workload.replay:
                (replayed, audited), elapsed = self._replay(op)
                outcome = gates.check_replay(self.recording, self.dir / "setup-0", replayed, audited)
            else:
                out = self.dir / "op"
                rc, elapsed = self._call_cli(out, op)
                outcome = gates.check_session(self.workload, out, rc)
        except Exception:  # noqa: BLE001 - the run goes on and counts the failure
            outcome = raised()
        if self.reference is None and outcome.counts:
            self.reference = outcome
        elif self.reference is not None and outcome.ok:
            if outcome.digest != self.reference.digest:
                outcome.problems.append("artifacts differ from the first operation of the run")
            if outcome.counts != self.reference.counts:
                outcome.problems.append("exact counts differ from the first operation of the run")
        if outcome.problems:
            self.failed += 1
            self.problems += [f"op {self.attempted}: {p}" for p in outcome.problems]
        return elapsed, outcome

    def timed(self, seconds: float, prefix: str | None = None) -> list[float]:
        """Repeat the operation until ``seconds`` of operation time are measured."""
        times: list[float] = []
        while sum(times) < seconds or len(times) < MIN_OPS:
            op = f"{prefix}-{len(times)}" if prefix else None
            elapsed, _ = self.op(op)
            times.append(elapsed)
        return times


def end_to_end(bench: Bench, setups: list[float], times: list[float]) -> dict[str, float]:
    counts = bench.reference.counts if bench.reference else {}
    session = statistics.median(times)
    windows = counts.get("windows", math.nan)
    return {
        "session_s": session,
        # a rate over the whole measured time: on a host whose speed switches
        # between two levels, this moves with the mix where a median jumps
        "windows_per_s": windows * len(times) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wire_bytes_per_window": counts.get("wire_bytes", math.nan) / windows,
    }


def per_layer(bench: Bench, names: list[str], untraced: list[float],
              traced: list[float]) -> dict[str, float]:
    from spans import summarize

    tracer = bench.tracer
    ops = [summarize(tracer, f"traced-{i}") for i in range(len(traced))]
    setups = [summarize(tracer, f"setup-{i}") for i in range(SETUP_REPEATS)]
    missing = tracer.unresolved_layers()
    counts = bench.reference.counts if bench.reference else {}

    def med(key: str, rows=ops) -> float:
        if key.rsplit(":", 1)[-1] in missing:
            return -1.0  # unresolved: the wrap target is gone
        return statistics.median(row.get(key, 0.0) for row in rows)

    windows, detected = counts.get("windows", math.nan), counts.get("detected", math.nan)
    run_session = med("source.run_session")
    od_calls = med("calls:quantum.outcome_distribution")
    self_parts = ("source.run_session", "protocol.sift", "protocol.check", "channel.message_build")
    n, corrected = counts.get("reconciled_bits", 0), counts.get("corrected", 0)
    shannon = n * qss4.postproc.binary_entropy(corrected / n) if n else 0.0
    final_bits = counts.get("final_bits", 0)
    values = {
        "source.run_session_s": run_session,
        "source.run_session_calls": med("calls:source.run_session"),
        "source.us_per_window": run_session / windows * 1e6 if run_session >= 0 else -1.0,
        "source.detect_ratio": detected / counts.get("records", math.nan),
        "source.read_records_s": med("source.read_records"),
        "source.write_records_s": med("source.write_records", setups),
        "quantum.outcome_distribution_calls": od_calls,
        "quantum.outcome_distribution_s": med("quantum.outcome_distribution"),
        # no sampling (replay) reads 0, an unresolved wrap target -1
        "quantum.cdf_reuse_ratio": 1.0 - od_calls / detected if od_calls > 0 else od_calls,
        "quantum.collapse_calls": med("calls:quantum.collapse"),
        "adversary.qber_gap_sigma": counts.get("qber_gap_sigma", math.nan),
        "channel.message_build_s": med("channel.message_build"),
        "channel.encode_s": med("channel.encode"),
        "channel.decode_s": med("channel.decode"),
        "protocol.run_protocol_s": med("protocol.run_protocol"),
        "protocol.self_s": (-1.0 if missing & set(self_parts) else
                            med("self:protocol.run_protocol") + med("self:protocol.replay")),
        "protocol.sift_s": med("protocol.sift"),
        "protocol.check_s": med("protocol.check"),
        "protocol.replay_s": med("protocol.replay"),
        "protocol.key_pool": counts.get("key_pool", math.nan),
        "protocol.bell_pool": counts.get("bell_pool", math.nan),
        "protocol.sift_ratio": counts.get("key_pool", math.nan) / detected,
        "postproc.pa_s": med("postproc.pa"),
        "postproc.pa_bit_ops": med("work:postproc.pa"),
        "postproc.reconcile_s": med("postproc.reconcile"),
        "postproc.passes": counts.get("passes", math.nan),
        "postproc.corrected": corrected,
        "postproc.pipeline_s": med("postproc.pipeline"),
        "postproc.otp_s": med("postproc.otp"),
        "postproc.leaked_bits": counts.get("leaked_bits", math.nan),
        "postproc.reconcile_f": counts.get("leaked_bits", 0) / shannon if shannon else 0.0,
        "postproc.final_bits": final_bits,
        "postproc.final_bits_per_window": final_bits / windows,
        "postproc.final_bits_per_s": 0.0 if bench.workload.replay else final_bits / statistics.median(untraced),
        "cli.artifacts_s": med("cli.artifacts"),
        "cli.artifact_bytes": counts.get("artifact_bytes", math.nan),
        "trace.coverage": sum(row["root"] for row in ops) / sum(traced),
        "trace.overhead": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "trace.unresolved": len(tracer.unresolved),
    }
    for name in names:
        if name.startswith(("channel.messages.", "channel.bytes.")):
            values[name] = counts.get(name.split(".", 1)[1], 0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    global qss4, gates
    sys.path.insert(0, str(SRC))
    try:
        import qss4.channel
        import qss4.cli
        import qss4.postproc
        import qss4.protocol
        import qss4.source
        import gates
    except ImportError as exc:
        print(f"cannot import qss4 from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(qss4.__file__).resolve().parent != SRC / "qss4":
        print(f"qss4 was imported from {qss4.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    bench = Bench(WORKLOADS[args.workload], args.seed, tracer)

    if tracer is not None:
        tracer.install()
    setups = bench.setup()
    if tracer is not None:
        tracer.uninstall()
    bench.op()  # warm-up, untimed; also the run's reference outputs

    if args.trace:
        untraced = bench.timed(args.seconds / 2)
        tracer.install()
        traced = bench.timed(args.seconds / 2, prefix="traced")
        tracer.uninstall()
        tracer.dump(bench.dir / f"spans-seed{args.seed}.json")
        values = per_layer(bench, [m["name"] for m in declared], untraced, traced)
        if tracer.unresolved:
            print("unresolved wrap targets (reported as -1): " + ", ".join(tracer.unresolved))
        times = untraced
    else:
        times = bench.timed(args.seconds)
        values = end_to_end(bench, setups, times)

    counts = bench.reference.counts if bench.reference else {}
    windows = counts.get("windows", math.nan)
    print(f"workload {args.workload} seed {args.seed}: {len(times)} timed ops "
          f"(median of {len(times)} for session_s), {bench.attempted} checked")
    print("  op seconds: " + " ".join(f"{t:.3f}" for t in times))
    for m in declared:
        print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        final_bits = counts.get("final_bits", math.nan)
        print(f"  {'final_bits_per_window':<40} {final_bits / windows:>14.6g} bits/window")
        if not bench.workload.replay:
            print(f"  {'final_bits_per_s':<40} {final_bits / values['session_s']:>14.6g} 1/s")
    print(f"  {'failed_frac':<40} {bench.failed / bench.attempted:>14.6g} ops")
    if bench.reference is not None:
        print(f"  artifacts sha256 {bench.reference.digest}")
    for problem in bench.problems:
        print(f"  FAILED {problem}")

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        # a value that could not be measured (every operation failed) is null
        "metrics": {m["name"]: {"value": values[m["name"]] if math.isfinite(values[m["name"]])
                                else None, "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
