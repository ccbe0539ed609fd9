"""Side-by-side Cascade reconciliation of two source trees.

Usage, from the repository root:

    python3 tools/reconcile_probe.py OLD_SRC NEW_SRC [--bits N] [--qber Q] [--seeds 5]

OLD_SRC and NEW_SRC are ``src`` directories, each holding ``qss4``. Each
tree runs ``qss4.postproc.reconcile`` in its own fresh interpreter, one
process at a time, over the same keys: for seed s, ``default_rng(s)``
draws N dealer bits and flips each with probability Q for the access key,
then seeds the reconciliation (``qber_hint`` = Q). Seeds are 1..--seeds.

Per seed and tree the script prints the leaked bits, the efficiency
f = leaked / (N * h2(e/N)) from the true error count e, the passes, the
verify rounds, the ``ParityExchange`` messages and their wire bytes, and
the wall time of the ``reconcile`` call; then the median of each column
and the mean f per tree. A run whose keys do not converge is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PROBE = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from qss4.channel import MSG_PARITY, Channel, encode_wire
from qss4.postproc import binary_entropy, reconcile

bits, qber = int(sys.argv[2]), float(sys.argv[3])
for seed in map(int, sys.argv[4:]):
    rng = np.random.default_rng(seed)
    dealer = rng.integers(0, 2, bits, dtype=np.uint8)
    access = dealer ^ (rng.random(bits) < qber).astype(np.uint8)
    errors = int(np.count_nonzero(dealer ^ access))
    channel = Channel()
    start = time.perf_counter()
    result = reconcile(dealer, access, channel=channel, qber_hint=qber, rng=rng)
    seconds = time.perf_counter() - start
    frames = [encode_wire(m) for m in channel.transcript if m.msg_type == MSG_PARITY]
    shannon = bits * binary_entropy(errors / bits)
    print(json.dumps({
        "seed": seed,
        "leaked": result.leaked_bits,
        "f": result.leaked_bits / shannon if shannon else float("nan"),
        "passes": result.passes_used,
        "verify": result.verify_rounds,
        "messages": len(frames),
        "bytes": sum(map(len, frames)),
        "seconds": seconds,
        "converged": bool(np.array_equal(result.access_bits, result.dealer_bits)),
    }))
"""

COLUMNS = ("leaked", "f", "passes", "verify", "messages", "bytes", "seconds")


def probe(src: Path, bits: int, qber: float, seeds: list[int]) -> list[dict]:
    """One fresh interpreter reconciling every seed with the tree at ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(src), str(bits), str(qber), *map(str, seeds)],
        capture_output=True, text=True, timeout=3600, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def _row(label: str, side: str, values: dict) -> str:
    return (f"{label:>6} {side:<4} {values['leaked']:>9.0f} {values['f']:>7.4f} "
            f"{values['passes']:>6.0f} {values['verify']:>6.0f} {values['messages']:>8.0f} "
            f"{values['bytes']:>9.0f} {values['seconds']:>8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--bits", type=int, default=10_800)
    parser.add_argument("--qber", type=float, default=0.025)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.bits < 1:
        parser.error("--bits must be >= 1")
    if not 0.0 <= args.qber < 0.5:
        parser.error("--qber must lie in [0, 0.5)")
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    sides = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for name, src in sides.items():
        if not (src / "qss4" / "__init__.py").is_file():
            parser.error(f"{name} tree {src} holds no qss4 package")

    seeds = list(range(1, args.seeds + 1))
    runs = {name: probe(src, args.bits, args.qber, seeds) for name, src in sides.items()}

    print(f"{args.bits} bits, qber {args.qber}, seeds {seeds[0]}..{seeds[-1]}")
    for name, src in sides.items():
        print(f"{name}: {src}")
    print(f"{'seed':>6} {'tree':<4} {'leaked':>9} {'f':>7} {'passes':>6} {'verify':>6} "
          f"{'messages':>8} {'bytes':>9} {'seconds':>8}")
    for i, seed in enumerate(seeds):
        for name in sides:
            run = runs[name][i]
            mark = "" if run["converged"] else "  NOT CONVERGED"
            print(_row(str(seed), name, run) + mark)
    for name in sides:
        medians = {c: statistics.median(r[c] for r in runs[name]) for c in COLUMNS}
        print(_row("median", name, medians))
    mean_f = {name: statistics.fmean(r["f"] for r in runs[name]) for name in sides}
    print(f"mean f: old {mean_f['old']:.4f}, new {mean_f['new']:.4f} "
          f"({100 * (mean_f['new'] / mean_f['old'] - 1):+.2f} %)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
