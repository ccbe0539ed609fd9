"""Paired fresh-interpreter import probes of two source trees.

Usage, from the repository root:

    python3 tools/import_probe.py OLD_SRC NEW_SRC [--pairs 30]

OLD_SRC and NEW_SRC are ``src`` directories, each holding ``qss4``. Every
pair times the benchmark's own ``setup_s`` probe (``IMPORT_PROBE`` in
``perfbench/run.py``) once per tree, each in a fresh interpreter, one
process at a time; the tree that goes first alternates from pair to pair.
The environment is inherited: with ``PYTHONDONTWRITEBYTECODE=1`` set, every
import compiles the package from source. The script prints each side's
median and quartiles and how many pairs each side won (ties count for
neither).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import IMPORT_PROBE  # noqa: E402


def probe(src: Path) -> float:
    """Seconds to import ``qss4.cli`` from ``src`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for name, src in sides.items():
        if not (src / "qss4" / "__init__.py").is_file():
            parser.error(f"{name} tree {src} holds no qss4 package")

    times: dict[str, list[float]] = {name: [] for name in sides}
    for pair in range(args.pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        for name in order:
            times[name].append(probe(sides[name]))

    won = {"old": sum(o < n for o, n in zip(times["old"], times["new"])),
           "new": sum(n < o for o, n in zip(times["old"], times["new"]))}
    print(f"{args.pairs} pairs, PYTHONDONTWRITEBYTECODE="
          f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    print(f"{'side':<5} {'median_s':>9} {'q1_s':>9} {'q3_s':>9} {'won':>5}  tree")
    for name, src in sides.items():
        xs = times[name]
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        print(f"{name:<5} {med:>9.4f} {q1:>9.4f} {q3:>9.4f} {won[name]:>5}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
