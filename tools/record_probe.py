"""Side-by-side record-file writing and reading of two source trees.

Usage, from the repository root:

    python3 tools/record_probe.py OLD_SRC NEW_SRC [--bits N] [--pairs K]

OLD_SRC and NEW_SRC are ``src`` directories, each holding ``qss4``. Each
tree first runs ``qss-run --target-bits N --seed 1 --visibility 0.95
--rate 3 --dump-records`` in its own fresh interpreter, and the script
checks that the two record files are byte-equal. It then runs K pairs,
alternating which tree goes first. Each side of a pair is one fresh
interpreter that times ``read_records`` on the file, notes its
``ru_maxrss``, then times ``write_records`` of what it read.

Per pair and tree the script prints the records, the read and write
times and the max RSS after the read and after the write; then the
median of each column per tree.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

DUMP = r"""
import sys
sys.path.insert(0, sys.argv[1])
from qss4.cli import main
sys.exit(main(["qss-run", "--target-bits", sys.argv[2], "--seed", "1", "--visibility", "0.95",
               "--rate", "3", "--out-dir", sys.argv[3], "--dump-records", sys.argv[4]]))
"""

PROBE = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from qss4.source import read_records, write_records

def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

start = time.perf_counter()
records = read_records(sys.argv[2])
read_s = time.perf_counter() - start
read_mb = max_rss_mb()
start = time.perf_counter()
write_records(records, sys.argv[3])
write_s = time.perf_counter() - start
print(json.dumps({"records": len(records), "read_s": read_s, "read_mb": read_mb,
                  "write_s": write_s, "write_mb": max_rss_mb()}))
"""

COLUMNS = ("records", "read_s", "read_mb", "write_s", "write_mb")


def dump(src: Path, bits: int, work: Path, name: str) -> Path:
    """Record one ``qss-run`` session with the tree at ``src``; returns the record file."""
    path = work / f"{name}.records"
    subprocess.run([sys.executable, "-c", DUMP, str(src), str(bits), str(work / name), str(path)],
                   capture_output=True, text=True, timeout=3600, check=True)
    return path


def probe(src: Path, records: Path, out: Path) -> dict:
    """One fresh interpreter reading ``records`` and writing them back with the tree at ``src``."""
    done = subprocess.run([sys.executable, "-c", PROBE, str(src), str(records), str(out)],
                          capture_output=True, text=True, timeout=3600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _row(label: str, side: str, values: dict) -> str:
    return (f"{label:>6} {side:<4} {values['records']:>10.0f} {values['read_s']:>8.3f} "
            f"{values['read_mb']:>8.1f} {values['write_s']:>8.3f} {values['write_mb']:>8.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--bits", type=int, default=100_000)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.bits < 1:
        parser.error("--bits must be >= 1")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for name, src in sides.items():
        if not (src / "qss4" / "__init__.py").is_file():
            parser.error(f"{name} tree {src} holds no qss4 package")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files = {name: dump(src, args.bits, work, name) for name, src in sides.items()}
        same = filecmp.cmp(files["old"], files["new"], shallow=False)
        print(f"{args.bits} target bits, {files['old'].stat().st_size} B record file, "
              f"byte-equal: {'yes' if same else 'NO'}")
        if not same:
            return 1
        for name, src in sides.items():
            print(f"{name}: {src}")
        print(f"{'pair':>6} {'tree':<4} {'records':>10} {'read_s':>8} {'read_mb':>8} "
              f"{'write_s':>8} {'write_mb':>8}")
        runs: dict[str, list[dict]] = {name: [] for name in sides}
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for name in order:
                out = work / f"rewritten-{name}.records"
                runs[name].append(probe(sides[name], files["old"], out))
                if not filecmp.cmp(files["old"], out, shallow=False):
                    print(f"{name} wrote back a different file")
                    return 1
            for name in sides:
                print(_row(str(pair + 1), name, runs[name][-1]))
        for name in sides:
            medians = {c: statistics.median(r[c] for r in runs[name]) for c in COLUMNS}
            print(_row("median", name, medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
