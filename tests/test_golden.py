"""Golden digests: SHA-256 of every artifact of fixed-seed CLI runs.

The four runs cover the plain, attacked and count-all sampling paths, the
Bell check and the record file. A change that is meant to alter an
artifact regenerates these fixtures and says so; any other change must
leave them exactly as they are. ``PYTHONPATH=src python tests/test_golden.py``
prints the mapping for the current tree, in the layout of ``GOLDEN`` below.
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from qss4.cli import main

RUNS = {
    "qber-target": ["qss-run", "--target-bits", "400", "--rate", "3.0",
                    "--visibility", "0.95", "--dump-records"],
    "bell-attacked": ["qss-run", "--mode", "bell", "--attack", "b:0.3", "--windows", "6000",
                      "--rate", "3.0", "--visibility", "0.97", "--dump-records"],
    "count-all": ["qss-run", "--count-all-events", "--windows", "3000", "--rate", "2.0",
                  "--visibility", "0.95", "--dump-records"],
    "bell-test": ["bell-test", "--windows", "6000", "--rate", "3.0", "--visibility", "0.95"],
}

#: (run, seed) -> (exit code, {artifact file name: SHA-256 hex digest})
GOLDEN = {
    ("qber-target", 3): (0, {
        "access_key.hex": "4da91b0d0f2ac64a259a0201bcc164d91f30a389bb02b17e6efd0dd17c65312f",
        "ciphertext.hex": "56b4915695bb91bf54bfb8ae71c4415b9454e3c6207338aca370d88b4461eff5",
        "dealer_key.hex": "4da91b0d0f2ac64a259a0201bcc164d91f30a389bb02b17e6efd0dd17c65312f",
        "key_transcript.txt": "d748fa1ab7631263ff4bb5722830f61414f041304473bb3f61ce0612d856ad7c",
        "records.csv": "d08cf18f4eff5fa063dc87cf24796eae69ecd39b7db48ac1589149c1f862318d",
        "session_report.txt": "936331b6c641730aab0c33a02de651d15cd0dd602c6fc408c6da49f2021df014",
        "wire_transcript.bin": "7220cce512bed91cfe974f2944e3e725f0788248cd2a190d6b218087be424e84",
    }),
    ("qber-target", 11): (0, {
        "access_key.hex": "f42ca283bdc7d81373f887527c0734f35b2a1a2f8d357d9fd007b883faa4b1fe",
        "ciphertext.hex": "6da777400f698b930533ab07dfde3794912d9386ef584d9a373381c7d3164c8f",
        "dealer_key.hex": "f42ca283bdc7d81373f887527c0734f35b2a1a2f8d357d9fd007b883faa4b1fe",
        "key_transcript.txt": "70661d3dea08079d45632dc03517223828b7879b5e19b3b5527ef4e4e3132098",
        "records.csv": "7dde25d8f50a389a4d98c8f0ed168963d41fd318066b8f6b31358a19d02677c9",
        "session_report.txt": "32c239ea98863f02281e6ef4a306e213da777e3d3f50bee3174c112498c2afb0",
        "wire_transcript.bin": "27d263cde0f8b4f0aca706092a63a0de41d256d712d49391fcb3270049c9f847",
    }),
    ("bell-attacked", 3): (0, {
        "access_key.hex": "7e28f9fc03f0b4b424b46cf57ff4b1add24550f86e06efde74ede7584d10d884",
        "dealer_key.hex": "7e28f9fc03f0b4b424b46cf57ff4b1add24550f86e06efde74ede7584d10d884",
        "key_transcript.txt": "80f6fe00093ae56e2098a336fa3477f93e77ad600203c79e22a5c415b134adbb",
        "records.csv": "7df1e20202c3e592ee3ff528b8d196d3e86d84ea0e4b58650d7f9d35b357078b",
        "session_report.txt": "e5ca05d281a4d78812ec7eca1cbcfb79f2539a3af33f3ff1e16ee7174a21ec15",
        "wire_transcript.bin": "5f8b9b690bc4fdad7c4b4c6313638f41d3a89bcbcba75691009f65ca7da9c363",
    }),
    ("bell-attacked", 11): (0, {
        "access_key.hex": "2b0f2fa9f8e365e6c6668045835b0605f7f4ab7b9ca8db44a238b8cab23c5006",
        "dealer_key.hex": "2b0f2fa9f8e365e6c6668045835b0605f7f4ab7b9ca8db44a238b8cab23c5006",
        "key_transcript.txt": "5d796692dbd4dd3d4cbc8fdb1002cfeff9f28ef63244ee9d38e1286776f5f71d",
        "records.csv": "fdf023325569f0f8e144cf91f04ab2fdd71c12003e286a6dc0490b5ac163b650",
        "session_report.txt": "5e563ff96a95406b8810584e90e8b43e083d2a653a420781a0537abddca754a3",
        "wire_transcript.bin": "ee68c387a2492e0add5fe5811fa4a7b645b7435397276a61dc02c5e5f1753380",
    }),
    ("count-all", 3): (0, {
        "access_key.hex": "b531ecdb71aa211839f65092d9fa3d2d95f98eb03660cc76c36a95d51223efcd",
        "ciphertext.hex": "a715d4e9d1d0053b57d9878456435738d00b6a4129a7c5046bbbcd033505b5a4",
        "dealer_key.hex": "b531ecdb71aa211839f65092d9fa3d2d95f98eb03660cc76c36a95d51223efcd",
        "key_transcript.txt": "981c43d324fa27a10e488397234877ad32a58001c908c2aab2a8e6bbbc24c1da",
        "records.csv": "f33993427154fc8020cebde755dcd880e9269ae8055ee53f112bef2142a1fcce",
        "session_report.txt": "85626dee7fcebfa62e4661012be823ba1e3b5b357db73b7c58b034367bbc0c7b",
        "wire_transcript.bin": "b18aa6733acdbf6a2960f14299eab41e4d83ad35c3cef597447139bc7243cfe8",
    }),
    ("count-all", 11): (0, {
        "access_key.hex": "e484ab634ed253bd7c6c386a6b2244576eefa3b27569a0719b04c84275f01780",
        "ciphertext.hex": "c1c44a4c7fe99caf44a97bec16ddbcbcbeb7f4a6e75fefa1f99831e0979895df",
        "dealer_key.hex": "e484ab634ed253bd7c6c386a6b2244576eefa3b27569a0719b04c84275f01780",
        "key_transcript.txt": "03f6f391a5c534f81951bbf91bcaafcdafeca2e0f99ed7c5b2db96a58c278851",
        "records.csv": "13e739be5e42b9682de3caf69c8e25d488eccb7c41fe403b3611ce5f40252824",
        "session_report.txt": "af298f57ff2154dbce004357f7874fc21caa4e138dd98f7d1c557109535064ab",
        "wire_transcript.bin": "d89cd219995220490315d58317e92d5e1efad8aa78d201dcb57356d846d0b870",
    }),
    ("bell-test", 3): (0, {
        "bell_report.txt": "72f2b17e80e14479947bc1c6ebc301d6d14380e2ec09137531bde27eee52b860",
    }),
    ("bell-test", 11): (0, {
        "bell_report.txt": "718cc5f065b570a2079a8e893db0c4a6f4ea0ebda27bea11e2097bc82d25a93a",
    }),
}


def _artifacts(out, run, seed):
    argv = list(RUNS[run])
    if argv[-1] == "--dump-records":
        argv.append(str(out / "records.csv"))
    code = main(argv + ["--seed", str(seed), "--out-dir", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return code, digests


@pytest.mark.parametrize("run,seed", sorted(GOLDEN))
def test_golden_digests(tmp_path, run, seed):
    assert _artifacts(tmp_path, run, seed) == GOLDEN[run, seed]


def _golden_literal() -> str:
    """The ``GOLDEN`` mapping above, recomputed for the current tree."""
    lines = ["GOLDEN = {"]
    for run, seed in GOLDEN:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            code, digests = _artifacts(Path(tmp), run, seed)
        lines.append(f'    ("{run}", {seed}): ({code}, {{')
        lines += [f'        "{name}": "{digest}",' for name, digest in digests.items()]
        lines.append("    }),")
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py  prints the mapping to paste above
    print(_golden_literal())
