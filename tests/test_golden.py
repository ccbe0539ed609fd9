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
        "access_key.hex": "c1b4a265a187e76421480fc6a8bae640958f273ab30d8e58faf394254898b6f8",
        "ciphertext.hex": "535758ca6a436b69a97bb8de9c088372632c0d59e92604c26e90b5a0c99f5cd7",
        "dealer_key.hex": "c1b4a265a187e76421480fc6a8bae640958f273ab30d8e58faf394254898b6f8",
        "key_transcript.txt": "d748fa1ab7631263ff4bb5722830f61414f041304473bb3f61ce0612d856ad7c",
        "records.csv": "89d0cf89617622faa7da317c00e1955676e522b214c363ea57e21a9fe9dd9c1a",
        "session_report.txt": "c8c2b4937a679ad7ddf3571d19c5187317e017b16af17720958faaa5e896180e",
        "wire_transcript.bin": "387f1fad8ec78a3cc2748c2e534050429cbd34e7c4355615f28d7b9e644dfb27",
    }),
    ("qber-target", 11): (0, {
        "access_key.hex": "f42ca283bdc7d81373f887527c0734f35b2a1a2f8d357d9fd007b883faa4b1fe",
        "ciphertext.hex": "6da777400f698b930533ab07dfde3794912d9386ef584d9a373381c7d3164c8f",
        "dealer_key.hex": "f42ca283bdc7d81373f887527c0734f35b2a1a2f8d357d9fd007b883faa4b1fe",
        "key_transcript.txt": "70661d3dea08079d45632dc03517223828b7879b5e19b3b5527ef4e4e3132098",
        "records.csv": "3cb5c3721913a52a639fe86dd7e8965adf0b5e7278e0e50668b0ca673ba96e17",
        "session_report.txt": "32c239ea98863f02281e6ef4a306e213da777e3d3f50bee3174c112498c2afb0",
        "wire_transcript.bin": "a6bc1bb78b940e34e636fb85af549ff4cf784634ef34a4955627394342f80536",
    }),
    ("bell-attacked", 3): (0, {
        "access_key.hex": "c1b3b91469cbfb6b2266254bd7c9cc5d467506bf751092c9f7f5a7dbf6e5ec8e",
        "ciphertext.hex": "95020f47fe207e82e70299cbd3406289500f9b6ff68485be6cf6ee81dd7632fd",
        "dealer_key.hex": "c1b3b91469cbfb6b2266254bd7c9cc5d467506bf751092c9f7f5a7dbf6e5ec8e",
        "key_transcript.txt": "d6ba2e60097b7e7d70cabab8ef29e05365a094cec64d9419f9acbfebc1f11a61",
        "records.csv": "6bcd450d7c10ee6d2cc4364d7d7a8bf6dd6b1472f61b321ed194647a2f4d1c3b",
        "session_report.txt": "7517dd6ea8682ca91c343f62df71dc01c4ac9a31a3938ad9cb1b49896c36bf1f",
        "wire_transcript.bin": "02d3bb85d99131ba8301b04e56c474d2025cc17dccc2643e5eeb61b74618683d",
    }),
    ("bell-attacked", 11): (0, {
        "access_key.hex": "01b3325fc9efecc17d9be00add40eccb3629813155bbefbed27c935c5185dd6a",
        "dealer_key.hex": "01b3325fc9efecc17d9be00add40eccb3629813155bbefbed27c935c5185dd6a",
        "key_transcript.txt": "ed78e04b134db127aa31f0a5d032c8e655975d4fb0719d22844d48f3e5121d0e",
        "records.csv": "5bcefdeecd1c0e8f2de75c8a93aa551826906fcdb347e7466e22125515b30467",
        "session_report.txt": "adb16d0c81ea2260714ffd40ca77d02c9f8f3d968a8447f401b382d27f26e0be",
        "wire_transcript.bin": "d7220f0b0a947626cad5b03c218e9b35df5acebdee614147cd54c7b134c0c25c",
    }),
    ("count-all", 3): (0, {
        "access_key.hex": "b531ecdb71aa211839f65092d9fa3d2d95f98eb03660cc76c36a95d51223efcd",
        "ciphertext.hex": "a715d4e9d1d0053b57d9878456435738d00b6a4129a7c5046bbbcd033505b5a4",
        "dealer_key.hex": "b531ecdb71aa211839f65092d9fa3d2d95f98eb03660cc76c36a95d51223efcd",
        "key_transcript.txt": "981c43d324fa27a10e488397234877ad32a58001c908c2aab2a8e6bbbc24c1da",
        "records.csv": "ae68f515dbc1c3b46c5a8aa0d07b9c32ea639117a144a6b10ed4926bd94338ce",
        "session_report.txt": "85626dee7fcebfa62e4661012be823ba1e3b5b357db73b7c58b034367bbc0c7b",
        "wire_transcript.bin": "64047f8532e4fbd48ff095584e9b2a0d555c5b964f237cb80cfd2409b520f149",
    }),
    ("count-all", 11): (0, {
        "access_key.hex": "c5d288d6c470bfb132e20ff019a60350b2870c4a031f38376e90ced05448a351",
        "ciphertext.hex": "b3da03794a8d5ff0b760021c20bd18daf4e1a77d14476df581091c7325701b89",
        "dealer_key.hex": "c5d288d6c470bfb132e20ff019a60350b2870c4a031f38376e90ced05448a351",
        "key_transcript.txt": "03f6f391a5c534f81951bbf91bcaafcdafeca2e0f99ed7c5b2db96a58c278851",
        "records.csv": "d77746a99ddbfeead49e194ce0fceba49328f6f35c151d9057603ca4bf535c15",
        "session_report.txt": "d40f0b0d33814b08e71bdabbce387ae62f34337566c512ec0d0d8d42508720a8",
        "wire_transcript.bin": "55c1cd432155346e0244911493186424a98f9fd5b77b442fe11df5c43f576f28",
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
