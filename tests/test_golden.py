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
        "records.csv": "89d0cf89617622faa7da317c00e1955676e522b214c363ea57e21a9fe9dd9c1a",
        "session_report.txt": "936331b6c641730aab0c33a02de651d15cd0dd602c6fc408c6da49f2021df014",
        "wire_transcript.bin": "03f0625b2bbe2eb7b552d4a85e2a730736ab60169d56702927e5c39bb6dc187b",
    }),
    ("qber-target", 11): (0, {
        "access_key.hex": "f42ca283bdc7d81373f887527c0734f35b2a1a2f8d357d9fd007b883faa4b1fe",
        "ciphertext.hex": "6da777400f698b930533ab07dfde3794912d9386ef584d9a373381c7d3164c8f",
        "dealer_key.hex": "f42ca283bdc7d81373f887527c0734f35b2a1a2f8d357d9fd007b883faa4b1fe",
        "key_transcript.txt": "70661d3dea08079d45632dc03517223828b7879b5e19b3b5527ef4e4e3132098",
        "records.csv": "3cb5c3721913a52a639fe86dd7e8965adf0b5e7278e0e50668b0ca673ba96e17",
        "session_report.txt": "32c239ea98863f02281e6ef4a306e213da777e3d3f50bee3174c112498c2afb0",
        "wire_transcript.bin": "0bdfc28923c4cb4e7c4a52cc4a07d2eaa7dbe18dbc5ef97ce1c618b7a19af074",
    }),
    ("bell-attacked", 3): (0, {
        "access_key.hex": "07a133b4b1fb19cd9bf2587bd7e1a48eaf1905b18e49356857edbe1486355b86",
        "ciphertext.hex": "dd367c4576823ed3bef50d63b8e2c06d9b3e0f090dd77e57d904057d0f212467",
        "dealer_key.hex": "07a133b4b1fb19cd9bf2587bd7e1a48eaf1905b18e49356857edbe1486355b86",
        "key_transcript.txt": "d6ba2e60097b7e7d70cabab8ef29e05365a094cec64d9419f9acbfebc1f11a61",
        "records.csv": "6bcd450d7c10ee6d2cc4364d7d7a8bf6dd6b1472f61b321ed194647a2f4d1c3b",
        "session_report.txt": "8a8de17230af085bb2d4ff6da3974541f2fac92e5cd2a0e336c7ba106564162d",
        "wire_transcript.bin": "b0d9ebe6adb9a63ebb9c7e53e5e0a771fb4287314da2c35a06bfcd50d4646fbc",
    }),
    ("bell-attacked", 11): (0, {
        "access_key.hex": "b109869559bf96c9d38b1c8b76555423d551b7c51ca993a84ee2c5c389be1c6b",
        "dealer_key.hex": "b109869559bf96c9d38b1c8b76555423d551b7c51ca993a84ee2c5c389be1c6b",
        "key_transcript.txt": "ed78e04b134db127aa31f0a5d032c8e655975d4fb0719d22844d48f3e5121d0e",
        "records.csv": "5bcefdeecd1c0e8f2de75c8a93aa551826906fcdb347e7466e22125515b30467",
        "session_report.txt": "8601c180a48a790be3e8d3343692871eca90408e708ca4e3d7ca45fde88c1589",
        "wire_transcript.bin": "d793df5bd2ef84c1511edefc2db12b5b174fb3688013fc2fb2fea0b4fb926402",
    }),
    ("count-all", 3): (0, {
        "access_key.hex": "b531ecdb71aa211839f65092d9fa3d2d95f98eb03660cc76c36a95d51223efcd",
        "ciphertext.hex": "a715d4e9d1d0053b57d9878456435738d00b6a4129a7c5046bbbcd033505b5a4",
        "dealer_key.hex": "b531ecdb71aa211839f65092d9fa3d2d95f98eb03660cc76c36a95d51223efcd",
        "key_transcript.txt": "981c43d324fa27a10e488397234877ad32a58001c908c2aab2a8e6bbbc24c1da",
        "records.csv": "ae68f515dbc1c3b46c5a8aa0d07b9c32ea639117a144a6b10ed4926bd94338ce",
        "session_report.txt": "85626dee7fcebfa62e4661012be823ba1e3b5b357db73b7c58b034367bbc0c7b",
        "wire_transcript.bin": "c70247920cd94e6e58c9d68d52626c519ad27b4968f247e96d1a6d86670ffb60",
    }),
    ("count-all", 11): (0, {
        "access_key.hex": "e484ab634ed253bd7c6c386a6b2244576eefa3b27569a0719b04c84275f01780",
        "ciphertext.hex": "c1c44a4c7fe99caf44a97bec16ddbcbcbeb7f4a6e75fefa1f99831e0979895df",
        "dealer_key.hex": "e484ab634ed253bd7c6c386a6b2244576eefa3b27569a0719b04c84275f01780",
        "key_transcript.txt": "03f6f391a5c534f81951bbf91bcaafcdafeca2e0f99ed7c5b2db96a58c278851",
        "records.csv": "d77746a99ddbfeead49e194ce0fceba49328f6f35c151d9057603ca4bf535c15",
        "session_report.txt": "af298f57ff2154dbce004357f7874fc21caa4e138dd98f7d1c557109535064ab",
        "wire_transcript.bin": "a39a04935e356457b92ffb9d0969f94ce20505d839f58039e5c395be43d57544",
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
