import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qss4 import postproc
from qss4.channel import MSG_HASH_SEED, MSG_PARITY, Channel, audit_outcome_hygiene
from qss4.postproc import (
    FORMULA_ID,
    _masked_parities,
    _verify_masks,
    KeyMaterial,
    KeyReuseError,
    ReconcileConfig,
    ReconciliationError,
    ToeplitzSeed,
    VernamPad,
    binary_entropy,
    bits_to_hex,
    final_key_length,
    hex_to_bits,
    privacy_amplify,
    read_key_file,
    reconcile,
    run_key_pipeline,
    write_key_file,
)


def test_key_material_stages():
    sifted = KeyMaterial(stage="sifted", bits=[1, 0, 1])
    reconciled = sifted.advanced("reconciled", [1, 0, 1], leaked_bits=12)
    final = reconciled.advanced("final", [1])
    assert final.leaked_bits == 12
    with pytest.raises(ValueError):
        final.advanced("sifted", [1])
    with pytest.raises(ValueError):
        KeyMaterial(stage="raw", bits=[0])
    with pytest.raises(ValueError):
        KeyMaterial(stage="sifted", bits=[2])


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
    assert binary_entropy(0.05) == pytest.approx(0.2864, abs=1e-4)


def test_final_key_length():
    assert final_key_length(1800, 0.0, 0, 40) == 1760
    assert final_key_length(1800, 0.25, 0, 40) == 0  # 1 - 2*h2(0.25) < 0
    assert final_key_length(100, 0.0, 200, 0) == 0
    with pytest.raises(ValueError):
        final_key_length(100, 0.5, 0)


# --- reconciliation ---------------------------------------------------------


def test_reconcile_identical_inputs():
    rng = np.random.default_rng(0)
    key = rng.integers(0, 2, 600, dtype=np.uint8)
    result = reconcile(key, key.copy(), qber_hint=0.0, rng=np.random.default_rng(1))
    assert np.array_equal(result.access_bits, key)
    assert result.corrected == 0
    # only the mandatory block parities and the verification leak
    assert result.leaked_bits <= 1 + ReconcileConfig().verify_bits


def test_reconcile_single_error():
    rng = np.random.default_rng(1)
    dealer = rng.integers(0, 2, 400, dtype=np.uint8)
    access = dealer.copy()
    access[137] ^= 1
    result = reconcile(dealer, access, qber_hint=0.05, rng=np.random.default_rng(2))
    assert np.array_equal(result.access_bits, dealer)
    assert result.corrected == 1


def test_reconcile_representative_noise():
    failures = 0
    for trial in range(25):
        rng = np.random.default_rng(3000 + trial)
        dealer = rng.integers(0, 2, 1800, dtype=np.uint8)
        access = dealer ^ (rng.random(1800) < 0.05).astype(np.uint8)
        result = reconcile(dealer, access, qber_hint=0.05, rng=rng)
        if not np.array_equal(result.access_bits, dealer):
            failures += 1
    assert failures == 0


def test_reconcile_leak_matches_transcript():
    rng = np.random.default_rng(7)
    dealer = rng.integers(0, 2, 1200, dtype=np.uint8)
    access = dealer ^ (rng.random(1200) < 0.04).astype(np.uint8)
    channel = Channel()
    result = reconcile(dealer, access, channel=channel, qber_hint=0.04, rng=rng)
    parity_bits = sum(
        len(m.payload.get("parities", []))
        for m in channel.transcript
        if m.msg_type == MSG_PARITY
    )
    assert result.leaked_bits == parity_bits
    # the access side never transmits parity material
    dealer_only = all(
        m.sender == "Alice"
        for m in channel.transcript
        if m.msg_type == MSG_PARITY and "parities" in m.payload
    )
    assert dealer_only
    audit_outcome_hygiene(channel.transcript)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 5, 3000]) | st.integers(1, 3000),
    q=st.just(0.0) | st.floats(0.0, 0.08),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, q=0.08, seed=43)  # both bits of a 2-bit key wrong
def test_reconcile_transcript_matches_dealer_key(n, q, seed):
    rng = np.random.default_rng(seed)
    dealer = rng.integers(0, 2, n, dtype=np.uint8)
    access = dealer ^ (rng.random(n) < q).astype(np.uint8)
    channel = Channel()
    result = reconcile(dealer, access, channel=channel, qber_hint=q, rng=rng)

    frames = [m for m in channel.transcript if m.msg_type == MSG_PARITY]
    setup = frames[0].payload
    assert setup["kind"] == "setup"
    perm_rng = np.random.default_rng(setup["perm_seed"])
    perms = [np.arange(n)]

    def parity(p, lo, hi):
        while len(perms) <= p:
            perms.append(perm_rng.permutation(n))
        return int(np.bitwise_xor.reduce(dealer[perms[p][lo:hi]]))

    wire_bits, request = 0, None
    for msg in frames:
        payload = msg.payload
        if "parities" in payload:
            assert msg.sender == "Alice"
            wire_bits += len(payload["parities"])
        if payload["kind"] == "block_parities":
            p, k = payload["pass_index"], payload["block_size"]
            assert all(lo % k == 0 and hi == min(lo + k, n) for lo, hi in payload["ranges"])
            assert payload["parities"] == [parity(p, lo, hi) for lo, hi in payload["ranges"]]
        elif payload["kind"] == "search_request":
            assert msg.sender == "Bob" and request is None
            request = payload["ranges"]
        elif payload["kind"] == "search_parity":
            assert len(payload["parities"]) == len(request)
            assert payload["parities"] == [parity(p, lo, hi) for p, lo, hi in request]
            request = None
    assert request is None
    assert np.array_equal(result.access_bits, dealer)
    assert result.leaked_bits == wire_bits


@pytest.mark.parametrize("rows, n", [(20, 1), (20, 8), (3, 13), (20, 3001)])
def test_verify_parities_match_dense_product(rows, n):
    rng = np.random.default_rng(rows * 10_007 + n)
    key = rng.integers(0, 2, n, dtype=np.uint8)
    seed = int(rng.integers(0, 2**31))
    mask = (np.random.default_rng(seed).random((rows, n)) < 0.5).astype(np.int64)
    dense = (mask @ key.astype(np.int64)) & 1
    assert np.array_equal(_masked_parities(_verify_masks(seed, rows, n), key), dense)


def test_reconcile_nonconvergence_raises():
    rng = np.random.default_rng(11)
    dealer = rng.integers(0, 2, 400, dtype=np.uint8)
    access = dealer ^ (rng.random(400) < 0.30).astype(np.uint8)
    config = ReconcileConfig(mandatory_passes=2, max_passes=2)
    with pytest.raises(ReconciliationError):
        # the block-size hint is badly wrong and the budget tiny
        reconcile(dealer, access, config=config, qber_hint=0.001, rng=rng)


@pytest.mark.parametrize("n, seed", [(3000, 3), (200, 4), (40, 5)])
def test_forged_search_reply_fails_fast(monkeypatch, n, seed):
    """A dealer that answers every range one position short ends in an error."""
    honest = postproc._Cascade._dealer_parities

    def short(self, ranges):
        ranges = ranges.copy()
        ranges[:, 2] -= 1
        return honest(self, ranges)

    monkeypatch.setattr(postproc._Cascade, "_dealer_parities", short)
    rng = np.random.default_rng(seed)
    dealer = rng.integers(0, 2, n, dtype=np.uint8)
    access = dealer ^ (rng.random(n) < 0.05).astype(np.uint8)
    start = time.perf_counter()
    with pytest.raises(ReconciliationError, match="corrected more than"):
        reconcile(dealer, access, qber_hint=0.05, rng=rng)
    assert time.perf_counter() - start < 10


def test_reconcile_validation():
    with pytest.raises(ValueError):
        reconcile([1, 0], [1], rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        reconcile([], [], rng=np.random.default_rng(0))
    # a subnormal hint overflows 0.73 / hint to inf: one block of the whole key
    assert ReconcileConfig().initial_block_size(600, 5e-324) == 600


# --- privacy amplification --------------------------------------------------


def test_toeplitz_seed_validation():
    ToeplitzSeed(bits=np.zeros(10, np.uint8), n_in=8, n_out=3)
    with pytest.raises(ValueError):
        ToeplitzSeed(bits=np.zeros(9, np.uint8), n_in=8, n_out=3)
    seed = ToeplitzSeed.random(6, 4, np.random.default_rng(0))
    assert seed.matrix().shape == (4, 6)


def test_toeplitz_matrix_convention():
    seed = ToeplitzSeed(bits=np.arange(10) % 2, n_in=8, n_out=3)
    t = seed.matrix()
    for i in range(3):
        for j in range(8):
            assert t[i, j] == seed.bits[8 - 1 + i - j]


def test_privacy_amplify_zero_key():
    seed = ToeplitzSeed.random(32, 8, np.random.default_rng(1))
    assert np.array_equal(privacy_amplify(np.zeros(32, np.uint8), seed), np.zeros(8, np.uint8))


def test_privacy_amplify_frozen_example():
    seed = ToeplitzSeed(
        bits=np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0], dtype=np.uint8), n_in=8, n_out=4
    )
    key = np.array([1, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8)
    # hand-checked 4x8 matrix-vector product over GF(2)
    assert privacy_amplify(key, seed).tolist() == [1, 0, 0, 1]


def test_privacy_amplify_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n_in = int(rng.integers(1, 40))
        n_out = int(rng.integers(0, n_in + 5))
        seed = ToeplitzSeed.random(n_in, n_out, rng)
        key = rng.integers(0, 2, n_in, dtype=np.uint8)
        direct = (seed.matrix() @ key) % 2 if n_out else np.zeros(0, np.uint8)
        assert np.array_equal(privacy_amplify(key, seed), direct.astype(np.uint8))


@pytest.mark.parametrize(
    "n_in, n_out",
    [
        (12000, 5449),  # qber-dense session sizes
        (9392, 2824),  # bell-attacked session sizes
        (600, 425),  # n_in + n_out - 1 = 1024, a power of two
        (600, 426),  # one past it
        (600, 850),  # len(seed) + n_in - 1 = 2048, the padded length itself
        (600, 851),  # one past it
        (1, 1),
    ],
)
def test_privacy_amplify_matches_direct_convolution(n_in, n_out):
    rng = np.random.default_rng(n_in * 7919 + n_out)
    seed = ToeplitzSeed.random(n_in, n_out, rng)
    key = rng.integers(0, 2, n_in, dtype=np.uint8)
    conv = np.convolve(seed.bits.astype(np.int64), key.astype(np.int64))
    direct = (conv[n_in - 1 : n_in - 1 + n_out] & 1).astype(np.uint8)
    assert np.array_equal(privacy_amplify(key, seed), direct)


def test_privacy_amplify_residual_check_raises(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    seed = ToeplitzSeed.random(64, 16, np.random.default_rng(3))
    with pytest.raises(RuntimeError, match="residual 0.3"):
        privacy_amplify(np.ones(64, np.uint8), seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**40 - 1), st.integers(0, 2**40 - 1), st.integers(0, 2**31 - 1))
def test_privacy_amplify_gf2_linear(k1_int, k2_int, seed_int):
    k1 = np.array([(k1_int >> i) & 1 for i in range(40)], dtype=np.uint8)
    k2 = np.array([(k2_int >> i) & 1 for i in range(40)], dtype=np.uint8)
    seed = ToeplitzSeed.random(40, 16, np.random.default_rng(seed_int))
    lhs = privacy_amplify(k1 ^ k2, seed)
    rhs = privacy_amplify(k1, seed) ^ privacy_amplify(k2, seed)
    assert np.array_equal(lhs, rhs)


def test_privacy_amplify_dimension_mismatch():
    seed = ToeplitzSeed.random(16, 4, np.random.default_rng(2))
    with pytest.raises(ValueError):
        privacy_amplify(np.zeros(15, np.uint8), seed)


# --- one-time pad -----------------------------------------------------------


def test_vernam_xor_example():
    pad = VernamPad([0, 1, 1, 0])
    cipher = pad.encrypt(np.array([1, 0, 1, 0], dtype=np.uint8))
    assert cipher.tolist() == [1, 1, 0, 0]


def test_vernam_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        key = rng.integers(0, 2, n, dtype=np.uint8)
        msg = rng.integers(0, 2, n, dtype=np.uint8)
        sender, receiver = VernamPad(key), VernamPad(key)
        assert np.array_equal(receiver.decrypt(sender.encrypt(msg)), msg)


def test_vernam_key_reuse_rejected():
    pad = VernamPad([1, 0, 1, 1])
    pad.encrypt(np.array([1, 1, 1, 1], dtype=np.uint8))
    assert pad.remaining == 0
    with pytest.raises(KeyReuseError):
        pad.encrypt(np.array([1], dtype=np.uint8))


def test_vernam_partial_consumption():
    pad = VernamPad([1, 0, 1, 1, 0, 0])
    pad.encrypt(np.array([1, 0], dtype=np.uint8))
    assert pad.spent == 2 and pad.remaining == 4
    pad.decrypt(np.array([1, 0, 1], dtype=np.uint8))
    assert pad.remaining == 1


# --- files and pipeline -----------------------------------------------------


def test_hex_roundtrip():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    assert np.array_equal(hex_to_bits(bits_to_hex(bits), 9), bits)
    assert bits_to_hex(np.zeros(0, np.uint8)) == ""
    with pytest.raises(ValueError):
        hex_to_bits("ff", 20)
    # six characters, but only four hex digits
    with pytest.raises(ValueError, match="24 bits take 6 hex digits, got 4"):
        hex_to_bits("ff  ff", 24)


def test_key_file_roundtrip(tmp_path):
    material = KeyMaterial(stage="final", bits=[1, 0, 1, 1, 0], leaked_bits=77)
    path = tmp_path / "key.hex"
    write_key_file(path, material)
    loaded = read_key_file(path)
    assert loaded.stage == "final"
    assert loaded.leaked_bits == 77
    assert np.array_equal(loaded.bits, material.bits)
    header = path.read_text().splitlines()[0]
    assert f"formula={FORMULA_ID}" in header


def _write_raw_key_file(tmp_path, header: str, hex_line: str):
    path = tmp_path / "key.hex"
    path.write_text(f"{header}\n{hex_line}\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "header",
    [
        "stage=final length=8 formula=x",
        "stage=final length=8 leaked=0 formula=x extra=1",
        "stage=final length=8 leaked=0 leaked=0 formula=x",
        "stage=final length=8 leaked=0 formula",
    ],
)
def test_key_file_rejects_bad_header(tmp_path, header):
    with pytest.raises(ValueError, match="header"):
        read_key_file(_write_raw_key_file(tmp_path, header, "ff"))


@pytest.mark.parametrize("length, hex_line", [(8, "ffff"), (9, "ff"), (4, "f"), (-1, "")])
def test_key_file_rejects_wrong_hex_length(tmp_path, length, hex_line):
    header = f"stage=final length={length} leaked=0 formula=x"
    with pytest.raises(ValueError, match="hex characters|>= 0"):
        read_key_file(_write_raw_key_file(tmp_path, header, hex_line))


def test_key_file_rejects_nonzero_padding(tmp_path):
    header = "stage=final length=5 leaked=0 formula=x"
    assert read_key_file(_write_raw_key_file(tmp_path, header, "f8")).bits.tolist() == [1] * 5
    with pytest.raises(ValueError, match="padding"):
        read_key_file(_write_raw_key_file(tmp_path, header, "f9"))


def test_run_key_pipeline_end_to_end():
    rng = np.random.default_rng(23)
    dealer = rng.integers(0, 2, 900, dtype=np.uint8)
    access = dealer ^ (rng.random(900) < 0.03).astype(np.uint8)
    channel = Channel()
    pipeline = run_key_pipeline(
        dealer, access, qber_estimate=0.03, channel=channel, rng=rng
    )
    assert pipeline.keys_match
    assert pipeline.final_length > 0
    assert len(pipeline.dealer_material.bits) == pipeline.final_length
    assert pipeline.dealer_material.stage == "final"
    assert any(m.msg_type == MSG_HASH_SEED for m in channel.transcript)
    audit_outcome_hygiene(channel.transcript)


def test_run_key_pipeline_no_extractable_key():
    rng = np.random.default_rng(29)
    dealer = rng.integers(0, 2, 120, dtype=np.uint8)
    access = dealer ^ (rng.random(120) < 0.05).astype(np.uint8)
    pipeline = run_key_pipeline(dealer, access, qber_estimate=0.05, rng=rng)
    assert pipeline.final_length == 0
    assert pipeline.pa_seed is None
    assert len(pipeline.dealer_material.bits) == 0
