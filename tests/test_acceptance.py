"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the test results.
"""

import math

import numpy as np
import pytest

from qss4.adversary import AttackConfig, expected_qber_under_attack
from qss4.cli import main
from qss4.postproc import (
    ToeplitzSeed,
    VernamPad,
    KeyReuseError,
    final_key_length,
    privacy_amplify,
    reconcile,
)
from qss4.protocol import (
    KEYING_PHASES,
    Mode,
    bell_estimate_with_stderr,
    estimate_bell_table,
    run_protocol,
    semi_access_predictor,
)
from qss4.quantum import (
    ALL_COMBOS,
    BellSetting,
    NoiseModel,
    PARITY_SIGN,
    bell_S,
    bell_S_from_table,
    correlation_analytic,
    correlation_from_distribution,
    make_psi4_minus,
    outcome_distribution,
    qber_from_visibility,
)
from qss4.source import PartySchedule, SessionStreams, SourceConfig, run_session


def _report(criterion: int, ok: bool, detail: str) -> None:
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_correlation_oracle_equivalence():
    rng = np.random.default_rng(2024)
    state = make_psi4_minus()
    worst = 0.0
    for _ in range(1000):
        phis = rng.uniform(-2 * math.pi, 2 * math.pi, 4)
        sampled = correlation_from_distribution(outcome_distribution(state, phis))
        worst = max(worst, abs(sampled - correlation_analytic(*phis)))
    _report(1, worst < 1e-9, f"state-vector vs closed-form correlation, worst |diff| = {worst:.2e}")


def test_criterion_02_bell_value_and_classical_bound():
    setting = BellSetting.maximal_violation()
    s_value = bell_S(setting, correlation_analytic)
    quantum_ok = abs(s_value - 1.886) <= 1e-3

    rng = np.random.default_rng(7)
    settings = [setting] + [
        BellSetting(*(tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(4)))
        for _ in range(3)
    ]
    worst_lhv = 0.0
    for bs in settings:
        for strategy in range(256):
            values = [(1 if (strategy >> i) & 1 else -1) for i in range(8)]
            table = {}
            for combo in ALL_COMBOS:
                sign = 1
                for party, label in enumerate(combo):
                    sign *= values[2 * party + label]
                table[combo] = float(sign)
            worst_lhv = max(worst_lhv, bell_S_from_table(table))
    lhv_ok = worst_lhv <= 1.0 + 1e-12
    _report(
        2,
        quantum_ok and lhv_ok,
        f"S = {s_value:.4f} (target 1.886 +/- 0.001), deterministic-strategy max = {worst_lhv:.12f}",
    )


def test_criterion_03_visibility_scaled_bell_estimate():
    visibility = 0.943
    n_records = 200_000
    rng = np.random.default_rng(33)
    setting = BellSetting.maximal_violation()
    state = make_psi4_minus()
    noise = NoiseModel(visibility=visibility)
    per_combo = rng.multinomial(n_records, np.full(16, 1 / 16))
    labels = []
    parities = []
    for combo, count in zip(ALL_COMBOS, per_combo):
        dist = outcome_distribution(state, setting.phases_for(combo), noise)
        counts = rng.multinomial(count, dist.probs)
        odd = int(counts[PARITY_SIGN < 0].sum())
        labels.extend([combo] * count)
        parities.extend([1] * odd + [0] * (count - odd))
    table, _, variances = estimate_bell_table(
        np.array(labels, dtype=np.int64), np.array(parities, dtype=np.uint8)
    )
    s_value, stderr = bell_estimate_with_stderr(table, variances)
    ok = abs(s_value - 1.779) <= 3 * stderr
    _report(
        3,
        ok,
        f"sampled S = {s_value:.4f} +/- {stderr:.4f} over {n_records} Bell records "
        f"(target 1.779 = 0.943 * 1.886)",
    )


def test_criterion_04_qber_chain():
    exact_ok = (
        abs(qber_from_visibility(0.9023) - 0.04885) < 1e-12
        and abs(qber_from_visibility(0.8955) - 0.05225) < 1e-12
    )
    result = run_protocol(
        mode=Mode.QBER,
        visibility=0.9,
        target_sifted_bits=2000,
        seed=404,
        source_config=SourceConfig(four_photon_rate=3.0),
    )
    estimate = result.check_report.estimate
    sigma = math.sqrt(0.05 * 0.95 / result.check_report.sample_size)
    session_ok = abs(estimate - 0.05) <= 3 * sigma
    _report(
        4,
        exact_ok and session_ok,
        f"visibility->QBER mapping exact; session estimate {estimate:.4f} vs 0.05 "
        f"(3 sigma = {3 * sigma:.4f}, 2000 sifted bits)",
    )


def test_criterion_05_parity_reconstruction_law():
    result = run_protocol(
        mode=Mode.QBER,
        visibility=1.0,
        target_sifted_bits=1500,
        seed=505,
        source_config=SourceConfig(four_photon_rate=3.0),
    )
    key = result.sifted_key
    matches = int(np.sum(key.bits["Alice"] == key.access_xor("Alice")))
    ok = matches == len(key) and result.check_report.estimate == 0.0
    _report(
        5,
        ok,
        f"noiseless session: x_B^x_C^x_D == x_A for {matches}/{len(key)} sifted bits",
    )


def test_criterion_06_semi_access_leakage():
    exact = (
        abs(semi_access_predictor({"Bob": 0, "Claire": 0})[1] - 1.0) < 1e-12
        and abs(semi_access_predictor({"Bob": 0, "Claire": 1})[0] - 0.8) < 1e-12
        and abs(semi_access_predictor({"Bob": 0})[0] - 2 / 3) < 1e-12
    )
    n = 120_000
    rng = np.random.default_rng(606)
    dist = outcome_distribution(make_psi4_minus(), (0.0,) * 4)
    counts = rng.multinomial(n, dist.probs)
    joint = counts.reshape(2, 2, 2, 2)

    # P(a=V | b=H, c=H) = 1
    n_bh_ch = joint[:, 0, 0, :].sum()
    p1 = joint[1, 0, 0, :].sum() / n_bh_ch
    ok1 = p1 == 1.0

    # P(a=H | b=H, c=V) = 4/5
    n_bh_cv = joint[:, 0, 1, :].sum()
    p2 = joint[0, 0, 1, :].sum() / n_bh_cv
    s2 = math.sqrt(0.8 * 0.2 / n_bh_cv)
    ok2 = abs(p2 - 0.8) <= 3 * s2

    # P(a=H | b=H) = 2/3
    n_bh = joint[:, 0, :, :].sum()
    p3 = joint[0, 0, :, :].sum() / n_bh
    s3 = math.sqrt((2 / 3) * (1 / 3) / n_bh)
    ok3 = abs(p3 - 2 / 3) <= 3 * s3

    _report(
        6,
        exact and ok1 and ok2 and ok3,
        f"conditional frequencies {p1:.4f}/{p2:.4f}/{p3:.4f} vs 1, 0.8, 0.6667 "
        f"over {n} matching-basis rounds",
    )


def test_criterion_07_sift_ratio_and_throughput():
    ratio_session = run_protocol(
        mode=Mode.QBER,
        visibility=1.0,
        n_windows=105_000,
        seed=707,
        source_config=SourceConfig(four_photon_rate=5.0),
    )
    detected = ratio_session.counts.detected
    retained = ratio_session.counts.key_pool / detected
    sigma = math.sqrt((1 / 8) * (7 / 8) / detected)
    ratio_ok = abs(retained - 1 / 8) <= 3 * sigma

    # one simulated hour at the experimental rate, counting every event
    # registered in a window (same-interval accounting)
    hour = run_protocol(
        mode=Mode.QBER,
        visibility=1.0,
        n_windows=3600,
        seed=708,
        source_config=SourceConfig(four_photon_rate=0.4, first_event_only=False),
    )
    per_hour = hour.counts.key_pool
    throughput_ok = 196 * 0.8 <= per_hour <= 196 * 1.2
    _report(
        7,
        ratio_ok and throughput_ok,
        f"retained fraction {retained:.4f} vs 1/8 over {detected} detections; "
        f"{per_hour} sifted bits in one simulated hour vs 196 +/- 20%",
    )


def test_criterion_08_eavesdropping_detection():
    attack = AttackConfig(
        attacked_modes=("b",), eve_bases=KEYING_PHASES, attack_fraction=1.0
    )
    state = make_psi4_minus()
    noise = NoiseModel(visibility=1.0, attack=attack)
    config = SourceConfig(four_photon_rate=5.0)
    errors = 0
    rounds = 0
    expected = 0.0
    for seed_offset, phi in enumerate(KEYING_PHASES):
        schedules = tuple(PartySchedule(phases=(phi, phi)) for _ in range(4))
        records = run_session(
            55_000, schedules, state, noise, config, SessionStreams.from_seed(808 + seed_offset)
        )
        bits = records.bits_at(np.nonzero(records.detected)[0])
        rounds += bits.shape[1]
        errors += int((bits[0] ^ bits[1] ^ bits[2] ^ bits[3]).sum())
        expected += 0.5 * expected_qber_under_attack(attack, (phi,), visibility=1.0)
    empirical = errors / rounds
    sigma = math.sqrt(expected * (1 - expected) / rounds)
    stat_ok = abs(empirical - expected) <= 3 * sigma

    session = run_protocol(
        mode=Mode.QBER,
        visibility=1.0,
        target_sifted_bits=600,
        seed=809,
        source_config=SourceConfig(four_photon_rate=3.0),
        attack=attack,
    )
    abort_ok = session.aborted and session.check_report.estimate > 0.11
    _report(
        8,
        stat_ok and abort_ok,
        f"intercept-resend QBER {empirical:.4f} vs enumerated {expected:.4f} "
        f"over {rounds} matched rounds; session verdict = {session.check_report.verdict}",
    )


def test_criterion_09_postprocessing():
    # 10^3 seeded reconciliation trials at 1800 bits / 5% errors
    n_trials = 1000
    failures = 0
    leaks = []
    for trial in range(n_trials):
        rng = np.random.default_rng(9000 + trial)
        dealer = rng.integers(0, 2, 1800, dtype=np.uint8)
        access = dealer ^ (rng.random(1800) < 0.05).astype(np.uint8)
        result = reconcile(dealer, access, qber_hint=0.05, rng=rng)
        if not np.array_equal(result.access_bits, dealer):
            failures += 1
        leaks.append(result.leaked_bits)
    success_rate = 1.0 - failures / n_trials
    success_ok = success_rate >= 0.999

    median_leak = int(np.median(leaks))
    final_len = final_key_length(1800, 0.05, median_leak, 40)
    length_ok = 150 <= final_len <= 450

    # GF(2) linearity of privacy amplification
    rng = np.random.default_rng(91)
    linear_ok = True
    seed = ToeplitzSeed.random(256, 64, rng)
    for _ in range(200):
        k1 = rng.integers(0, 2, 256, dtype=np.uint8)
        k2 = rng.integers(0, 2, 256, dtype=np.uint8)
        if not np.array_equal(
            privacy_amplify(k1 ^ k2, seed),
            privacy_amplify(k1, seed) ^ privacy_amplify(k2, seed),
        ):
            linear_ok = False
            break

    # one-time pad round trip and strict single use
    pad_tx, pad_rx = VernamPad([0, 1, 1, 0, 1]), VernamPad([0, 1, 1, 0, 1])
    message = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
    vernam_ok = np.array_equal(
        pad_rx.decrypt(pad_tx.encrypt(message)), message
    )
    try:
        pad_tx.encrypt(np.array([1], dtype=np.uint8))
        reuse_ok = False
    except KeyReuseError:
        reuse_ok = True

    _report(
        9,
        success_ok and length_ok and linear_ok and vernam_ok and reuse_ok,
        f"reconciliation success {success_rate:.4f} (>= 0.999), median leak {median_leak} "
        f"-> final length {final_len} in [150, 450]; PA linear; Vernam round-trip with reuse rejected",
    )


def test_criterion_10_visibility_fitting(tmp_path):
    targets = [
        (0.923, "0rad"),
        (0.882, "90deg"),
        (0.902, "45deg"),
        (0.890, "-45deg"),
    ]
    details = []
    ok = True
    for i, (visibility, fixed) in enumerate(targets):
        out = tmp_path / f"scan{i}"
        code = main(
            [
                "correlation-scan",
                "--seed", str(3004 + i),
                "--visibility", str(visibility),
                "--samples", "4000",
                f"--scan-fixed={fixed}",  # '=' form survives the leading minus
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        fit = dict(
            line.split("=", 1)
            for line in (out / "correlation_fit.txt").read_text().splitlines()
            if "=" in line
        )
        v_hat = float(fit["visibility_fit"])
        sigma = float(fit["visibility_fit_sigma"])
        ok = ok and abs(v_hat - visibility) <= 2 * sigma
        details.append(f"{visibility}->{v_hat:.4f}+/-{sigma:.4f}")
    _report(10, ok, "fitted visibilities within 2 sigma: " + ", ".join(details))


def test_criterion_11_deterministic_outputs(tmp_path):
    commands = {
        "histogram": ["histogram", "--seed", "2", "--samples", "20000"],
        "correlation-scan": ["correlation-scan", "--seed", "2", "--samples", "1500"],
        "qss-run": ["qss-run", "--seed", "2", "--target-bits", "200", "--rate", "3.0"],
        "bell-test": ["bell-test", "--seed", "2", "--windows", "9000", "--rate", "3.0"],
    }
    ok = True
    for name, argv in commands.items():
        dirs = []
        for run in ("x", "y"):
            out = tmp_path / f"{name}-{run}"
            code = main(argv + ["--out-dir", str(out)])
            assert code == 0, f"{name} exited {code}"
            dirs.append(out)
        files_x = sorted(p.name for p in dirs[0].iterdir())
        files_y = sorted(p.name for p in dirs[1].iterdir())
        same = files_x == files_y and all(
            (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files_x
        )
        ok = ok and same
    _report(11, ok, "byte-identical reruns for histogram, correlation-scan, qss-run, bell-test")
