import math

import numpy as np
import pytest

from qss4.adversary import (
    AttackConfig,
    enumerate_attack_branches,
    expected_qber_under_attack,
    marginal_under_attack,
)
from qss4.quantum import NoiseModel, make_psi4_minus
from qss4.source import PartySchedule, SessionStreams, SourceConfig, run_session

KEYING = (0.0, math.pi / 2)


def test_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(attacked_modes=("x",), eve_bases=KEYING)
    with pytest.raises(ValueError):
        AttackConfig(attacked_modes=("b", "b"), eve_bases=KEYING)
    with pytest.raises(ValueError):
        AttackConfig(attacked_modes=("b",), eve_bases=())
    with pytest.raises(ValueError):
        AttackConfig(attacked_modes=("b",), eve_bases=KEYING, attack_fraction=1.5)
    # composition order is canonical a -> d
    config = AttackConfig(attacked_modes=("d", "b"), eve_bases=KEYING)
    assert config.attacked_modes == ("b", "d")


def _attacked_session(n, attack, phase, seed, rate=5.0):
    schedules = tuple(PartySchedule(phases=(phase, phase)) for _ in range(4))
    streams = SessionStreams.from_seed(seed)
    records = run_session(
        n, schedules, make_psi4_minus(), NoiseModel(visibility=1.0),
        SourceConfig(four_photon_rate=rate), streams, attack=attack,
    )
    return records, streams


def test_zero_fraction_is_identity():
    config = AttackConfig(attacked_modes=("b",), eve_bases=KEYING, attack_fraction=0.0)
    attacked, streams = _attacked_session(3000, config, 0.0, seed=4)
    clean, clean_streams = _attacked_session(3000, None, 0.0, seed=4)
    assert attacked == clean
    # a zero-fraction attack never touches the adversary stream
    assert streams.adversary.random() == clean_streams.adversary.random()


def test_expected_qber_without_attack_matches_visibility():
    config = AttackConfig(attacked_modes=(), eve_bases=(), attack_fraction=0.0)
    assert expected_qber_under_attack(config, KEYING, visibility=1.0) == pytest.approx(0.0, abs=1e-12)
    assert expected_qber_under_attack(config, KEYING, visibility=0.9) == pytest.approx(0.05, abs=1e-12)


def test_expected_qber_full_intercept_mode_b():
    # same-basis interceptions are invisible, conjugate-basis ones randomize
    # the tapped bit completely: (1/2)*0 + (1/2)*(1/2) = 1/4
    config = AttackConfig(attacked_modes=("b",), eve_bases=KEYING, attack_fraction=1.0)
    value = expected_qber_under_attack(config, KEYING, visibility=1.0)
    assert value == pytest.approx(0.25, abs=1e-9)
    assert 0.0 < value < 0.5


def test_same_basis_eve_preserves_parity_law():
    for phi in KEYING:
        config = AttackConfig(attacked_modes=("b",), eve_bases=(phi,), attack_fraction=1.0)
        # parties keyed on the same phase Eve uses: no disturbance
        qber = expected_qber_under_attack(config, (phi,), visibility=1.0)
        assert qber < 1e-12


def test_branch_probabilities_sum_to_one():
    config = AttackConfig(attacked_modes=("b", "c"), eve_bases=KEYING)
    branches = enumerate_attack_branches(config)
    total = sum(w for w, _ in branches)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_expected_qber_monotone_in_fraction():
    config = AttackConfig(attacked_modes=("b",), eve_bases=KEYING, attack_fraction=1.0)
    previous = -1.0
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        cfg = AttackConfig(attacked_modes=("b",), eve_bases=KEYING, attack_fraction=fraction)
        value = expected_qber_under_attack(cfg, KEYING, visibility=1.0)
        assert value >= previous - 1e-12
        previous = value


def test_no_signaling_marginals_stay_uniform():
    config = AttackConfig(attacked_modes=("b",), eve_bases=KEYING, attack_fraction=1.0)
    for mode in "abcd":
        for phi in KEYING:
            marginal = marginal_under_attack(config, phi, mode)
            assert np.allclose(marginal, 0.5, atol=1e-12)


def test_monte_carlo_agrees_with_enumeration():
    config = AttackConfig(attacked_modes=("b",), eve_bases=KEYING, attack_fraction=1.0)
    expected = expected_qber_under_attack(config, (0.0,), visibility=1.0)
    records, _ = _attacked_session(20_200, config, 0.0, seed=21)
    outcomes = records.outcomes[records.detected]
    n = len(outcomes)
    assert n > 19_000
    errors = sum(bin(int(o)).count("1") % 2 for o in outcomes)
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(errors / n - expected) < 3 * sigma


def test_multi_mode_attack_is_more_disruptive():
    one = AttackConfig(attacked_modes=("b",), eve_bases=KEYING)
    two = AttackConfig(attacked_modes=("b", "c"), eve_bases=KEYING)
    q1 = expected_qber_under_attack(one, KEYING)
    q2 = expected_qber_under_attack(two, KEYING)
    assert q2 > q1
