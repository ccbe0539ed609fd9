import math
from itertools import product

import numpy as np
import pytest

from qss4.quantum import (
    ALL_COMBOS,
    PATTERNS,
    BellSetting,
    NoiseModel,
    OutcomeDistribution,
    PureState,
    analyzer_eigenstate,
    bell_S,
    bell_S_from_table,
    collapse_after_single_mode_measurement,
    correlation_analytic,
    correlation_from_distribution,
    make_psi4_minus,
    mode_axis,
    outcome_distribution,
    pattern_index,
    qber_from_visibility,
)

INV = 1.0 / (2.0 * math.sqrt(3.0))


def test_state_amplitudes():
    state = make_psi4_minus()
    assert state.amplitude("HHVV") == pytest.approx(2 * INV, abs=1e-15)
    assert state.amplitude("VVHH") == pytest.approx(2 * INV, abs=1e-15)
    for pattern in ("HVHV", "HVVH", "VHHV", "VHVH"):
        assert state.amplitude(pattern) == pytest.approx(-INV, abs=1e-15)
    assert state.amplitude("HHHH") == 0
    assert abs(state.norm_squared() - 1.0) < 1e-12
    nonzero = {i for i in range(16) if abs(state.amplitudes[i]) > 0}
    assert nonzero == {pattern_index(p) for p in ("HHVV", "HVHV", "HVVH", "VHHV", "VHVH", "VVHH")}


def test_state_rejects_unnormalized():
    amps = np.zeros(16, dtype=complex)
    amps[0] = 2.0
    with pytest.raises(ValueError, match="norm"):
        PureState(amps)
    with pytest.raises(ValueError):
        PureState(np.zeros(8, dtype=complex))


def test_pattern_helpers():
    assert pattern_index("HHVV") == 0b0011
    assert pattern_index((1, 0, 1, 0)) == 0b1010
    assert [pattern_index(label) for label in PATTERNS] == list(range(16))
    with pytest.raises(ValueError):
        pattern_index("HHXX")
    assert mode_axis("c") == 2
    with pytest.raises(ValueError):
        mode_axis("e")


def test_eigenstate_convention():
    # phi = 0 analyzes H/V
    c_h, c_v = analyzer_eigenstate(0.0, +1)
    assert abs(c_v) < 1e-12 and abs(abs(c_h) - 1.0) < 1e-12
    c_h, c_v = analyzer_eigenstate(0.0, -1)
    assert abs(c_h) < 1e-12 and abs(abs(c_v) - 1.0) < 1e-12
    # phi = pi/2 analyzes the +-45 degree basis
    c_h, c_v = analyzer_eigenstate(math.pi / 2, +1)
    assert abs(c_h - c_v) < 1e-12
    assert abs(abs(c_h) - 1 / math.sqrt(2)) < 1e-12


def test_eigenstate_orthonormal():
    rng = np.random.default_rng(3)
    for phi in rng.uniform(-10, 10, 50):
        plus = analyzer_eigenstate(phi, +1)
        minus = analyzer_eigenstate(phi, -1)
        assert abs(np.vdot(plus, plus) - 1.0) < 1e-12
        assert abs(np.vdot(minus, minus) - 1.0) < 1e-12
        assert abs(np.vdot(plus, minus)) < 1e-12
    with pytest.raises(ValueError):
        analyzer_eigenstate(0.0, 0)


def test_distribution_matched_settings():
    dist = outcome_distribution(make_psi4_minus(), (0.0, 0.0, 0.0, 0.0))
    expected = {
        "HHVV": 1 / 3,
        "VVHH": 1 / 3,
        "HVHV": 1 / 12,
        "HVVH": 1 / 12,
        "VHHV": 1 / 12,
        "VHVH": 1 / 12,
    }
    for i in range(16):
        want = expected.get(PATTERNS[i], 0.0)
        assert dist.probs[i] == pytest.approx(want, abs=1e-12)


def test_distribution_pure_noise():
    dist = outcome_distribution(
        make_psi4_minus(),
        (0.3, 1.1, -0.4, 2.0),
        NoiseModel(visibility=0.0),
    )
    assert np.allclose(dist.probs, 1 / 16, atol=1e-12)


def test_distribution_parity_even_at_common_phase():
    for phi in (math.pi / 4, 0.0, 1.3):
        dist = outcome_distribution(make_psi4_minus(), (phi,) * 4)
        odd = sum(dist.probs[i] for i in range(16) if bin(i).count("1") % 2 == 1)
        assert odd < 1e-12


def test_distribution_rejects_unnormalized_state():
    state = make_psi4_minus()
    object.__setattr__(state, "amplitudes", state.amplitudes * 1.5)
    with pytest.raises(ValueError, match="norm"):
        outcome_distribution(state, (0.0, 0.0, 0.0, 0.0))


def test_distribution_validation():
    with pytest.raises(ValueError, match="need 4 analyzer phases, got 3"):
        outcome_distribution(make_psi4_minus(), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        OutcomeDistribution(np.full(16, 0.1))
    with pytest.raises(ValueError):
        OutcomeDistribution(np.concatenate([[-0.1, 0.2], np.full(14, 0.9 / 14)]))


def test_correlation_analytic_values():
    assert correlation_analytic(0, 0, 0, 0) == pytest.approx(1.0, abs=1e-15)
    assert correlation_analytic(math.pi / 4, math.pi / 4, -math.pi / 4, -math.pi / 4) == pytest.approx(
        -1 / 3, abs=1e-15
    )
    assert correlation_analytic(math.pi / 4, 0, math.pi / 4, -math.pi / 4) == pytest.approx(
        math.sqrt(2) / 3, abs=1e-15
    )


def test_correlation_from_distribution():
    uniform = OutcomeDistribution(np.full(16, 1 / 16))
    assert correlation_from_distribution(uniform) == pytest.approx(0.0, abs=1e-15)
    matched = outcome_distribution(make_psi4_minus(), (0.0,) * 4)
    assert correlation_from_distribution(matched) == pytest.approx(1.0, abs=1e-12)
    noisy = outcome_distribution(make_psi4_minus(), (0.0,) * 4, NoiseModel(visibility=0.9))
    assert correlation_from_distribution(noisy) == pytest.approx(0.9, abs=1e-12)


def test_sampled_correlation_matches_closed_form():
    rng = np.random.default_rng(11)
    state = make_psi4_minus()
    for _ in range(300):
        phis = rng.uniform(-2 * math.pi, 2 * math.pi, 4)
        dist = outcome_distribution(state, phis)
        assert abs(
            correlation_from_distribution(dist) - correlation_analytic(*phis)
        ) < 1e-9


def test_noise_scales_correlation_exactly():
    rng = np.random.default_rng(12)
    state = make_psi4_minus()
    for visibility in (0.0, 0.3, 0.9, 1.0):
        phis = rng.uniform(-math.pi, math.pi, 4)
        dist = outcome_distribution(state, phis, NoiseModel(visibility=visibility))
        assert correlation_from_distribution(dist) == pytest.approx(
            visibility * correlation_analytic(*phis), abs=1e-12
        )


def test_correlation_periodicity():
    rng = np.random.default_rng(13)
    base = rng.uniform(-math.pi, math.pi, 4)
    for axis in range(4):
        shifted = base.copy()
        shifted[axis] += 2 * math.pi
        assert correlation_analytic(*shifted) == pytest.approx(
            correlation_analytic(*base), abs=1e-12
        )


def test_correlation_symmetries():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b, c, d = rng.uniform(-math.pi, math.pi, 4)
        e0 = correlation_analytic(a, b, c, d)
        assert correlation_analytic(b, a, c, d) == pytest.approx(e0, abs=1e-12)
        assert correlation_analytic(a, b, d, c) == pytest.approx(e0, abs=1e-12)
        assert correlation_analytic(c, d, a, b) == pytest.approx(e0, abs=1e-12)


def test_bell_constant_correlation():
    setting = BellSetting.maximal_violation()
    assert bell_S(setting, lambda *phis: 1.0) == pytest.approx(1.0, abs=1e-12)


def test_bell_value_at_maximal_violation():
    setting = BellSetting.maximal_violation()
    s = bell_S(setting, correlation_analytic)
    assert abs(s - 1.886) < 1e-3
    scaled = bell_S(setting, lambda *phis: 0.943 * correlation_analytic(*phis))
    assert abs(scaled - 0.943 * s) < 1e-12
    assert abs(scaled - 1.779) < 2e-3


def test_bell_local_deterministic_bound():
    rng = np.random.default_rng(15)
    settings = [BellSetting.maximal_violation()] + [
        BellSetting(*(tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(4)))
        for _ in range(2)
    ]
    for setting in settings:
        for strategy in range(256):
            values = [(1 if (strategy >> i) & 1 else -1) for i in range(8)]
            table = {}
            for combo in ALL_COMBOS:
                sign = 1
                for party, label in enumerate(combo):
                    sign *= values[2 * party + label]
                table[combo] = float(sign)
            assert bell_S_from_table(table) <= 1.0 + 1e-12


def test_bell_table_missing_combination():
    table = {combo: 1.0 for combo in ALL_COMBOS if combo != (1, 1, 1, 1)}
    with pytest.raises(ValueError, match="missing"):
        bell_S_from_table(table)


def test_qber_from_visibility():
    assert qber_from_visibility(0.9023) == pytest.approx(0.04885, abs=1e-12)
    assert qber_from_visibility(0.8955) == pytest.approx(0.05225, abs=1e-12)
    assert qber_from_visibility(1.0) == 0.0
    with pytest.raises(ValueError):
        qber_from_visibility(1.2)
    with pytest.raises(ValueError):
        qber_from_visibility(-0.1)


def test_collapse_probability_and_conditionals():
    state = make_psi4_minus()
    prob, collapsed = collapse_after_single_mode_measurement(state, "b", 0.0, +1)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert collapsed is not None
    # conditioned on b = H at phi=0, the dealer reads H with probability 2/3
    dist = outcome_distribution(collapsed, (0.0,) * 4)
    p_a_h = dist.probs.reshape(2, 2, 2, 2)[0].sum()
    assert p_a_h == pytest.approx(2 / 3, abs=1e-12)


def test_collapse_idempotent():
    state = make_psi4_minus()
    _, once = collapse_after_single_mode_measurement(state, "c", 0.7, -1)
    prob, twice = collapse_after_single_mode_measurement(once, "c", 0.7, -1)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(twice.amplitudes), np.abs(once.amplitudes), atol=1e-12)


def test_collapse_dead_branch():
    amps = np.zeros(16, dtype=complex)
    amps[pattern_index("HHHH")] = 1.0
    product_state = PureState(amps)
    prob, collapsed = collapse_after_single_mode_measurement(product_state, "a", 0.0, -1)
    assert prob < 1e-15
    assert collapsed is None


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(visibility=1.0001)
    NoiseModel(visibility=0.0)


def test_bell_setting_phase_lookup():
    setting = BellSetting.maximal_violation()
    assert setting.phases_for((0, 0, 0, 0)) == (
        math.pi / 4,
        0.0,
        math.pi / 4,
        math.pi / 4,
    )
    assert setting.phases_for((1, 1, 1, 1)) == (
        -math.pi / 4,
        math.pi / 2,
        -math.pi / 4,
        -math.pi / 4,
    )
    with pytest.raises(ValueError):
        setting.phases_for((0, 2, 0, 0))
