import numpy as np
import pytest

from openrmt import JacobiCoefficients, gc_forward, lstar_rows
from openrmt.experiments import _draw_trials
from openrmt.identities import (
    MAX_TOTAL_JACOBIAN_N,
    identity_residuals,
    step_jacobian_residuals,
    total_jacobian_residuals,
)

SEED = 141421

FIXTURE = JacobiCoefficients((3.0,), (2.0,))
ELEMENTARY = ("identity_i", "identity_ii", "identity_iii", "identity_iv")


def _rows(coeff_sets):
    """Stacked a, b of equal-size coefficient sets."""
    return np.array([c.a for c in coeff_sets]), np.array([c.b for c in coeff_sets])


def _level(coeff_sets, m):
    """L*_m of each set, stacked, from the one-row ladder."""
    return np.array([gc_forward(c).lstar[m].coeffs for c in coeff_sets])


def _random_sets(gen, n, count):
    return [
        JacobiCoefficients(tuple(gen.uniform(0.4, 2.2, n)), tuple(gen.uniform(-1.5, 1.5, n)))
        for _ in range(count)
    ]


def test_identity_values_single_bump_level_two():
    """Zeros {4, -2}: every identity reduces to small integers here."""
    L = _level([FIXTURE], 2)
    assert L.tolist() == [[-8.0, -2.0, 1.0]]  # product of zeros with its sign, minus their sum
    report = identity_residuals(L, *_rows([FIXTURE]))
    for key in ELEMENTARY:
        assert report[key][0] < 1e-12


def test_identity_values_single_bump_level_one():
    L = _level([FIXTURE], 1)
    assert L.tolist() == [[-2.0, 1.0]]
    report = identity_residuals(L, *_rows([FIXTURE]))
    for key in ELEMENTARY:
        assert report[key][0] < 1e-12


def test_pair_product_identity_fixture():
    # zeros 4 and -2: both ordered cross terms give (1 + 8)^2 = 81 = 3^4;
    # zeros +-sqrt(3): single cross pair squared, (1 + 3)^2 = 16 = 2^4
    sets = [FIXTURE, JacobiCoefficients((2.0,), (0.0,))]
    report = identity_residuals(lstar_rows(*_rows(sets)), *_rows(sets))
    assert np.all(report["identity_v"] < 1e-12)
    assert np.all(report["identity_v_imag"] < 1e-12)
    # self pairs included: |1 - (-2)^2| = 3 and |1 - 3| = 2 are the least
    assert report["pair_gap"].tolist() == pytest.approx([3.0, 2.0])


def test_identities_hold_at_every_level():
    sets = _random_sets(np.random.default_rng(SEED), 4, 6)
    for m in range(1, 9):
        report = identity_residuals(_level(sets, m), *_rows(sets))
        for key in ELEMENTARY:
            assert np.all(report[key] < 1e-9), (m, key)


def test_pair_product_identity_odd_levels():
    """The product formula covers odd truncation levels too."""
    sets = _random_sets(np.random.default_rng(SEED + 1), 3, 6)
    for m in (1, 3, 5):
        report = identity_residuals(_level(sets, m), *_rows(sets))
        generic = report["pair_gap"] > 1e-3
        assert generic.any()
        assert np.all(report["identity_v"][generic] < 1e-7), m


def test_stacked_identities_equal_each_row_alone():
    sets = _random_sets(np.random.default_rng(SEED + 3), 3, 5)
    a, b = _rows(sets)
    for m in range(1, 7):
        stacked = identity_residuals(_level(sets, m), a, b)
        for i in range(len(sets)):
            alone = identity_residuals(_level(sets[i : i + 1], m), a[i : i + 1], b[i : i + 1])
            for key, values in alone.items():
                np.testing.assert_array_equal(stacked[key][i : i + 1], values)


def test_level_bounds_are_enforced():
    a, b = _rows([FIXTURE])
    with pytest.raises(ValueError):
        identity_residuals(np.ones((1, 1)), a, b)  # L*_0
    with pytest.raises(ValueError):
        identity_residuals(_level([JacobiCoefficients((3.0, 1.5), (2.0, 0.5))], 3), a, b)


def test_stepwise_jacobians_have_the_predicted_values():
    """Odd step determinant -1, even step -2 a^(2k+1), independent of b."""
    report = step_jacobian_residuals(np.array([[1.3, 0.7]]), np.array([[0.4, -0.9]]))
    assert report["jacobian_odd_step"].shape == report["jacobian_even_step"].shape == (1, 2)
    assert np.all(report["jacobian_odd_step"] < 1e-14)
    assert np.all(report["jacobian_even_step"] < 1e-14)


def test_stepwise_jacobians_by_complex_step_up_to_eight_levels():
    for n, (_, a, b) in _draw_trials(SEED, 160, 8, avoid_unit_last_a=False).items():
        report = step_jacobian_residuals(a, b)
        assert report["jacobian_odd_step"].max() < 1e-12, n
        assert report["jacobian_even_step"].max() < 1e-12, n


def test_total_jacobian_closed_form():
    # 2^2 * 1.2^1 * 0.8^3
    residual = total_jacobian_residuals(np.array([[1.2, 0.8]]), np.array([[0.3, -0.5]]))
    assert residual[0] < 1e-14


def test_total_jacobian_up_to_the_size_cap():
    # the determinant loses digits fast in n; at n = 8 the worst of such draws is near 1e-7
    draws = _draw_trials(SEED + 2, 160, MAX_TOTAL_JACOBIAN_N, avoid_unit_last_a=False)
    for n, (_, a, b) in draws.items():
        assert total_jacobian_residuals(a, b).max() < (1e-9 if n <= 5 else 1e-6), n


def test_total_jacobian_size_cap():
    gen = np.random.default_rng(SEED + 2)
    n = MAX_TOTAL_JACOBIAN_N + 1
    with pytest.raises(ValueError):
        total_jacobian_residuals(gen.uniform(0.5, 2, (1, n)), gen.uniform(-1, 1, (1, n)))
