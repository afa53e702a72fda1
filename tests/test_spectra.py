import cmath
import math

import numpy as np
import pytest

from openrmt import (
    ConjugationError,
    EIGENVALUE,
    RESONANCE,
    EnsembleParams,
    KappaDistribution,
    RandomStream,
    RealPolynomial,
    SpectrumConfiguration,
    canonicalize_conjugates,
    classify,
    is_in_S,
    joukowsky,
    lstar_rows,
    polynomial_roots,
    resolve,
)
from openrmt.ensembles import sample_coupled_trials
from openrmt.jacobi import coupled_coefficients
from openrmt.spectra import _residuals_ok, companion_roots, linearization_zeros, resolve_rows

SEED = 161803


def _config(*points):
    return classify(canonicalize_conjugates(np.array(points, dtype=complex)))


def test_quadratic_roots_conjugate_pair():
    roots = polynomial_roots(RealPolynomial((0.75, 0.0, 1.0)))
    assert len(roots) == 2
    assert abs(roots[1] - 0.8660254037844386j) < 1e-12
    assert abs(roots[0] + 0.8660254037844386j) < 1e-12


def test_quadratic_roots_real():
    roots = polynomial_roots(RealPolynomial((-8.0, -2.0, 1.0)))
    assert np.allclose(sorted(z.real for z in roots), [-2.0, 4.0])


def test_origin_roots_are_exact():
    roots = polynomial_roots(RealPolynomial((0.0, 0.0, 0.0, 1.0)))
    assert len(roots) == 3
    assert all(z == 0 for z in roots)


def _one_row_companion_roots(coeffs: list) -> np.ndarray:
    """Reference: strip origin zeros, companion eigenvalues, append the zeros, sort by (re, im)."""
    origin = next(i for i, c in enumerate(coeffs) if c != 0.0)
    p = coeffs[origin:]
    companion = np.eye(len(p) - 1, k=-1)
    companion[:1] = -np.array(p[-2::-1]) / p[-1]
    roots = np.concatenate([np.linalg.eigvals(companion), np.zeros(origin)])
    return np.array(sorted(roots, key=lambda z: (z.real, z.imag)))


def test_stacked_companion_roots_equal_each_row_alone():
    """Rows with 0, 1 and 2 origin zeros share one call; each gets its one-row roots."""
    gen = np.random.default_rng(SEED + 2)
    rows = [list(gen.uniform(-2, 2, 6)) + [1.0] for _ in range(3)]
    rows[1][0] = 0.0
    rows[2][:2] = [0.0, -0.0]
    rows += [rows[2], rows[0]]
    roots, failures = companion_roots(np.array(rows))
    assert failures == {}
    assert [np.count_nonzero(r == 0) for r in roots] == [0, 1, 2, 2, 0]
    for got, coeffs in zip(roots, rows):
        np.testing.assert_array_equal(got, _one_row_companion_roots(coeffs))
        np.testing.assert_array_equal(got, polynomial_roots(RealPolynomial(tuple(coeffs))))


def test_linear_and_constant_edge_cases():
    assert polynomial_roots(RealPolynomial((-3.0, 1.5))).tolist() == [2.0]
    with pytest.raises(ValueError):
        polynomial_roots(RealPolynomial((5.0,)))


def test_high_degree_roots_verify_by_evaluation():
    gen = np.random.default_rng(SEED)
    for deg in (5, 9, 16):
        coeffs = list(gen.uniform(-2, 2, deg)) + [1.0]
        poly = RealPolynomial(tuple(coeffs))
        roots = polynomial_roots(poly)
        assert len(roots) == deg
        scale = max(abs(c) for c in poly.coeffs)
        for z in roots:
            bound = 1e-8 * scale * max(1.0, abs(z)) ** deg
            assert abs(poly(z)) < bound


def test_roots_recompose_the_polynomial():
    gen = np.random.default_rng(SEED + 1)
    coeffs = list(gen.uniform(-1.5, 1.5, 8)) + [1.0]
    roots = polynomial_roots(RealPolynomial(tuple(coeffs)))
    reconstructed = np.real(np.poly(roots)[::-1])
    assert np.allclose(reconstructed, coeffs, atol=1e-8)


@pytest.mark.parametrize(
    "n, move, rows",
    [
        (3, 1e-6, 600),
        (8, 1e-4, 600),
        *(
            pytest.param(n, 1e-6, 10, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the bound grows with n"))
            for n in (64, 128)
        ),
    ],
)
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_the_residual_certificate_fails_a_moved_zero(beta, n, move, rows):
    """The certificate of linearization_zeros catches one zero moved off its place.

    The zero nearest the unit circle of each model row is moved by the
    relative amount given, on generators 0.. of seed 5.  At n = 3 a move
    of 1e-6 fails every row; at n = 8 it left 2 of 600 beta = 1 rows
    certified, so n = 8 is checked at 1e-4.  At n = 64 and 128 the bound,
    which grows with the largest ladder coefficient, passes every row
    moved by 1e-6 (ROADMAP item 12).
    """
    params = EnsembleParams(beta, n, 1.0, KappaDistribution("chi", (3.0, 0.5)))
    s, t, kappa = sample_coupled_trials(params, RandomStream(5).generators(0, rows))
    a, b, failures = coupled_coefficients(s, t, 1.0, kappa)
    zeros, root_failures = linearization_zeros(a, b)
    assert not failures and not root_failures
    lstar = lstar_rows(a, b)
    nearest = np.argmin(np.abs(np.abs(zeros) - 1.0), axis=1)
    zeros[np.arange(rows), nearest] *= 1.0 + move
    assert not _residuals_ok(lstar, zeros).any()


def test_canonicalize_snaps_near_real_points():
    raw = np.array([1.5 + 1e-12j, 1.5 - 1e-12j, 0.3 + 0.4j, 0.3 - 0.4j])
    config = canonicalize_conjugates(raw)
    assert config.num_real == 2
    assert config.num_pairs == 1
    assert config.points == tuple(sorted(config.points, key=lambda z: (z.real, z.imag)))


def test_canonicalize_counts_origin_drops():
    config = canonicalize_conjugates(np.array([0.0j, 0.0j, 2.0 + 0.0j]))
    assert config.origin_drops == 2
    assert config.count == 1


def test_canonicalize_pairs_inexact_conjugates_by_nearest_partner():
    # two pairs share a real part and one lower root is off by rounding:
    # sorted order would pair 0.5 + 0.3j with 0.5 - 0.6j
    raw = np.array([0.5 + 0.3j, 0.5000000001 - 0.3j, 0.5 + 0.6j, 0.5 - 0.6j])
    config = canonicalize_conjugates(raw)
    assert config.points == (0.5 - 0.6j, 0.5 + 0.6j, 0.50000000005 - 0.3j, 0.50000000005 + 0.3j)
    rows = resolve_rows(np.stack([raw, raw[::-1]]), 4)
    assert not rows.failures
    assert rows.configuration(1).points == config.points


def test_canonicalize_rejects_unpaired_points():
    with pytest.raises(ConjugationError):
        canonicalize_conjugates(np.array([1j, 2.0 + 0j]))


def test_configuration_validation():
    with pytest.raises(ValueError):
        SpectrumConfiguration((2.0 + 0j, 1.0 + 0j))  # not sorted
    with pytest.raises(ValueError):
        SpectrumConfiguration((1j,))  # not conjugation closed


def test_classify_labels_by_modulus():
    config = _config(0.5, 2.0)
    assert config.labels == (RESONANCE, EIGENVALUE)
    pair = _config(0.3 + 0.9j, 0.3 - 0.9j)
    assert pair.labels == (RESONANCE, RESONANCE)


def test_joukowsky_fixture_values():
    assert joukowsky(2.0) == 2.5
    assert abs(joukowsky(0.4) - 2.9) < 1e-15
    with pytest.raises(ValueError):
        joukowsky(0.0)


def test_membership_accepts_the_admissible_regions():
    assert is_in_S(2, _config(-0.5, 0.5))            # both inside
    assert is_in_S(2, _config(-0.3, 2.0))            # one eigenvalue above
    assert is_in_S(2, _config(-2.0, 0.3))            # one eigenvalue below
    assert is_in_S(2, _config(-2.0, 3.0))            # two eigenvalues
    assert is_in_S(2, _config(0.3 + 0.5j, 0.3 - 0.5j))  # conjugate pair


def test_membership_rejects_double_point_outside():
    verdict = is_in_S(2, _config(2.0, 2.0))
    assert not verdict
    assert verdict.clause == "ii"


def test_membership_rejects_complex_point_outside():
    verdict = is_in_S(2, _config(1.0 + 1.0j, 1.0 - 1.0j))
    assert not verdict
    assert verdict.clause == "ii"


def test_membership_rejects_two_points_on_the_same_side():
    verdict = is_in_S(4, _config(-0.5, 0.5, 2.0, 3.0))
    assert not verdict
    assert verdict.clause.startswith("iii")


def test_membership_parity_inside_the_leading_gap():
    # a point must not sit between 1/x_1 and 1 alone
    verdict = is_in_S(2, _config(0.8, 1.4))
    assert not verdict
    assert verdict.clause == "iii.a"
    # restoring the pair parity makes the set admissible again
    assert is_in_S(4, _config(-0.5, 0.75, 0.8, 1.4))


def test_resolve_checks_the_count_after_origin_drops():
    roots = np.array([0.0, -0.5, 0.5], dtype=complex)
    config, verdict = resolve(roots, 2)
    assert verdict and config.origin_drops == 1
    assert config.labels == (RESONANCE, RESONANCE)
    config, verdict = resolve(roots, 3)
    assert not verdict and verdict.clause == "count"


def test_membership_counts_must_match():
    with pytest.raises(ValueError):
        is_in_S(4, _config(0.5, -0.5))


def test_membership_mirror_symmetry():
    config = _config(-3.0, 0.2)
    mirrored = _config(3.0, -0.2)
    assert bool(is_in_S(2, config)) == bool(is_in_S(2, mirrored))
