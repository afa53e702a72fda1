import math
import re

import numpy as np
import pytest

from openrmt import (
    JacobiCoefficients,
    TridiagonalSample,
    assemble_coupled,
    eigenvalues_in_range,
    eigenvalues_outside_band,
    perturbation_order,
    tridiag_eigenvalues,
    truncate,
)
from openrmt.jacobi import coupled_coefficients

SEED = 314159


def test_coefficients_validation():
    with pytest.raises(ValueError):
        JacobiCoefficients((0.0,), (1.0,))
    with pytest.raises(ValueError):
        JacobiCoefficients((-2.0,), (1.0,))
    with pytest.raises(ValueError):
        JacobiCoefficients((1.0, 1.0), (0.0,))
    assert JacobiCoefficients((1.0,), (0.0,)).n == 1


def test_perturbation_order_scans_from_the_top():
    assert perturbation_order(JacobiCoefficients((1.0,), (0.0,))) == 0
    assert perturbation_order(JacobiCoefficients((1.0, 2.0), (0.0, 0.0))) == 4
    assert perturbation_order(JacobiCoefficients((1.0, 1.0), (0.0, 1.0))) == 3
    assert perturbation_order(JacobiCoefficients((2.0, 1.0), (0.5, 0.0))) == 2
    assert perturbation_order(JacobiCoefficients((1.0, 1.0), (0.5, 0.0))) == 1
    # tolerance treats near-free entries as free
    near = JacobiCoefficients((1.0 + 1e-12, 1.0), (0.0, 0.0))
    assert perturbation_order(near, tol=1e-9) == 0


def test_assemble_coupled_reverses_and_scales():
    sample = TridiagonalSample((0.3, -1.1, 0.5), (0.8, 1.2))
    coeffs = assemble_coupled(sample, 2.0, 0.7)
    # off-diagonals reversed with |gamma|, coupling entry last
    assert coeffs.a == (2.0 * 1.2, 2.0 * 0.8, 0.7)
    # diagonals reversed with signed gamma
    assert coeffs.b == (1.0, -2.2, 0.6)


def test_assemble_coupled_negative_gamma_gauge():
    sample = TridiagonalSample((0.3, -1.1), (0.8,))
    coeffs = assemble_coupled(sample, -2.0, 0.7)
    assert coeffs.a == (1.6, 0.7)
    assert coeffs.b == (2.2, -0.6)


def test_assemble_coupled_requires_positive_kappa():
    sample = TridiagonalSample((0.0,), ())
    with pytest.raises(ValueError):
        assemble_coupled(sample, 1.0, 0.0)


def test_truncate_pads_with_free_entries():
    coeffs = JacobiCoefficients((2.0, 0.5), (1.0, -1.0))
    op = truncate(coeffs, 6)
    assert np.array_equal(op.diag, [1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(op.offdiag, [2.0, 0.5, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        truncate(coeffs, 2)


def test_free_operator_spectrum_fills_the_band():
    """The free half-line truncation has eigenvalues 2 cos(k pi / (N+1))."""
    coeffs = JacobiCoefficients((1.0,), (0.0,))
    op = truncate(coeffs, 50)
    ev = tridiag_eigenvalues(op)
    expected = 2.0 * np.cos(np.arange(50, 0, -1) * math.pi / 51.0)
    assert np.max(np.abs(ev - expected)) < 1e-12
    assert len(eigenvalues_outside_band(coeffs, size=500)) == 0


def test_eigenvalues_in_range_matches_full_solve():
    gen = np.random.default_rng(SEED)
    coeffs = JacobiCoefficients(tuple(gen.uniform(0.5, 2.0, 4)), tuple(gen.uniform(-1, 1, 4)))
    op = truncate(coeffs, 60)
    full = tridiag_eigenvalues(op)
    window = eigenvalues_in_range(op, 0.0, 1.0)
    assert np.allclose(window, full[(full > 0.0) & (full <= 1.0)])
    with pytest.raises(ValueError):
        eigenvalues_in_range(op, 1.0, 1.0)


def test_outside_band_converges_to_known_point_spectrum():
    """One strong bump: eigenvalues 4.25 and -2.5 from the quadratic zeros 4, -2.

    The finite section converges exponentially in the truncation size for
    eigenvalues off the band, so at the default size the match is far
    tighter than the 1e-6 used downstream.
    """
    coeffs = JacobiCoefficients((3.0,), (2.0,))
    outside = eigenvalues_outside_band(coeffs)
    assert len(outside) == 2
    assert abs(outside[0] - (-2.5)) < 1e-9
    assert abs(outside[1] - 4.25) < 1e-9


def test_outside_band_respects_margin():
    # weak perturbation: no point spectrum beyond the margin
    coeffs = JacobiCoefficients((1.01,), (0.0,))
    assert len(eigenvalues_outside_band(coeffs, size=800, margin=0.05)) == 0


def test_coefficients_name_a_non_finite_entry():
    for a, b, message in (
        ((2.0,), (math.inf,), "b[0] = inf must be finite"),
        ((math.inf,), (0.0,), "a[0] = inf must be finite"),
        ((math.nan,), (0.0,), "a[0] = nan must be finite"),
        ((2.0, 1.0), (0.0, -math.inf), "b[1] = -inf must be finite"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            JacobiCoefficients(a, b)


def test_coupled_coefficients_report_entries_like_the_single_check():
    s = np.array([[0.1, 0.2], [-np.inf, 0.0], [0.3, np.nan], [0.1, 0.1]])
    t = np.array([[0.5], [0.5], [np.inf], [0.0]])
    a, b, failures = coupled_coefficients(s, t, 1.0, np.full(4, 0.7))
    assert sorted(failures) == [1, 2, 3]
    for i, exc in failures.items():
        with pytest.raises(ValueError) as single:
            JacobiCoefficients(tuple(a[i].tolist()), tuple(b[i].tolist()))
        assert str(exc) == str(single.value)
    assert str(failures[1]) == "b[1] = -inf must be finite"
    assert str(failures[2]) == "a[0] = inf must be finite"
    assert str(failures[3]) == "a[0] = 0.0 must be positive"
