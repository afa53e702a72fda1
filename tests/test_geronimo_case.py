import math

import numpy as np
import pytest

from openrmt import (
    GCSequence,
    InversionError,
    JacobiCoefficients,
    RealPolynomial,
    gc_forward,
    gc_inverse,
    k_from_lstar,
    reversal,
)

SEED = 271828


def _random_coeffs(gen, n):
    return JacobiCoefficients(
        tuple(gen.uniform(0.3, 2.5, n)), tuple(gen.uniform(-2.0, 2.0, n))
    )


def test_polynomial_basics():
    p = RealPolynomial((1.0, 0.0, 2.0, 0.0))
    assert p.degree == 2
    assert p.coeffs == (1.0, 0.0, 2.0)
    assert p(2.0) == 9.0
    assert not p.is_monic
    assert RealPolynomial((0.0, 1.0)).is_monic
    assert RealPolynomial(()).degree == -1


def test_reversal_fixture():
    p = RealPolynomial((-8.0, -2.0, 1.0))
    assert reversal(p, 2).coeffs == (1.0, -2.0, -8.0)
    assert reversal(reversal(p, 2), 2) == p


def test_forward_single_bump():
    """a=3, b=2: the ladder gives z-2, then z^2-2z-8 with companion z^2-2z+1."""
    seq = gc_forward(JacobiCoefficients((3.0,), (2.0,)))
    assert seq.order == 2
    assert seq.lstar[0].coeffs == (1.0,)
    assert seq.lstar[1].coeffs == (-2.0, 1.0)
    assert seq.final.coeffs == (-8.0, -2.0, 1.0)
    assert seq.k[2].coeffs == (1.0, -2.0, 1.0)
    assert seq.k[1].coeffs == (1.0,)


def test_forward_off_diagonal_only():
    seq = gc_forward(JacobiCoefficients((2.0,), (0.0,)))
    assert seq.final.coeffs == (-3.0, 0.0, 1.0)
    assert seq.k[2].coeffs == (1.0, 0.0, 1.0)
    weak = gc_forward(JacobiCoefficients((0.5,), (0.0,)))
    assert weak.final.coeffs == (0.75, 0.0, 1.0)


def test_ladder_structure_random():
    """Degrees, monicity, and the palindrome property of the companions."""
    gen = np.random.default_rng(SEED)
    for n in (1, 2, 4, 7):
        coeffs = _random_coeffs(gen, n)
        seq = gc_forward(coeffs)
        assert seq.order == 2 * n
        for j, p in enumerate(seq.lstar):
            assert p.degree == j
            assert p.is_monic
        for k in range(n + 1):
            even = seq.k[2 * k]
            assert even.degree == 2 * k
            assert even.is_monic
            assert even.coeffs[0] == 1.0
            assert np.allclose(even.coeffs, even.coeffs[::-1], rtol=1e-12, atol=1e-12)


def test_companion_recovery_from_main_sequence():
    """K is a rational function of L* alone at every level; both parities."""
    gen = np.random.default_rng(SEED + 1)
    for n in (1, 3, 5):
        coeffs = _random_coeffs(gen, n)
        seq = gc_forward(coeffs)
        for k in range(1, n + 1):
            even = k_from_lstar(seq.lstar[2 * k])
            assert np.allclose(even.coeffs, seq.k[2 * k].coeffs, rtol=1e-9, atol=1e-9)
        for k in range(n):
            odd = k_from_lstar(seq.lstar[2 * k + 1])
            assert np.allclose(odd.coeffs, seq.k[2 * k + 1].coeffs, rtol=1e-9, atol=1e-9)


def test_inverse_fixtures():
    rec = gc_inverse(RealPolynomial((-2.0, 0.0, 1.0)))
    assert abs(rec.a[0] - math.sqrt(3.0)) < 1e-15
    assert abs(rec.b[0]) < 1e-15
    rec = gc_inverse(RealPolynomial((-8.0, -2.0, 1.0)))
    assert abs(rec.a[0] - 3.0) < 1e-14
    assert abs(rec.b[0] - 2.0) < 1e-14


def test_roundtrip_double_precision():
    gen = np.random.default_rng(SEED + 2)
    for n in (1, 2, 3, 4):
        coeffs = _random_coeffs(gen, n)
        rec = gc_inverse(gc_forward(coeffs).final)
        assert np.allclose(rec.a, coeffs.a, rtol=1e-6)
        assert np.allclose(rec.b, coeffs.b, rtol=1e-6, atol=1e-6)


def test_roundtrip_extended_precision():
    """At 40 working digits the recovered doubles are bit-exact."""
    gen = np.random.default_rng(SEED + 3)
    for n in (6, 8):
        coeffs = _random_coeffs(gen, n)
        seq = gc_forward(coeffs, precision=40)
        rec = gc_inverse(seq.final, precision=40)
        assert rec.a == coeffs.a
        assert rec.b == coeffs.b


def test_precision_paths_agree():
    coeffs = JacobiCoefficients((1.7, 0.4), (-0.3, 1.1))
    plain = gc_forward(coeffs).final
    extended = gc_forward(coeffs, precision=30).final
    assert np.allclose(plain.coeffs, [float(c) for c in extended.coeffs], rtol=1e-12)


def test_inverse_rejects_malformed_polynomials():
    with pytest.raises(ValueError):
        gc_inverse(RealPolynomial((1.0, 0.0, 2.0)))  # not monic
    with pytest.raises(ValueError):
        gc_inverse(RealPolynomial((0.5, 1.0)))  # odd degree
    with pytest.raises(ValueError):
        gc_inverse(RealPolynomial((1.0,)))  # degree zero


def test_inverse_rejects_infeasible_top_level():
    # constant term 1 forces the top perturbation strength to zero
    with pytest.raises(InversionError):
        gc_inverse(RealPolynomial((1.0, 2.0, 1.0)))


def test_inverse_rejects_polynomials_outside_the_image():
    # a generic quartic is not reachable by the two-step ladder
    with pytest.raises(InversionError):
        gc_inverse(RealPolynomial((0.5, 1.0, 0.7, -0.9, 1.0)))


def test_sequence_container():
    seq = gc_forward(JacobiCoefficients((2.0,), (1.0,)))
    assert isinstance(seq, GCSequence)
    assert seq.final is seq.lstar[-1]
    assert len(seq.lstar) == len(seq.k)
