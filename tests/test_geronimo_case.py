import decimal
import math
from decimal import Decimal

import mpmath
import numpy as np
import pytest

from openrmt import (
    GCSequence,
    InversionError,
    JacobiCoefficients,
    RandomStream,
    RealPolynomial,
    gc_forward,
    gc_inverse,
    k_from_lstar,
    random_coefficients,
    reversal,
)
from openrmt.geronimo_case import _forward_lists

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


def test_extended_ladder_matches_an_mpmath_oracle():
    """The 50-digit Decimal ladder agrees with the same recursion run on mpmath at 60 digits."""
    gen = np.random.default_rng(SEED + 4)
    for n in (1, 4, 8, 16):
        coeffs = _random_coeffs(gen, n)
        got = gc_forward(coeffs, precision=50).final.coeffs
        with mpmath.workdps(60):
            a, b = [mpmath.mpf(x) for x in coeffs.a], [mpmath.mpf(x) for x in coeffs.b]
            want = _forward_lists(a, b, mpmath.mpf(1))[-1][0]
            assert len(got) == len(want) == 2 * n + 1
            for g, w in zip(got, want):
                assert isinstance(g, Decimal)
                assert abs(mpmath.mpf(str(g)) - w) <= 1e-40 * abs(w)


def test_extended_ladder_ignores_the_callers_decimal_context():
    coeffs = JacobiCoefficients((1.7, 0.4, 2.2), (-0.3, 1.1, 0.6))
    forward = gc_forward(coeffs, precision=40).final
    inverse = gc_inverse(forward, precision=40)
    ctx = decimal.getcontext()
    saved = ctx.copy()
    try:
        ctx.prec, ctx.rounding = 5, decimal.ROUND_DOWN
        ctx.clear_flags()
        again = gc_forward(coeffs, precision=40).final
        assert [c.as_tuple() for c in again.coeffs] == [c.as_tuple() for c in forward.coeffs]
        assert gc_inverse(again, precision=40) == inverse
        assert decimal.getcontext() is ctx
        assert (ctx.prec, ctx.rounding) == (5, decimal.ROUND_DOWN)
        assert not any(ctx.flags.values())
    finally:
        decimal.setcontext(saved)
    assert inverse == coeffs


def test_extended_ladder_polynomials_evaluate_and_reverse():
    """z^2 - 2z - 8 on Decimal coefficients, at float, complex and Decimal points."""
    seq = gc_forward(JacobiCoefficients((3.0,), (2.0,)), precision=40)
    final = seq.final
    assert final(4.0) == 0.0
    assert final(1.5) == -8.75
    assert final(1j) == complex(-9.0, -2.0)
    assert final(Decimal("1.5")) == Decimal("-8.75")
    rev = reversal(seq.lstar[1], 3)
    assert rev.coeffs == (0, 0, 1, -2)
    assert all(isinstance(c, Decimal) for c in rev.coeffs)


def test_float_and_int_polynomials_invert_at_extended_precision():
    assert gc_inverse(RealPolynomial((-8.0, -2.0, 1.0)), precision=40) == JacobiCoefficients((3.0,), (2.0,))
    assert gc_inverse(RealPolynomial((-8, -2, 1)), precision=40) == JacobiCoefficients((3.0,), (2.0,))
    coeffs = _random_coeffs(np.random.default_rng(SEED + 5), 3)
    rec = gc_inverse(gc_forward(coeffs).final, precision=40)
    assert np.allclose(rec.a, coeffs.a, rtol=1e-9)
    assert np.allclose(rec.b, coeffs.b, rtol=1e-9, atol=1e-9)


def test_float_path_error_curve():
    """The float-path round trip beside criterion 1, which runs at 40 digits.

    Prints the worst relative error (as roundtrip_suite scores it) and the
    InversionError count over 300 random coefficient sets at each n; the
    error grows by orders of magnitude per level, and n <= 4 stays below
    1e-8 with no failure.
    """
    print("float-path round trip, 300 random coefficient sets per n:")
    for n in (2, 4, 6, 8):
        master = RandomStream(SEED)
        worst, failures = 0.0, 0
        for trial in range(300):
            coeffs = random_coefficients(master.substream(trial), n)
            try:
                rec = gc_inverse(gc_forward(coeffs).final)
            except InversionError:
                failures += 1
                continue
            for got, want in zip(rec.a + rec.b, coeffs.a + coeffs.b):
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        print(f"  n = {n}: max relative error {worst:.3g}, InversionError {failures}/300")
        if n <= 4:
            assert worst < 1e-8
            assert failures == 0


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


@pytest.mark.parametrize("precision", [None, 40])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_inverse_rejects_non_finite_coefficients(precision, bad):
    with pytest.raises(InversionError, match="non-finite"):
        gc_inverse(RealPolynomial((bad, 0.0, 1.0)), precision=precision)


def test_inverse_rejects_polynomials_outside_the_image():
    # a generic quartic is not reachable by the two-step ladder
    with pytest.raises(InversionError):
        gc_inverse(RealPolynomial((0.5, 1.0, 0.7, -0.9, 1.0)))


def test_sequence_container():
    seq = gc_forward(JacobiCoefficients((2.0,), (1.0,)))
    assert isinstance(seq, GCSequence)
    assert seq.final is seq.lstar[-1]
    assert len(seq.lstar) == len(seq.k)
