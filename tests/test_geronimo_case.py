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
    random_coefficients,
    roundtrip_suite,
)
from openrmt.geronimo_case import (
    MIN_A_SQUARED,
    REMAINDER_RTOL,
    _exceeds,
    _forward_steps,
    gc_inverse_blocks,
    gc_inverse_rows,
    k_from_lstar_rows,
    lstar_blocks,
    lstar_rows,
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


def test_polynomials_compare_and_hash_by_trimmed_coefficients():
    p = RealPolynomial((1.0, 0.0, 2.0, 0.0))
    assert p == RealPolynomial((1, 0, 2)) and hash(p) == hash(RealPolynomial((1, 0, 2)))
    assert p != RealPolynomial((1.0, 0.0, 2.0, 0.0), trim=False)
    assert p != RealPolynomial((1.0, 0.0, 3.0)) and p != (1.0, 0.0, 2.0)
    assert len({p, RealPolynomial((1.0, 0.0, 2.0)), RealPolynomial(())}) == 2


def test_forward_single_bump():
    """a=3, b=2: the ladder gives z-2, then z^2-2z-8 with companion z^2-2z+1."""
    seq = gc_forward(JacobiCoefficients((3.0,), (2.0,)))
    assert len(seq.lstar) == 3
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
        assert len(seq.lstar) == len(seq.k) == 2 * n + 1
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
            even = k_from_lstar_rows([seq.lstar[2 * k].coeffs])[0]
            assert np.allclose(even, seq.k[2 * k].coeffs, rtol=1e-9, atol=1e-9)
        for k in range(n):
            odd = k_from_lstar_rows([seq.lstar[2 * k + 1].coeffs])[0]
            assert len(odd) == len(seq.k[2 * k + 1].coeffs) == 2 * k + 1
            assert np.allclose(odd, seq.k[2 * k + 1].coeffs, rtol=1e-9, atol=1e-9)


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
            a = np.array([[mpmath.mpf(x) for x in coeffs.a]], dtype=object)
            b = np.array([[mpmath.mpf(x) for x in coeffs.b]], dtype=object)
            *_, (want, _) = _forward_steps(a, b, mpmath.mpf(1))
            want = want[0]
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


def _one_row(lstar_row, precision):
    """gc_inverse on one row: (a, b) as lists, or the message of its exception."""
    try:
        rec = gc_inverse(RealPolynomial(tuple(lstar_row), trim=False), precision=precision)
    except InversionError as exc:
        return str(exc)
    return list(rec.a), list(rec.b)


def _scalar_inverse(coeffs, precision):
    """The scalar level-by-level recursion the row-wise inverse replaces.

    Returns (a, b) as float lists, or the message of the first failed
    check; a_k is the correctly rounded square root in both types.
    """
    if precision is None:
        L, one, sqrt = [float(c) for c in coeffs], 1.0, math.sqrt
    else:
        decimal.getcontext().prec = precision
        L, one, sqrt = [Decimal(c) for c in coeffs], Decimal(1), Decimal.sqrt
    zero, m = one - one, len(L) - 1

    def tol(cs):
        return REMAINDER_RTOL * float(max(map(abs, cs)))

    num = [zero] * (m + 3)
    for i in range(m + 1):
        num[i] = num[i] + L[m - i]
        num[i + 2] = num[i + 2] - L[i]
    K = [zero] * (m + 1)
    for i in range(m, -1, -1):
        K[i] = -num[i + 2]
        num[i] = num[i] - K[i]
    if max(abs(float(num[0])), abs(float(num[1]))) > tol(L):
        return "division by 1 - z^2 left a remainder"
    a, b = [zero] * (m // 2), [zero] * (m // 2)
    for k in range(m // 2 - 1, -1, -1):
        level_tol = tol(L)
        asq = one - L[0]
        if float(asq) <= MIN_A_SQUARED:
            return f"level {k + 1}: 1 - L*(0) = {float(asq):.3e} is not positive"
        a[k] = sqrt(asq)
        gap = abs(float(K[2 * k + 1]) - float(L[2 * k + 1]))
        if gap > level_tol:
            return f"level {k + 1}: companion mismatch {gap:.3e}"
        K1 = [(K[i] - L[i]) / asq for i in range(2 * k + 1)]
        c = asq - one
        t = [L[i] + (c * K1[i] if i <= 2 * k else zero) for i in range(len(L))]
        if abs(float(t[0])) > level_tol:
            return f"level {k + 1}: odd-step constant term {float(t[0]):.3e} not zero"
        L1 = t[1:]
        b[k] = -L1[0]
        t = [L1[i] + (b[k] * K1[i] if i <= 2 * k else zero) for i in range(len(L1))]
        if abs(float(t[0])) > tol(L1):
            return f"level {k + 1}: even-step constant term {float(t[0]):.3e} not zero"
        L, K = t[1:], K1
    if abs(float(L[0]) - 1.0) > REMAINDER_RTOL:
        return f"ladder bottom is {float(L[0]):.6e}, expected 1"
    return [float(x) for x in a], [float(x) for x in b]


@pytest.mark.parametrize("precision", [40, None])
def test_batched_rows_equal_one_row_calls(precision):
    """500 sets at n = 1..8: each row of a batch is bit-identical to its own calls.

    The scalar recursion kept above is the reference for values and
    failure messages alike.
    """
    master = RandomStream(SEED + 6)
    for n in range(1, 9):
        sets = [random_coefficients(master.substream(100 * n + i), n) for i in range(500 // 8 + 1)]
        a = np.array([c.a for c in sets])
        b = np.array([c.b for c in sets])
        lstar = lstar_rows(a, b, precision)
        got_a, got_b, failures = gc_inverse_rows(lstar, precision)
        for i, coeffs in enumerate(sets):
            assert list(lstar[i]) == list(gc_forward(coeffs, precision=precision).final.coeffs)
            with decimal.localcontext():
                reference = _scalar_inverse(lstar[i], precision)
            if i in failures:
                assert _one_row(lstar[i], precision) == str(failures[i]) == reference
                assert np.isnan(got_a[i]).all() and np.isnan(got_b[i]).all()
            else:
                assert _one_row(lstar[i], precision) == (got_a[i].tolist(), got_b[i].tolist())
                assert reference == (got_a[i].tolist(), got_b[i].tolist())
        if precision is not None:
            assert not failures
            assert got_a.tolist() == a.tolist() and got_b.tolist() == b.tolist()


def _poisoned_batch(precision):
    """Twelve n = 4 rows, three of them poisoned, under a caller context that traps everything."""
    master = RandomStream(SEED + 7)
    sets = [random_coefficients(master.substream(i), 4) for i in range(12)]
    a = np.array([c.a for c in sets])
    b = np.array([c.b for c in sets])
    a[5] = 1.5e-6  # tiny a at every level: the remainders lose every digit
    b[5] = np.linspace(-0.5, 0.5, 4)
    lstar = lstar_rows(a, b, precision)
    clean = gc_inverse_rows(lstar, precision)
    lstar[2, 0] = 1  # 1 - L*(0) = 0 at the top level
    lstar[9, 3] = math.nan
    return lstar, clean


@pytest.mark.parametrize("precision", [40, None])
def test_poisoned_rows_leave_the_rest_of_the_batch_alone(precision):
    lstar, (clean_a, clean_b, clean_failures) = _poisoned_batch(precision)
    ctx = decimal.getcontext()
    saved = ctx.copy()
    try:
        decimal.setcontext(decimal.Context(prec=5, rounding=decimal.ROUND_DOWN, traps=list(ctx.flags)))
        got_a, got_b, failures = gc_inverse_rows(lstar, precision)
        assert not any(decimal.getcontext().flags.values())
    finally:
        decimal.setcontext(saved)
    assert set(clean_failures) == {5} and set(failures) == {2, 5, 9}
    assert "not positive" in str(failures[2])
    assert "mismatch" in str(failures[5]) and str(failures[5]) == str(clean_failures[5])
    assert str(failures[9]).startswith("non-finite coefficient in RealPolynomial(")
    for i in range(len(lstar)):
        if i in failures:
            assert _one_row(lstar[i], precision) == str(failures[i])
        else:
            assert got_a[i].tolist() == clean_a[i].tolist()
            assert got_b[i].tolist() == clean_b[i].tolist()
            assert _one_row(lstar[i], precision) == (got_a[i].tolist(), got_b[i].tolist())


def test_batched_ladder_leaves_the_callers_decimal_context_alone():
    lstar, (clean_a, clean_b, _) = _poisoned_batch(40)
    ctx = decimal.getcontext()
    saved = ctx.copy()
    try:
        ctx.prec, ctx.rounding = 5, decimal.ROUND_DOWN
        ctx.clear_flags()
        again = lstar_rows(np.array([[1.7, 0.4]]), np.array([[-0.3, 1.1]]), 40)
        got_a, got_b, failures = gc_inverse_rows(lstar, 40)
        assert decimal.getcontext() is ctx
        assert (ctx.prec, ctx.rounding) == (5, decimal.ROUND_DOWN)
        assert not any(ctx.flags.values())
    finally:
        decimal.setcontext(saved)
    want = gc_forward(JacobiCoefficients((1.7, 0.4), (-0.3, 1.1)), precision=40).final.coeffs
    assert [c.as_tuple() for c in again[0]] == [c.as_tuple() for c in want]
    ok = [i for i in range(len(lstar)) if i not in failures]
    assert got_a[ok].tolist() == clean_a[ok].tolist() and got_b[ok].tolist() == clean_b[ok].tolist()


def _bits(rows):
    """Every entry of a block by its repr, which pins floats and Decimals digit for digit."""
    return [[repr(x) for x in row] for row in rows]


@pytest.mark.parametrize("precision", [40, None])
def test_mixed_n_blocks_equal_their_one_block_calls(precision):
    """One pass over blocks of n = 3, 8, 1, 4, 8 gives each block its one-block result.

    Poisoned rows sit in blocks of different n: a non-finite coefficient
    (n = 8), 1 - L*(0) = 0 at the top level (n = 3) and a tiny-a row whose
    companion check fails (n = 4).
    """
    master = RandomStream(SEED + 8)
    blocks = []
    for n, rows in ((3, 5), (8, 4), (1, 6), (4, 3), (8, 2)):
        sets = [random_coefficients(master.substream(10 * len(blocks) + i), n) for i in range(rows)]
        blocks.append((np.array([c.a for c in sets]), np.array([c.b for c in sets])))
    blocks[3][0][1] = 1.5e-6
    blocks[3][1][1] = np.linspace(-0.5, 0.5, 4)
    lstars = lstar_blocks(blocks, precision)
    for (a, b), lstar in zip(blocks, lstars):
        assert _bits(lstar) == _bits(lstar_rows(a, b, precision))
    lstars[0][2, 0] = 1
    lstars[1][3, 4] = math.nan
    messages = []
    for lstar, (got_a, got_b, failures) in zip(lstars, gc_inverse_blocks(lstars, precision)):
        one_a, one_b, one_failures = gc_inverse_rows(lstar, precision)
        assert _bits(got_a) == _bits(one_a) and _bits(got_b) == _bits(one_b)
        assert {i: str(e) for i, e in failures.items()} == {i: str(e) for i, e in one_failures.items()}
        messages.append(sorted(str(e) for e in failures.values()))
    assert "not positive" in messages[0][0] and len(messages[0]) == 1
    assert messages[1][0].startswith("non-finite coefficient") and len(messages[1]) == 1
    assert "companion mismatch" in messages[3][0] and len(messages[3]) == 1
    assert messages[2] == messages[4] == []


def test_complex_rows_climb_the_ladder_in_complex():
    """Complex input keeps its imaginary part; with none, the real ladder comes out bit for bit."""
    gen = np.random.default_rng(SEED + 9)
    blocks = [(gen.uniform(0.5, 2, (3, n)), gen.uniform(-1, 1, (3, n))) for n in (2, 4)]
    real = lstar_blocks(blocks)
    for (a, b), want in zip(blocks, real):
        got = lstar_rows(a + 0j, b)
        assert got.dtype == complex and not got.imag.any()
        assert _bits(got.real) == _bits(want)
        k = k_from_lstar_rows(got)
        assert k.dtype == complex and _bits(k.real) == _bits(k_from_lstar_rows(want))
    # L*_2 = z^2 - b z + 1 - a^2: its derivative in a is -2 a
    step = lstar_rows(np.array([[1.5 + 1e-20j]]), np.array([[0.5]]))
    assert step.imag[0].tolist() == pytest.approx([-3e-20, 0.0, 0.0], rel=1e-15, abs=0.0)


def test_empty_block_lists_and_blocks():
    assert lstar_blocks([]) == [] and gc_inverse_blocks([], 40) == []
    assert lstar_rows(np.empty((0, 3)), np.empty((0, 3)), 40).shape == (0, 7)
    assert roundtrip_suite(0, 1).statistics["max_rel_error"] == 0.0


@pytest.mark.parametrize("cast", [float, Decimal])
def test_the_monic_screen_rechecks_against_the_row_maximum(cast):
    """Sizes up to rtol pass unscreened; above it they meet rtol * max|L| = 3e-6 exactly."""
    rtol = cast(REMAINDER_RTOL)
    L = np.array([[cast(-3000), cast(0), cast(1)]] * 4)
    size = np.array([cast("5e-10"), cast("2e-7"), cast("4e-6"), cast("3e-6")])
    assert _exceeds(size, L, rtol, rtol * cast(1)).tolist() == [False, False, True, False]
    assert not _exceeds(np.array([math.nan]), L[:1].astype(float), REMAINDER_RTOL, REMAINDER_RTOL)[0]


def test_a_remainder_between_rtol_and_the_row_scale_passes():
    """max|L| = 1e8: rounding leaves about 3e-9 in floats (passes) and 0.3 at 8 digits (flagged)."""
    lstar = np.zeros((1, 11))
    lstar[0, [1, 3, 9, 10]] = 1e8, 0.123456789, 0.3, 1.0
    k_from_lstar_rows(lstar)
    _, _, failures = gc_inverse_rows(lstar, precision=8)
    assert str(failures[0]) == (
        "division by 1 - z^2 left remainder 0.000e+00, 3.000e-01 (scale 1.000e+08)"
    )
