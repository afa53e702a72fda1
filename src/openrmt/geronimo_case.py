"""Geronimo-Case polynomial ladder for finitely perturbed Jacobi operators.

The forward recursion turns the first n coefficient pairs (a, b) into a
ladder of polynomial pairs (L*_j, K_j), j = 0..2n, via

    odd step   L*_{2k+1} = z L*_{2k} - b_{k+1} K_{2k},        K_{2k+1} = K_{2k}
    even step  L*_{2k+2} = z L*_{2k+1} - (a_{k+1}^2 - 1) K_{2k+1},
               K_{2k+2} = z L*_{2k+1} + K_{2k+1}

starting from L*_0 = K_0 = 1.  L*_j is monic of degree j; K_{2k} = K_{2k+1}
is monic of degree 2k, self-reciprocal, with K(0) = 1.  K is recoverable
from L* alone:

    K_{2k} = (L_{2k} - z^2 L*_{2k}) / (1 - z^2),  L = reversal of L*,

which is what makes the ladder invertible: the downward recursion reads
off a_{k+1}^2 = 1 - L*_{2k+2}(0) and b_{k+1} = -L*_{2k+1}(0) level by level.

The inverse map is ill-conditioned when several a_j are small (each level
divides by a_{k+1}^2), so both directions accept an optional working
precision p in decimal digits.  They then run on the standard library's
decimal.Decimal end to end, in a fresh decimal.Context(prec=p) with
round-half-even, so the caller's decimal context cannot change a result.
Floats enter exactly (Decimal(float) does not round), every operation
rounds to p significant digits, and a_k is the correctly rounded
Decimal.sqrt.  Plain floats are the default and are fine for every
downstream consumer; coefficient recovery to near machine accuracy at n
around 8 needs the extended path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from typing import Sequence

from .jacobi import JacobiCoefficients

# relative tolerance for remainders of structurally exact divisions
REMAINDER_RTOL = 1e-9
# a_{k+1}^2 below this is treated as a domain failure of the inverse map
MIN_A_SQUARED = 1e-12


class InversionError(ValueError):
    """Input polynomial is not (numerically) in the image of the forward map."""


class RealPolynomial:
    """Dense real polynomial, coefficients in ascending degree order.

    Coefficients are Python floats (or ints), or decimal.Decimal on the
    extended-precision ladder.  Trailing zeros are trimmed on
    construction; the zero polynomial has empty coefficients and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = (), trim: bool = True):
        cs = list(coeffs)
        if trim:
            while cs and cs[-1] == 0:
                cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, z):
        """Horner evaluation at z.

        Decimal coefficients do not mix with float or complex arithmetic,
        so at any point that is not itself a Decimal they are first
        rounded to floats.
        """
        cs = self.coeffs
        if not isinstance(z, Decimal) and any(isinstance(c, Decimal) for c in cs):
            cs = [float(c) for c in cs]
        acc = 0 * z
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, RealPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RealPolynomial({[float(c) for c in self.coeffs]})"

    def to_floats(self) -> "RealPolynomial":
        return RealPolynomial([float(c) for c in self.coeffs], trim=False)


def reversal(poly: RealPolynomial, m: int) -> RealPolynomial:
    """Coefficient reversal within degree m: z^m * p(1/z)."""
    if poly.degree > m:
        raise ValueError(f"cannot reverse degree {poly.degree} within degree {m}")
    zero = type(poly.coeffs[-1])() if poly.coeffs else 0.0
    padded = list(poly.coeffs) + [zero] * (m + 1 - len(poly.coeffs))
    return RealPolynomial(reversed(padded))


@dataclass(frozen=True)
class GCSequence:
    """Full recursion ladder: lstar[j] and k[j] for j = 0..2n."""

    lstar: tuple[RealPolynomial, ...]
    k: tuple[RealPolynomial, ...]

    @property
    def order(self) -> int:
        return len(self.lstar) - 1

    @property
    def final(self) -> RealPolynomial:
        return self.lstar[-1]


def _coeff_scale(cs) -> float:
    return float(max(map(abs, cs), default=0.0)) or 1.0


def _context(precision: int) -> Context:
    """A fresh decimal context of precision digits, rounding half to even."""
    return Context(prec=precision, rounding=ROUND_HALF_EVEN)


def _div_one_minus_z2(num: list, zero):
    """Quotient and (linear) remainder of num / (1 - z^2), top anchored."""
    p = list(num)
    q = [zero] * (len(p) - 2)
    for i in range(len(q) - 1, -1, -1):
        qi = -p[i + 2]
        q[i] = qi
        p[i + 2] = zero
        p[i] = p[i] - qi
    return q, (p[0], p[1])


def _k_lists_from_lstar(lcoeffs: list, one) -> list:
    """K from L* by the reversal identity, (L - z^s L*) / (1 - z^2).

    The shift s is 2 at an even ladder index and 1 at an odd one, where
    K equals the companion one level below.
    """
    zero = one - one
    m = len(lcoeffs) - 1
    shift = 1 if m % 2 else 2
    num = [zero] * (m + 3)
    for i in range(m + 1):
        num[i] = num[i] + lcoeffs[m - i]  # reversal of L*
        num[i + shift] = num[i + shift] - lcoeffs[i]  # minus z^s L*
    q, rem = _div_one_minus_z2(num, zero)
    scale = _coeff_scale(lcoeffs)
    if max(abs(float(rem[0])), abs(float(rem[1]))) > REMAINDER_RTOL * scale:
        raise InversionError(
            f"division by 1 - z^2 left remainder {float(rem[0]):.3e}, "
            f"{float(rem[1]):.3e} (scale {scale:.3e})"
        )
    return q


def k_from_lstar(lstar: RealPolynomial) -> RealPolynomial:
    """Companion polynomial K_m recovered from L*_m alone, at either parity."""
    if not lstar.is_monic:
        raise ValueError("k_from_lstar needs a monic polynomial")
    cs = list(lstar.coeffs)
    return RealPolynomial(_k_lists_from_lstar(cs, cs[-1]))


def _forward_steps(a, b, one):
    """Yield the coefficient lists (L*_j, K_j) for j = 1..2n, one level at a time.

    Only the current level is kept, so a caller that needs L*_{2n} alone
    holds O(n) numbers; a, b may be floats, Decimals or arrays of one
    column per coefficient set.
    """
    zero = one - one
    L, K = [one], [one]
    for j in range(len(a)):
        bj = b[j]
        L1 = [zero] + L
        for i in range(len(K)):
            L1[i] = L1[i] - bj * K[i]
        c = a[j] * a[j] - one
        L2 = [zero] + L1
        K2 = [zero] + L1
        for i in range(len(K)):
            L2[i] = L2[i] - c * K[i]
            K2[i] = K2[i] + K[i]
        yield L1, K
        yield L2, K2
        L, K = L2, K2


def _forward_lists(a, b, one):
    return [([one], [one]), *_forward_steps(a, b, one)]


def gc_forward(coeffs: JacobiCoefficients, precision: int | None = None) -> GCSequence:
    """Run the ladder upward from the coefficient pairs.

    precision, if given, is the working precision in decimal digits: the
    coefficients enter as exact Decimals and every step rounds to that
    many significant digits, so the returned polynomials carry Decimal
    coefficients and a subsequent extended-precision inversion loses
    nothing.
    """
    if precision is None:
        seq = _forward_lists([float(x) for x in coeffs.a], [float(x) for x in coeffs.b], 1.0)
    else:
        with localcontext(_context(precision)):
            seq = _forward_lists(
                [Decimal(x) for x in coeffs.a], [Decimal(x) for x in coeffs.b], Decimal(1)
            )
    lstars = tuple(RealPolynomial(L, trim=False) for L, _ in seq)
    ks = tuple(RealPolynomial(K, trim=False) for _, K in seq)
    return GCSequence(lstars, ks)


def _inverse_lists(lc: list, one):
    zero = one - one
    n = (len(lc) - 1) // 2
    a = [zero] * n
    b = [zero] * n
    L = list(lc)
    K = _k_lists_from_lstar(L, one)
    for k in range(n - 1, -1, -1):
        scale = _coeff_scale(L)
        asq = one - L[0]
        if float(asq) <= MIN_A_SQUARED:
            raise InversionError(
                f"level {k + 1}: 1 - L*(0) = {float(asq):.3e} is not positive"
            )
        a[k] = asq.sqrt() if isinstance(asq, Decimal) else asq**0.5
        # K at the odd level has degree 2k; the top two differences are structural zeros
        top_gap = abs(float(K[2 * k + 1]) - float(L[2 * k + 1]))
        if top_gap > REMAINDER_RTOL * scale:
            raise InversionError(f"level {k + 1}: companion mismatch {top_gap:.3e}")
        K1 = [(K[i] - L[i]) / asq for i in range(2 * k + 1)]
        c = asq - one
        t = [L[i] + (c * K1[i] if i <= 2 * k else zero) for i in range(len(L))]
        if abs(float(t[0])) > REMAINDER_RTOL * scale:
            raise InversionError(
                f"level {k + 1}: odd-step constant term {float(t[0]):.3e} not zero"
            )
        L1 = t[1:]
        b[k] = -L1[0]
        t = [L1[i] + (b[k] * K1[i] if i <= 2 * k else zero) for i in range(len(L1))]
        if abs(float(t[0])) > REMAINDER_RTOL * _coeff_scale(L1):
            raise InversionError(
                f"level {k + 1}: even-step constant term {float(t[0]):.3e} not zero"
            )
        L = t[1:]
        K = K1
    if abs(float(L[0]) - 1.0) > REMAINDER_RTOL:
        raise InversionError(f"ladder bottom is {float(L[0]):.6e}, expected 1")
    return a, b


def gc_inverse(lstar_2n: RealPolynomial, precision: int | None = None) -> JacobiCoefficients:
    """Recover (a, b) from the top ladder polynomial L*_{2n}.

    The coefficients may be floats, ints or Decimals.  With precision
    given (decimal digits) they enter as exact Decimals and the recursion
    runs at that many digits, as in gc_forward; without it they are
    rounded to floats.

    Raises InversionError when the input is not numerically consistent
    with any coefficient set (a non-finite coefficient, negative a^2,
    nonvanishing remainders, bad ladder bottom).
    """
    deg = lstar_2n.degree
    if deg < 2 or deg % 2:
        raise ValueError("gc_inverse needs a monic polynomial of even degree >= 2")
    if not lstar_2n.is_monic:
        raise ValueError("gc_inverse needs a monic polynomial")
    if not all(math.isfinite(c) for c in lstar_2n.coeffs):
        raise InversionError(f"non-finite coefficient in {lstar_2n!r}")
    if precision is None:
        a, b = _inverse_lists([float(c) for c in lstar_2n.coeffs], 1.0)
    else:
        with localcontext(_context(precision)):
            a, b = _inverse_lists([Decimal(c) for c in lstar_2n.coeffs], Decimal(1))
    return JacobiCoefficients(tuple(float(x) for x in a), tuple(float(x) for x in b))
