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

Both directions also work on stacked coefficient sets, one row per set,
in one level pass over row blocks of every n: each of lstar_blocks and
gc_inverse_blocks stacks its blocks by n, descending, so that the rows
at work on a level are a prefix.  Upward, a block's L*_{2n} is read off
when its last level ends; downward, a block joins at its top level
k = n - 1 with its own finiteness and remainder checks.  The arrays are
float64 or, at precision p, object arrays of Decimals, and every row
gets exactly the elementwise operations of the one-row ladder, so a
row's result never depends on the rest of the batch.  The inverse
checks every row with masks and reports failures per row: a failed row
is flagged with its InversionError and then carried along with harmless
values, so no decimal signal fires for the other rows.  lstar_rows and
gc_inverse_rows are the one-block calls, and gc_inverse the one-row call,
of the same code; k_from_lstar_rows recovers K from L* the same way.

The relative checks |x| > rtol max|L| of the inverse are screened: only
rows with |x| > rtol * 1, rounded in the working context, take the row
maximum.  The screen is exact because every ladder polynomial L is
monic (its leading coefficient is carried as 1 + 0), so max|L| >= 1,
and rounding is monotone, so |x| <= round(rtol) <= round(rtol max|L|).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from typing import Sequence

import numpy as np

from .jacobi import JacobiCoefficients, coefficient_failures

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


@dataclass(frozen=True)
class GCSequence:
    """Full recursion ladder: lstar[j] and k[j] for j = 0..2n."""

    lstar: tuple[RealPolynomial, ...]
    k: tuple[RealPolynomial, ...]

    @property
    def final(self) -> RealPolynomial:
        return self.lstar[-1]


def _context(precision: int) -> Context:
    """A fresh decimal context of precision digits, rounding half to even."""
    return Context(prec=precision, rounding=ROUND_HALF_EVEN)


# elementwise on object arrays; Decimal(x) is exact for floats and ints
_to_decimal = np.frompyfunc(Decimal, 1, 1)
_decimal_is_finite = np.frompyfunc(Decimal.is_finite, 1, 1)


def _floats(x) -> np.ndarray:
    """A new float64 array of x, or complex128 when x is complex."""
    return np.array(x, dtype=complex if np.iscomplexobj(x) else float)


@contextmanager
def _working_type(precision: int | None):
    """Yield one and the conversion of an array-like to the working type.

    That is float64 (complex128 for complex input), or at a precision an
    object array of exact Decimals, inside a fresh context of that many
    digits.
    """
    if precision is None:
        yield 1.0, _floats
    else:
        with localcontext(_context(precision)):
            yield Decimal(1), lambda x: _to_decimal(np.asarray(x, dtype=object))


def _flag(bad: np.ndarray, ok: np.ndarray, failures: dict, message) -> None:
    """Record message(i) for each row i still ok that fails a check, and clear it in ok."""
    for i in np.flatnonzero(bad & ok):
        failures[int(i)] = InversionError(message(i))
    ok &= ~bad


def _exceeds(size: np.ndarray, L: np.ndarray, rtol, screen) -> np.ndarray:
    """Row mask of size > rtol * max|L| for monic rows L, screened by screen = rtol * one.

    NaN compares false on both sides, as in the unscreened check.
    """
    bad = size > screen
    rows = np.flatnonzero(bad)
    if rows.size:
        bad[rows] = size[rows] > rtol * np.abs(L[rows]).max(axis=1)
    return bad


def _k_rows(L: np.ndarray, one, ok: np.ndarray, failures: dict) -> np.ndarray:
    """K from L* row by row by the reversal identity, (L - z^s L*) / (1 - z^2).

    L holds one monic L*_m per row, (T, m + 1) in the working type.  The
    shift s is 2 at an even ladder index m and 1 at an odd one, where K
    equals the companion one level below.  A row whose division leaves a
    remainder is flagged.
    """
    rows, width = L.shape
    m = width - 1
    shift = 1 if m % 2 else 2
    zero = one - one
    num = np.full((rows, m + 3), zero, dtype=L.dtype)
    num[:, shift : width + shift] = zero - L  # minus z^s L*
    num[:, :width] = num[:, :width] + L[:, ::-1]  # reversal of L*
    # Dividing by 1 - z^2 from the top, q_i = q_{i+2} - num_{i+2}: each
    # parity of q is minus the running sum of num from the top down.
    q = np.empty((rows, width), dtype=L.dtype)
    for start in (0, 1):
        q[:, start::2] = -np.cumsum(num[:, start + 2 :: 2][:, ::-1], axis=1)[:, ::-1]
    rem = [num[:, i] - q[:, i] if i < width else num[:, i] for i in (0, 1)]
    rtol = type(one)(REMAINDER_RTOL)
    _flag(
        _exceeds(np.maximum(np.abs(rem[0]), np.abs(rem[1])), L, rtol, rtol * one),
        ok,
        failures,
        lambda i: f"division by 1 - z^2 left remainder {float(rem[0][i]):.3e}, "
        f"{float(rem[1][i]):.3e} (scale {float(np.abs(L[i]).max()):.3e})",
    )
    return q


def k_from_lstar_rows(lstar: np.ndarray) -> np.ndarray:
    """Companion K_m of each monic row L*_m of lstar (T, m + 1), in floats.

    K_m has degree 2 floor(m / 2); complex rows give complex K.  Raises
    the InversionError of the lowest failing row.
    """
    L = _floats(lstar)
    failures: dict[int, InversionError] = {}
    q = _k_rows(L, 1.0, np.ones(len(L), dtype=bool), failures)
    if failures:
        raise failures[min(failures)]
    return q[:, : (L.shape[1] - 1) // 2 * 2 + 1]


def _forward_steps(a: np.ndarray, b: np.ndarray, one, active: Sequence[int] | None = None):
    """Yield the row blocks (L*_j, K_j) for j = 1..2N, one level at a time.

    a, b are (T, N) in the working type of one, or complex.  With active
    given, only the first active[k] rows climb level k + 1: rows sorted by
    their own n, descending, leave as a suffix.  Only the current level is
    kept.  Huge coefficients overflow to inf without a warning; callers
    check finiteness where it matters.
    """
    rows = len(a)
    with np.errstate(over="ignore"):
        c, pad = a * a - one, np.full((rows, 1), one - one)
    L = K = np.full((rows, 1), one, dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        live = rows if active is None else active[k]
        L, K, width = L[:live], K[:live], K.shape[1]
        L1 = np.concatenate([pad[:live], L], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            L1[:, :width] = L1[:, :width] - b[:live, k, None] * K
            L2 = np.concatenate([pad[:live], L1], axis=1)
            K2 = L2.copy()
            L2[:, :width] = L2[:, :width] - c[:live, k, None] * K
            K2[:, :width] = K2[:, :width] + K
        yield L1, K
        yield L2, K2
        L, K = L2, K2


def gc_forward(coeffs: JacobiCoefficients, precision: int | None = None) -> GCSequence:
    """Run the ladder upward from the coefficient pairs.

    precision, if given, is the working precision in decimal digits: the
    coefficients enter as exact Decimals and every step rounds to that
    many significant digits, so the returned polynomials carry Decimal
    coefficients and a subsequent extended-precision inversion loses
    nothing.
    """
    with _working_type(precision) as (one, convert):
        steps = _forward_steps(convert([coeffs.a]), convert([coeffs.b]), one)
        seq = [([one], [one])] + [(L[0].tolist(), K[0].tolist()) for L, K in steps]
    lstars = tuple(RealPolynomial(L, trim=False) for L, _ in seq)
    ks = tuple(RealPolynomial(K, trim=False) for _, K in seq)
    return GCSequence(lstars, ks)


def lstar_blocks(blocks: list, precision: int | None = None) -> list[np.ndarray]:
    """lstar_rows of several blocks (a, b), each (T_i, n_i), in one upward pass.

    The rows climb stacked by n, descending, and a block's L*_{2n} is read
    off when its last level ends.  Returns the (T_i, 2 n_i + 1) rows of
    each block in the order given, each what lstar_rows gives it alone;
    complex blocks climb in complex128.
    """
    order = sorted(range(len(blocks)), key=lambda i: -np.shape(blocks[i][0])[1])
    ns = [np.shape(blocks[i][0])[1] for i in order]
    offsets = np.cumsum([0] + [len(blocks[i][0]) for i in order]).tolist()
    spans = list(zip(order, ns, offsets, offsets[1:]))
    finals = [None] * len(blocks)
    with _working_type(precision) as (one, convert):
        blocks = [tuple(map(convert, block)) for block in blocks]
        dtype = np.result_type(float, *[x for block in blocks for x in block])
        a = np.full((offsets[-1], max(ns, default=0)), one, dtype=dtype)
        b = a.copy()
        for i, n, lo, hi in spans:
            a[lo:hi, :n], b[lo:hi, :n] = blocks[i]
        active = [offsets[sum(n > k for n in ns)] for k in range(a.shape[1])]
        for level, (L, _) in enumerate(_forward_steps(a, b, one, active), start=1):
            for i, n, lo, hi in spans:
                if 2 * n == level:
                    finals[i] = L[lo:hi]
    return finals


def lstar_rows(a: np.ndarray, b: np.ndarray, precision: int | None = None) -> np.ndarray:
    """Coefficients (T, 2n + 1) of L*_{2n} for stacked coefficient rows a, b (T, n).

    The ladder of gc_forward run on a block of rows: float64, or with
    precision given object arrays of exact Decimals rounded at that many
    digits per step.
    """
    return lstar_blocks([(a, b)], precision)[0]


def _inverse_pass(blocks: list, one) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """The downward recursion on blocks of rows L*_{2n} sorted by n, descending, in the type of one.

    Every check is a row mask.  A row that fails one is flagged with its
    InversionError and carries on with a^2 = 1 (a non-finite row with
    L* = z^{2n}), so that no later operation of the pass can signal.
    Returns a, b (T, N) in the working type, a row of n in its first n
    columns, the mask of unflagged rows and the failures, rows numbered
    through the blocks.
    """
    cast = type(one)
    rtol, min_asq = cast(REMAINDER_RTOL), cast(MIN_A_SQUARED)
    screen, zero = rtol * one, one - one
    for L in blocks:
        _, width = L.shape
        if width < 3 or width % 2 == 0:
            raise ValueError("gc_inverse needs a monic polynomial of even degree >= 2")
        if not np.all(L[:, -1] == one):
            raise ValueError("gc_inverse needs a monic polynomial")
    n, rows = (blocks[0].shape[1] // 2 if blocks else 0), sum(map(len, blocks))
    a, b = np.full((rows, n), one), np.full((rows, n), one)
    ok = np.ones(rows, dtype=bool)
    failures: dict[int, InversionError] = {}
    L = K = np.full((0, 2 * n + 1), one)
    pending = list(blocks)
    for k in range(n - 1, -1, -1):
        top = 2 * k + 1
        while pending and pending[0].shape[1] == top + 2:
            new, lo = pending.pop(0), len(L)
            new_ok, new_failures = ok[lo : lo + len(new)], {}
            finite = np.isfinite(new) if new.dtype != object else _decimal_is_finite(new).astype(bool)
            bad = ~finite.all(axis=1)
            _flag(
                bad,
                new_ok,
                new_failures,
                lambda i: f"non-finite coefficient in {RealPolynomial(new[i])!r}",
            )
            new[bad, :-1] = zero
            K = np.concatenate([K, _k_rows(new, one, new_ok, new_failures)])
            L = np.concatenate([L, new])
            failures.update((lo + i, exc) for i, exc in new_failures.items())
        live = ok[: len(L)]
        asq = one - L[:, 0]
        _flag(
            asq <= min_asq,
            live,
            failures,
            lambda i: f"level {k + 1}: 1 - L*(0) = {float(asq[i]):.3e} is not positive",
        )
        asq = np.where(live, asq, one)
        a[: len(L), k] = np.sqrt(asq)
        # K at the odd level has degree 2k; the top two differences are structural zeros
        _flag(
            _exceeds(np.abs(K[:, top] - L[:, top]), L, rtol, screen),
            live,
            failures,
            lambda i: f"level {k + 1}: companion mismatch "
            f"{abs(float(K[i, top]) - float(L[i, top])):.3e}",
        )
        K1 = (K[:, :top] - L[:, :top]) / asq[:, None]
        c = (asq - one)[:, None]
        t = np.concatenate([L[:, :top] + c * K1, L[:, top:] + zero], axis=1)
        _flag(
            _exceeds(np.abs(t[:, 0]), L, rtol, screen),
            live,
            failures,
            lambda i: f"level {k + 1}: odd-step constant term {float(t[i, 0]):.3e} not zero",
        )
        L1 = t[:, 1:]
        b[: len(L), k] = -L1[:, 0]
        t = np.concatenate([L1[:, :top] + b[: len(L), k, None] * K1, L1[:, top:] + zero], axis=1)
        _flag(
            _exceeds(np.abs(t[:, 0]), L1, rtol, screen),
            live,
            failures,
            lambda i: f"level {k + 1}: even-step constant term {float(t[i, 0]):.3e} not zero",
        )
        L = t[:, 1:]
        K = K1
    _flag(
        np.abs(L[:, 0] - one) > rtol,
        ok,
        failures,
        lambda i: f"ladder bottom is {float(L[i, 0]):.6e}, expected 1",
    )
    return a, b, ok, failures


def gc_inverse_blocks(blocks: list, precision: int | None = None) -> list[tuple]:
    """gc_inverse_rows of several blocks of rows L*_{2n} (T_i, 2 n_i + 1), in one downward pass.

    Returns (a, b, failures) of each block in the order given, each what
    gc_inverse_rows gives that block alone.
    """
    with _working_type(precision) as (one, convert), np.errstate(over="ignore", invalid="ignore"):
        blocks = [convert(L) for L in blocks]
        order = sorted(range(len(blocks)), key=lambda i: -blocks[i].shape[1])
        a, b, ok, failures = _inverse_pass([blocks[i] for i in order], one)
    out, lo = [None] * len(blocks), 0
    for i in order:
        hi, n = lo + len(blocks[i]), blocks[i].shape[1] // 2
        got_a, got_b, got_ok = a[lo:hi, :n].astype(float), b[lo:hi, :n].astype(float), ok[lo:hi]
        got = {j - lo: exc for j, exc in failures.items() if lo <= j < hi}
        for j, exc in coefficient_failures(got_a, got_b).items():
            if got_ok[j]:
                got[j], got_ok[j] = exc, False
        got_a[~got_ok] = got_b[~got_ok] = np.nan
        out[i], lo = (got_a, got_b, got), hi
    return out


def gc_inverse_rows(
    lstar: np.ndarray, precision: int | None = None
) -> tuple[np.ndarray, np.ndarray, dict[int, ValueError]]:
    """Recover (a, b) row by row from stacked top ladder polynomials L*_{2n}.

    lstar is (T, 2n + 1) in ascending degree, every row monic; entries may
    be floats, ints or Decimals.  With precision given (decimal digits)
    they enter as exact Decimals and the recursion runs on object arrays
    of Decimals at that many digits, as in gc_forward; without it they
    are rounded to floats.  Each row is recovered on its own: a row's
    values and failure do not depend on the other rows of the batch.

    Returns a and b (T, n) as floats, and failures: row -> the exception
    of that row, an InversionError when the row is not numerically
    consistent with any coefficient set (a non-finite coefficient,
    negative a^2, nonvanishing remainders, bad ladder bottom), or the
    ValueError of JacobiCoefficients for a recovered value it rejects.
    Failed rows read NaN.  Raises ValueError when the rows do not have
    even degree >= 2 or are not monic.
    """
    return gc_inverse_blocks([lstar], precision)[0]


def gc_inverse(lstar_2n: RealPolynomial, precision: int | None = None) -> JacobiCoefficients:
    """Recover (a, b) from the top ladder polynomial L*_{2n}.

    The one-row call of gc_inverse_rows; it raises that row's failure.
    """
    a, b, failures = gc_inverse_rows([lstar_2n.coeffs], precision)
    if failures:
        raise failures[0]
    return JacobiCoefficients(tuple(a[0].tolist()), tuple(b[0].tolist()))
