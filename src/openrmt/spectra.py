"""Zero sets of the recursion polynomials and their spectral meaning.

A zero z of the final ladder polynomial L*_{2n} with |z| > 1 corresponds
to an eigenvalue z + 1/z of the operator outside the band [-2, 2]; zeros
in the punctured closed unit disk are resonances.  Real-coefficient
polynomials force the zero set to be closed under conjugation, and the
admissible configurations satisfy interval parity constraints on the
real line (encoded in :func:`is_in_S`).

Zeros come from one of two eigenvalue problems, each followed by a
residual certificate in L*_{2n} (RootFindingError when it fails):

- :func:`linearization_zeros` solves a whole stack of coefficient rows
  (a, b) at once.  The zeros of L*_{2n} are the eigenvalues of the monic
  linearization ``[[0, I], [-C, J_n]]`` of the outgoing-wave quadratic
  eigenproblem det(z^2 - z J_n + C) = 0 (Tisseur & Meerbergen, SIAM Rev.
  43, 2001), where J_n is the Jacobi block with diagonal b and
  off-diagonal a_1..a_{n-1} and C = diag(1, ..., 1, 1 - a_n^2).  There
  are no spurious eigenvalues, and kappa = a_n = 1 gives an exact zero.
  :func:`coefficient_zeros` is its one-row form for a single coefficient
  set, with exact origin zeros for trailing free levels.
- :func:`companion_roots` takes the eigenvalues of the monic companion
  matrices of a stack of polynomials, which is backward stable (Edelman &
  Murakami, Math. Comp. 64, 1995), after exact origin zeros are stripped.
  It is the independent monomial route that the zero-sum law, the
  identity suite and the tests compare against; :func:`polynomial_roots`
  is its one-row call.

Verdicts are array operations over stacked root sets (T, K):
:func:`resolve_rows` canonicalizes conjugate pairs, drops origin zeros,
labels, checks the point count and tests admissibility for every row at
once, with NaN marking the unused slots of each row.
:func:`canonicalize_conjugates`, :func:`classify`, :func:`is_in_S` and
:func:`resolve` are one-row calls of the same code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .geronimo_case import RealPolynomial, lstar_rows
from .jacobi import JacobiCoefficients, perturbation_order

RESIDUAL_RTOL = 1e-9
ORIGIN_RADIUS = 1e-10
REALNESS_TOL = 1e-8
MULTIPLICITY_RADIUS = 1e-7
PAIRING_RTOL = 1e-6
# entries of one stacked (rows, K, K) array pass: 8 MB of float64
STACK_BUDGET = 1 << 20
# fills the unused slots of a row; sorts after every point
EMPTY = complex(np.nan, np.nan)

EIGENVALUE = "eigenvalue"
RESONANCE = "resonance"


class RootFindingError(RuntimeError):
    """The computed roots failed the residual certificate."""


class ConjugationError(ValueError):
    """A non-real root has no conjugate partner (root-finder failure)."""


def _canon_key(z: complex):
    return (z.real, z.imag)


def _residuals_ok(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Residual certificate of each row: ascending coeffs (T, d + 1), roots (T, d)."""
    scale = np.max(np.abs(coeffs), axis=1, keepdims=True)
    p = np.zeros_like(roots)
    for j in range(coeffs.shape[1] - 1, -1, -1):
        p = p * roots + coeffs[:, j : j + 1]
    bound = RESIDUAL_RTOL * scale * np.maximum(1.0, np.abs(roots)) ** (coeffs.shape[1] - 1)
    return np.all(np.abs(p) <= bound, axis=1)


def companion_roots(coeffs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """All complex roots of stacked polynomials, each row certified by residual.

    coeffs (T, d + 1) holds one polynomial of degree d >= 1 per row, in
    ascending order.  A row's exact origin zeros (its leading zero
    coefficients) are stripped before the eigenvalue solve and re-appended,
    so degenerate ladder polynomials like pure powers of z are handled
    exactly; the rows of each stripped degree share one stacked solve of
    their monic companion matrices.  Returns the roots (T, d), each row
    sorted by (re, im), and failures: row -> the RootFindingError of a row
    whose roots fail the certificate.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    rows, width = coeffs.shape
    if width < 2:
        raise ValueError("need degree at least 1")
    origin = np.argmax(coeffs != 0.0, axis=1)
    roots = np.zeros((rows, width - 1), dtype=complex)
    failures: dict[int, Exception] = {}
    for stripped in np.unique(origin).tolist():
        group = np.flatnonzero(origin == stripped)
        p = coeffs[group, stripped:]
        deg = width - 1 - stripped
        companion = np.tile(np.eye(deg, k=-1), (len(group), 1, 1))
        # the first-row slice is empty when only origin zeros remain
        companion[:, :1] = (-p[:, -2::-1] / p[:, -1:])[:, None]
        found = np.linalg.eigvals(companion).astype(complex)
        for i in group[~_residuals_ok(p, found)]:
            failures[int(i)] = RootFindingError(
                f"root residuals exceed tolerance for degree {deg} input"
            )
        roots[group, :deg] = found
    return np.sort(roots, axis=1, kind="stable"), failures


def polynomial_roots(p: RealPolynomial) -> np.ndarray:
    """All complex roots of p with multiplicity, sorted by (re, im), certified by residual.

    The one-row call of companion_roots; raises the row's failure.
    """
    roots, failures = companion_roots([[float(c) for c in p.coeffs]])
    if failures:
        raise failures[0]
    return roots[0]


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive row slices whose (rows, width, width) arrays hold at most STACK_BUDGET entries."""
    step = max(1, STACK_BUDGET // max(width * width, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def linearization_zeros(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """Certified zeros of L*_{2n} for stacked coefficient rows a, b (T, n).

    Returns the zeros (T, 2n), in no particular order, and failures: row
    -> the exception of that row (LinAlgError for a non-finite or
    non-convergent matrix, RootFindingError for a failed residual in the
    ladder polynomial).  Each row is solved and certified on its own, so
    stacking never changes a row's zeros; the matrices are solved in
    blocks of rows that keep each stack within STACK_BUDGET entries.
    """
    rows, n = a.shape
    zeros = np.empty((rows, 2 * n), dtype=complex)
    failures: dict[int, Exception] = {}
    for block in _row_blocks(rows, 2 * n):
        zeros[block], block_failures = _linearization_eigvals(a[block], b[block])
        failures.update((block.start + i, exc) for i, exc in block_failures.items())
    with np.errstate(over="ignore", invalid="ignore"):
        certified = _residuals_ok(lstar_rows(a, b), zeros)
    for i in np.flatnonzero(~certified):
        failures.setdefault(
            i, RootFindingError(f"root residuals exceed tolerance for degree {2 * n} input")
        )
    return zeros, failures


def _linearization_eigvals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """Eigenvalues of the stacked [[0, I], [-C, J_n]], row by row where the stack fails."""
    rows, n = a.shape
    idx = np.arange(n)
    mat = np.zeros((rows, 2 * n, 2 * n))
    mat[:, idx, n + idx] = 1.0
    mat[:, n + idx, idx] = -1.0
    with np.errstate(over="ignore"):  # a non-finite row is reported below
        mat[:, 2 * n - 1, n - 1] = a[:, -1] * a[:, -1] - 1.0
    mat[:, n + idx, n + idx] = b
    mat[:, n + idx[1:], n + idx[:-1]] = a[:, :-1]
    mat[:, n + idx[:-1], n + idx[1:]] = a[:, :-1]
    failures: dict[int, Exception] = {}
    finite = np.isfinite(mat).all(axis=(1, 2))
    for i in np.flatnonzero(~finite):
        failures[i] = np.linalg.LinAlgError("Array must not contain infs or NaNs")
    mat[~finite] = 0.0
    try:
        return np.linalg.eigvals(mat).astype(complex), failures
    except np.linalg.LinAlgError:  # some row did not converge: solve the rows one by one
        zeros = np.zeros((rows, 2 * n), dtype=complex)
        for i in range(rows):
            try:
                zeros[i] = np.linalg.eigvals(mat[i])
            except np.linalg.LinAlgError as exc:
                failures.setdefault(i, exc)
        return zeros, failures


def coefficient_zeros(coeffs: JacobiCoefficients) -> np.ndarray:
    """Certified zeros of L*_{2n} for one coefficient set, by the linearization.

    Trailing free levels (a_j = 1, b_j = 0) are cut first: each makes
    L*_{2j} = z^2 L*_{2j-2}, so it adds two zeros at the origin, which
    are appended exactly; the linearization would split such a multiple
    zero by about sqrt(machine epsilon).  Raises the row's failure.
    """
    levels = (perturbation_order(coeffs) + 1) // 2
    zeros = np.zeros(2 * len(coeffs.a), dtype=complex)
    if levels:
        top, failures = linearization_zeros(
            np.array([coeffs.a[:levels]]), np.array([coeffs.b[:levels]])
        )
        if failures:
            raise failures[0]
        zeros[: 2 * levels] = top[0]
    return zeros


@dataclass(frozen=True)
class SpectrumConfiguration:
    """Canonicalized zero multiset: exact conjugate pairs plus real points.

    points are stored sorted by (re, im); labels, when present, mark each
    point as eigenvalue (|z| > 1) or resonance.  origin_drops records how
    many zeros at the origin were removed during canonicalization.
    """

    points: tuple[complex, ...]
    labels: tuple[str, ...] | None = None
    origin_drops: int = 0

    def __post_init__(self) -> None:
        conj = sorted((z.conjugate() for z in self.points), key=_canon_key)
        if list(self.points) != sorted(self.points, key=_canon_key):
            raise ValueError("points must be sorted by (re, im)")
        if conj != list(self.points):
            raise ValueError("points must be exactly closed under conjugation")
        if self.labels is not None and len(self.labels) != len(self.points):
            raise ValueError("labels length must match points")

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def num_pairs(self) -> int:
        return sum(1 for z in self.points if z.imag > 0)

    @property
    def num_real(self) -> int:
        return sum(1 for z in self.points if z.imag == 0)


def _labels(points: np.ndarray) -> tuple[str, ...]:
    return tuple(EIGENVALUE if e else RESONANCE for e in (np.abs(points) > 1.0).tolist())


def _canonical_rows(roots: np.ndarray):
    """Canonical configurations of stacked root sets (T, K).

    Returns (points, origin_drops, failures).  Row i holds its kept points
    sorted by (re, im), then EMPTY slots.  Roots within ORIGIN_RADIUS of
    the origin are dropped and counted; near-real roots are snapped onto
    the axis; each upper half-plane root, in (re, im) order, takes the
    nearest unused lower half-plane root, and the pair becomes the exact
    conjugates of their mean.  A row whose non-real roots do not pair
    maps to a ConjugationError in failures.
    """
    z = np.asarray(roots, dtype=complex)
    mod = np.abs(z)
    kept = mod >= ORIGIN_RADIUS
    real = kept & (np.abs(z.imag) <= REALNESS_TOL * np.maximum(1.0, mod))
    upper = kept & ~real & (z.imag > 0)
    lower = kept & ~real & ~(z.imag > 0)
    failures: dict[int, Exception] = {}
    n_up, n_low = upper.sum(axis=1), lower.sum(axis=1)
    for i in np.flatnonzero(n_up != n_low):
        failures[i] = ConjugationError(f"{n_up[i]} upper vs {n_low[i]} lower half-plane roots")
    uppers = np.sort(np.where(upper, z, EMPTY), axis=1)[:, : n_up.max(initial=0)]
    partners = np.full(uppers.shape, EMPTY)
    free = lower.copy()
    at = np.arange(len(z))
    for m in range(uppers.shape[1]):
        # first minimum in root order, as a scan over the unused lower roots finds it
        gaps = np.where(free, np.abs(uppers[:, m : m + 1].conj() - z), np.inf)
        j = np.argmin(gaps, axis=1)
        active = m < n_up
        near = gaps[at, j] <= PAIRING_RTOL * np.maximum(1.0, np.abs(uppers[:, m]))
        for i in np.flatnonzero(active & ~near):
            u = complex(uppers[i, m])
            failures.setdefault(i, ConjugationError(f"no conjugate partner for root {u}"))
        free[at[active], j[active]] = False
        partners[active, m] = z[at[active], j[active]].conj()
    mean = 0.5 * (uppers + partners)
    points = np.concatenate([np.where(real, z.real + 0j, EMPTY), mean, mean.conj()], axis=1)
    points = np.sort(points, axis=1)[:, : z.shape[1]]
    return points, (mod < ORIGIN_RADIUS).sum(axis=1), failures


def canonicalize_conjugates(roots) -> SpectrumConfiguration:
    """Snap near-real roots, pair the rest into exact conjugates.

    Roots within ORIGIN_RADIUS of the origin are dropped (their count is
    kept on the configuration); a non-real root with no partner raises
    ConjugationError since roots of a real polynomial cannot be lopsided.
    """
    points, drops, failures = _canonical_rows(np.asarray(roots, dtype=complex).reshape(1, -1))
    if failures:
        raise failures[0]
    kept = points[0][~np.isnan(points[0])]
    return SpectrumConfiguration(tuple(complex(z) for z in kept), origin_drops=int(drops[0]))


def classify(config: SpectrumConfiguration) -> SpectrumConfiguration:
    """Label each point: outside the closed unit disk means eigenvalue."""
    return dataclasses.replace(config, labels=_labels(np.array(config.points, dtype=complex)))


def joukowsky(z: complex) -> complex:
    if z == 0:
        raise ValueError("the map z + 1/z is undefined at 0")
    return z + 1.0 / z


@dataclass(frozen=True)
class SMembership:
    """Verdict of the admissibility test, with the first violated clause."""

    ok: bool
    clause: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _side_checks(xs: np.ndarray, reals: np.ndarray) -> list:
    """Parity clauses c, a, b for the outside points on the positive axis.

    xs (T, K): each row's outside points > 1, ascending, NaN after them;
    reals (T, K): each row's real points (any sign), NaN elsewhere.  No
    real point may sit on an inverted position 1/x_m (c), the count on
    (1/x_1, 1] must be even (a), and the count between consecutive
    inverted positions odd (b).  Returns (clause, rows failing it, detail
    of row i) for each clause in order.
    """
    inv = 1.0 / xs
    near = np.abs(reals[:, None, :] - inv[:, :, None]) <= REALNESS_TOL
    coincide = near.any(axis=2)
    lead = np.sum((reals > inv[:, :1]) & (reals <= 1.0), axis=1)
    inner = reals[:, None, :]
    between = np.sum((inner > inv[:, 1:, None]) & (inner < inv[:, :-1, None]), axis=2)
    even_gap = ~np.isnan(inv[:, 1:]) & (between % 2 == 0)

    def hit(i):
        m = int(np.argmax(coincide[i]))
        r = reals[i, np.argmax(near[i, m])]
        return f"point {r:.6g} coincides with 1/x_{m + 1} = {inv[i, m]:.6g}"

    def odd_lead(i):
        return f"{lead[i]} points on (1/x_1, 1] = ({inv[i, 0]:.6g}, 1], want even"

    def even_between(i):
        m = int(np.argmax(even_gap[i]))
        return (
            f"{between[i, m]} points on (1/x_{m + 2}, 1/x_{m + 1}) = "
            f"({inv[i, m + 1]:.6g}, {inv[i, m]:.6g}), want odd"
        )

    return [
        ("c", coincide.any(axis=1), hit),
        ("a", lead % 2 == 1, odd_lead),
        ("b", even_gap.any(axis=1), even_between),
    ]


def _clause_rows(points: np.ndarray) -> tuple[list, list]:
    """First violated admissibility clause of each stacked configuration, and its detail.

    points (T, K): each row's points sorted by (re, im), then NaN slots.
    The clause is None for an admissible row.  Clauses, in order: (i)
    conjugation closure, (ii) points outside the closed unit disk are
    real and simple, (iii) interval parity for the positive outside
    points, (iv) the mirrored conditions for negative outside points.
    """
    valid = ~np.isnan(points)
    mod = np.abs(points)
    scale = REALNESS_TOL * np.maximum(1.0, mod)
    conj = np.sort(np.where(valid, points.conj(), EMPTY), axis=1)
    unclosed = valid & (np.abs(conj - points) > scale)
    nonreal = np.abs(points.imag) > scale
    outside = valid & (mod > 1.0)
    outside_reals = np.sort(np.where(outside & ~nonreal, points.real, np.nan), axis=1)
    multiple = np.diff(outside_reals, axis=1) <= MULTIPLICITY_RADIUS
    reals = np.where(valid & ~nonreal, points.real, np.nan)
    xs_pos = np.sort(np.where(outside_reals > 0, outside_reals, np.nan), axis=1)
    xs_neg = np.sort(np.where(outside_reals < 0, -outside_reals, np.nan), axis=1)

    def not_real(i):
        z = complex(points[i, np.argmax(outside[i] & nonreal[i])])
        return f"outside point {z:.6g} is not real"

    def repeated(i):
        return f"outside point {outside_reals[i, np.argmax(multiple[i])]:.6g} is multiple"

    checks = [
        ("i", unclosed.any(axis=1), lambda i: "multiset is not closed under conjugation"),
        ("ii", (outside & nonreal).any(axis=1), not_real),
        ("ii", multiple.any(axis=1), repeated),
    ]
    checks += [("iii." + c, m, d) for c, m, d in _side_checks(xs_pos, reals)]
    checks += [("iv." + c, m, d) for c, m, d in _side_checks(xs_neg, -reals)]
    clauses: list = [None] * len(points)
    details = ["all clauses satisfied"] * len(points)
    for clause, failing, detail in checks:
        for i in np.flatnonzero(failing):
            if clauses[i] is None:
                clauses[i], details[i] = clause, detail(i)
    return clauses, details


def is_in_S(k: int, config: SpectrumConfiguration) -> SMembership:
    """Admissibility of a k-point configuration as a rank-k zero set.

    Checks, in order: (i) conjugation closure, (ii) points outside the
    closed unit disk are real and simple, (iii) interval parity for the
    positive outside points, (iv) the mirrored conditions for negative
    outside points.  The first failed clause is named in the verdict.
    """
    if config.count != k:
        raise ValueError(f"configuration has {config.count} points, expected {k}")
    clauses, details = _clause_rows(np.array(config.points, dtype=complex).reshape(1, -1))
    return SMembership(clauses[0] is None, clauses[0], details[0])


@dataclass(frozen=True)
class ResolvedRows:
    """Labelled configurations and verdicts of stacked root sets (see :func:`resolve_rows`).

    points (T, K) holds each row's kept points sorted by (re, im), then
    NaN slots; clause[i] is the first violated clause of row i (None when
    it is in S, "count" for a wrong point count); failures maps a row
    whose roots do not pair to its ConjugationError.
    """

    points: np.ndarray
    origin_drops: np.ndarray
    clause: list
    detail: list
    failures: dict

    @property
    def eigenvalue(self) -> np.ndarray:
        return np.abs(self.points) > 1.0

    def configuration(self, i: int) -> SpectrumConfiguration:
        kept = self.points[i][~np.isnan(self.points[i])]
        return SpectrumConfiguration(
            tuple(complex(z) for z in kept), _labels(kept), int(self.origin_drops[i])
        )

    def membership(self, i: int) -> SMembership:
        return SMembership(self.clause[i] is None, self.clause[i], self.detail[i])


def resolve_rows(roots: np.ndarray, k) -> ResolvedRows:
    """Canonical, labelled configurations of stacked root sets (T, K) and their verdicts.

    k (an int or one per row) is the expected number of points after
    origin zeros are dropped: the perturbation order of the coefficients
    (jacobi.perturbation_orders), 2n generically and 2n - 1 when kappa =
    1.  A different count is reported as clause "count".  Every row is
    judged on its own, so stacking never changes a row's verdict.
    """
    points, drops, failures = _canonical_rows(roots)
    clauses, details = [], []
    for block in _row_blocks(len(points), points.shape[1]):
        block_clauses, block_details = _clause_rows(points[block])
        clauses += block_clauses
        details += block_details
    count = (~np.isnan(points)).sum(axis=1)
    k = np.broadcast_to(k, count.shape)
    for i in np.flatnonzero(count != k):
        clauses[i], details[i] = "count", f"{count[i]} points, expected {k[i]}"
    return ResolvedRows(points, drops, clauses, details, failures)


def resolve(roots, k: int) -> tuple[SpectrumConfiguration, SMembership]:
    """Labelled configuration of a root multiset and its admissibility verdict.

    k is the expected number of points after origin zeros are dropped: the
    perturbation order of the coefficients (jacobi.perturbation_order),
    2n generically and 2n - 1 when kappa = 1.  A different count is
    reported as clause "count" instead of raised.
    """
    rows = resolve_rows(np.asarray(roots, dtype=complex).reshape(1, -1), k)
    if rows.failures:
        raise rows.failures[0]
    return rows.configuration(0), rows.membership(0)
