"""Half-line Jacobi operators with a finitely supported perturbation.

The free operator has unit off-diagonals and zero diagonal; its spectrum
is the band [-2, 2].  A random n x n block coupled to the free half-line
through a single entry kappa becomes, after reduction and reordering, a
Jacobi operator whose first n coefficient pairs carry all the randomness:

    a = (|gamma| t_{n-1}, ..., |gamma| t_1, kappa),  b = (gamma s_n, ..., gamma s_1)

with (s, t) the tridiagonal block entries.  Everything past index n is
free.  Finite truncations provide an independent eigenvalue oracle for
the polynomial route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import TridiagonalSample

DEFAULT_BAND_MARGIN = 0.01
DEFAULT_TRUNCATION_SIZE = 2000


@dataclass(frozen=True)
class JacobiCoefficients:
    """First n coefficient pairs of a perturbed half-line Jacobi operator.

    a_j > 0 are off-diagonal entries, b_j real diagonal entries, both
    1-based in the mathematical indexing (a[0] is a_1).  Entries beyond
    index n are implicitly free (a_j = 1, b_j = 0).
    """

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have equal length")
        if len(self.a) == 0:
            raise ValueError("need at least one coefficient pair")
        failures = coefficient_failures(np.array([self.a], dtype=float), np.array([self.b], dtype=float))
        if failures:
            raise failures[0]

    @property
    def n(self) -> int:
        return len(self.a)


def perturbation_order(coeffs: JacobiCoefficients) -> int:
    """Smallest k such that a_j = 1 for j > k/2 and b_j = 0 for j > (k+1)/2.

    Equals 2j when the deepest nontrivial entry is a_j, and 2j - 1 when it
    is b_j with all a's at or beyond j trivial.  Returns 0 for the free
    operator.  This also equals the number of nonzero roots of the final
    recursion polynomial.
    """
    return int(perturbation_orders(np.array([coeffs.a]), np.array([coeffs.b]))[0])


def perturbation_orders(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`perturbation_order` of each row of stacked coefficients (T, n)."""
    j = np.arange(1, a.shape[1] + 1)
    deepest_a = np.where(np.abs(a - 1.0) > 0.0, 2 * j, 0).max(axis=1)
    deepest_b = np.where(np.abs(b) > 0.0, 2 * j - 1, 0).max(axis=1)
    return np.maximum(deepest_a, deepest_b)


def assemble_coupled(
    sample: TridiagonalSample, gamma: float, kappa: float
) -> JacobiCoefficients:
    """Coefficients of the coupled operator for a given finite block.

    Order reversal puts the block's last row next to the lead, so the
    coupling entry kappa lands at position a_n.
    """
    a, b, failures = coupled_coefficients(
        np.array([sample.s], dtype=float),
        np.array([sample.t], dtype=float).reshape(1, -1),
        gamma,
        np.array([kappa], dtype=float),
    )
    if failures:
        raise failures[0]
    return JacobiCoefficients(tuple(a[0].tolist()), tuple(b[0].tolist()))


def coupled_coefficients(
    s: np.ndarray, t: np.ndarray, gamma: float, kappa: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[int, ValueError]]:
    """Stacked coefficients a, b (T, n) of the coupled operators of stacked blocks.

    Row i is the coupled operator of the block with diagonal s[i] and
    off-diagonal t[i] at coupling kappa[i].  The checks of
    TridiagonalSample, assemble_coupled and JacobiCoefficients (a > 0,
    every a and b finite) run on the arrays; a row that fails one maps to
    the ValueError the single-block route raises, in failures.
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    a = np.concatenate([abs(gamma) * t[:, ::-1], kappa[:, None]], axis=1)
    b = gamma * s[:, ::-1]
    failures: dict[int, ValueError] = {}
    for i in np.flatnonzero((t < 0).any(axis=1)):
        failures[i] = ValueError("off-diagonal entries must be nonnegative")
    for i in np.flatnonzero(~(kappa > 0)):
        failures.setdefault(i, ValueError("kappa must be positive"))
    for i, exc in coefficient_failures(a, b).items():
        failures.setdefault(i, exc)
    return a, b, failures


def coefficient_failures(a: np.ndarray, b: np.ndarray) -> dict[int, ValueError]:
    """Row -> the ValueError JacobiCoefficients raises for stacked rows a, b (T, n)."""
    failures: dict[int, ValueError] = {}
    for name, values, bad in (("a", a, ~np.isfinite(a) | (a <= 0)), ("b", b, ~np.isfinite(b))):
        for i in np.flatnonzero(bad.any(axis=1)):
            j = int(np.argmax(bad[i]))
            x = float(values[i, j])
            rule = "positive" if name == "a" and x <= 0 else "finite"
            failures.setdefault(int(i), ValueError(f"{name}[{j}] = {x} must be {rule}"))
    return failures


@dataclass(frozen=True)
class TruncatedOperator:
    """Leading size x size section of the half-line operator."""

    diag: np.ndarray
    offdiag: np.ndarray


def truncate(coeffs: JacobiCoefficients, size: int) -> TruncatedOperator:
    """Finite section containing every perturbed entry (size >= n + 1)."""
    n = coeffs.n
    if size < n + 1:
        raise ValueError(f"truncation size {size} must be at least n + 1 = {n + 1}")
    diag = np.zeros(size)
    diag[:n] = coeffs.b
    off = np.ones(size - 1)
    off[:n] = coeffs.a
    return TruncatedOperator(diag, off)


def tridiag_eigenvalues(op: TruncatedOperator) -> np.ndarray:
    """All eigenvalues of the finite section, ascending."""
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(op.diag, op.offdiag)


def eigenvalues_in_range(op: TruncatedOperator, lo: float, hi: float) -> np.ndarray:
    """Eigenvalues in (lo, hi], by Sturm bisection; cheap for narrow windows."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    from scipy.linalg import eigvalsh_tridiagonal

    vals = eigvalsh_tridiagonal(
        op.diag, op.offdiag, select="v", select_range=(lo, hi), lapack_driver="stebz"
    )
    return np.sort(vals)


def eigenvalues_outside_band(
    coeffs: JacobiCoefficients,
    size: int = DEFAULT_TRUNCATION_SIZE,
    margin: float = DEFAULT_BAND_MARGIN,
) -> np.ndarray:
    """Truncation eigenvalues below -2 - margin or above 2 + margin, ascending.

    For large sections these approximate the genuine point spectrum: the
    free tail's spectrum stays inside (-2, 2), so anything found out here
    is a perturbation-induced bound state.  Bound-state eigenfunctions
    decay exponentially, making the truncation error negligible against
    the margin already at modest sizes.
    """
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    op = truncate(coeffs, size)
    # Gershgorin bound keeps the search window finite
    bound = float(np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.offdiag))) + 1.0
    lo = -2.0 - margin
    hi = 2.0 + margin
    below = eigenvalues_in_range(op, -bound, lo) if -bound < lo else np.empty(0)
    above = eigenvalues_in_range(op, hi, bound) if hi < bound else np.empty(0)
    return np.concatenate([below, above])
