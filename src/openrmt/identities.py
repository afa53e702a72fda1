"""Cross-checks between zero sets, coefficients, and recursion Jacobians.

The ladder polynomial L*_m ties its zeros {z_j} to the underlying (a, b)
through elementary symmetric functions: the product, sum, pair sum and
square sum of the zeros all have closed forms in the coefficients, and
the mixed pair product over ordered pairs collapses to a power product
of the a_j.  These give five machine-checkable identities; separately,
the step maps of the ladder have constant-in-u Jacobian determinants
which we verify by complex-step differentiation (Squire & Trapp, SIAM
Rev. 40, 1998): every map here is a polynomial in its inputs, so the
imaginary part of f(x + i h e_j) / h is column j of the Jacobian to
rounding error, with no difference quotient to cancel.

Everything here is a consistency check, not a computation path: the
checks share no code with the quantities they validate beyond the
forward recursion itself.  Every check runs on stacked rows, one
coefficient set per row.
"""

from __future__ import annotations

import math

import numpy as np

from .geronimo_case import _forward_steps, k_from_lstar_rows, lstar_rows
from .spectra import companion_roots

TOL_IDENTITY = 1e-9
TOL_IDENTITY_V = 1e-7
TOL_IDENTITY_V_IMAG = 1e-9
TOL_JACOBIAN = 1e-4
# far below the rounding of any input, so the O(h^2) term is nothing
COMPLEX_STEP = 1e-20
# the total determinant is ill-conditioned: 1e-7 relative error at n = 8, 1e-2 at n = 12
MAX_TOTAL_JACOBIAN_N = 8


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| by the C library's hypot; numpy's complex abs can differ from it in the last bit."""
    return np.hypot(np.real(z), np.imag(z))


def _rel_spread(*vals: np.ndarray) -> np.ndarray:
    """Largest pairwise gap among equivalent row values, relative to the largest value."""
    scale = np.maximum(1.0, np.max([_modulus(v) for v in vals], axis=0))
    gaps = [_modulus(x - y) for i, x in enumerate(vals) for y in vals[i + 1 :]]
    return np.max(gaps, axis=0) / scale


def identity_residuals(L: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
    """The five zero-coefficient identities of stacked ladder rows L*_m.

    L (T, m + 1) holds each row's monic L*_m in ascending degree, and a, b
    the coefficients it was built from (only a_1..a_{m//2} and
    b_1..b_{(m+1)//2} are read).  Each residual of identities i-iv is the
    largest relative gap among the equivalent expressions (zero-side,
    coefficient-side, and the u-coefficient of L*_m).

    The pair product (v) runs over ordered pairs j != k of (1 - z_j z_k),
    with no conjugation and no per-point factor, and equals
    prod_j a_j^(4j).  It is compared in log space; "identity_v" is the
    relative gap of the moduli and "identity_v_imag" the phase modulo
    2 pi.  Both are NaN on a row where some z_j z_k = 1 within 1e-12 (a
    factor of the product degenerates there).  "pair_gap" is each row's
    min |1 - z_j z_k| over all pairs, self pairs included: near that locus
    the product is exponentially sensitive to the double rounding already
    present in the ladder coefficients, so no root polishing can recover
    it, and callers score the pair product only where the gap is not
    small.  Raises the RootFindingError of the lowest row whose zeros
    fail their certificate.
    """
    rows, width = L.shape
    m, q, h = width - 1, (width - 1) // 2, width // 2
    if m < 1 or a.shape[1] < q or b.shape[1] < h:
        raise ValueError(f"rows of L*_{m} need m >= 1, {q} values of a and {h} of b")
    roots, failures = companion_roots(L)
    if failures:
        raise failures[min(failures)]
    a, b = a[:, :q], b[:, :h]
    u0, u1 = L[:, 0], L[:, m - 1]
    u2 = L[:, m - 2] if m >= 2 else np.zeros(rows)

    prod_z = np.prod(roots, axis=1)
    sum_z = np.sum(roots, axis=1)
    sum_z2 = np.sum(roots**2, axis=1)
    e2 = 0.5 * (sum_z * sum_z - sum_z2)
    sum_b = np.sum(b, axis=1)
    sum_bb = 0.5 * (sum_b**2 - np.sum(b**2, axis=1))
    sum_a2 = np.sum(a**2 - 1.0, axis=1)
    coeff_side_i = 1.0 - a[:, -1] ** 2 if m % 2 == 0 else -b[:, -1]
    residuals = {
        "identity_i": _rel_spread((-1) ** m * prod_z, u0, coeff_side_i),
        "identity_ii": _rel_spread(-sum_z, u1, -sum_b),
        "identity_iii": _rel_spread(e2, u2, sum_bb - sum_a2),
        "identity_iv": _rel_spread(sum_z2, u1 * u1 - 2.0 * u2, np.sum(b**2, axis=1) + 2.0 * sum_a2),
    }

    outer = 1.0 - roots[:, :, None] * roots[:, None, :]
    pair_gap = np.min(np.abs(outer), axis=(1, 2))
    product = np.full(rows, np.nan)
    phase = np.full(rows, np.nan)
    kept = np.flatnonzero(pair_gap > 1e-12)
    # row by row: each pairwise sum of logs, and the C library's log, whose
    # last bits numpy's does not always match, show at the 1e-11 scale of (v)
    for i, logs in zip(kept.tolist(), np.log(outer[kept][:, ~np.eye(m, dtype=bool)])):
        log_sum = complex(np.sum(logs))
        log_rhs = sum(4.0 * (j + 1) * math.log(x) for j, x in enumerate(a[i].tolist()))
        product[i] = abs(math.expm1(log_sum.real - log_rhs))
        phase[i] = abs(math.remainder(log_sum.imag, 2.0 * math.pi))
    residuals.update(identity_v=product, identity_v_imag=phase, pair_gap=pair_gap)
    return residuals


def _complex_step_det(f, x: np.ndarray) -> np.ndarray:
    """Jacobian determinant of a row-wise polynomial map f at each row of x (T, d)."""
    rows, d = x.shape
    points = x[:, None, :] + 1j * COMPLEX_STEP * np.eye(d)  # point j steps input j
    columns = f(points.reshape(rows * d, d)).imag.reshape(rows, d, d) / COMPLEX_STEP
    return np.linalg.det(columns)  # the transpose of the Jacobian


def _ladder_step(v: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """u of z L* - factor K for rows v = (u of L*, parameter), all descending."""
    rows = len(v)
    lstar = np.concatenate([v[:, -2::-1], np.ones((rows, 1))], axis=1)
    kpoly = k_from_lstar_rows(lstar)
    out = np.concatenate([np.zeros((rows, 1)), lstar], axis=1)
    out[:, : kpoly.shape[1]] -= factor[:, None] * kpoly
    return out[:, -2::-1]


def _odd_step_map(v: np.ndarray) -> np.ndarray:
    """(u of L*_{2k}, b_{k+1}) -> u of L*_{2k+1}, row by row."""
    return _ladder_step(v, v[:, -1])


def _even_step_map(v: np.ndarray) -> np.ndarray:
    """(u of L*_{2k+1}, a_{k+1}) -> u of L*_{2k+2}, row by row."""
    return _ladder_step(v, v[:, -1] * v[:, -1] - 1.0)


def _relative_gap(value: np.ndarray, expected) -> np.ndarray:
    return np.abs(value - expected) / np.maximum(1.0, np.abs(expected))


def step_jacobian_residuals(a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
    """Determinants of the two ladder step maps at every level of rows a, b (T, n).

    The odd step k (append b_{k+1}) has determinant -1; the even step k
    (append a_{k+1}) has determinant -2 a_{k+1}^{2k+1}.  Both are exact
    constants because the companion polynomial is itself a linear
    function of the u-coefficients.  Returns the relative residuals
    "jacobian_odd_step" and "jacobian_even_step", (T, n), column k at
    step k.
    """
    rows, n = a.shape
    odd, even = np.empty((rows, n)), np.empty((rows, n))
    levels = _forward_steps(a, b, 1.0)
    L = np.ones((rows, 1))  # L*_0
    for k in range(n):
        (L1, _), (L2, _) = next(levels), next(levels)
        det = _complex_step_det(_odd_step_map, np.column_stack([L[:, -2::-1], b[:, k]]))
        odd[:, k] = _relative_gap(det, -1.0)
        det = _complex_step_det(_even_step_map, np.column_stack([L1[:, -2::-1], a[:, k]]))
        even[:, k] = _relative_gap(det, -2.0 * a[:, k] ** (2 * k + 1))
        L = L2
    return {"jacobian_odd_step": odd, "jacobian_even_step": even}


def total_jacobian_residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|det| of the full (b_1, a_1, ..., b_n, a_n) -> u map of each row of a, b (T, n).

    Returns its relative residual against 2^n prod_j a_j^(2j-1).  The
    determinant is ill-conditioned in n, hence the size cap
    MAX_TOTAL_JACOBIAN_N.
    """
    rows, n = a.shape
    if n > MAX_TOTAL_JACOBIAN_N:
        raise ValueError(f"the total Jacobian is capped at n = {MAX_TOTAL_JACOBIAN_N}, got {n}")

    def full_map(x: np.ndarray) -> np.ndarray:
        return lstar_rows(x[:, 1::2], x[:, 0::2])[:, -2::-1]

    x = np.empty((rows, 2 * n))
    x[:, 0::2], x[:, 1::2] = b, a
    det = np.abs(_complex_step_det(full_map, x))
    expected = 2.0**n * np.prod(a ** (2 * np.arange(n) + 1), axis=1)
    return _relative_gap(det, expected)
