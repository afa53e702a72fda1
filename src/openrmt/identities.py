"""Cross-checks between zero sets, coefficients, and recursion Jacobians.

The ladder polynomial L*_m ties its zeros {z_j} to the underlying (a, b)
through elementary symmetric functions: the product, sum, pair sum and
square sum of the zeros all have closed forms in the coefficients, and
the mixed pair product over ordered pairs collapses to a power product
of the a_j.  These give five machine-checkable identities; separately,
the step maps of the ladder have constant-in-u Jacobian determinants
which we verify by central finite differences.

Everything here is a consistency check, not a computation path: the
checks share no code with the quantities they validate beyond the
forward recursion itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .geronimo_case import GCSequence, RealPolynomial, gc_forward, k_from_lstar_rows, lstar_rows
from .jacobi import JacobiCoefficients
from .spectra import polynomial_roots

TOL_IDENTITY = 1e-9
TOL_IDENTITY_V = 1e-7
TOL_IDENTITY_V_IMAG = 1e-9
TOL_JACOBIAN = 1e-4
FD_STEP = 1e-5

# identity (v) is stated as a pair product with a conjugation whose ordering
# is ambiguous; resolved numerically (see the convention fixture in the
# tests): the product runs over ordered pairs j != k of (1 - z_j z_k) with
# no conjugation and no extra per-point factor.
IDENTITY_V_CONVENTION = (
    "prod over ordered pairs j != k of (1 - z_j z_k), no conjugation, "
    "no per-point factor; equals prod_j a_j^(4j)"
)


@dataclass(frozen=True)
class IdentityReport:
    """Residuals and verdicts for a batch of named checks."""

    residuals: dict[str, float]
    passes: dict[str, bool]
    values: dict[str, float] = field(default_factory=dict)
    convention: str | None = None
    imag_residual: float | None = None
    skipped: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())


def _rel_spread(*vals: complex) -> float:
    scale = max(1.0, max(abs(v) for v in vals))
    return max(abs(x - y) for x, y in combinations(vals, 2)) / scale


def check_zero_coefficient_identities(
    coeffs: JacobiCoefficients, m: int, ladder: GCSequence | None = None
) -> IdentityReport:
    """Evaluate the five zero-coefficient identities at ladder level m.

    Each residual is the largest relative gap among the equivalent
    expressions (zero-side, coefficient-side, and the u-coefficient of
    L*_m).  The pair-product identity is evaluated in log space and is
    skipped, with a flag, when some z_j z_k = 1 within 1e-12 (a factor
    of the product degenerates there).  Callers that want a numerically
    meaningful pass/fail should further restrict to configurations whose
    pair gap min |1 - z_j z_k| is not small: near that locus the product
    is exponentially sensitive to the double rounding already present in
    the ladder coefficients, so no root polishing can recover it.
    ladder is gc_forward(coeffs), computed here when not given.
    """
    n = coeffs.n
    if not 1 <= m <= 2 * n:
        raise ValueError(f"level m must be in 1..{2 * n}, got {m}")
    if ladder is None:
        ladder = gc_forward(coeffs)
    lst = ladder.lstar[m]
    roots = polynomial_roots(lst)
    u = [float(c) for c in lst.coeffs]
    u0 = u[0]
    u1 = u[m - 1]
    u2 = u[m - 2] if m >= 2 else 0.0
    q = m // 2
    h = (m + 1) // 2
    a = np.array(coeffs.a[:q])
    b = np.array(coeffs.b[:h])

    prod_z = complex(np.prod(roots)) if len(roots) else 1.0 + 0j
    sum_z = complex(np.sum(roots))
    sum_z2 = complex(np.sum(roots**2))
    e2 = 0.5 * (sum_z * sum_z - sum_z2)
    sum_bb = 0.5 * (float(np.sum(b)) ** 2 - float(np.sum(b**2)))
    sum_a2 = float(np.sum(a**2 - 1.0))

    coeff_side_i = 1.0 - float(a[-1]) ** 2 if m % 2 == 0 else -float(b[-1])
    residuals = {
        "identity_i": _rel_spread((-1) ** m * prod_z, u0, coeff_side_i),
        "identity_ii": _rel_spread(-sum_z, u1, -float(np.sum(b))),
        "identity_iii": _rel_spread(e2, u2, sum_bb - sum_a2),
        "identity_iv": _rel_spread(sum_z2, u1 * u1 - 2.0 * u2, float(np.sum(b**2)) + 2.0 * sum_a2),
    }

    skipped: tuple[str, ...] = ()
    imag_residual = None
    min_gap = float(np.min(np.abs(1.0 - roots**2), initial=np.inf))
    outer = 1.0 - roots[:, None] * roots[None, :]
    pair_gap = float(np.min(np.abs(outer), initial=np.inf))
    if pair_gap <= 1e-12:
        skipped = ("identity_v",)
    else:
        off_diagonal = outer[~np.eye(len(roots), dtype=bool)]
        log_sum = complex(np.sum(np.log(off_diagonal.astype(complex))))
        log_rhs = sum(4.0 * (j + 1) * math.log(float(a[j])) for j in range(q))
        residuals["identity_v"] = abs(math.expm1(log_sum.real - log_rhs))
        imag_residual = abs(math.remainder(log_sum.imag, 2.0 * math.pi))

    passes = {name: residuals[name] < TOL_IDENTITY for name in residuals}
    if "identity_v" in residuals:
        passes["identity_v"] = (
            residuals["identity_v"] < TOL_IDENTITY_V
            and imag_residual < TOL_IDENTITY_V_IMAG
        )
    return IdentityReport(
        residuals=residuals,
        passes=passes,
        values={
            "u0": u0,
            "u1": u1,
            "u2": u2,
            "min_abs_one_minus_z2": min_gap,
            "min_abs_one_minus_zjzk": pair_gap,
        },
        convention=IDENTITY_V_CONVENTION,
        imag_residual=imag_residual,
        skipped=skipped,
    )


def _fd_jacobian(f, x0: np.ndarray, h: float) -> np.ndarray:
    """Central differences of a row-wise map f, at all 2 len(x0) points in one call."""
    x0 = np.asarray(x0, dtype=float)
    d = len(x0)
    step = h * np.maximum(1.0, np.abs(x0))
    points = np.tile(x0, (2, d, 1))
    diag = np.arange(d)
    points[0, diag, diag] += step
    points[1, diag, diag] -= step
    values = f(points.reshape(2 * d, d))
    return ((values[:d] - values[d:]) / (2.0 * step)[:, None]).T


def _u_descending(poly: RealPolynomial) -> list[float]:
    """Non-monic coefficients of a monic polynomial, highest degree first."""
    cs = [float(c) for c in poly.coeffs]
    return cs[-2::-1]


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


def stepwise_jacobian_fd(
    coeffs: JacobiCoefficients, k: int, h: float = FD_STEP, ladder: GCSequence | None = None
) -> IdentityReport:
    """Finite-difference determinants of the two ladder step maps at level k.

    The odd step (append b_{k+1}) has determinant -1; the even step
    (append a_{k+1}) has determinant -2 a_{k+1}^{2k+1}.  Both are exact
    constants because the companion polynomial is itself a linear
    function of the u-coefficients.  ladder is gc_forward(coeffs),
    computed here when not given.
    """
    if not 0 <= k < coeffs.n:
        raise ValueError(f"step index k must be in 0..{coeffs.n - 1}")
    if not 1e-7 <= h <= 1e-4:
        raise ValueError("step size h must lie in [1e-7, 1e-4]")
    if ladder is None:
        ladder = gc_forward(coeffs)
    ak = coeffs.a[k]
    bk = coeffs.b[k]

    v1 = np.array(_u_descending(ladder.lstar[2 * k]) + [bk])
    det1 = float(np.linalg.det(_fd_jacobian(_odd_step_map, v1, h)))
    v2 = np.array(_u_descending(ladder.lstar[2 * k + 1]) + [ak])
    det2 = float(np.linalg.det(_fd_jacobian(_even_step_map, v2, h)))

    expected1 = -1.0
    expected2 = -2.0 * ak ** (2 * k + 1)
    residuals = {
        "jacobian_odd_step": abs(det1 - expected1) / max(1.0, abs(expected1)),
        "jacobian_even_step": abs(det2 - expected2) / max(1.0, abs(expected2)),
    }
    return IdentityReport(
        residuals=residuals,
        passes={name: r < TOL_JACOBIAN for name, r in residuals.items()},
        values={
            "jacobian_odd_step": det1,
            "jacobian_odd_step_expected": expected1,
            "jacobian_even_step": det2,
            "jacobian_even_step_expected": expected2,
        },
    )


def total_jacobian_fd(coeffs: JacobiCoefficients, h: float = FD_STEP) -> IdentityReport:
    """|det| of the full (b_1, a_1, ..., b_n, a_n) -> u map, by central FD.

    Compared against 2^n prod_j a_j^(2j-1).  Cost grows quadratically
    with n, hence the size cap.
    """
    n = coeffs.n
    if n > 6:
        raise ValueError("finite-difference total Jacobian is capped at n = 6")
    if not 1e-7 <= h <= 1e-4:
        raise ValueError("step size h must lie in [1e-7, 1e-4]")

    def full_map(x: np.ndarray) -> np.ndarray:
        return lstar_rows(x[:, 1::2], x[:, 0::2])[:, -2::-1]

    x0 = np.empty(2 * n)
    x0[0::2] = coeffs.b
    x0[1::2] = coeffs.a
    det = abs(float(np.linalg.det(_fd_jacobian(full_map, x0, h))))
    expected = 2.0**n * float(np.prod([coeffs.a[j] ** (2 * j + 1) for j in range(n)]))
    residual = abs(det - expected) / max(1.0, abs(expected))
    return IdentityReport(
        residuals={"jacobian_total": residual},
        passes={"jacobian_total": residual < TOL_JACOBIAN},
        values={"jacobian_total": det, "jacobian_total_expected": expected},
    )
