"""Zero sets of the recursion polynomials and their spectral meaning.

A zero z of the final ladder polynomial with |z| > 1 corresponds to an
eigenvalue z + 1/z of the operator outside the band [-2, 2]; zeros in the
punctured closed unit disk are resonances.  Real-coefficient polynomials
force the zero set to be closed under conjugation, and the admissible
configurations satisfy interval parity constraints on the real line
(encoded in :func:`is_in_S`).

Roots are the eigenvalues of the monic companion matrix, which is
backward stable (Edelman & Murakami, Math. Comp. 64, 1995), after exact
origin zeros are stripped; every root then passes a residual certificate
or RootFindingError is raised.  :func:`resolve` is the single path from
roots to a verdict: canonicalize, classify, check the point count, and
test admissibility.
"""

from __future__ import annotations

import cmath
import dataclasses
from dataclasses import dataclass

import numpy as np

from .geronimo_case import RealPolynomial

RESIDUAL_RTOL = 1e-9
ORIGIN_RADIUS = 1e-10
REALNESS_TOL = 1e-8
MULTIPLICITY_RADIUS = 1e-7

EIGENVALUE = "eigenvalue"
RESONANCE = "resonance"


class RootFindingError(RuntimeError):
    """The computed roots failed the residual certificate."""


class ConjugationError(ValueError):
    """A non-real root has no conjugate partner (root-finder failure)."""


def _canon_key(z: complex):
    return (z.real, z.imag)


def _poly_eval_many(coeffs, z):
    """Evaluate a polynomial (ascending coeffs) at points z."""
    p = np.zeros_like(z)
    for c in reversed(coeffs):
        p = p * z + c
    return p


def _residuals_ok(coeffs, roots) -> bool:
    scale = max(abs(c) for c in coeffs)
    p = _poly_eval_many(coeffs, roots)
    bound = RESIDUAL_RTOL * scale * np.maximum(1.0, np.abs(roots)) ** (len(coeffs) - 1)
    return bool(np.all(np.abs(p) <= bound))


def polynomial_roots(p: RealPolynomial) -> np.ndarray:
    """All complex roots of p with multiplicity, certified by residual.

    Exact zero trailing structure (roots at the origin) is stripped before
    the eigenvalue solve and re-appended, so degenerate ladder polynomials
    like pure powers of z are handled exactly.
    """
    coeffs = [float(c) for c in p.coeffs]
    if len(coeffs) - 1 < 1:
        raise ValueError("need degree at least 1")
    n_origin = 0
    while coeffs and coeffs[0] == 0.0:
        coeffs.pop(0)
        n_origin += 1
    deg = len(coeffs) - 1
    # monic companion matrix; the first-row slice is empty when only origin zeros remain
    companion = np.eye(deg, k=-1)
    companion[:1] = -np.array(coeffs[-2::-1]) / coeffs[-1]
    roots = np.linalg.eigvals(companion).astype(complex)
    if not _residuals_ok(coeffs, roots):
        raise RootFindingError(f"root residuals exceed tolerance for degree {deg} input")
    out = np.concatenate([roots, np.zeros(n_origin, dtype=complex)])
    return np.array(sorted(out, key=_canon_key))


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

    @property
    def real_values(self) -> tuple[float, ...]:
        return tuple(z.real for z in self.points if z.imag == 0)


def canonicalize_conjugates(roots, tol: float = REALNESS_TOL) -> SpectrumConfiguration:
    """Snap near-real roots, pair the rest into exact conjugates.

    Roots within ORIGIN_RADIUS of the origin are dropped (their count is
    kept on the configuration); a non-real root with no partner raises
    ConjugationError since roots of a real polynomial cannot be lopsided.
    """
    pts = [complex(z) for z in roots]
    origin_drops = sum(1 for z in pts if abs(z) < ORIGIN_RADIUS)
    pts = [z for z in pts if abs(z) >= ORIGIN_RADIUS]
    reals: list[complex] = []
    uppers: list[complex] = []
    lowers: list[complex] = []
    for z in pts:
        if abs(z.imag) <= tol * max(1.0, abs(z)):
            reals.append(complex(z.real, 0.0))
        elif z.imag > 0:
            uppers.append(z)
        else:
            lowers.append(z)
    if len(uppers) != len(lowers):
        raise ConjugationError(
            f"{len(uppers)} upper vs {len(lowers)} lower half-plane roots"
        )
    paired: list[complex] = []
    remaining = list(lowers)
    for u in sorted(uppers, key=_canon_key):
        gaps = [abs(u.conjugate() - l) for l in remaining]
        i = int(np.argmin(gaps))
        if gaps[i] > 1e-6 * max(1.0, abs(u)):
            raise ConjugationError(f"no conjugate partner for root {u}")
        l = remaining.pop(i)
        mean = 0.5 * (u + l.conjugate())
        paired.extend([mean, mean.conjugate()])
    points = tuple(sorted(reals + paired, key=_canon_key))
    return SpectrumConfiguration(points, origin_drops=origin_drops)


def classify(config: SpectrumConfiguration) -> SpectrumConfiguration:
    """Label each point: outside the closed unit disk means eigenvalue."""
    labels = tuple(EIGENVALUE if abs(z) > 1 else RESONANCE for z in config.points)
    return dataclasses.replace(config, labels=labels)


def joukowsky(z: complex) -> complex:
    if z == 0:
        raise ValueError("the map z + 1/z is undefined at 0")
    return z + 1.0 / z


def inverse_joukowsky(e: complex, branch: str = "outside") -> complex:
    """Preimage of e under z + 1/z on the requested side of the unit circle."""
    if branch not in ("outside", "inside"):
        raise ValueError(f"branch must be outside or inside, got {branch!r}")
    e = complex(e)
    w = cmath.sqrt(e * e - 4.0)
    big = 0.5 * (e + w) if abs(e + w) >= abs(e - w) else 0.5 * (e - w)
    return big if branch == "outside" else 1.0 / big


@dataclass(frozen=True)
class SMembership:
    """Verdict of the admissibility test, with the first violated clause."""

    ok: bool
    clause: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _positive_side_violation(xs: list[float], reals: list[float], tol: float):
    """Parity clauses for outside points on the positive axis.

    xs: sorted outside points > 1; reals: all real points of the
    configuration (any sign), with multiplicity.  Between consecutive
    inverted positions 1/x the count must be odd, on (1/x_1, 1] even,
    and no point may sit exactly on an inverted position.
    """
    if not xs:
        return None
    inv = [1.0 / x for x in xs]
    for m, pos in enumerate(inv, start=1):
        hits = [r for r in reals if abs(r - pos) <= tol]
        if hits:
            return ("c", f"point {hits[0]:.6g} coincides with 1/x_{m} = {pos:.6g}")
    count = sum(1 for r in reals if inv[0] < r <= 1.0)
    if count % 2:
        return ("a", f"{count} points on (1/x_1, 1] = ({inv[0]:.6g}, 1], want even")
    for m in range(len(xs) - 1):
        count = sum(1 for r in reals if inv[m + 1] < r < inv[m])
        if count % 2 == 0:
            return (
                "b",
                f"{count} points on (1/x_{m + 2}, 1/x_{m + 1}) = "
                f"({inv[m + 1]:.6g}, {inv[m]:.6g}), want odd",
            )
    return None


def is_in_S(k: int, config: SpectrumConfiguration, tol: float = REALNESS_TOL) -> SMembership:
    """Admissibility of a k-point configuration as a rank-k zero set.

    Checks, in order: (i) conjugation closure, (ii) points outside the
    closed unit disk are real and simple, (iii) interval parity for the
    positive outside points, (iv) the mirrored conditions for negative
    outside points.  The first failed clause is named in the verdict.
    """
    if config.count != k:
        raise ValueError(f"configuration has {config.count} points, expected {k}")
    pts = list(config.points)
    conj = sorted((z.conjugate() for z in pts), key=_canon_key)
    gaps = [abs(x - y) for x, y in zip(conj, pts)]
    if any(g > tol * max(1.0, abs(x)) for g, x in zip(gaps, pts)):
        return SMembership(False, "i", "multiset is not closed under conjugation")

    outside = [z for z in pts if abs(z) > 1.0]
    for z in outside:
        if abs(z.imag) > tol * max(1.0, abs(z)):
            return SMembership(False, "ii", f"outside point {z:.6g} is not real")
    outside_reals = sorted(z.real for z in outside)
    for x, y in zip(outside_reals, outside_reals[1:]):
        if abs(x - y) <= MULTIPLICITY_RADIUS:
            return SMembership(False, "ii", f"outside point {x:.6g} is multiple")

    reals = [z.real for z in pts if abs(z.imag) <= tol * max(1.0, abs(z))]
    xs_pos = sorted(x for x in outside_reals if x > 0)
    xs_neg = sorted(-x for x in outside_reals if x < 0)
    hit = _positive_side_violation(xs_pos, reals, tol)
    if hit is not None:
        return SMembership(False, "iii." + hit[0], hit[1])
    hit = _positive_side_violation(xs_neg, [-r for r in reals], tol)
    if hit is not None:
        return SMembership(False, "iv." + hit[0], hit[1])
    return SMembership(True, None, "all clauses satisfied")


def resolve(roots, k: int) -> tuple[SpectrumConfiguration, SMembership]:
    """Labelled configuration of a root multiset and its admissibility verdict.

    k is the expected number of points after origin zeros are dropped: the
    perturbation order of the coefficients (jacobi.perturbation_order),
    2n generically and 2n - 1 when kappa = 1.  A different count is
    reported as clause "count" instead of raised.
    """
    config = classify(canonicalize_conjugates(roots))
    if config.count != k:
        return config, SMembership(False, "count", f"{config.count} points, expected {k}")
    return config, is_in_S(k, config)
