"""Closed-form joint law of the zero configuration.

For a coupled operator with an n x n random block at inverse temperature
beta and coupling kappa drawn from a density F, the 2n zeros {z_j} of the
final ladder polynomial carry the density (with respect to the wedge
measure on admissible configurations)

    (1/d)  prod_{j<k} |z_j - z_k|  prod_{j<k} |1 - z_j conj(z_k)|^{(beta-2)/2}
         * prod_j e^{-beta n z_j^2 / (4 gamma^2)} |(1-|z_j|^2)/(1-z_j^2)|^{(beta-2)/4}
         * e^{beta n kappa^2/(2 gamma^2)} F(kappa) / kappa^{beta n - 1}

with kappa = sqrt(1 - prod_j z_j) pinned by the configuration.  When
kappa is deterministically 1 one zero sits at the origin; dropping it
leaves 2n-1 points with the same density shape, no kappa block, and its
own constant.

The formula is evaluated once, by :func:`log_density_batch`, on stacked
configurations in the coordinates of the wedge measure 1/(M! L!): L
real points and one member of each of M conjugate pairs per row.  The
point count L + 2M picks the law: 2n is the random-kappa density, 2n - 1
the kappa = 1 density.  :func:`log_density_random_kappa` and
:func:`log_density_kappa1` add the support, membership and singularity
checks around a one-row call, and the n = 1 quadrature and binning in
the experiments module evaluate it on whole grids.

Everything is computed in log space; the constants grow like
exp(beta n^2 / (2 gamma^2)) and would overflow double precision well
inside the interesting parameter range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import KappaDistribution, check_model_params
from .spectra import SpectrumConfiguration, _row_blocks, is_in_S

SINGULAR_TOL = 1e-14


class SingularConfigurationError(ValueError):
    """A point sits on the density's singular set (z_j^2 = 1)."""


@dataclass(frozen=True)
class DensityParams:
    """Model parameters for density evaluation.

    kappa_dist is required (and must have a density) on the random-kappa
    path; the kappa = 1 path ignores it.
    """

    beta: float
    n: int
    gamma: float = 1.0
    kappa_dist: KappaDistribution | None = None

    def __post_init__(self) -> None:
        check_model_params(self.beta, self.n, self.gamma)


@dataclass(frozen=True)
class LogDensityValue:
    """Log joint density at one configuration.

    boundary marks configurations with some |z_j| = 1, where the written
    formula gives 0 or infinity depending on beta; the value is reported
    as is rather than clipped.
    """

    log_value: float
    kappa_implied: float | None
    in_support: bool
    boundary: bool = False

    def __post_init__(self) -> None:
        if not self.in_support and self.log_value != -math.inf:
            raise ValueError("out-of-support values must carry log_value = -inf")


@dataclass(frozen=True)
class NormalizationConstants:
    """Log normalization constants for the three printed densities."""

    log_d_even: float
    log_d_odd: float
    log_c: float

    @property
    def d_even(self) -> float:
        return math.exp(self.log_d_even)

    @property
    def d_odd(self) -> float:
        return math.exp(self.log_d_odd)

    @property
    def c(self) -> float:
        return math.exp(self.log_c)


def normalization_constants(params: DensityParams) -> NormalizationConstants:
    """Constants for the 2n-point, (2n-1)-point, and coefficient densities.

    All three share the power of 2 gamma^2/(beta n) and the gamma-function
    product; they differ in powers of 2 and in the exponential prefactor.
    Their ratio d_odd/d_even = e^{-beta n/(2 gamma^2)}/2 is a useful
    cross-check.
    """
    beta, n, gamma = params.beta, params.n, params.gamma
    g2 = gamma * gamma
    power = 0.5 * n + 0.25 * beta * n * (n - 1)
    log_base = power * math.log(2.0 * g2 / (beta * n))
    log_gammas = sum(math.lgamma(0.5 * beta * j) for j in range(1, n))
    half_log_pi = 0.5 * n * math.log(math.pi)
    log_d_even = (
        half_log_pi
        + (0.5 * n + 1.0) * math.log(2.0)
        + 0.5 * beta * n * n / g2
        + log_base
        + log_gammas
    )
    log_d_odd = (
        half_log_pi
        + 0.5 * n * math.log(2.0)
        + 0.5 * beta * n * (n - 1) / g2
        + log_base
        + log_gammas
    )
    log_c = half_log_pi - (0.5 * n - 1.0) * math.log(2.0) + log_base + log_gammas
    return NormalizationConstants(log_d_even, log_d_odd, log_c)


def wedge_factor(m_pairs: int, l_real: int, count: int | None = None) -> float:
    """Ordering factor 1/(M! L!) of the wedge measure.

    In (x_j, y_j) coordinates for pairs and r_j for real points, the
    measure also carries a factor 2^M relative to plain Lebesgue dx dy
    per pair (from |dz wedge d conj(z)| = 2 dx dy); integration code
    must account for that separately, this function returns only the
    combinatorial part.
    """
    if m_pairs < 0 or l_real < 0:
        raise ValueError("pair and real counts must be nonnegative")
    if count is not None and l_real + 2 * m_pairs != count:
        raise ValueError(f"L + 2M = {l_real + 2 * m_pairs} does not match count {count}")
    return 1.0 / (math.factorial(m_pairs) * math.factorial(l_real))


def _log_abs2(z: np.ndarray) -> np.ndarray:
    """log |z|^2 of complex entries."""
    return np.log(z.real * z.real + z.imag * z.imag)


def log_density_batch(reals: np.ndarray, pairs: np.ndarray, params: DensityParams) -> np.ndarray:
    """Log density of stacked configurations: real points (T, L), pair members (T, M).

    Row i is the configuration of the real points reals[i] and the
    conjugate pairs pairs[i], conj(pairs[i]).  The count L + 2M picks the
    law: 2n points carry the kappa block, with kappa^2 = 1 - prod z_j and
    -inf where that square is nonpositive or F vanishes there; 2n - 1
    points are the kappa = 1 law.  Rows are evaluated column by column in
    the row blocks of the root solver, so each value depends on its own
    row only.  Membership, the singular set z^2 = 1 and the unit circle
    are left to the callers (see :func:`log_density_random_kappa`).
    """
    reals = np.asarray(reals, dtype=float)
    pairs = np.asarray(pairs, dtype=complex)
    count = reals.shape[1] + 2 * pairs.shape[1]
    consts = normalization_constants(params)
    if count == 2 * params.n:
        if params.kappa_dist is None:
            raise ValueError("random-kappa density needs a kappa distribution")
        log_d = consts.log_d_even
    elif count == 2 * params.n - 1:
        log_d = consts.log_d_odd
    else:
        raise ValueError(f"expected {2 * params.n} or {2 * params.n - 1} points, got {count}")
    out = np.empty(len(reals))
    for block in _row_blocks(len(reals), count):
        out[block] = _log_density_rows(reals[block], pairs[block], params, count % 2 == 0) - log_d
    return out


def _log_density_rows(r: np.ndarray, w: np.ndarray, params: DensityParams, random_kappa: bool):
    """Unnormalized log density of one row block, in real and pair-member columns.

    In these coordinates each conjugate pair's own Vandermonde factor is
    2 Im w, its own cross factor |1 - w^2|^{(beta-2)/2} and its two
    modulus factors combine to |1 - |w|^2|^{(beta-2)/2}, real points have
    modulus factor 1, and every factor between a pair and another point
    appears squared, once for each pair member.
    """
    beta, n, gamma = params.beta, params.n, params.gamma
    cross = 0.5 * (beta - 2.0)
    modsq = w.real * w.real + w.imag * w.imag
    log_sum = np.zeros(len(r))
    prod = np.ones(len(r))
    sum_sq = np.zeros(len(r))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(r.shape[1]):
            prod = prod * r[:, i]
            sum_sq = sum_sq + r[:, i] * r[:, i]
            for j in range(i + 1, r.shape[1]):
                log_sum += np.log(np.abs(r[:, i] - r[:, j]))
                if cross:
                    log_sum += cross * np.log(np.abs(1.0 - r[:, i] * r[:, j]))
            for m in range(w.shape[1]):
                log_sum += _log_abs2(r[:, i] - w[:, m])
                if cross:
                    log_sum += cross * _log_abs2(1.0 - r[:, i] * w[:, m])
        for m in range(w.shape[1]):
            x, y = w[:, m].real, w[:, m].imag
            prod = prod * modsq[:, m]
            sum_sq = sum_sq + 2.0 * (x * x - y * y)
            log_sum += np.log(2.0 * np.abs(y))
            if cross:
                log_sum += cross * np.log(np.abs(1.0 - modsq[:, m]))
            for k in range(m + 1, w.shape[1]):
                log_sum += _log_abs2(w[:, m] - w[:, k]) + _log_abs2(w[:, m] - w[:, k].conj())
                if cross:
                    log_sum += cross * (
                        _log_abs2(1.0 - w[:, m] * w[:, k]) + _log_abs2(1.0 - w[:, m] * w[:, k].conj())
                    )
        log_sum -= sum_sq * (0.25 * beta * n / (gamma * gamma))
        if not random_kappa:
            return log_sum
        ksq = 1.0 - prod
        kappa = np.sqrt(ksq)
        log_sum += ksq * (0.5 * beta * n / (gamma * gamma)) + params.kappa_dist.log_pdf(kappa)
        if beta * n != 1.0:
            log_sum -= (beta * n - 1.0) * np.log(kappa)
    return np.where(ksq > 0, log_sum, -np.inf)


def _real_products(points: np.ndarray) -> np.ndarray:
    """prod_j z_j of each stacked configuration (T, K), NaN slots skipped.

    Each conjugate pair contributes |z|^2 and each real point its value,
    multiplied in point order, so every product is exactly real.
    """
    factors = np.where(
        points.imag > 0,
        points.real * points.real + points.imag * points.imag,
        np.where(points.imag == 0, points.real, 1.0),
    )
    out = np.ones(len(points))
    for column in factors.T:
        out = out * column
    return out


def _real_product(config: SpectrumConfiguration) -> float:
    """prod_j z_j computed pairwise so the result is exactly real."""
    return float(_real_products(np.array(config.points, dtype=complex).reshape(1, -1))[0])


def _one_row(config: SpectrumConfiguration, params: DensityParams) -> tuple[float, bool]:
    """(log density, boundary) of one configuration by :func:`log_density_batch`.

    Raises on the singular set z^2 = 1; boundary marks a pair on the unit
    circle.
    """
    z = np.array(config.points, dtype=complex)
    if np.any(np.abs(1.0 - z * z) < SINGULAR_TOL):
        raise SingularConfigurationError("some z_j^2 = 1 within tolerance")
    reals, pairs = z[z.imag == 0].real, z[z.imag > 0]
    value = log_density_batch(reals[None], pairs[None], params)[0]
    return float(value), bool(np.any(pairs.real * pairs.real + pairs.imag * pairs.imag == 1.0))


def log_density_random_kappa(
    config: SpectrumConfiguration, params: DensityParams
) -> LogDensityValue:
    """Log density of a 2n-point configuration with kappa drawn from F.

    kappa is pinned by the points through kappa^2 = 1 - prod z_j; the
    value is -inf (out of support) when that square is nonpositive, when
    F vanishes at the implied kappa, or when the configuration is not
    admissible.
    """
    n = params.n
    if config.count != 2 * n:
        raise ValueError(f"expected {2 * n} points, got {config.count}")
    if params.kappa_dist is None or not params.kappa_dist.has_density:
        raise ValueError("random-kappa density needs a kappa distribution with a density")

    prod_z = _real_product(config)
    if prod_z >= 1.0:
        return LogDensityValue(-math.inf, None, False)
    kappa = math.sqrt(1.0 - prod_z)
    if params.kappa_dist.log_pdf(kappa) == -math.inf or not is_in_S(2 * n, config):
        return LogDensityValue(-math.inf, kappa, False)
    value, boundary = _one_row(config, params)
    return LogDensityValue(value, kappa, True, boundary)


def log_density_kappa1(
    config: SpectrumConfiguration, params: DensityParams
) -> LogDensityValue:
    """Log density of the 2n-1 nonzero points when kappa = 1.

    The origin zero forced by kappa = 1 is assumed dropped already (the
    canonicalizer does this); the remaining points carry the same factors
    without any kappa block.
    """
    n = params.n
    if config.count != 2 * n - 1:
        raise ValueError(f"expected {2 * n - 1} points, got {config.count}")
    if not is_in_S(2 * n - 1, config):
        return LogDensityValue(-math.inf, None, False)
    value, boundary = _one_row(config, params)
    return LogDensityValue(value, None, True, boundary)
