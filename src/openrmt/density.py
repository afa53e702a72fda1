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

Everything is computed in log space; the constants grow like
exp(beta n^2 / (2 gamma^2)) and would overflow double precision well
inside the interesting parameter range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import KappaDistribution
from .spectra import SpectrumConfiguration, is_in_S

SINGULAR_TOL = 1e-14
SUM_SQUARES_IMAG_TOL = 1e-9


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
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")


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


def _shared_log_factors(z: np.ndarray, beta: float, n: int, gamma: float):
    """Vandermonde, pair product, Gaussian, and per-point modulus factors.

    Returns (log_sum, boundary).  Raises on the singular set z^2 = 1.
    """
    one_minus_z2 = np.abs(1.0 - z * z)
    if np.any(one_minus_z2 < SINGULAR_TOL):
        raise SingularConfigurationError("some z_j^2 = 1 within tolerance")
    log_sum = 0.0
    if len(z) > 1:
        iu = np.triu_indices(len(z), 1)
        diff = np.abs(z[:, None] - z[None, :])[iu]
        with np.errstate(divide="ignore"):
            log_sum += float(np.sum(np.log(diff)))
            pair = np.abs(1.0 - z[:, None] * np.conj(z[None, :]))[iu]
            log_sum += 0.5 * (beta - 2.0) * float(np.sum(np.log(pair)))

    sum_z2 = complex(np.sum(z * z))
    if abs(sum_z2.imag) > SUM_SQUARES_IMAG_TOL * max(1.0, abs(sum_z2)):
        raise ValueError("sum of squared points is not real; configuration asymmetric")
    log_sum += -0.25 * beta * n * sum_z2.real / (gamma * gamma)

    boundary = False
    exponent = 0.25 * (beta - 2.0)
    ratio = np.abs(1.0 - np.abs(z) ** 2) / one_minus_z2
    if np.any(ratio == 0.0):
        boundary = True
        if exponent > 0:
            log_sum = -math.inf
        elif exponent < 0:
            log_sum = math.inf
    elif exponent != 0.0:
        log_sum += exponent * float(np.sum(np.log(ratio)))
    return log_sum, boundary


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


def log_density_random_kappa(
    config: SpectrumConfiguration, params: DensityParams
) -> LogDensityValue:
    """Log density of a 2n-point configuration with kappa drawn from F.

    kappa is pinned by the points through kappa^2 = 1 - prod z_j; the
    value is -inf (out of support) when that square is nonpositive, when
    F vanishes at the implied kappa, or when the configuration is not
    admissible.
    """
    beta, n, gamma = params.beta, params.n, params.gamma
    if config.count != 2 * n:
        raise ValueError(f"expected {2 * n} points, got {config.count}")
    if params.kappa_dist is None or not params.kappa_dist.has_density:
        raise ValueError("random-kappa density needs a kappa distribution with a density")

    prod_z = _real_product(config)
    if prod_z >= 1.0:
        return LogDensityValue(-math.inf, None, False)
    kappa = math.sqrt(1.0 - prod_z)
    f_kappa = params.kappa_dist.density_at(kappa)
    if f_kappa <= 0.0:
        return LogDensityValue(-math.inf, kappa, False)
    if not is_in_S(2 * n, config):
        return LogDensityValue(-math.inf, kappa, False)

    z = np.array(config.points, dtype=complex)
    log_sum, boundary = _shared_log_factors(z, beta, n, gamma)
    log_sum += 0.5 * beta * n * kappa * kappa / (gamma * gamma)
    log_sum += math.log(f_kappa)
    log_sum -= (beta * n - 1.0) * math.log(kappa)
    log_sum -= normalization_constants(params).log_d_even
    return LogDensityValue(log_sum, kappa, True, boundary)


def log_density_kappa1(
    config: SpectrumConfiguration, params: DensityParams
) -> LogDensityValue:
    """Log density of the 2n-1 nonzero points when kappa = 1.

    The origin zero forced by kappa = 1 is assumed dropped already (the
    canonicalizer does this); the remaining points carry the same factors
    without any kappa block.
    """
    beta, n, gamma = params.beta, params.n, params.gamma
    if config.count != 2 * n - 1:
        raise ValueError(f"expected {2 * n - 1} points, got {config.count}")
    if not is_in_S(2 * n - 1, config):
        return LogDensityValue(-math.inf, None, False)
    z = np.array(config.points, dtype=complex)
    log_sum, boundary = _shared_log_factors(z, beta, n, gamma)
    log_sum -= normalization_constants(params).log_d_odd
    return LogDensityValue(log_sum, None, True, boundary)
