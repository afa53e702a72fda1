import math

import numpy as np
import pytest
from scipy import stats as spstats

from openrmt import (
    EnsembleParams,
    KappaDistribution,
    LogDensityValue,
    SingularConfigurationError,
    SpectrumConfiguration,
    canonicalize_conjugates,
    classify,
    RandomStream,
    log_density,
    log_density_batch,
    normalization_constants,
)
from openrmt.experiments import _trial_batch

CHI = KappaDistribution("chi", (3.0, 0.5))
UNIFORM = KappaDistribution("uniform", (0.5, 5.0))
SEED = 161803


def _config(*points):
    return classify(canonicalize_conjugates(np.array(points, dtype=complex)))


def test_normalization_constant_small_cases():
    # d(1, beta=2, gamma=1) = sqrt(pi) * 2^(3/2) * e, frozen from quadrature
    d = normalization_constants(EnsembleParams(2.0, 1)).d_even
    assert abs(d - math.sqrt(math.pi) * 2.0**1.5 * math.e) < 1e-12
    assert abs(d - 13.627444) < 1e-5

    # c(1, beta=2, gamma=1) = sqrt(2 pi), and so is d_odd, the (2n - 1)-point constant
    consts = normalization_constants(EnsembleParams(2.0, 1))
    assert abs(consts.c - math.sqrt(2.0 * math.pi)) < 1e-12
    assert abs(consts.d_odd - math.sqrt(2.0 * math.pi)) < 1e-12


def test_normalization_constant_ratio():
    """d_odd/d_even = exp(-beta n / (2 gamma^2)) / 2 for every parameter set."""
    for beta in (1.0, 2.0, 4.0):
        for n in (1, 2, 5):
            for gamma in (0.7, 1.0, 2.0):
                consts = normalization_constants(EnsembleParams(beta, n, gamma))
                ratio = math.exp(consts.log_d_odd - consts.log_d_even)
                expected = math.exp(-beta * n / (2.0 * gamma * gamma)) / 2.0
                assert abs(ratio - expected) < 1e-12 * expected


def test_density_worked_value_beta_two():
    """Straight-line recomputation at the zeros {4, -2} with kappa = 3.

    At beta = 2 the modulus factors drop out, leaving Vandermonde,
    Gaussian, and coupling terms only.
    """
    config = _config(4.0, -2.0)
    params = EnsembleParams(2.0, 1, 1.0, UNIFORM)
    value = log_density(config, params)
    assert value.in_support
    assert abs(value.kappa_implied - 3.0) < 1e-12

    log_d = normalization_constants(params).log_d_even
    by_hand = (
        math.log(6.0)               # |z1 - z2|
        - 2.0 * 20.0 / 4.0          # exp(-beta n (z1^2 + z2^2) / (4 gamma^2))
        + 2.0 * 9.0 / 2.0           # exp(beta n kappa^2 / (2 gamma^2))
        + math.log(1.0 / 4.5)       # uniform kappa density at 3
        - 1.0 * math.log(3.0)       # kappa^(beta n - 1)
        - log_d
    )
    assert abs(value.log_value - by_hand) < 1e-12


def test_density_worked_value_beta_one_pair():
    """Conjugate pair at beta = 1 exercises every modulus factor."""
    x, y = 0.3, 0.4
    config = _config(complex(x, y), complex(x, -y))
    params = EnsembleParams(1.0, 1, 1.0, CHI)
    value = log_density(config, params)
    assert value.in_support

    modsq = x * x + y * y
    ksq = 1.0 - modsq
    kappa = math.sqrt(ksq)
    one_minus_z2 = abs(1.0 - complex(x, y) ** 2)
    log_d = normalization_constants(params).log_d_even
    by_hand = (
        math.log(2.0 * y)                            # Vandermonde
        + (-0.5) * math.log(one_minus_z2)            # pair factor, exponent (beta-2)/2
        - 1.0 * (2.0 * (x * x - y * y)) / 4.0        # Gaussian, z^2 + conj(z)^2
        + 2.0 * (-0.25) * math.log(ksq / one_minus_z2)  # two per-point modulus factors
        + 1.0 * ksq / 2.0                            # coupling exponential
        + float(CHI.log_pdf(kappa))
        - 0.0 * math.log(kappa)                      # kappa^(beta n - 1), beta n = 1
        - log_d
    )
    assert abs(value.log_value - by_hand) < 1e-12


def test_density_input_order_does_not_matter():
    params = EnsembleParams(2.0, 1, 1.0, CHI)
    a = log_density(_config(4.0, -2.0), params)
    b = log_density(_config(-2.0, 4.0), params)
    assert a.log_value == b.log_value


def test_density_out_of_support_by_coupling():
    # product of zeros above 1 leaves no real kappa
    value = log_density(_config(0.5, 2.5), EnsembleParams(2.0, 1, 1.0, CHI))
    assert not value.in_support
    assert value.log_value == -math.inf


def test_density_out_of_support_by_membership():
    # kappa is fine but two points sit between the outside pair inverses
    config = _config(-0.5, 0.5, 2.0, 3.0)
    value = log_density(config, EnsembleParams(2.0, 2, 1.0, CHI))
    assert not value.in_support
    assert value.kappa_implied is not None
    assert abs(value.kappa_implied - math.sqrt(2.5)) < 1e-12


def test_density_out_of_support_by_kappa_law():
    # implied kappa 3 falls outside a narrow uniform law
    narrow = KappaDistribution("uniform", (0.5, 1.0))
    value = log_density(_config(4.0, -2.0), EnsembleParams(2.0, 1, 1.0, narrow))
    assert not value.in_support
    assert abs(value.kappa_implied - 3.0) < 1e-12


def test_density_rejects_point_kappa_and_bad_count():
    config = _config(4.0, -2.0)
    with pytest.raises(ValueError):
        log_density(config, EnsembleParams(2.0, 1, 1.0, KappaDistribution("point", (1.0,))))
    with pytest.raises(ValueError):
        log_density(config, EnsembleParams(2.0, 2, 1.0, CHI))


def test_density_singular_at_unit_real_point():
    with pytest.raises(SingularConfigurationError):
        log_density(_config(1.0, 0.5), EnsembleParams(2.0, 1, 1.0, CHI))


def test_fixed_coupling_density_odd_count():
    """kappa = 1 variant: odd point count, no coupling density factor."""
    config = _config(0.3, 0.6 + 0.8j, 0.6 - 0.8j)
    params = EnsembleParams(2.0, 2, 1.0)
    value = log_density(config, params)
    assert value.kappa_implied is None
    # |0.6 + 0.8i| = 1: the pair sits exactly on the circle
    assert value.boundary
    assert value.in_support
    assert math.isfinite(value.log_value)


def test_fixed_coupling_density_off_boundary():
    config = _config(0.3, 0.5 + 0.5j, 0.5 - 0.5j)
    params = EnsembleParams(1.0, 2, 1.0)
    value = log_density(config, params)
    assert value.in_support
    assert not value.boundary
    assert math.isfinite(value.log_value)


def test_kappa_law_does_not_enter_the_odd_count_density():
    config = _config(0.3, 0.5 + 0.5j, 0.5 - 0.5j)
    for beta in (1.0, 2.0, 4.0):
        plain = log_density(config, EnsembleParams(beta, 2, 0.7))
        assert log_density(config, EnsembleParams(beta, 2, 0.7, CHI)) == plain
        assert plain.in_support and math.isfinite(plain.log_value)


def test_even_count_with_point_kappa_raises_in_both_calls():
    params = EnsembleParams(2.0, 1)
    with pytest.raises(ValueError, match="kappa distribution with a density"):
        log_density(_config(4.0, -2.0), params)
    with pytest.raises(ValueError, match="kappa distribution with a density"):
        log_density_batch(np.array([[-2.0, 4.0]]), np.empty((1, 0), dtype=complex), params)


def test_log_density_value_invariant():
    with pytest.raises(ValueError):
        LogDensityValue(log_value=0.5, kappa_implied=None, in_support=False)


# ---------------------------------------------------------------------------
# log_density_batch against an independent all-pairs oracle on sampled rows

ORACLE_RTOL = 1e-12
STRATUM_GAP = 1e-3


def _oracle_log_density(z: np.ndarray, params: EnsembleParams) -> float:
    """The paper's formula over all points at once, with every pair j < k as a complex product.

    The kappa law enters through scipy's chi log-pdf, not KappaDistribution.
    """
    beta, n, g2 = params.beta, params.n, params.gamma**2
    iu = np.triu_indices(len(z), 1)
    log_sum = np.sum(np.log(np.abs(z[:, None] - z[None, :])[iu]))
    log_sum += 0.5 * (beta - 2.0) * np.sum(np.log(np.abs(1.0 - z[:, None] * np.conj(z[None, :]))[iu]))
    log_sum -= 0.25 * beta * n * np.sum(z * z).real / g2
    log_sum += 0.25 * (beta - 2.0) * np.sum(np.log(np.abs(1.0 - np.abs(z) ** 2) / np.abs(1.0 - z * z)))
    consts = normalization_constants(params)
    if len(z) == 2 * n - 1:
        return float(log_sum - consts.log_d_odd)
    dof, scale = params.kappa.params
    kappa = math.sqrt(1.0 - np.prod(z).real)
    log_f = spstats.chi(dof, scale=scale).logpdf(kappa)
    return float(
        log_sum + 0.5 * beta * n * kappa**2 / g2 + log_f - (beta * n - 1.0) * math.log(kappa) - consts.log_d_even
    )


def _sampled_groups(beta: float, n: int, dist: KappaDistribution, trials: int = 120):
    """In-S rows of one sampled chunk, grouped by (L, M): {(L, M): (reals, pairs, configs)}."""
    batch = _trial_batch(
        EnsembleParams(beta, n, 1.0, dist), [RandomStream(SEED).substream(i).generator for i in range(trials)]
    )
    groups: dict = {}
    for i in range(trials):
        if i in batch.failures or batch.rows.clause[i] is not None:
            continue
        config = batch.rows.configuration(i)
        z = np.array(config.points)
        reals, pairs, configs = groups.setdefault((config.num_real, config.num_pairs), ([], [], []))
        reals.append(z[z.imag == 0].real)
        pairs.append(z[z.imag > 0])
        configs.append(config)
    return {
        key: (np.array(r).reshape(len(c), key[0]), np.array(p).reshape(len(c), key[1]), c)
        for key, (r, p, c) in groups.items()
    }


def _generic(z: np.ndarray) -> bool:
    return bool(np.min(np.abs(1.0 - z[:, None] * np.conj(z[None, :]))) > STRATUM_GAP)


@pytest.mark.parametrize("spec", ["chi:3:0.5", "point:1"])
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_batch_density_matches_all_pairs_oracle(beta, spec):
    dist = KappaDistribution.from_spec(spec)
    worst = 0.0
    for n in (1, 2, 3, 5, 8):
        params = EnsembleParams(beta, n, 1.0, dist)
        scored = 0
        for (l_real, m_pairs), (reals, pairs, configs) in _sampled_groups(beta, n, dist).items():
            assert l_real + 2 * m_pairs == (2 * n if dist.has_density else 2 * n - 1)
            values = log_density_batch(reals, pairs, params)
            for value, config in zip(values, configs):
                z = np.array(config.points)
                if not _generic(z):
                    continue
                ref = _oracle_log_density(z, params)
                worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
                scored += 1
        assert scored > 40
    print(f"beta = {beta}, {spec}: worst relative difference {worst:.2g}")
    assert worst < ORACLE_RTOL


@pytest.mark.parametrize("spec", ["chi:3:0.5", "point:1"])
def test_batch_rows_equal_one_row_calls(spec):
    """A row's value depends on that row only, not on the stack."""
    dist = KappaDistribution.from_spec(spec)
    params = EnsembleParams(1.0, 3, 1.0, dist)
    groups = _sampled_groups(1.0, 3, dist, trials=200)
    whole = {key: log_density_batch(reals, pairs, params) for key, (reals, pairs, _) in groups.items()}
    for key, (reals, pairs, configs) in groups.items():
        for i, config in enumerate(configs):
            one = log_density_batch(reals[i : i + 1], pairs[i : i + 1], params)
            assert one[0] == whole[key][i]
            assert log_density(config, params).log_value == whole[key][i]
    assert sum(len(r) for r, _, _ in groups.values()) > 150
    assert max(len(r) for r, _, _ in groups.values()) > 14
