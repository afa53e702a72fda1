import json
import math

import numpy as np
import pytest
from scipy import stats as spstats

from openrmt import (
    DensityParams,
    EnsembleParams,
    KappaDistribution,
    RandomStream,
    SpectrumConfiguration,
    dense_vs_tridiagonal_test,
    density_mc_compare_n1,
    density_normalization_n1,
    identity_suite,
    jacobian_suite,
    ks_test,
    log_density_random_kappa,
    membership_suite,
    normalization_constants,
    polynomial_roots,
    random_coefficients,
    roundtrip_suite,
    run_resonance_sampling,
    semicircle_moment_test,
    sum_zeros_test,
)
from openrmt.experiments import (
    _equal_mass_edges,
    _log_density_pair_vec,
    _log_density_real_vec,
    _mc_chunk_n1,
    _sample_kappa_array,
)
from openrmt.geronimo_case import RealPolynomial

SEED = 57721
CHI = KappaDistribution("chi", (3.0, 0.5))
PARAMS = EnsembleParams(2.0, 3, 1.0, CHI)


def test_random_coefficients_ranges():
    stream = RandomStream(SEED)
    for n in (1, 4, 8):
        coeffs = random_coefficients(stream, n)
        assert all(0.1 < a < 3.0 for a in coeffs.a)
        assert all(-3.0 < b < 3.0 for b in coeffs.b)
        assert abs(coeffs.a[-1] - 1.0) >= 1e-3


def test_sampling_records_have_the_full_trail():
    result = run_resonance_sampling(PARAMS, 10, SEED)
    assert result.trials == 10
    assert not result.failures
    for rec in result.records:
        assert len(rec["s"]) == 3
        assert len(rec["t"]) == 2
        assert len(rec["a"]) == 3
        assert len(rec["zeros"]) == 6
        assert rec["in_S"]
        assert rec["kappa_check_residual"] < 1e-9
        assert rec["a"][-1] == rec["kappa"]


def test_sampling_is_worker_invariant():
    one = run_resonance_sampling(PARAMS, 600, SEED, workers=1)
    two = run_resonance_sampling(PARAMS, 600, SEED, workers=3)
    assert one.records == two.records


def test_membership_suite_all_betas():
    report = membership_suite(90, SEED, betas=(1.0, 2.0, 4.0), max_n=4)
    assert report.passed
    assert report.statistics["in_S_count"] == 90
    assert report.statistics["max_kappa_residual"] < 1e-9


def test_roundtrip_suite_small():
    report = roundtrip_suite(30, SEED, max_n=8)
    assert report.passed
    assert report.statistics["max_rel_error"] < 1e-8


def test_identity_suite_small():
    report = identity_suite(15, SEED, max_n=5)
    assert report.passed
    assert report.statistics["identity_v_scored"] > 0


def test_jacobian_suite_small():
    report = jacobian_suite(8, SEED, max_n=4)
    assert report.passed


def test_ks_test_requires_samples_and_detects_shifts():
    with pytest.raises(ValueError):
        ks_test([0.1] * 10, spstats.norm().cdf)
    gen = np.random.default_rng(SEED)
    _, p_good = ks_test(gen.normal(size=2000), spstats.norm().cdf)
    assert p_good > 0.01
    _, p_bad = ks_test(gen.normal(size=2000) + 0.5, spstats.norm().cdf)
    assert p_bad < 1e-6


def test_sum_zeros_matches_normal_law():
    report = sum_zeros_test(PARAMS, 400, SEED)
    assert report.passed
    assert report.statistics["max_imag_part"] < 1e-9
    assert report.notes


def test_semicircle_moments():
    report = semicircle_moment_test(2.0, 100, 40, SEED)
    assert report.passed
    with pytest.raises(ValueError):
        semicircle_moment_test(2.0, 30, 40, SEED)


def test_dense_and_tridiagonal_routes_agree():
    report = dense_vs_tridiagonal_test(1.0, 3, 800, SEED)
    assert report.passed
    assert report.statistics["coordinates"] == 5


def test_dense_route_rejects_general_beta():
    from openrmt import UnsupportedVariantError

    with pytest.raises(UnsupportedVariantError):
        dense_vs_tridiagonal_test(4.0, 3, 100, SEED)


def test_density_normalization_integrates_to_one():
    report = density_normalization_n1(2.0, 1.0, CHI)
    assert report.passed
    assert abs(report.statistics["total"] - 1.0) < 0.01
    assert report.statistics["tail_estimate"] < 1e-4


def test_vectorized_density_matches_scalar_real_pairs():
    """The binned-comparison evaluator must agree with the general one."""
    gen = np.random.default_rng(SEED)
    for beta in (1.0, 2.0):
        params = DensityParams(beta, 1, 1.0, CHI)
        log_d = normalization_constants(params).log_d_even
        worst = 0.0
        checked = 0
        for _ in range(300):
            r1 = float(gen.uniform(-4.0, 1.0))
            r2 = float(gen.uniform(r1 + 0.05, 4.0))
            if min(abs(r1 - 1), abs(r1 + 1), abs(r2 - 1), abs(r2 + 1)) < 1e-3:
                continue
            vec = _log_density_real_vec(
                np.array([r1]), np.array([r2]), beta, 1.0, CHI, log_d
            )[0]
            config = SpectrumConfiguration((complex(r1), complex(r2)))
            ref = log_density_random_kappa(config, params)
            if ref.in_support:
                checked += 1
                worst = max(worst, abs(vec - ref.log_value))
        assert checked > 50
        assert worst < 1e-12


def test_vectorized_density_matches_scalar_pairs():
    gen = np.random.default_rng(SEED + 1)
    for beta in (1.0, 2.0):
        params = DensityParams(beta, 1, 1.0, CHI)
        log_d = normalization_constants(params).log_d_even
        worst = 0.0
        for _ in range(300):
            x = float(gen.uniform(-0.95, 0.95))
            y = float(gen.uniform(0.05, math.sqrt(1.0 - x * x) - 1e-9))
            vec = _log_density_pair_vec(np.array([x]), np.array([y]), beta, 1.0, CHI, log_d)[0]
            config = SpectrumConfiguration((complex(x, -y), complex(x, y)))
            ref = log_density_random_kappa(config, params)
            assert ref.in_support
            worst = max(worst, abs(vec - ref.log_value))
        assert worst < 1e-12


def test_vectorized_sampler_matches_polynomial_route():
    real_pairs, conj_pairs = _mc_chunk_n1((2.0, 1.0, CHI, SEED, 0, 128))
    gen = RandomStream(SEED).substream(0).generator
    s = gen.normal(0.0, 1.0, 128)
    kap = _sample_kappa_array(CHI, gen, 128)
    nreal = npair = 0
    worst = 0.0
    for i in range(128):
        b = s[i]
        disc = b * b - 4.0 * (1.0 - kap[i] * kap[i])
        roots = polynomial_roots(RealPolynomial((1.0 - kap[i] ** 2, -b, 1.0)))
        if disc >= 0:
            lo, hi = sorted(z.real for z in roots)
            got = real_pairs[nreal]
            nreal += 1
            worst = max(worst, abs(lo - got[0]), abs(hi - got[1]))
        else:
            up = max(roots, key=lambda z: z.imag)
            got = conj_pairs[npair]
            npair += 1
            worst = max(worst, abs(up.real - got[0]), abs(up.imag - got[1]))
    assert nreal + npair == 128
    assert worst < 1e-12


def test_equal_mass_edges_split_uniform_mass():
    cum = np.cumsum(np.ones(100))
    edges = _equal_mass_edges(cum, 4)
    assert edges.tolist() == [0, 24, 49, 74, 99]
    assert _equal_mass_edges(np.zeros(5), 3).tolist() == [0, 4]


def test_mc_compare_validates_inputs():
    with pytest.raises(ValueError):
        density_mc_compare_n1(2.0, 1.0, CHI, 1000, SEED)
    with pytest.raises(ValueError):
        density_mc_compare_n1(2.0, 1.0, KappaDistribution("point", (1.0,)), 200_000, SEED)


def test_mc_compare_small_run():
    report = density_mc_compare_n1(2.0, 1.0, CHI, 100_000, SEED)
    assert report.passed
    stats = report.statistics
    assert stats["split_deviation"] < stats["split_3sigma"] + 2e-4
    assert stats["max_rel_bin_deviation"] < 0.10
    assert stats["bins_scored"] > 0


def test_membership_at_unit_coupling_passes():
    report = membership_suite(60, SEED, kappa_dist=KappaDistribution("point", (1.0,)))
    assert report.passed
    assert report.statistics["max_kappa_residual"] <= 1e-9


def test_reports_are_json_serializable_and_deterministic():
    a = membership_suite(40, SEED, betas=(2.0,), max_n=3)
    b = membership_suite(40, SEED, betas=(2.0,), max_n=3)
    assert a.to_dict() == b.to_dict()
    text = json.dumps(a.to_dict(), sort_keys=True)
    assert json.loads(text)["passed"] is True
