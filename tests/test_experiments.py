import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats as spstats

from openrmt import (
    EnsembleParams,
    InversionError,
    KappaDistribution,
    RandomStream,
    SpectrumConfiguration,
    cli,
    dense_vs_tridiagonal_test,
    experiments,
    density_mc_compare_n1,
    density_normalization_n1,
    gc_forward,
    gc_inverse,
    identity_suite,
    jacobian_suite,
    ks_test,
    log_density,
    log_density_batch,
    membership_suite,
    polynomial_roots,
    random_coefficients,
    roundtrip_suite,
    sample_kappa,
    run_resonance_sampling,
    semicircle_moment_test,
    sum_zeros_test,
)
from openrmt.experiments import (
    BIN_TARGET_COUNT,
    DEFAULT_RADIUS,
    FINE_GRID,
    STRIP_ROWS,
    _bin_samples,
    _equal_mass_edges,
    _mc_chunk_n1,
    _rects,
    _region_forward,
    _region_inverse,
    _region_log_density,
    _region_table,
    _samples_to_region_uv,
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


def _roundtrip_reference(trials, seed, max_n):
    """The per-set loop the batched suite replaces: worst error, or the first exception."""
    worst = 0.0
    master = RandomStream(seed)
    for trial in range(trials):
        stream = master.substream(trial)
        n = int(stream.generator.integers(1, max_n + 1))
        coeffs = random_coefficients(stream, n)
        rec = gc_inverse(gc_forward(coeffs, precision=40).final, precision=40)
        for got, want in zip(rec.a + rec.b, coeffs.a + coeffs.b):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


@pytest.mark.parametrize("seed", [1, 2, 3, 931, SEED])
def test_roundtrip_suite_equals_the_per_set_loop(seed):
    report = roundtrip_suite(200, seed, max_n=8)
    assert report.statistics["max_rel_error"] == _roundtrip_reference(200, seed, 8)
    assert report.trials == 200 and report.params == {"max_n": 8, "precision": 40}


@pytest.mark.parametrize(
    "seed, message",
    [
        (1, "level 5: 1 - L*(0) = -1.391e+00 is not positive"),
        (4, "level 8: 1 - L*(0) = -7.450e-01 is not positive"),
        (5, "level 4: 1 - L*(0) = -4.775e+00 is not positive"),
    ],
)
def test_roundtrip_suite_raises_the_first_failing_trial(seed, message):
    with pytest.raises(InversionError) as batched:
        roundtrip_suite(200, seed, max_n=32)
    with pytest.raises(InversionError) as reference:
        _roundtrip_reference(200, seed, 32)
    assert str(batched.value) == str(reference.value) == message


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "cfa82edd1d3ad1dbdb0ce96036e19291cc96f28c2459c4dac97dbdebf5d87519"),
        (5, "3317ded8083e93675644c0545c2776ba20f0bcb740764898641fd583317dc265"),
        (7, "6cb8b714c46d977677797b92a6641884d1a5a7930e57f8d1378352910ca7b170"),
    ],
)
def test_verify_roundtrip_report_bytes_are_pinned(capsys, seed, digest):
    """sha256 of the sorted-key report without elapsed_seconds, as the per-n suite wrote it."""
    assert cli.main(["verify", "roundtrip", "--seed", str(seed)]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["statistics"]["elapsed_seconds"]
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def test_verify_roundtrip_error_line_is_pinned(capsys):
    assert cli.main(["verify", "roundtrip", "--max-n", "32", "--seed", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: level 5: 1 - L*(0) = -1.391e+00 is not positive\n"


def test_identity_suite_small():
    report = identity_suite(15, SEED, max_n=5)
    assert report.passed
    assert report.statistics["identity_v_scored"] > 0


def test_jacobian_suite_small():
    report = jacobian_suite(8, SEED, max_n=4)
    assert report.passed


# Statistics as the per-trial ladder with one-row companion roots and
# per-level identity checks computed them; the stacked suites keep them
# bit for bit.  point:1 puts an exact zero at the origin of every L*_{2n}.
SUM_ZEROS_PINS = {
    "chi:3:0.5": {
        "ks_stat": 0.028149383844010334,
        "p_value": 0.08245937046146468,
        "max_imag_part": 1.1102230246251565e-16,
    },
    "point:1": {
        "ks_stat": 0.02814938384401172,
        "p_value": 0.08245937046143892,
        "max_imag_part": 1.1102230246251565e-16,
    },
}
IDENTITY_PINS = {
    1: {
        "max_identity_i": 1.1384909188371759e-14,
        "max_identity_ii": 2.8276042424482456e-14,
        "max_identity_iii": 1.1546319456101628e-13,
        "max_identity_iv": 7.518087019752695e-15,
        "max_identity_v": 1.8763657294760883e-11,
        "max_identity_v_imag": 1.4210854715202004e-14,
        "levels_checked": 1826,
        "identity_v_scored": 1457,
        "identity_v_rejected": 369,
    },
    7: {
        "max_identity_i": 1.625538959227133e-14,
        "max_identity_ii": 3.241851231905457e-14,
        "max_identity_iii": 5.5221953242998226e-14,
        "max_identity_iv": 1.865174681370263e-14,
        "max_identity_v": 2.6517454898215352e-11,
        "max_identity_v_imag": 1.4210854715202004e-14,
        "levels_checked": 1822,
        "identity_v_scored": 1439,
        "identity_v_rejected": 383,
    },
}


@pytest.mark.parametrize("kappa", sorted(SUM_ZEROS_PINS))
def test_sum_zeros_statistics_are_pinned(kappa):
    params = EnsembleParams(2.0, 3, 1.0, KappaDistribution.from_spec(kappa))
    report = sum_zeros_test(params, 2000, SEED)
    assert report.statistics == SUM_ZEROS_PINS[kappa]


@pytest.mark.parametrize("seed", sorted(IDENTITY_PINS))
def test_identity_suite_statistics_are_pinned(seed):
    assert identity_suite(200, seed).statistics == IDENTITY_PINS[seed]


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
        params = EnsembleParams(beta, 1, 1.0, CHI)
        worst = 0.0
        checked = 0
        for _ in range(300):
            r1 = float(gen.uniform(-4.0, 1.0))
            r2 = float(gen.uniform(r1 + 0.05, 4.0))
            if min(abs(r1 - 1), abs(r1 + 1), abs(r2 - 1), abs(r2 + 1)) < 1e-3:
                continue
            vec = log_density_batch(np.array([[r1, r2]]), np.empty((1, 0)), params)[0]
            config = SpectrumConfiguration((complex(r1), complex(r2)))
            ref = log_density(config, params)
            if ref.in_support:
                checked += 1
                worst = max(worst, abs(vec - ref.log_value))
        assert checked > 50
        assert worst < 1e-12


def test_vectorized_density_matches_scalar_pairs():
    gen = np.random.default_rng(SEED + 1)
    for beta in (1.0, 2.0):
        params = EnsembleParams(beta, 1, 1.0, CHI)
        worst = 0.0
        for _ in range(300):
            x = float(gen.uniform(-0.95, 0.95))
            y = float(gen.uniform(0.05, math.sqrt(1.0 - x * x) - 1e-9))
            vec = log_density_batch(np.empty((1, 0)), np.array([[complex(x, y)]]), params)[0]
            config = SpectrumConfiguration((complex(x, -y), complex(x, y)))
            ref = log_density(config, params)
            assert ref.in_support
            worst = max(worst, abs(vec - ref.log_value))
        assert worst < 1e-12


def test_vectorized_sampler_matches_polynomial_route():
    real_pairs, conj_pairs = _mc_chunk_n1((2.0, 1.0, CHI, SEED, 0, 128))
    stream = RandomStream(SEED).substream(0)
    s = stream.generator.normal(0.0, 1.0, 128)
    kap = sample_kappa(CHI, stream, 128)
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
    assert edges.tolist() == [0, 24, 49, 74, 100]
    assert _equal_mass_edges(np.zeros(5), 3).tolist() == [0, 5]


# The region maps written out one by one: (u, v) -> (first, second, Jacobian)
# and (first, second) -> (u, v), with first = r1 or x and second = r2 or y.
_ORACLE_FORWARD = {
    "real_both_inside": lambda u, v: (u, u + v * (1.0 - u), 1.0 - u),
    "real_pos_eigen": lambda u, v: (-1.0 + v * (1.0 / u + 1.0), u, 1.0 / u + 1.0),
    "real_neg_eigen": lambda u, v: (u, 1.0 / u + v * (1.0 - 1.0 / u), 1.0 - 1.0 / u),
    "real_two_eigen": lambda u, v: (u, v, np.ones_like(u)),
    "conj_pair": lambda u, v: (u, v * np.sqrt(1.0 - u * u), np.sqrt(1.0 - u * u)),
}
_ORACLE_INVERSE = {
    "real_both_inside": lambda a, b: (a, (b - a) / (1.0 - a)),
    "real_pos_eigen": lambda a, b: (b, (a + 1.0) / (1.0 / b + 1.0)),
    "real_neg_eigen": lambda a, b: (a, (b - 1.0 / a) / (1.0 - 1.0 / a)),
    "real_two_eigen": lambda a, b: (a, b),
    "conj_pair": lambda a, b: (a, b / np.sqrt(1.0 - a * a)),
}


def _rect_points(rect, size=2000):
    u0, u1, v0, v1 = rect
    gen = np.random.default_rng(SEED)
    return gen.uniform(u0, u1, size), gen.uniform(v0, v1, size)


@pytest.mark.parametrize("name, rect", _rects(DEFAULT_RADIUS))
def test_region_table_maps_match_the_closed_forms(name, rect):
    u, v = _rect_points(rect)
    first, second, jac = _region_forward(name, u, v)
    want_first, want_second, want_jac = _ORACLE_FORWARD[name](u, v)
    assert np.array_equal(first, want_first)
    assert np.array_equal(second, want_second)
    assert np.array_equal(np.broadcast_to(jac, u.shape), want_jac)
    uv = _region_inverse(name, first, second)
    assert np.array_equal(uv, np.column_stack(_ORACLE_INVERSE[name](first, second)))
    assert np.allclose(uv, np.column_stack([u, v]), rtol=0.0, atol=1e-12)


def test_every_sample_is_binned_or_unbinned():
    real_pairs, conj_pairs = _mc_chunk_n1((2.0, 1.0, CHI, SEED, 0, 1 << 15))
    region_uv = _samples_to_region_uv(real_pairs, conj_pairs)
    assert sum(len(uv) for uv in region_uv.values()) == 1 << 15
    params = EnsembleParams(2.0, 1, 1.0, CHI)
    covered = 0.0
    for name, rect in _rects(DEFAULT_RADIUS):
        table = _region_table(name, rect, params, 10**6, 15)
        expected, row_strip, strip_labels = table
        assert strip_labels[row_strip].max() == len(expected) - 1
        counts, unbinned = _bin_samples(rect, table, region_uv[name])
        assert len(counts) == len(expected)
        assert counts.sum() + unbinned == len(region_uv[name]), name
        covered += expected.sum()
    assert abs(covered - 1.0) < 5e-4


def _dense_label_table(name, rect, params, trials, max_pieces):
    """The fine cells and a label for every one of them, built grid-wide row by row."""
    u0, u1, v0, v1 = rect
    du, dv = (u1 - u0) / FINE_GRID, (v1 - v0) / FINE_GRID
    uc = u0 + (np.arange(FINE_GRID) + 0.5) * du
    vc = v0 + (np.arange(FINE_GRID) + 0.5) * dv
    cells = np.empty((FINE_GRID, FINE_GRID))
    for lo in range(0, FINE_GRID, STRIP_ROWS):
        uu, vv = np.meshgrid(uc[lo : lo + STRIP_ROWS], vc, indexing="ij")
        cells[lo : lo + STRIP_ROWS] = _region_log_density(name, uu, vv, params) * (du * dv)
    pieces = int(math.sqrt(max(float(cells.sum()) * trials / BIN_TARGET_COUNT, 1.0)))
    pieces = max(1, min(pieces, max_pieces))
    label = np.empty(cells.shape, dtype=np.int32)
    bins = 0
    u_edges = _equal_mass_edges(np.cumsum(cells.sum(axis=1)), pieces)
    for lo, hi in zip(u_edges[:-1], u_edges[1:]):
        v_edges = _equal_mass_edges(np.cumsum(cells[lo:hi].sum(axis=0)), pieces)
        label[lo:hi] = bins + np.searchsorted(v_edges, np.arange(FINE_GRID), "right") - 1
        bins += len(v_edges) - 1
    return cells, label, bins


@pytest.mark.parametrize(
    "beta, kappa, trials, max_pieces",
    [
        (1.0, CHI, 10**6, 15),
        (4.0, KappaDistribution("uniform", (0.2, 1.5)), 300_000, 12),
        (2.0, CHI, 10**5, 1),
    ],
)
def test_strip_labels_rebuild_the_dense_label_grid(beta, kappa, trials, max_pieces):
    """Per-strip labels give every fine cell its bin; strip sums equal one grid-wide bincount."""
    params = EnsembleParams(beta, 1, 1.0, kappa)
    for name, rect in _rects(DEFAULT_RADIUS):
        expected, row_strip, strip_labels = _region_table(name, rect, params, trials, max_pieces)
        cells, label, bins = _dense_label_table(name, rect, params, trials, max_pieces)
        assert np.array_equal(strip_labels[row_strip], label), name
        assert expected.tobytes() == np.bincount(label.ravel(), cells.ravel(), bins).tobytes(), name


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


def test_mc_compare_statistics_are_pinned():
    """The chunk-by-chunk binning gives exactly the statistics of binning all samples at once."""
    report = density_mc_compare_n1(1.0, 1.0, CHI, 100_000, SEED)
    assert report.statistics == {
        "max_rel_bin_deviation": 0.05831359348151996,
        "bins_scored": 39,
        "bins_total": 39,
        "real_fraction_empirical": 0.51409,
        "real_fraction_quadrature": 0.5116524652473853,
        "split_deviation": 0.0024375347526147673,
        "split_3sigma": 0.00474212819363092,
        "unbinned_samples": 4,
        "expected_mass_covered": 1.0000023537203249,
    }


@pytest.mark.parametrize(
    "args, kwargs, statistics",
    [
        (
            (4.0, 1.3, KappaDistribution("uniform", (0.2, 1.5)), 300_000, 3),
            {"bins": 12, "radius": 4.0},
            {
                "max_rel_bin_deviation": 0.04905693987781323,
                "bins_scored": 122,
                "bins_total": 122,
                "real_fraction_empirical": 0.48148,
                "real_fraction_quadrature": 0.4797712744393657,
                "split_deviation": 0.0017087255606343388,
                "split_3sigma": 0.002736370581603628,
                "unbinned_samples": 2,
                "expected_mass_covered": 0.9995693502562468,
            },
        ),
        (
            (2.0, 1.0, CHI, 100_000, SEED),
            {"bins": 1},
            {
                "max_rel_bin_deviation": 0.015972120752060268,
                "bins_scored": 5,
                "bins_total": 5,
                "real_fraction_empirical": 0.40726,
                "real_fraction_quadrature": 0.406005856321386,
                "split_deviation": 0.0012541436786139837,
                "split_3sigma": 0.004658847398860706,
                "unbinned_samples": 0,
                "expected_mass_covered": 1.0000201745596042,
            },
        ),
    ],
    ids=["uniform-bins12-radius4", "bins1"],
)
def test_mc_compare_statistics_are_pinned_across_geometries(args, kwargs, statistics):
    assert density_mc_compare_n1(*args, **kwargs).statistics == statistics


@pytest.mark.parametrize(
    "beta, masses, total, tail",
    [
        (
            1.0,
            (0.1137375571653486, 0.19261598940677183, 0.19261598940677185,
             0.01268292926849299, 0.48832709677760866),
            0.9999795620249939,
            2.052546651067705e-05,
        ),
        (
            2.0,
            (0.14267618485116904, 0.12337843155541925, 0.12337843155541925,
             0.016572808359378514, 0.5939942326294154),
            1.0000000889508014,
            2.0332132625925965e-09,
        ),
        (
            4.0,
            (0.16726272867290454, 0.07141032076738998, 0.07141032076739026,
             0.020886377069973552, 0.66903034955178),
            1.0000000968294382,
            1.1862805485463076e-16,
        ),
    ],
)
def test_density_normalization_statistics_are_pinned(beta, masses, total, tail):
    stats = {f"mass_{name}": m for name, m in zip(experiments.REGIONS, masses)}
    stats.update({"total": total, "tail_estimate": tail, "radius": DEFAULT_RADIUS, "nodes": 200})
    assert density_normalization_n1(beta).statistics == stats


def test_mc_compare_peak_memory_does_not_grow_with_trials():
    """Each chunk is binned as it is drawn, so four times the trials trace the same peak.

    One float grid of fine cells is alive at a time: no grid of labels,
    no second region's cells, no quadrature grid in one piece.
    """
    import tracemalloc

    peaks = []
    for trials in (100_000, 400_000):
        tracemalloc.start()
        try:
            density_mc_compare_n1(1.0, 1.0, CHI, trials, SEED)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1e6, peaks
    assert peaks[0] < 2.5 * FINE_GRID * FINE_GRID * 8, peaks


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_real_fraction_matches_the_one_dimensional_integral(beta):
    """The real-pair share behind the region-split verdict, from the sampler's law alone.

    At n = 1 both zeros are real when b^2 >= 4 (1 - kappa^2), with
    b ~ N(0, 2 gamma^2 / beta): a one-dimensional integral over the kappa
    law.  The split verdict compares with the quadrature of the four real
    regions out to the radius; the tail estimate adds the rest.
    """
    from scipy import integrate, special

    kappa_law = spstats.chi(3.0, scale=0.5)
    b_scale = math.sqrt(2.0 / beta)  # gamma = 1

    def both_real(kappa):
        half_width = 2.0 * math.sqrt(1.0 - kappa * kappa)
        return special.erfc(half_width / (b_scale * math.sqrt(2.0))) * kappa_law.pdf(kappa)

    exact = integrate.quad(both_real, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)[0] + kappa_law.sf(1.0)
    stats = density_normalization_n1(beta, 1.0, CHI).statistics
    quadrature = sum(stats[f"mass_{name}"] for name in experiments.REGIONS if name != "conj_pair")
    assert abs(exact - (quadrature + stats["tail_estimate"])) < 1e-6


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
