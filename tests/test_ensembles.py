import math

import numpy as np
import pytest

from openrmt import (
    DensityParams,
    EnsembleParams,
    KappaDistribution,
    RandomStream,
    TridiagonalSample,
    UnsupportedVariantError,
    chi_sample,
    householder_tridiagonalize,
    normal_sample,
    sample_de_tridiagonal,
    sample_dense_gaussian,
    sample_kappa,
)
from openrmt.ensembles import _seed_words, sample_coupled_trials

SEED = 20240517


def test_stream_is_reproducible():
    a = RandomStream(SEED).generator.normal(size=8)
    b = RandomStream(SEED).generator.normal(size=8)
    assert np.array_equal(a, b)


def test_stream_ids_give_distinct_draws():
    a = RandomStream(SEED, 0).generator.normal(size=8)
    b = RandomStream(SEED, 1).generator.normal(size=8)
    assert not np.array_equal(a, b)


def test_substream_depends_only_on_index():
    parent = RandomStream(SEED)
    a = parent.substream(3).generator.normal(size=4)
    b = RandomStream(SEED).substream(3).generator.normal(size=4)
    assert np.array_equal(a, b)


def test_substreams_do_not_collide():
    parent = RandomStream(SEED)
    ids = {parent.substream(i).stream_id for i in range(1000)}
    assert len(ids) == 1000


def test_stream_rejects_bad_seed():
    with pytest.raises(ValueError):
        RandomStream(-1)
    with pytest.raises(ValueError):
        RandomStream(SEED).substream(-2)


def test_kappa_spec_roundtrip():
    for text in ("point:1.0", "uniform:0.5:5.0", "chi:3.0:0.5"):
        dist = KappaDistribution.from_spec(text)
        assert KappaDistribution.from_spec(dist.spec()) == dist


def test_kappa_spec_rejects_garbage():
    for bad in ("gauss:1:2", "uniform:5:0.5", "chi:-3:1", "point:0", "chi:a:b"):
        with pytest.raises(ValueError):
            KappaDistribution.from_spec(bad)


def test_point_kappa_has_no_density():
    dist = KappaDistribution("point", (1.0,))
    assert not dist.has_density
    with pytest.raises(UnsupportedVariantError):
        dist.log_pdf(1.0)


def test_kappa_densities_integrate_to_one():
    xs = np.linspace(1e-6, 30.0, 400001)
    for dist in (KappaDistribution("uniform", (0.5, 5.0)), KappaDistribution("chi", (3.0, 0.5))):
        vals = np.exp(dist.log_pdf(xs))
        total = np.trapezoid(vals, xs)
        assert abs(total - 1.0) < 1e-6


def test_chi_sample_second_moment():
    # E[chi_k^2] = k, scaled by scale^2
    stream = RandomStream(SEED, 4)
    draws = chi_sample(stream, 3.0, 0.5, 40000)
    assert abs(np.mean(draws**2) - 3.0 * 0.25) < 0.02


def test_normal_sample_moments():
    stream = RandomStream(SEED, 5)
    draws = normal_sample(stream, 1.0, 4.0, 40000)
    assert abs(np.mean(draws) - 1.0) < 0.05
    assert abs(np.var(draws) - 4.0) < 0.15
    with pytest.raises(ValueError):
        normal_sample(stream, 0.0, -1.0)


def test_sample_kappa_point_is_exact():
    assert sample_kappa(KappaDistribution("point", (1.3,)), RandomStream(SEED)) == 1.3


def test_tridiagonal_shapes_and_scaling():
    params = EnsembleParams(2.0, 6)
    sample = sample_de_tridiagonal(params, RandomStream(SEED, 7))
    assert len(sample.s) == 6
    assert len(sample.t) == 5
    assert all(t >= 0 for t in sample.t)

    # diagonal variance 2/(beta n); squared off-diagonal j has mean (n-j)/n
    draws = [sample_de_tridiagonal(params, RandomStream(SEED, 7).substream(i)) for i in range(4000)]
    s_all = np.array([d.s for d in draws])
    t_all = np.array([d.t for d in draws])
    assert abs(np.var(s_all) - 2.0 / 12.0) < 0.01
    expected_tsq = (6.0 - np.arange(1, 6)) / 6.0
    assert np.max(np.abs(np.mean(t_all**2, axis=0) - expected_tsq)) < 0.05


def test_tridiagonal_sample_validation():
    with pytest.raises(ValueError):
        TridiagonalSample((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        TridiagonalSample((0.0, 0.0), (-0.5,))


def test_dense_gaussian_is_hermitian():
    m1 = sample_dense_gaussian(1, 5, RandomStream(SEED, 9))
    assert np.allclose(m1, m1.T)
    assert not np.iscomplexobj(m1)
    m2 = sample_dense_gaussian(2, 5, RandomStream(SEED, 9))
    assert np.allclose(m2, m2.conj().T)
    assert np.iscomplexobj(m2)


def test_dense_gaussian_rejects_other_beta():
    with pytest.raises(UnsupportedVariantError):
        sample_dense_gaussian(4, 5, RandomStream(SEED))


def test_householder_preserves_spectrum():
    for beta in (1, 2):
        mat = sample_dense_gaussian(beta, 8, RandomStream(SEED, 11 + beta))
        tri = householder_tridiagonalize(mat)
        dense_ev = np.linalg.eigvalsh(mat)
        tri_mat = np.diag(tri.s) + np.diag(tri.t, 1) + np.diag(tri.t, -1)
        tri_ev = np.linalg.eigvalsh(tri_mat)
        assert np.max(np.abs(dense_ev - tri_ev)) < 1e-10


def test_householder_keeps_first_row_coupling():
    # the reduction fixes the first basis vector, so the (0, 0) entry and
    # the magnitude of the first off-diagonal column block are preserved
    mat = sample_dense_gaussian(1, 6, RandomStream(SEED, 17))
    tri = householder_tridiagonalize(mat)
    assert abs(tri.s[0] - mat[0, 0]) < 1e-12
    assert abs(tri.t[0] - np.linalg.norm(mat[1:, 0])) < 1e-12


def test_householder_two_by_two_uses_absolute_value():
    mat = np.array([[1.0, -0.7], [-0.7, 2.0]])
    tri = householder_tridiagonalize(mat)
    assert tri.s == (1.0, 2.0)
    assert tri.t == (0.7,)


def test_householder_rejects_bad_input():
    with pytest.raises(ValueError):
        householder_tridiagonalize(np.ones((2, 3)))
    with pytest.raises(ValueError):
        householder_tridiagonalize(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_ensemble_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(0.0, 3)
    with pytest.raises(ValueError):
        EnsembleParams(2.0, 0)
    with pytest.raises(ValueError):
        EnsembleParams(2.0, 3, 0.0)


@pytest.mark.parametrize("spec", ["point:nan", "chi:nan:1", "chi:3:nan", "point:inf", "uniform:0.5:inf"])
def test_kappa_spec_rejects_non_finite_parameters(spec):
    with pytest.raises(ValueError, match="must be finite"):
        KappaDistribution.from_spec(spec)


@pytest.mark.parametrize("beta, gamma", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, -math.inf)])
def test_model_parameters_must_be_finite(beta, gamma):
    with pytest.raises(ValueError, match="finite"):
        EnsembleParams(beta, 3, gamma)
    with pytest.raises(ValueError, match="finite"):
        DensityParams(beta, 3, gamma)


def test_kappa_log_pdf_is_minus_inf_off_the_support():
    xs = np.array([-1.0, 0.0, 0.4, 0.5, 2.0, 5.0, 5.5])
    uniform = KappaDistribution("uniform", (0.5, 5.0)).log_pdf(xs)
    assert np.array_equal(np.isfinite(uniform), [False, False, False, True, True, True, False])
    assert np.all(uniform[np.isfinite(uniform)] == -math.log(4.5))
    chi = KappaDistribution("chi", (3.0, 0.5)).log_pdf(xs)
    assert np.array_equal(np.isfinite(chi), [False, False, True, True, True, True, True])
    assert abs(chi[4] - (2.0 * math.log(4.0) - 8.0 - 0.5 * math.log(2.0) - math.lgamma(1.5) - math.log(0.5))) < 1e-13


def test_sample_kappa_arrays_are_the_generator_draws():
    for dist in (
        KappaDistribution("point", (1.3,)),
        KappaDistribution("uniform", (0.5, 2.0)),
        KappaDistribution("chi", (3.0, 0.5)),
    ):
        draws = sample_kappa(dist, RandomStream(SEED, 9), 64)
        gen = RandomStream(SEED, 9).generator
        if dist.kind == "point":
            expected = np.full(64, 1.3)
        elif dist.kind == "uniform":
            expected = gen.uniform(0.5, 2.0, 64)
        else:
            expected = 0.5 * np.sqrt(2.0 * gen.standard_gamma(1.5, 64))
        assert draws.shape == (64,)
        assert np.array_equal(draws, expected)


SEED_WORD_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, SEED]
EDGE_IDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("seed", SEED_WORD_SEEDS)
@pytest.mark.parametrize("parent_id", [0, 2**64 - 1])
def test_batched_seed_words_match_numpy_seed_sequence(seed, parent_id):
    parent = RandomStream(seed, parent_id)
    ids = EDGE_IDS + [parent.substream(i).stream_id for i in range(1000)]
    got = _seed_words(seed, np.array(ids, dtype=np.uint64))
    want = np.array([np.random.SeedSequence((seed, i)).generate_state(4, np.uint64) for i in ids])
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, SEED])
@pytest.mark.parametrize("parent_id", [0, 2**64 - 1])
def test_substreams_equal_one_substream_at_a_time(seed, parent_id):
    parent = RandomStream(seed, parent_id)
    batch = parent.substreams(5, 45)
    single = [parent.substream(i) for i in range(5, 45)]
    assert [s.stream_id for s in batch] == [s.stream_id for s in single]
    for got, want in zip(batch, single):
        assert got.generator.bit_generator.state == want.generator.bit_generator.state
        # one bounded draw leaves a buffered 32-bit half behind (has_uint32, uinteger)
        assert got.generator.integers(1, 9) == want.generator.integers(1, 9)
        assert got.generator.bit_generator.state == want.generator.bit_generator.state
    assert parent.substreams(7, 7) == []
    with pytest.raises(ValueError):
        parent.substreams(-1, 3)


def _reference_trial(params, stream):
    """One coupled trial drawn as the block sampler did with array-shape calls."""
    beta, n = params.beta, params.n
    s = normal_sample(stream, 0.0, 2.0 / (beta * n), n)
    if n > 1:
        g = stream.generator.standard_gamma(0.5 * (beta * (n - np.arange(1, n))))
        t = np.sqrt(2.0 * g) / math.sqrt(beta * n)
    else:
        t = np.empty(0)
    kind, p = params.kappa.kind, params.kappa.params
    if kind == "point":
        return s, t, p[0]
    if kind == "uniform":
        return s, t, stream.generator.uniform(*p)
    return s, t, float(chi_sample(stream, *p))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
def test_coupled_trials_are_bit_identical_to_per_trial_array_draws(n, beta):
    for spec in ("point:1.3", "uniform:0.5:2", "chi:3:0.5"):
        params = EnsembleParams(beta, n, 1.0, KappaDistribution.from_spec(spec))
        s, t, kappa = sample_coupled_trials(params, RandomStream(SEED).substreams(0, 24))
        for i in range(24):
            ref_s, ref_t, ref_kappa = _reference_trial(params, RandomStream(SEED).substream(i))
            assert s[i].tobytes() == ref_s.tobytes()
            assert t[i].tobytes() == ref_t.tobytes()
            assert kappa[i].tobytes() == np.float64(ref_kappa).tobytes()
        block = sample_de_tridiagonal(params, RandomStream(SEED).substream(3))
        assert block.s == tuple(s[3].tolist()) and block.t == tuple(t[3].tolist())
