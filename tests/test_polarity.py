import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri

from polarity_sampling import (
    ConfigError, CpaNetwork, InputError, LatentDomain, Layer, PolaritySampler,
    SamplePool, build_pool, draw_latents, forward, polarity_weights, identity_net,
    region_codes, region_log_volumes, sample_batch,
)
from polarity_sampling import _cephes, cpa, polarity, zoo
from polarity_sampling.errors import ValidationError


def pool_from_log_volumes(lvs):
    n = len(lvs)
    return SamplePool(
        z=np.arange(n, dtype=np.float64)[:, None], log_volumes=lvs, k=1,
        seed=0, regions=1, domain=LatentDomain("uniform_box", lo=[-1.0], hi=[1.0]),
        net_fingerprint="test",
    )


def test_linear_net_single_region_pool():
    rng = np.random.default_rng(1)
    net = CpaNetwork("lin", (Layer(rng.standard_normal((3, 2)), np.zeros(3)),))
    pool = build_pool(net, LatentDomain("uniform_box", lo=[-1, -1], hi=[1, 1]),
                      200, 1, seed=0)
    assert pool.regions == 1
    assert np.ptp(pool.log_volumes) < 1e-10


def test_two_piece_pool_log_volumes():
    pool = build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 1000, 1, seed=3)
    values = sorted(set(np.round(pool.log_volumes, 9)))
    assert len(values) == 2
    np.testing.assert_allclose(values, [-np.log(2), np.log(2)], atol=1e-9)


def test_pool_k_out_of_range():
    with pytest.raises(InputError):
        build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 10, 2, seed=0)


def test_pool_k_above_structural_rank():
    # widths 3/8/23/19 on an 8-D latent: every slope has rank <= 3
    net = zoo.random_net(3, input_dim=8)
    domain = LatentDomain("gaussian", mean=np.zeros(8), std=np.ones(8))
    with pytest.raises(InputError, match="width of layer 0"):
        build_pool(net, domain, 10, 4, seed=0)
    assert build_pool(net, domain, 10, 3, seed=0).n == 10


def _feature_net(slope):
    """|x| with slopes 1 and ``slope``: a feature net that reweights two_piece."""
    return CpaNetwork("feat", (
        Layer(np.array([[1.0], [-slope]]), np.zeros(2), "relu"),
        Layer(np.array([[1.0, 1.0]]), np.zeros(1)),
    ))


def test_feature_net_pool_scores_the_composed_net():
    net, feat = zoo.two_piece_net(), _feature_net(3.0)
    pool = build_pool(net, zoo.two_piece_domain(), 300, 1, seed=4, feature_net=feat)
    assert pool.net_fingerprint == cpa.fingerprint(net)
    lvs, codes = region_log_volumes(cpa.compose(net, feat), pool.z, 1)
    assert np.array_equal(pool.log_volumes, lvs)
    assert pool.regions == len(np.unique(codes, axis=0))
    output = build_pool(net, zoo.two_piece_domain(), 300, 1, seed=4)
    assert np.array_equal(output.z, pool.z)
    assert not np.array_equal(output.log_volumes, pool.log_volumes)


def test_weights_rho_zero_uniform():
    pool = pool_from_log_volumes([0.3, -2.0, 5.0, 1.1])
    np.testing.assert_allclose(polarity_weights(pool, 0.0), np.full(4, 0.25))


def test_weights_take_an_int_past_64_bits():
    # a config's rho_grid may hold any integer a float holds
    pool = pool_from_log_volumes([0.3, -2.0, 5.0, 1.1])
    assert np.array_equal(polarity_weights(pool, 2**70), polarity_weights(pool, 2.0**70))


@pytest.mark.parametrize("make", [polarity_weights, PolaritySampler])
@pytest.mark.parametrize("rho", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_weights_refuse_an_int_rho_past_the_float_range(make, rho):
    with pytest.raises(InputError, match="rho must be finite"):
        make(pool_from_log_volumes([0.3, -2.0]), rho)


def test_weights_hand_values():
    pool = pool_from_log_volumes([np.log(2), np.log(8)])
    np.testing.assert_allclose(polarity_weights(pool, 1.0), [0.2, 0.8], rtol=1e-12)
    np.testing.assert_allclose(polarity_weights(pool, -1.0), [0.8, 0.2], rtol=1e-12)


def test_weights_shift_invariance():
    lvs = [0.1, -3.0, 2.2, 0.0]
    w1 = polarity_weights(pool_from_log_volumes(lvs), 1.7)
    w2 = polarity_weights(pool_from_log_volumes([v + 123.4 for v in lvs]), 1.7)
    np.testing.assert_allclose(w1, w2, atol=1e-12)


def test_weights_argmax_law():
    lvs = [0.5, -1.0, 3.0, 2.0]
    for rho in (0.5, 3.0):
        w = polarity_weights(pool_from_log_volumes(lvs), rho)
        assert np.argmax(w) == np.argmax(lvs)
        assert np.array_equal(np.argsort(w), np.argsort(lvs))
    for rho in (-0.5, -3.0):
        w = polarity_weights(pool_from_log_volumes(lvs), rho)
        assert np.argmax(w) == np.argmin(lvs)


def test_weights_extreme_rho_stability():
    lvs = np.linspace(-50, 50, 101)
    for rho in (-200.0, 200.0):
        w = polarity_weights(pool_from_log_volumes(lvs), rho)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


def test_weights_overflow():
    # a log-weight that overflows to -inf gets weight 0; an overflowing
    # largest one has no finite softmax
    pool = pool_from_log_volumes([-2.0, 0.5])
    assert np.array_equal(polarity_weights(pool, 1e308), [0.0, 1.0])
    for lvs in ([2.0, 0.5], [-2.0, -3.0]):
        with pytest.raises(InputError, match="overflows"):
            polarity_weights(pool_from_log_volumes(lvs), 1e308)


def test_sample_batch_rho_zero_uniform_frequencies():
    pool = pool_from_log_volumes(np.linspace(-1, 1, 50))
    draws = sample_batch(PolaritySampler(pool, 0.0), 5000, seed=1)
    counts = np.array([np.sum(draws[:, 0] == i) for i in range(50)])
    assert stats.chisquare(counts).pvalue > 0.01


def test_sample_batch_mode_and_antimode_limits():
    pool = build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 2000, 1, seed=5)
    mode = sample_batch(PolaritySampler(pool, -20.0), 20000, seed=6)
    assert np.mean(mode[:, 0] >= 0) >= 0.999   # slope 1/2 region
    anti = sample_batch(PolaritySampler(pool, 20.0), 20000, seed=7)
    assert np.mean(anti[:, 0] < 0) >= 0.999    # slope 2 region


def test_determinism_bit_for_bit():
    net = zoo.two_piece_net()
    dom = zoo.two_piece_domain()
    p1 = build_pool(net, dom, 500, 1, seed=9)
    p2 = build_pool(net, dom, 500, 1, seed=9)
    assert np.array_equal(p1.latents, p2.latents)
    assert np.array_equal(p1.log_volumes, p2.log_volumes)
    s1 = sample_batch(PolaritySampler(p1, -1.5), 1000, seed=4)
    s2 = sample_batch(PolaritySampler(p2, -1.5), 1000, seed=4)
    assert np.array_equal(s1, s2)



def _workers(count):
    """Score blocks on ``count`` threads (helpers run only with a BLAS control)."""
    return mock.patch.object(cpa, "_workers", lambda: count)


# one more draw than fits in one block of the search: crosses a block boundary
_CROSSING_S = cpa.BLOCK_BYTES // polarity._SEARCH_ROW_BYTES + 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["single", "tied", "underflow", "spread"]),
       st.integers(1, 300) | st.just(_CROSSING_S), st.integers(0, 2**32 - 1), st.data())
def test_sample_batch_equals_generator_choice(family, s, seed, data):
    n = 1 if family == "single" else data.draw(st.integers(2, 60))
    rng = np.random.default_rng(seed)
    if family == "tied":
        lvs = rng.choice([-0.5, 1.25], size=n)
    else:
        lvs = rng.permutation(np.linspace(0.0, 10.0, n))
    rho = data.draw(st.sampled_from([-1e3, -200.0, 200.0, 1e3]) if family == "underflow"
                    else st.floats(-3.0, 3.0))
    sampler = PolaritySampler(pool_from_log_volumes(lvs), rho)
    if family == "underflow":
        assert np.any(sampler.weights == 0.0)
    # small budgets put block boundaries inside short draws
    budget = cpa.BLOCK_BYTES if s == _CROSSING_S else data.draw(
        st.sampled_from([cpa.BLOCK_BYTES, 1, 100]))
    idx = np.random.default_rng(seed).choice(n, size=s, p=sampler.weights)
    for workers in (1, 2):
        with mock.patch.object(cpa, "BLOCK_BYTES", budget), _workers(workers):
            got = sample_batch(sampler, s, seed)
        assert got.tobytes() == sampler.pool.z[idx].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([-200.0, -8.0, -2.0, -0.5, 0.5, 2.0, 8.0, 200.0]),
       st.sampled_from([cpa.BLOCK_BYTES, 1, 100]), st.sampled_from([1, 2]),
       st.integers(0, 2**32 - 1), st.data())
def test_guide_table_draws_equal_generator_choice(rho, budget, workers, seed, data):
    # one-row blocks cost a call each, so the small budgets take small pools
    n = data.draw(st.integers(1, 50_000 if budget == cpa.BLOCK_BYTES else 300))
    s = data.draw(st.sampled_from([1, 7, max(1, n // 3), 3 * n]))
    sampler = PolaritySampler(pool_from_log_volumes(
        np.random.default_rng(seed).normal(0.0, 3.0, n)), rho)
    idx = np.random.default_rng(seed).choice(n, size=s, p=sampler.weights)
    with mock.patch.object(cpa, "BLOCK_BYTES", budget), _workers(workers):
        got = sample_batch(sampler, s, seed)
    assert got.tobytes() == sampler.pool.z[idx].tobytes()


def test_guide_table_falls_back_to_the_binary_search():
    # 16 draws from 50k equal weights: 16 guide buckets of ~3k CDF entries,
    # so most draws lie more than the walked steps past their bucket's start
    n, s, seed = 50_000, 16, 3
    sampler = PolaritySampler(pool_from_log_volumes(np.zeros(n)), 0.0)
    idx = np.random.default_rng(seed).choice(n, size=s, p=sampler.weights)
    cdf = sampler.weights.cumsum()
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(s)
    start = cdf.searchsorted(np.floor(u * s) / s, side="right")
    assert np.sum(idx - start > polarity._GUIDE_STEPS) >= s // 2
    assert sample_batch(sampler, s, seed).tobytes() == sampler.pool.z[idx].tobytes()


def _domains(dim):
    return {
        "box": LatentDomain("uniform_box", lo=-np.ones(dim), hi=np.ones(dim)),
        "gaussian": LatentDomain("gaussian", mean=np.zeros(dim), std=np.ones(dim)),
        "psi": LatentDomain("gaussian", mean=np.zeros(dim), std=np.ones(dim), psi=0.6),
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300),
       st.sampled_from(["box", "gaussian", "psi"]), st.data())
def test_pool_columns_do_not_depend_on_block_budget(net_seed, n, kind, data):
    net = zoo.random_net(net_seed)
    domain = _domains(net.input_dim)[kind]
    widths = [net.input_dim] + [layer.out_dim for layer in net.layers]
    k = data.draw(st.integers(1, min(widths)))
    with _workers(1):
        expected = build_pool(net, domain, n, k, seed=7)
    # one row per block, then three, then the default; on one and two threads
    for budget in (1, 3 * 8 * net.input_dim * max(widths), cpa.BLOCK_BYTES):
        for workers in (1, 2):
            with mock.patch.object(cpa, "BLOCK_BYTES", budget), _workers(workers):
                got = build_pool(net, domain, n, k, seed=7)
            for column in ("z", "log_volumes"):
                assert getattr(got, column).tobytes() == getattr(expected, column).tobytes()
            assert got.regions == expected.regions


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_latent_in_the_last_block_raises_input_error(workers):
    net = zoo.random_net(13, input_dim=3)
    z = np.random.default_rng(0).standard_normal((50, 3))
    z[-1, 1] = np.nan
    with mock.patch.object(cpa, "BLOCK_BYTES", 1), _workers(workers):
        with pytest.raises(InputError, match="latent input contains non-finite entries"):
            region_log_volumes(net, z, 2)


# seeds 7, 43 and 46: every slope rank-deficient at 2,000 gaussian latents;
# seeds 22804 and 461085: a full-rank slope whose sigma_min lies far below its
# smallest |R_ii|, where the eps moves the QR form off the SVD form
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-3]))
@example(7, 1.0)
@example(43, 1.0)
@example(46, 1e-3)
@example(22804, 1.0)
@example(461085, 1e-3)
def test_log_volumes_match_the_singular_value_oracle(seed, scale):
    base = zoo.random_net(seed)
    net = CpaNetwork(base.name, tuple(
        Layer(layer.weight * scale, layer.bias * scale, layer.activation, alpha=layer.alpha)
        for layer in base.layers))
    K = net.input_dim
    z = np.random.default_rng(seed).standard_normal((400, K))
    A, _, _ = cpa.affine_maps(net, z)
    sigma = np.linalg.svd(A, compute_uv=False)
    d = np.abs(np.diagonal(np.linalg.qr(A, mode="raw")[0], axis1=1, axis2=2))
    flagged = d.min(axis=1) <= polarity._QR_FLAG * np.maximum(d.max(axis=1), 1.0)
    for k in {1, min([K] + [layer.out_dim for layer in net.layers])}:
        oracle = np.log(sigma[:, :k] + polarity.DEFAULT_EPS).sum(axis=1)
        lvs, _ = region_log_volumes(net, z, k)
        assert np.abs(lvs - oracle).max() <= 1e-7
        exact = flagged if k == K else np.ones(len(z), dtype=bool)
        assert lvs[exact].tobytes() == oracle[exact].tobytes()


def test_log_volumes_refuse_k_above_the_slope_rank():
    # k = K = 2, but the halfspace net's slopes are 1 x 2: rank 1 at most
    with pytest.raises(InputError):
        region_log_volumes(zoo.halfspace_net(), np.ones((5, 2)), 2)


def _per_row_log_volumes(net, z, k):
    """The oracle of region_log_volumes, one latent at a time: its own
    ``affine_maps`` slope, scored by its QR diagonal at k = K unless flagged,
    else by its SVD."""
    out = np.empty(len(z))
    for i, row in enumerate(z):
        A = cpa.affine_maps(net, row[None])[0]
        if k == net.input_dim:
            d = np.abs(np.diagonal(np.linalg.qr(A, mode="raw")[0], axis1=1, axis2=2))
            if d.min() > polarity._QR_FLAG * max(d.max(), 1.0):
                out[i] = np.log(d + polarity.DEFAULT_EPS).sum(axis=1)[0]
                continue
        sigma = np.linalg.svd(A, compute_uv=False)[:, :k]
        out[i] = np.log(sigma + polarity.DEFAULT_EPS).sum(axis=1)[0]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 32]), st.booleans(),
       st.sampled_from([1, 200, cpa.BLOCK_BYTES]), st.sampled_from([1, 2]))
def test_region_scores_equal_the_per_row_oracle_bit_for_bit(seed, max_width, linear,
                                                            budget, workers):
    # narrow nets repeat regions, and the latents repeat rows, so most blocks
    # score a region for several latents; a linear net has one region
    net = zoo.random_net(seed, max_width=max_width)
    if linear:
        net = CpaNetwork(net.name, tuple(Layer(l.weight, l.bias) for l in net.layers))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((40, net.input_dim))[rng.integers(0, 40, 120)]
    bits = region_codes(net, z)
    assert cpa.slopes(net, bits).tobytes() == cpa.affine_maps(net, z)[0].tobytes()
    # k = K takes the QR path where the output is at least as wide as the latent
    for k in sorted({1, min(net.input_dim, net.output_dim)}):
        with mock.patch.object(cpa, "BLOCK_BYTES", budget), _workers(workers):
            lvs, codes = region_log_volumes(net, z, k)
        assert lvs.tobytes() == _per_row_log_volumes(net, z, k).tobytes()
        assert ({row.tobytes() for row in codes}
                == {row.tobytes() for row in np.packbits(bits, axis=1)})
    if linear:
        assert bits.shape == (len(z), 0)


def test_slopes_run_once_per_distinct_code_in_each_block():
    # two regions on the ramp_2d box: each block builds two slopes, not one per latent
    net, domain, n = zoo.ramp_2d_net(), zoo.ramp_2d_domain(), 100_000
    slopes, codes_of = cpa.slopes, cpa.region_codes
    slope_rows, block_bits = [], []

    def spy_slopes(net, bits):
        slope_rows.append(len(bits))
        return slopes(net, bits)

    def spy_codes(net, z):
        block_bits.append(codes_of(net, z))
        return block_bits[-1]

    with mock.patch.object(cpa, "slopes", spy_slopes), \
            mock.patch.object(cpa, "region_codes", spy_codes):
        pool = build_pool(net, domain, n, 2, seed=3)
    assert sum(len(bits) for bits in block_bits) == n and len(block_bits) > 1
    distinct = sum(len(np.unique(bits, axis=0)) for bits in block_bits)
    assert sum(slope_rows) == distinct == 2 * len(block_bits)
    assert pool.regions == len(np.unique(codes_of(net, pool.z), axis=0)) == 2


def _two_piece_pool(n=100):
    net = zoo.two_piece_net()
    return net, build_pool(net, zoo.two_piece_domain(), n, 1, seed=5)


def test_build_pool_refuses_a_non_integer_size():
    with pytest.raises(InputError, match="n must be an integer, got 10.5"):
        build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 10.5, 1, seed=5)


def test_build_pool_refuses_a_non_integer_k():
    with pytest.raises(InputError, match="k must be an integer, got 2.5"):
        build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 10, 2.5, seed=5)
    with pytest.raises(InputError, match="seed must be an integer, got 1.5"):
        build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 10, 1, seed=1.5)
    with pytest.raises(InputError, match="seed must be at least 0, got -1"):
        build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 10, 1, seed=-1)


def test_sample_batch_refuses_a_non_integer_count():
    _, pool = _two_piece_pool()
    with pytest.raises(InputError, match="s must be an integer, got 2.5"):
        sample_batch(PolaritySampler(pool, -1.0), 2.5, seed=6)


def test_counts_take_numpy_integers():
    net, pool = _two_piece_pool(np.int64(100))
    assert pool.n == 100
    assert build_pool(net, zoo.two_piece_domain(), 10, np.uint8(1), seed=5).k == 1
    assert sample_batch(PolaritySampler(pool, -1.0), np.int32(7), seed=6).shape == (7, 1)


def test_truncation_psi_one_statistics():
    dom = LatentDomain("gaussian", mean=[0.0], std=[1.0])
    zs = dom.truncate(1.0).sample(50_000, np.random.default_rng(0))
    assert np.all(np.abs(zs) <= 2.0)
    # truncated-normal std at +-2 sigma
    assert abs(zs.std() - 0.8796) < 0.02


def test_truncation_shrinking_support():
    dom = LatentDomain("gaussian", mean=[0.0], std=[1.0])
    zs = dom.truncate(0.01).sample(2000, np.random.default_rng(1))
    assert np.all(np.abs(zs) <= 0.02)
    assert abs(zs.mean()) < 0.005
    zs = dom.truncate(0.5).sample(2000, np.random.default_rng(2))
    assert np.all(np.abs(zs) <= 1.0)


def test_truncation_exact_in_high_dimension():
    # rejection onto the box would accept (0.68)^64 ~ 2.5e-11 of draws here
    mean, std = np.linspace(-3.0, 3.0, 64), np.linspace(0.5, 2.0, 64)
    dom = LatentDomain("gaussian", mean=mean, std=std).truncate(0.5)
    u = (dom.sample(10_000, np.random.default_rng(3)) - mean) / std
    assert np.all(np.abs(u) <= 1.0 + 1e-12)
    # a standard normal truncated to [-1, 1]
    var = 1.0 - 2.0 * stats.norm.pdf(1.0) / (2.0 * stats.norm.cdf(1.0) - 1.0)
    assert np.all(np.abs(u.var(axis=0) / var - 1.0) < 0.05)
    assert abs(u.var() / var - 1.0) < 0.005
    assert stats.kstest(u.ravel(), stats.truncnorm(-1.0, 1.0).cdf).pvalue > 0.01


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1.0) | st.sampled_from([0.5, 0.7, 1.0]), st.integers(1, 64),
       st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_truncated_draws_are_inverse_cdf_bytes(psi, dim, n, seed):
    # pins the psi < 1 prior's RNG stream and rounding at any latent dimension
    params = np.random.default_rng((seed, 1))
    mean, std = params.standard_normal(dim), params.uniform(0.1, 3.0, dim)
    got = LatentDomain("gaussian", mean=mean, std=std).truncate(psi).sample(
        n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    u = rng.uniform(ndtr(-2.0 * psi), ndtr(2.0 * psi), size=(n, dim))
    assert got.tobytes() == (mean + std * ndtri(u)).tobytes()


def test_cephes_ports_match_scipy_at_branch_edges():
    # ndtr turns from erf to erfc at |x| = sqrt(1/2), which the box edge
    # x = 2 psi / sqrt(2) crosses at psi = 0.5; ndtri turns from its central
    # to its tail tables at exp(-2) and 1 - exp(-2)
    for psi in (5e-324, 1e-300, 0.7, 1.0, 0.5, *np.nextafter(0.5, [0.0, 1.0])):
        for edge in (-2.0 * psi, 2.0 * psi):
            assert np.float64(_cephes.ndtr(edge)).tobytes() == ndtr(edge).tobytes(), edge
    turns = np.exp(-2.0), 1.0 - np.exp(-2.0)
    ys = np.array([*turns, *np.nextafter(turns, 0.0), *np.nextafter(turns, 1.0),
                   0.5, ndtr(-2.0), ndtr(2.0)])
    got, want = _cephes.ndtri(ys.copy()), ndtri(ys)
    assert got.tobytes() == want.tobytes(), ys[got != want]


def test_truncation_rejects_box_domain():
    with pytest.raises(InputError):
        zoo.two_piece_domain().truncate(0.5)


def test_pool_round_trip_and_fingerprint(tmp_path):
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 200, 1, seed=11)
    path = tmp_path / "pool.json"
    pool.save(path)
    loaded = SamplePool.load(path)
    assert np.array_equal(loaded.latents, pool.latents)
    assert np.array_equal(loaded.log_volumes, pool.log_volumes)
    assert loaded.regions == pool.regions == 2
    again = tmp_path / "again.json"
    build_pool(net, zoo.two_piece_domain(), 200, 1, seed=11).save(again)
    assert again.read_bytes() == path.read_bytes()
    loaded.check_fingerprint(net)
    with pytest.raises(ConfigError):
        loaded.check_fingerprint(zoo.abs_net())


def test_distinct_code_count_diagnostic():
    pool = build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 500, 1, seed=12)
    assert pool.regions == 2


def test_pool_file_holds_only_what_sampling_reads(tmp_path):
    _, pool = _two_piece_pool()
    pool.save(tmp_path / "pool.json")
    header, newline, payload = (tmp_path / "pool.json").read_bytes().partition(b"\n")
    doc = json.loads(header)
    assert list(doc) == ["version", "net_fingerprint", "domain", "n", "k", "seed",
                         "regions", "latents_sha256"]
    assert doc["version"] == polarity.POOL_FORMAT_VERSION == 5
    # the raw little-endian log-volumes; the latents are the header's draw
    assert newline and len(payload) == 8 * pool.n
    assert payload == pool.log_volumes.astype("<f8").tobytes()
    assert doc["latents_sha256"] == hashlib.sha256(pool.z.astype("<f8").tobytes()).hexdigest()
    assert np.array_equal(pool.z, draw_latents(pool.domain, pool.n, pool.seed))
    assert SamplePool.eps == pool.eps == polarity.DEFAULT_EPS


# (net, domain, feature net) of each kind of pool a file round-trips
_ROUND_TRIP_POOLS = {
    "uniform_box": (zoo.ramp_2d_net, zoo.ramp_2d_domain, None),
    "gaussian": (zoo.bimodal_generator, zoo.bimodal_domain, None),
    "truncated": (zoo.bimodal_generator, lambda: zoo.bimodal_domain().truncate(0.6), None),
    "feature_net": (zoo.two_piece_net, zoo.two_piece_domain, lambda: _feature_net(3.0)),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ROUND_TRIP_POOLS)), st.integers(1, 3000),
       st.integers(0, 2**64 - 1), st.sampled_from([1, 2]))
def test_loaded_pool_equals_the_built_pool_byte_for_byte(kind, n, seed, workers):
    make_net, make_domain, make_feature_net = _ROUND_TRIP_POOLS[kind]
    feature_net = make_feature_net and make_feature_net()
    # small blocks, so the workers share several
    with mock.patch.object(cpa, "_workers", lambda: workers), \
            mock.patch.object(cpa, "BLOCK_BYTES", 4096):
        pool = build_pool(make_net(), make_domain(), n, 1, seed, feature_net=feature_net)
    with tempfile.TemporaryDirectory() as d:
        pool.save(Path(d) / "pool.json")
        loaded = SamplePool.load(Path(d) / "pool.json")
    assert loaded.z.tobytes() == pool.z.tobytes()
    assert loaded.log_volumes.tobytes() == pool.log_volumes.tobytes()
    assert ((loaded.k, loaded.seed, loaded.regions, loaded.domain.to_dict(),
             loaded.net_fingerprint)
            == (pool.k, pool.seed, pool.regions, pool.domain.to_dict(), pool.net_fingerprint))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pool_refuses_a_non_finite_latent(bad):
    z = np.zeros((3, 1))
    z[1, 0] = bad
    with pytest.raises(ValidationError, match="pool latents must be finite"):
        SamplePool(z=z, log_volumes=np.zeros(3), k=1, seed=0, regions=1,
                   domain=zoo.two_piece_domain(), net_fingerprint="test")


def test_box_volume_that_overflows_names_the_box():
    # each width is finite, the product of the two is not
    box = LatentDomain("uniform_box", lo=[-1e200, -1e200], hi=[1e200, 1e200])
    with pytest.raises(InputError, match=r"uniform_box lo=\[-1e\+200, -1e\+200\]"):
        box.volume
    assert LatentDomain("uniform_box", lo=[-1e100] * 3, hi=[1e100] * 3).volume == 8e300


def test_distinct_code_count_matches_digest_reference():
    # reference: the set of each latent's unpacked activation bit row, as bytes
    net = zoo.random_net(13, input_dim=3)
    domain = LatentDomain("uniform_box", lo=-np.ones(3), hi=np.ones(3))
    pool = build_pool(net, domain, 20000, 3, seed=5)
    rows = {row.tobytes() for row in region_codes(net, pool.latents)}
    assert pool.regions == len(rows) > 1000


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.integers(0, 5), st.integers(1, 256), st.integers(0, 2**32 - 1))
def test_distinct_code_count_matches_unique_rows(n, width, alphabet, seed):
    # a small alphabet repeats rows; width 0 is a net without nonlinear units
    codes = np.random.default_rng(seed).integers(0, alphabet, (n, width)).astype(np.uint8)
    scored = (np.zeros(n), codes)
    with mock.patch.object(polarity, "region_log_volumes", return_value=scored):
        pool = build_pool(identity_net(1), LatentDomain("uniform_box", lo=[-1.0], hi=[1.0]),
                          n, 1, seed=0)
    assert pool.regions == len(np.unique(codes, axis=0))


def test_identity_net_pool_has_one_region():
    pool = build_pool(identity_net(2), LatentDomain("uniform_box", lo=[-1, -1], hi=[1, 1]),
                      50, 2, seed=1)
    assert pool.regions == 1


def test_gaussian_domain_pool():
    net = zoo.bimodal_generator()
    pool = build_pool(net, zoo.bimodal_domain(), 1000, 1, seed=13)
    assert pool.regions == 2
    w = polarity_weights(pool, -20.0)
    # essentially all weight on the slope-0.1 region (z < 0)
    assert pool.latents[np.argmax(w), 0] < 0
