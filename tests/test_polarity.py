from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from polarity_sampling import (
    ConfigError, InputError, LatentDomain, OnlineSampler,
    PolaritySampler, SamplePool, build_pool, forward, polarity_weights,
    StateError, region_codes, sample_batch,
)
from polarity_sampling import cpa, zoo


def pool_from_log_volumes(lvs):
    n = len(lvs)
    return SamplePool(
        z=np.arange(n, dtype=np.float64)[:, None], log_volumes=lvs,
        codes=np.zeros((n, 1), dtype=np.uint8), k=1, eps=1e-12, space="output",
        seed=0, domain=LatentDomain("uniform_box", lo=[-1.0], hi=[1.0]),
        net_fingerprint="test",
    )


def test_linear_net_single_region_pool():
    from polarity_sampling import CpaNetwork, Layer

    rng = np.random.default_rng(1)
    net = CpaNetwork("lin", (Layer(rng.standard_normal((3, 2)), np.zeros(3)),))
    pool = build_pool(net, LatentDomain("uniform_box", lo=[-1, -1], hi=[1, 1]),
                      200, 1, seed=0)
    assert pool.distinct_code_count() <= 1
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


def test_pool_unknown_space():
    with pytest.raises(ConfigError):
        build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 10, 1, seed=0,
                   space="composed:features")


def test_weights_rho_zero_uniform():
    pool = pool_from_log_volumes([0.3, -2.0, 5.0, 1.1])
    np.testing.assert_allclose(polarity_weights(pool, 0.0), np.full(4, 0.25))


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
    expected = build_pool(net, domain, n, k, seed=7)
    # one row per block, then three
    for budget in (1, 3 * 8 * net.input_dim * max(widths)):
        with mock.patch.object(cpa, "BLOCK_BYTES", budget):
            got = build_pool(net, domain, n, k, seed=7)
        for column in ("z", "log_volumes", "codes"):
            assert np.array_equal(getattr(got, column), getattr(expected, column))


def test_online_draws_do_not_depend_on_block_budget():
    net = zoo.random_net(13, input_dim=3)
    pool = build_pool(net, _domains(3)["box"], 20000, 2, seed=1)
    expected = OnlineSampler(pool, net, -1.0, seed=3).draw(500)
    for budget in (1, 3 * 8 * 3 * 28):   # one row per block, then three
        with mock.patch.object(cpa, "BLOCK_BYTES", budget):
            got = OnlineSampler(pool, net, -1.0, seed=3).draw(500)
        assert np.array_equal(got, expected)


def test_online_linear_net_matches_prior():
    from polarity_sampling import CpaNetwork, Layer

    net = CpaNetwork("lin1", (Layer(np.array([[1.7]]), np.array([0.2])),))
    dom = LatentDomain("uniform_box", lo=[-1.0], hi=[1.0])
    pool = build_pool(net, dom, 50, 1, seed=0)
    sampler = OnlineSampler(pool, net, 1.0, seed=8)
    accepted = sampler.draw(2000)
    assert sampler.acceptance_rate > 1e-3
    direct = dom.sample(2000, np.random.default_rng(99))
    assert stats.ks_2samp(accepted[:, 0], direct[:, 0]).pvalue > 0.01


def test_online_mode_limit():
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 2000, 1, seed=1)
    zs = OnlineSampler(pool, net, -20.0, seed=2).draw(5000)
    assert np.mean(zs[:, 0] >= 0) >= 0.999


def test_online_frequencies_match_target_density():
    # two regions with equal prior mass and sigma products (2, 1/2):
    # at rho=1 accepted frequencies should be (0.8, 0.2)
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 5000, 1, seed=3)
    zs = OnlineSampler(pool, net, 1.0, seed=4).draw(100_000)
    frac_large = np.mean(zs[:, 0] < 0)
    assert abs(frac_large - 0.8) < 0.02


def test_online_single_draw_api():
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 100, 1, seed=5)
    z = OnlineSampler(pool, net, -1.0, seed=6).draw(1)[0]
    assert z.shape == (1,)


def test_online_envelope_violation_raises():
    # the one pool latent sits in the small-slope region, so at rho=2 every
    # candidate from the other region outweighs the pool maximum
    net = zoo.bimodal_generator()
    pool = build_pool(net, zoo.bimodal_domain(), 1, 1, seed=1)
    assert pool.latents[0, 0] < 0
    with pytest.raises(StateError, match="all 1 pool latents"):
        OnlineSampler(pool, net, 2.0, seed=2).draw(1000)
    # at rho=-2 that latent's region carries the largest weight: no violation
    zs = OnlineSampler(pool, net, -2.0, seed=2).draw(1000)
    assert np.mean(zs[:, 0] < 0) >= 0.99


def test_batch_online_agreement():
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 5000, 1, seed=7)
    for rho in (-2.0, -1.0, 0.0, 1.0, 2.0):
        batch = sample_batch(PolaritySampler(pool, rho), 100_000, seed=8)
        online = OnlineSampler(pool, net, rho, seed=9).draw(100_000)
        f_batch = np.mean(batch[:, 0] < 0)
        f_online = np.mean(online[:, 0] < 0)
        assert abs(f_batch - f_online) < 0.02


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
    assert np.array_equal(loaded.codes, pool.codes)
    again = tmp_path / "again.json"
    build_pool(net, zoo.two_piece_domain(), 200, 1, seed=11).save(again)
    assert again.read_bytes() == path.read_bytes()
    loaded.check_fingerprint(net)
    with pytest.raises(ConfigError):
        loaded.check_fingerprint(zoo.abs_net())


def test_distinct_code_count_diagnostic():
    pool = build_pool(zoo.two_piece_net(), zoo.two_piece_domain(), 500, 1, seed=12)
    assert pool.distinct_code_count() == 2


def test_distinct_code_count_matches_digest_reference():
    # reference: the set of each latent's unpacked activation bit row, as bytes
    net = zoo.random_net(13, input_dim=3)
    domain = LatentDomain("uniform_box", lo=-np.ones(3), hi=np.ones(3))
    pool = build_pool(net, domain, 20000, 3, seed=5)
    rows = {row.tobytes() for row in region_codes(net, pool.latents)}
    assert pool.distinct_code_count() == len(rows) > 1000
    bits = np.unpackbits(pool.codes, axis=1, count=net.num_units).astype(bool)
    np.testing.assert_array_equal(bits, region_codes(net, pool.latents))


def test_gaussian_domain_pool():
    net = zoo.bimodal_generator()
    pool = build_pool(net, zoo.bimodal_domain(), 1000, 1, seed=13)
    assert pool.distinct_code_count() == 2
    w = polarity_weights(pool, -20.0)
    # essentially all weight on the slope-0.1 region (z < 0)
    assert pool.latents[np.argmax(w), 0] < 0
