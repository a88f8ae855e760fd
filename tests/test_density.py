import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarity_sampling import (
    CpaNetwork, InputError, LatentDomain, Layer, PolaritySampler, ScaleError,
    StateError, analytic_density, build_pool, enumerate_regions, identity_net,
    mc_density, normalization_constant, region_codes, sample_batch,
    total_variation,
)
from polarity_sampling import zoo
from polarity_sampling.density import RegionAtlas


def test_enumerate_linear_single_region():
    net = CpaNetwork("lin", (Layer(np.array([[2.0, 1.0]]), np.zeros(1)),))
    atlas = enumerate_regions(
        net, LatentDomain("uniform_box", lo=[-1, -1], hi=[1, 1]), 32
    )
    assert atlas.complete
    assert len(atlas.regions) == 1
    assert atlas.regions[0].prior_mass == 1.0


def test_enumerate_two_piece():
    res = 64
    atlas = enumerate_regions(zoo.two_piece_net(), zoo.two_piece_domain(), res)
    assert atlas.complete
    assert len(atlas.regions) == 2
    for r in atlas.regions:
        assert abs(r.prior_mass - 0.5) <= 1.0 / res
        np.testing.assert_array_equal(r.code, region_codes(atlas.net, r.rep_z)[0])
    # regions come in np.unique row order of their bit rows
    codes = np.array([r.code for r in atlas.regions])
    np.testing.assert_array_equal(codes, np.unique(codes, axis=0))


def test_enumerate_halfspace_2d():
    res = 64
    atlas = enumerate_regions(
        zoo.halfspace_net(), LatentDomain("uniform_box", lo=[-1, -1], hi=[1, 1]), res
    )
    assert atlas.complete
    assert len(atlas.regions) == 2
    for r in atlas.regions:
        assert abs(r.prior_mass - 0.5) <= 2.0 / res


def test_enumerate_rejects_large_k():
    net = identity_net(4)
    with pytest.raises(ScaleError):
        enumerate_regions(
            net, LatentDomain("uniform_box", lo=[-1] * 4, hi=[1] * 4), 32
        )


def test_enumerate_rejects_gaussian_domain():
    with pytest.raises(InputError):
        enumerate_regions(zoo.two_piece_net(),
                          LatentDomain("gaussian", mean=[0.0], std=[1.0]), 32)


def test_enumerate_rejects_coarse_grid():
    with pytest.raises(InputError):
        enumerate_regions(zoo.two_piece_net(), zoo.two_piece_domain(), 16)


@pytest.fixture(scope="module")
def two_piece_atlas():
    return enumerate_regions(zoo.two_piece_net(), zoo.two_piece_domain(), 64)


def test_analytic_density_rho0_hand_values(two_piece_atlas):
    # change of variables: slope-2 branch spreads U[-1,0] over (-2,0),
    # slope-1/2 branch compresses U[0,1] onto (0, 1/2)
    assert analytic_density(two_piece_atlas, [-1.0], 0.0) == pytest.approx(0.25)
    assert analytic_density(two_piece_atlas, [0.25], 0.0) == pytest.approx(1.0)
    # integrates to one: 2 * 1/4 + 1/2 * 1 = 1
    assert analytic_density(two_piece_atlas, [3.0], 0.0) == 0.0


def test_analytic_density_rho1_uniform_on_image(two_piece_atlas):
    for x in (-1.5, -0.3, 0.1, 0.45):
        assert analytic_density(two_piece_atlas, [x], 1.0) == pytest.approx(0.4)


def test_analytic_density_identity_net():
    net = identity_net(2)
    atlas = enumerate_regions(
        net, LatentDomain("uniform_box", lo=[-1, -1], hi=[1, 1]), 32
    )
    for rho in (-2.0, 0.0, 1.5):
        assert analytic_density(atlas, [0.2, -0.7], rho) == pytest.approx(0.25)


def test_analytic_density_incomplete_atlas(two_piece_atlas):
    broken = RegionAtlas(
        net=two_piece_atlas.net, domain=two_piece_atlas.domain,
        regions=two_piece_atlas.regions, complete=False,
    )
    with pytest.raises(StateError):
        analytic_density(broken, [0.0], 0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
def test_analytic_density_batch_closed_form(two_piece_atlas, xs):
    # U[-1,1] through slopes 2 (z<0) and 1/2 (z>=0): 1/4 where the pre-image
    # x/2 lies in [-1,0), 1 where the pre-image 2x lies in (0,1].  A pre-image
    # z = 0 has both relu units off (ties take the off branch): a measure-zero
    # code of no region.  That is x = 0, and also x = -5e-324, whose pre-image
    # x/2 rounds to -0.0 in float64.
    x = np.array(xs)
    expected = np.where((x / 2 >= -1.0) & (x / 2 < 0.0), 0.25,
                        np.where((2 * x > 0.0) & (2 * x <= 1.0), 1.0, 0.0))
    got = analytic_density(two_piece_atlas, x[:, None], 0.0)
    assert got.shape == (x.size,)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)
    assert [analytic_density(two_piece_atlas, [v], 0.0) for v in xs] == got.tolist()


@pytest.mark.parametrize("x", [np.zeros((3, 2)), np.zeros(2), np.zeros((2, 1, 1)),
                               np.float64(0.5)])
def test_analytic_density_rejects_wrong_dimension(two_piece_atlas, x):
    with pytest.raises(InputError):
        analytic_density(two_piece_atlas, x, 0.0)


def _quadrature_mass(atlas, rho, lo, hi, counts):
    """Midpoint quadrature of the analytic density over a box covering the image."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    counts = np.asarray(counts, int)
    axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(counts[d]) + 0.5) / counts[d]
            for d in range(lo.size)]
    mesh = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    cell = np.prod((hi - lo) / counts)
    return analytic_density(atlas, mesh, rho).sum() * cell


@pytest.mark.parametrize("rho", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_normalization_one_dimensional(two_piece_atlas, rho):
    # cell boundaries align with the image breakpoints at -2, 0, 0.5
    mass = _quadrature_mass(two_piece_atlas, rho, [-2.0], [0.5], [2500])
    assert abs(mass - 1.0) <= 1e-3


@pytest.mark.parametrize("rho", [-2.0, 0.0, 2.0])
def test_normalization_two_dimensional(rho):
    atlas = enumerate_regions(zoo.ramp_2d_net(), zoo.ramp_2d_domain(), 64)
    assert atlas.complete and len(atlas.regions) == 2
    mass = _quadrature_mass(atlas, rho, [-0.5, 0.0], [2.0, 2.0], [250, 10])
    assert abs(mass - 1.0) <= 1e-3


@pytest.mark.parametrize("rho", [-1.0, 0.0, 1.0])
def test_normalization_non_injective(rho):
    # |z| maps both regions onto [0, 1]; the region sum is the correct
    # change-of-variables formula even with overlapping images
    atlas = enumerate_regions(zoo.abs_net(), zoo.two_piece_domain(), 64)
    assert len(atlas.regions) == 2
    mass = _quadrature_mass(atlas, rho, [0.0], [1.0], [2000])
    assert abs(mass - 1.0) <= 1e-3
    assert analytic_density(atlas, [0.5], 0.0) == pytest.approx(1.0)


def test_mc_density_flat_for_identity():
    net = identity_net(1)
    draws = zoo.two_piece_domain().sample(200_000, np.random.default_rng(0))
    hist = mc_density(net, draws, [np.linspace(-1, 1, 21)])
    expected = 1.0 / 20
    sigma = np.sqrt(expected * (1 - expected) / 200_000)
    assert np.all(np.abs(hist.mass - expected) <= 3 * sigma)
    assert hist.mass.sum() == pytest.approx(1.0)


def _analytic_bin_mass(atlas, rho, edges):
    centers = (edges[:-1] + edges[1:]) / 2
    return analytic_density(atlas, centers[:, None], rho) * np.diff(edges)


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_sampler_density_consistency(two_piece_atlas, rho):
    net = zoo.two_piece_net()
    # pool noise dominates the TV budget: the histogram resamples pool
    # latents, so N must be comfortably larger than the bin count demands
    pool = build_pool(net, zoo.two_piece_domain(), 50_000, 1, seed=0)
    draws = sample_batch(PolaritySampler(pool, rho), 200_000, seed=1)
    edges = np.linspace(-2.0, 0.5, 51)  # breakpoint at 0 falls on an edge
    hist = mc_density(net, draws, [edges])
    expected = _analytic_bin_mass(two_piece_atlas, rho, edges)
    assert total_variation(hist.mass, expected) <= 0.02


def test_mode_concentration_monotone():
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 5000, 1, seed=2)
    fracs = []
    for rho in (0.0, -5.0, -10.0, -20.0):
        zs = sample_batch(PolaritySampler(pool, rho), 50_000, seed=3)
        fracs.append(np.mean(zs[:, 0] >= 0))
    assert all(b >= a - 1e-3 for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] >= 0.999


def test_mc_density_input_errors():
    net = identity_net(1)
    with pytest.raises(InputError):
        mc_density(net, np.empty((0, 1)), [np.linspace(0, 1, 5)])
    with pytest.raises(InputError):
        mc_density(net, np.zeros((10, 1)), [np.array([0.0, 0.0, 1.0])])
