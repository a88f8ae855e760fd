import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polarity_sampling import (
    CpaNetwork, InputError, LatentDomain, Layer, PolaritySampler, ScaleError,
    StateError, analytic_density, build_pool, enumerate_regions, forward, identity_net,
    mc_density, normalization_constant, region_codes, region_log_volumes, sample_batch,
    total_variation,
)
from polarity_sampling import cpa, density, zoo
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


@pytest.mark.parametrize("resolution", [2**20, 10**30, 10**1500])
def test_enumerate_rejects_a_grid_beyond_any_array(resolution):
    box = LatentDomain("uniform_box", lo=[-1] * 3, hi=[1] * 3)
    with pytest.raises(InputError, match="exceed any array"):
        enumerate_regions(identity_net(3), box, resolution)


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


# two_piece's region weights are 2**(1 - rho) and 2**(rho - 1)
@pytest.mark.parametrize("rho", [2000.0, -2000.0, 1e300, 2**70, float("nan")])
def test_analytic_density_refuses_a_rho_that_overflows(two_piece_atlas, rho):
    message = (f"rho={rho}: a density weight" if math.isfinite(rho)
               else "rho must be finite")
    with pytest.raises(InputError, match=re.escape(message)):
        analytic_density(two_piece_atlas, np.array([[-1.0], [0.25]]), rho)
    # the normalizer refuses the same rho, with the same message
    with pytest.raises(InputError, match=re.escape(message)):
        normalization_constant(two_piece_atlas, rho)


@pytest.mark.parametrize("call", [
    lambda atlas, rho: normalization_constant(atlas, rho),
    lambda atlas, rho: analytic_density(atlas, [0.0], rho),
], ids=["normalization_constant", "analytic_density"])
@pytest.mark.parametrize("rho", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_oracle_refuses_an_int_rho_past_the_float_range(two_piece_atlas, call, rho):
    with pytest.raises(InputError, match="rho must be finite"):
        call(two_piece_atlas, rho)


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


def _full_rank_net(K, depth, seed):
    """D = K leaky net whose every region slope has rank K: each weight is an
    orthogonal matrix times a diagonal in [0.5, 2], and each leaky slope > 0."""
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(depth + 1):
        weight = np.linalg.qr(rng.standard_normal((K, K)))[0] * rng.uniform(0.5, 2.0, K)
        layers.append(Layer(weight, 0.3 * rng.standard_normal(K), "leaky_relu",
                            alpha=rng.uniform(0.2, 0.5)) if i < depth
                      else Layer(weight, np.zeros(K)))
    return CpaNetwork("full_rank", tuple(layers))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_quadrature_totals_one_on_full_rank_nets(K, depth, seed):
    net = _full_rank_net(K, depth, seed)
    atlas = enumerate_regions(net, LatentDomain("uniform_box", lo=[-1.0] * K,
                                                hi=[1.0] * K), 64)
    assume(atlas.complete)   # a sliver region below the grid's cell: rare
    assert np.all(np.isfinite(atlas.log_pseudo_dets()))
    # a box padded around the image of a latent grid
    grid = np.meshgrid(*[np.linspace(-1.0, 1.0, 65)] * K)
    img = forward(net, np.stack([m.reshape(-1) for m in grid], axis=1))
    pad = 0.05 * (img.max(axis=0) - img.min(axis=0)) + 0.01
    lo, hi = img.min(axis=0) - pad, img.max(axis=0) + pad
    for rho in (-1.0, 0.0, 1.0):
        mass = _quadrature_mass(atlas, rho, lo, hi, [4000] if K == 1 else [300, 300])
        assert abs(mass - 1.0) <= 0.03, (rho, mass)


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
    edges = np.linspace(-1, 1, 5)
    # one 1-D latent, and bins for too few or too many output dims
    with pytest.raises(InputError, match=r"draws must be an \(n, 2\) array"):
        mc_density(zoo.ramp_2d_net(), np.array([0.1, 0.2]), [edges, edges])
    with pytest.raises(InputError, match="bins give 1 edge arrays"):
        mc_density(zoo.ramp_2d_net(), np.zeros((10, 2)), [edges])
    with pytest.raises(InputError, match="bins give 2 edge arrays"):
        mc_density(net, np.zeros((10, 1)), [edges, edges])
    # each malformed edge array is refused, naming its output dim
    ramp = zoo.ramp_2d_net()
    for bad in ([], [0.0, math.nan, 1.0], [0.5], [[0.0, 1.0]], [0.0, math.inf, math.inf]):
        with pytest.raises(InputError, match="bin edges of output dim 1 must be a 1-D"):
            mc_density(ramp, np.zeros((10, 2)), [edges, bad])
    # (2**16 + 1)**4 cells leave any array
    wide = np.linspace(0.0, 1.0, 2**16)
    with pytest.raises(InputError, match="histogram cells"):
        mc_density(identity_net(4), np.zeros((10, 4)), [wide] * 4)
    # infinite end edges are edges like any other
    assert mc_density(net, np.zeros((10, 1)), [[-math.inf, 0.0, math.inf]]).mass.tolist() \
        == [0.0, 1.0]


def _workers(count):
    """Bin blocks on ``count`` threads (helpers run only with a BLAS control)."""
    return mock.patch.object(cpa, "_workers", lambda: count)


def _leaky_4_4_2():
    """A 2-D all-leaky net of widths 4/4/2, the shape of the density-law bench net."""
    rng = np.random.default_rng(5)
    layers, d_in = [], 2
    for d_out in (4, 4, 2):
        layers.append(Layer(rng.standard_normal((d_out, d_in)), 0.1 * rng.standard_normal(d_out),
                            "leaky_relu", 0.3))
        d_in = d_out
    return CpaNetwork("leaky_4_4_2", tuple(layers))


def _blocked_histograms(net, draws, bins):
    """mc_density's mass at block budgets of one row, three rows and the
    default, each on one and two threads."""
    widest = max([net.input_dim] + [layer.out_dim for layer in net.layers])
    for budget in (1, 3 * 8 * widest, cpa.BLOCK_BYTES):
        for workers in (1, 2):
            with mock.patch.object(cpa, "BLOCK_BYTES", budget), _workers(workers):
                yield mc_density(net, draws, bins).mass


@pytest.mark.parametrize("net, domain", [
    (zoo.two_piece_net(), zoo.two_piece_domain()),
    (zoo.ramp_2d_net(), zoo.ramp_2d_domain()),
    (_leaky_4_4_2(), LatentDomain("uniform_box", lo=[-1.0, -1.0], hi=[1.0, 1.0])),
])
def test_mc_density_equals_one_histogram_of_the_forward(net, domain):
    draws = domain.sample(2000, np.random.default_rng(3))
    xs = forward(net, draws)
    bins = [np.linspace(lo, hi, 13) for lo, hi in zip(xs.min(axis=0), xs.max(axis=0))]
    expected = np.histogramdd(xs, bins)[0] / draws.shape[0]
    for mass in _blocked_histograms(net, draws, bins):
        assert mass.tobytes() == expected.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300))
# both draws map to one output on a bin edge, which a one-row block's forward
# rounds one ulp away from a two-row block's: the budgets bin it differently
@example(net_seed=145, n=2)
def test_mc_density_does_not_depend_on_blocks_or_workers(net_seed, n):
    # a random net (widths up to 32) with a linear 2-D head: histogramdd keeps
    # 3^D cells even for one bin per dim, so the output dim stays small.  At
    # each block budget the mass is one sum of its own blocks' histograms, on
    # one thread or two; across budgets a forward may round otherwise.
    body = zoo.random_net(net_seed)
    rng = np.random.default_rng(net_seed)
    head = Layer(rng.standard_normal((2, body.output_dim)), np.zeros(2))
    net = CpaNetwork("head", body.layers + (head,))
    draws = rng.standard_normal((n, net.input_dim))
    xs = forward(net, draws)
    bins = [np.linspace(lo - 1.0, hi + 1.0, 9) for lo, hi in zip(xs.min(axis=0),
                                                                  xs.max(axis=0))]
    widest = max([net.input_dim] + [layer.out_dim for layer in net.layers])
    masses = iter(_blocked_histograms(net, draws, bins))
    for budget in (1, 3 * 8 * widest, cpa.BLOCK_BYTES):
        with mock.patch.object(cpa, "BLOCK_BYTES", budget):
            blocks = list(cpa.row_blocks(n, 8 * widest))
        expected = sum(np.histogramdd(forward(net, draws[rows]), bins)[0]
                       for rows in blocks) / n
        assert expected.sum() == pytest.approx(1.0)
        assert next(masses).tobytes() == next(masses).tobytes() == expected.tobytes()


@pytest.mark.parametrize("make_net, make_domain", [
    (zoo.two_piece_net, zoo.two_piece_domain),
    (zoo.ramp_2d_net, zoo.ramp_2d_domain),
    (zoo.abs_net, zoo.two_piece_domain),
])
def test_region_log_pdet_matches_gram_determinant(make_net, make_domain):
    # oracle: 0.5 log det(A^T A), straight from each region's full-rank slope
    atlas = enumerate_regions(make_net(), make_domain(), 64)
    assert len(atlas.regions) == 2
    expected = []
    for region in atlas.regions:
        A = region.slope
        assert np.linalg.matrix_rank(A) == A.shape[1]
        expected.append(0.5 * np.log(np.linalg.det(A.T @ A)))
        np.testing.assert_allclose(region.log_pdet, expected[-1], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(atlas.log_pseudo_dets(), expected, rtol=1e-12, atol=1e-15)
    # the atlas takes each region's score from the pool's scorer
    pool_side, _ = region_log_volumes(atlas.net, np.array([r.rep_z for r in atlas.regions]),
                                      atlas.net.input_dim)
    assert pool_side.tobytes() == atlas.log_pseudo_dets().tobytes()


def test_pool_and_atlas_score_every_density_law_region_alike():
    # the bench's density_law net: seed 5, widths 4/4/2, all leaky, bias scale 0.3
    rng = np.random.default_rng(5)
    layers, d_in = [], 2
    for width in (4, 4, 2):
        layers.append(Layer(rng.standard_normal((width, d_in)) / np.sqrt(d_in),
                            0.3 * rng.standard_normal(width), "leaky_relu", alpha=0.2))
        d_in = width
    net = CpaNetwork("density_law", tuple(layers))
    box = LatentDomain("uniform_box", lo=[-1.0, -1.0], hi=[1.0, 1.0])
    atlas = enumerate_regions(net, box, 64)
    pool = build_pool(net, box, 20_000, 2, seed=0)
    codes = np.array([r.code for r in atlas.regions])
    found, region = np.unique(np.concatenate([codes, region_codes(net, pool.z)]),
                              axis=0, return_inverse=True)
    # every pool latent lies in an atlas region, and every region holds one
    R = len(atlas.regions)
    assert len(found) == R == 18 and len(np.unique(region[R:])) == R
    assert pool.log_volumes.tobytes() == atlas.log_pseudo_dets()[region[R:]].tobytes()


def _edge_arrays(rng, kind, m):
    if kind == "linspace":
        lo = rng.uniform(-1e3, 1e3)
        return np.linspace(lo, lo + rng.uniform(1e-6, 1e4), m)
    if kind == "sorted":
        e = np.unique(rng.standard_normal(m) * 10.0 ** rng.integers(-300, 300, m))
        return e if e.size >= 2 else np.array([-1.0, 1.0])
    return np.concatenate([[-np.inf], np.linspace(-1.0, 1.0, m), [np.inf]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 400), st.data())
def test_binning_equals_histogramdd(dim, seed, n, data):
    # the points are the outputs (forward is patched to pass latents through),
    # so points on edges, next to them and off every scale reach the binning
    rng = np.random.default_rng(seed)
    bins = [_edge_arrays(rng, data.draw(st.sampled_from(["linspace", "sorted", "inf"])),
                         data.draw(st.integers(2, 41))) for _ in range(dim)]
    columns = []
    for e in bins:
        finite = e[np.isfinite(e)]
        special = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                                  [np.nan, np.inf, -np.inf, 1e308, -1e308]])
        inside = rng.uniform(finite[0], finite[-1], n) if finite.size else rng.normal(size=n)
        columns.append(np.where(rng.random(n) < 0.5, rng.choice(special, n), inside))
    points = np.stack(columns, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(cpa, "forward", lambda net, z: z):
            mass = mc_density(identity_net(dim), points, bins).mass
        expected = np.histogramdd(points, bins)[0] / n
    assert mass.tobytes() == expected.tobytes()


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65, 320])
@pytest.mark.parametrize("seed", range(3))
def test_integer_keyed_unique_equals_unique_rows(width, seed):
    rng = np.random.default_rng(seed)
    # rows drawn from a few distinct rows, so they repeat
    base = rng.random((rng.integers(1, 12), width)) < 0.5
    if seed == 2 and width:   # distinct rows that differ in their last bit only
        base[:, :-1] = base[0, :-1]
    bits = base[rng.integers(0, base.shape[0], rng.integers(1, 500))]
    got = density._unique_codes(bits)
    expected = np.unique(bits, axis=0, return_index=True, return_inverse=True,
                         return_counts=True)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
