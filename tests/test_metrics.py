import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from polarity_sampling import (
    CpaNetwork, InputError, LatentDomain, Layer,
    PolaritySampler, SampleSet, build_pool, frechet_distance, identity_net,
    nn_distances, path_length, precision_recall,
)
import polarity_sampling
from polarity_sampling import cpa, metrics, zoo


def test_frechet_identical_sets_zero():
    pts = np.random.default_rng(0).standard_normal((100, 3))
    a, b = SampleSet(pts), SampleSet(pts.copy())
    assert frechet_distance(a, b) <= 1e-10


def test_frechet_mean_shift_closed_form():
    # sample mean/std are exact for +-1 point pairs
    base = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    assert frechet_distance(SampleSet(base), SampleSet(base + 1.0)) == pytest.approx(
        1.0, abs=1e-10
    )


def test_frechet_std_ratio_closed_form():
    # 1-D closed form (sigma_a - sigma_b)^2 with stds 1 and 2
    s = 1.0 / np.sqrt(2.0)
    a = SampleSet(np.array([[-s], [s]]))
    b = SampleSet(np.array([[-2 * s], [2 * s]]))
    assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-8)


def test_frechet_symmetry_and_nonnegativity():
    rng = np.random.default_rng(1)
    a = SampleSet(rng.standard_normal((60, 4)))
    b = SampleSet(rng.standard_normal((80, 4)) + 0.3)
    d1, d2 = frechet_distance(a, b), frechet_distance(b, a)
    assert abs(d1 - d2) <= 1e-8
    assert d1 >= 0.0


def test_frechet_orthogonal_invariance():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((100, 3))
    b = rng.standard_normal((100, 3)) * 1.5 + 0.2
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    d0 = frechet_distance(SampleSet(a), SampleSet(b))
    d1 = frechet_distance(SampleSet(a @ Q.T), SampleSet(b @ Q.T))
    assert abs(d0 - d1) <= 1e-8


def test_frechet_tiny_sets_regularized():
    # fewer points than dimensions: regularization keeps this finite
    a = SampleSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert np.isfinite(frechet_distance(a, a))


@pytest.mark.parametrize("sizes", [(1, 5), (5, 1), (1, 1)])
def test_frechet_needs_two_points_per_set(sizes):
    # one point has no covariance: np.cov would warn and divide by zero
    a, b = (SampleSet(np.arange(2.0 * n).reshape(n, 2)) for n in sizes)
    with pytest.raises(InputError, match="at least 2 points"):
        frechet_distance(a, b)


def test_frechet_dim_mismatch():
    with pytest.raises(InputError):
        frechet_distance(SampleSet(np.zeros((5, 2))), SampleSet(np.zeros((5, 3))))


def test_precision_recall_identical_sets():
    pts = np.random.default_rng(3).standard_normal((50, 2))
    p, r = precision_recall(SampleSet(pts), SampleSet(pts.copy()), k_nn=3)
    assert (p, r) == (1.0, 1.0)


def test_precision_recall_disjoint_sets():
    rng = np.random.default_rng(4)
    real = rng.uniform(0, 1, size=(200, 2))
    fake = rng.uniform(0, 1, size=(200, 2)) + 100.0
    p, r = precision_recall(SampleSet(real), SampleSet(fake), k_nn=3)
    assert (p, r) == (0.0, 0.0)


def test_precision_recall_nested_squares():
    rng = np.random.default_rng(5)
    real = rng.uniform(0, 1, size=(2000, 2))
    fake = rng.uniform(0, 0.5, size=(2000, 2))
    p, r = precision_recall(SampleSet(real), SampleSet(fake), k_nn=3)
    assert p >= 0.95
    assert abs(r - 0.25) <= 0.1


def test_precision_recall_k_too_large():
    pts = SampleSet(np.zeros((4, 1)) + np.arange(4)[:, None])
    with pytest.raises(InputError):
        precision_recall(pts, pts, k_nn=4)


def test_recall_monotone_under_fake_duplication():
    rng = np.random.default_rng(6)
    real = SampleSet(rng.uniform(0, 1, size=(300, 2)))
    fake_pts = rng.uniform(0, 1, size=(300, 2))
    _, r1 = precision_recall(real, SampleSet(fake_pts), k_nn=3)
    dup = np.vstack([fake_pts, fake_pts[:100]])
    _, r2 = precision_recall(real, SampleSet(dup), k_nn=3)
    assert r2 >= r1 - 1e-12


# Reference precision/recall: whole matrices, one cdist per direction, every
# query row scored.  precision_recall must match it bit for bit.
def _oracle_manifold(points, k):
    support = np.unique(points, axis=0)
    d = cdist(support, support)
    np.fill_diagonal(d, np.inf)
    kk = min(k, support.shape[0] - 1)
    if kk < 1:
        return support, np.zeros(support.shape[0])
    return support, np.partition(d, kk - 1, axis=1)[:, kk - 1]


def _oracle_covered_fraction(queries, support, radii):
    d = cdist(queries, support)
    return float(np.mean(np.any(d <= radii[None, :], axis=1)))


def _oracle_precision_recall(real, fake, k_nn):
    precision = _oracle_covered_fraction(fake, *_oracle_manifold(real, k_nn))
    recall = _oracle_covered_fraction(real, *_oracle_manifold(fake, k_nn))
    return precision, recall


# Point-set families that stress the Gram pruning bound; each draws two sets
# with shared parameters, so that the sets overlap.
def _grid_family(rng, sizes, dim):
    """A small integer grid (width 0 gives a single distinct point):
    duplicate rows and exact distance ties."""
    width = rng.integers(0, 4)
    return [rng.integers(0, width + 1, (n, dim)).astype(float) for n in sizes]


def _offset_family(rng, sizes, dim):
    """Two clusters 1e4 to 1e12 out with a 1e-6 spread: after centring, the
    Gram terms dwarf every distance inside a cluster."""
    centres = 10.0 ** rng.uniform(4, 12) * rng.choice([-1.0, 1.0], (2, dim))
    return [centres[rng.integers(0, 2, n)] + 1e-6 * rng.standard_normal((n, dim))
            for n in sizes]


def _ulp_family(rng, sizes, dim):
    """Copies of three points, each coordinate moved by at most one ulp."""
    base = rng.standard_normal((3, dim))
    out = []
    for n in sizes:
        pts = base[rng.integers(0, 3, n)]
        out.append(np.nextafter(pts, pts + rng.integers(-1, 2, (n, dim))))
    return out


def _huge_family(rng, sizes, dim):
    """Grid rows, about half scaled by 1e160: squares overflow, so the Gram
    bound is inf or NaN, while the small rows keep finite distances."""
    width = rng.integers(1, 4)
    out = []
    for n in sizes:
        pts = rng.integers(0, width + 1, (n, dim)).astype(float)
        pts[rng.random(n) < 0.5] *= 1e160
        out.append(pts)
    return out


def _scales_family(rng, sizes, dim):
    """Rows at their own magnitudes, from subnormal (or zero) to 1e150; half
    the draws sit near 1e-160, where the squares are subnormal."""
    if rng.random() < 0.5:
        centre, spread = rng.uniform(-163, -158), 1.0
    else:
        centre, spread = rng.uniform(-320, 140), rng.choice([1.0, 30.0, 300.0])
    return [rng.standard_normal((n, dim))
            * 10.0 ** np.minimum(centre + spread * rng.uniform(-1, 1, (n, 1)), 150.0)
            for n in sizes]


FAMILIES = {f.__name__: f for f in (_grid_family, _offset_family, _ulp_family,
                                     _huge_family, _scales_family)}


def _family(data, min_rows, max_rows, dim):
    family = FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return family(rng, [data.draw(st.integers(min_rows, max_rows)) for _ in range(2)], dim)


# block budgets of one row, a few rows, and the whole matrix at these sizes
BLOCK_BYTES = st.sampled_from([1, 100, cpa.BLOCK_BYTES])
# threads that run the blocks (helpers run only with a BLAS thread control)
WORKERS = st.sampled_from([1, 2])


def _blocks(block_bytes, workers):
    return mock.patch.multiple(cpa, BLOCK_BYTES=block_bytes, _workers=lambda: workers)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), BLOCK_BYTES, WORKERS, st.data())
def test_precision_recall_matches_full_matrix_oracle(dim, block_bytes, workers, data):
    real, fake = _family(data, 2, 40, dim)
    k_nn = data.draw(st.integers(1, min(len(real), len(fake)) - 1))
    with _blocks(block_bytes, workers):
        got = precision_recall(SampleSet(real), SampleSet(fake), k_nn)
        radii = SampleSet(fake).manifold(k_nn)[2]
    assert got == _oracle_precision_recall(real, fake, k_nn)
    assert np.array_equal(radii, _oracle_manifold(fake, k_nn)[1])


def test_precision_recall_single_distinct_point():
    real = np.ones((5, 2))
    fake = np.vstack([np.ones((3, 2)), np.zeros((4, 2))])
    expected = _oracle_precision_recall(real, fake, 2)
    assert precision_recall(SampleSet(real), SampleSet(fake), 2) == expected
    assert expected == (3 / 7, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 64), BLOCK_BYTES, WORKERS, st.data())
def test_cached_reference_matches_fresh_sets(dim, block_bytes, workers, data):
    real, fake = _family(data, 2, 30, dim)
    ks = list(range(1, min(len(real), len(fake))))
    reference = SampleSet(real)
    for k_nn in data.draw(st.permutations(ks + ks)):
        with _blocks(block_bytes, workers):
            cached = precision_recall(reference, SampleSet(fake), k_nn)
        assert cached == precision_recall(SampleSet(real), SampleSet(fake), k_nn)
        assert cached == _oracle_precision_recall(real, fake, k_nn)


def test_sample_set_points_are_a_read_only_copy():
    pts = np.zeros((3, 2))
    s = SampleSet(pts)
    assert pts.flags.writeable
    with pytest.raises(ValueError):
        s.points[0, 0] = 1.0


# precision_recall measures each pair once, fake against real, and scores
# both directions from it; the oracle measures recall real against fake.
# They agree only because cdist is exactly symmetric, and a row of cdist
# does not depend on the other rows passed with it.
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 100), st.integers(0, 2**32 - 1))
def test_scipy_cdist_transpose_and_row_blocks_are_exact(n_a, n_b, dim, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n_a, dim)), rng.standard_normal((n_b, dim))
    d = cdist(a, b)
    assert np.array_equal(d, cdist(b, a).T)
    assert np.array_equal(d[n_a // 2:], cdist(a[n_a // 2:], b))


# A pair is pruned only if its squared sum s is above _prune_level(r), so
# even the nearest such s must root to above r, at every magnitude of r.
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_prune_level_proves_distance_above_radius(seed):
    rng = np.random.default_rng(seed)
    r = np.append(np.ldexp(rng.uniform(1, 2, 10_000), rng.integers(-1074, 1023, 10_000)), 0.0)
    with np.errstate(over="ignore"):
        s = np.nextafter(metrics._prune_level(r), np.inf)
    assert np.all(np.sqrt(s) > r)


# Every distance the metrics compare comes from _pair_distances, so CLI
# outputs stay byte-identical only while it rounds exactly like cdist.
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 100), st.integers(1, 8), st.integers(1, 8),
       st.floats(-324, 160), st.booleans(), st.integers(0, 2**32 - 1))
def test_pair_distances_round_like_cdist(dim, n_a, n_b, log_scale, ties, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_a, dim)) * 10.0**log_scale
    b = rng.standard_normal((n_b, dim)) * 10.0**log_scale
    if ties:   # zero distances, and mirrored pairs at equal distances
        m = min(n_a, n_b)
        b[:m] = a[:m]
        b[m // 2:m] = -a[m // 2:m]
    i, j = (ix.ravel() for ix in np.indices((n_a, n_b)))
    with np.errstate(over="ignore"):
        got = metrics._pair_distances(a[i], b[j]).reshape(n_a, n_b)
    assert np.array_equal(got, cdist(a, b))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), BLOCK_BYTES, WORKERS, st.data())
def test_nn_distances_matches_full_sort(dim, block_bytes, workers, data):
    gen, train = _family(data, 1, 30, dim)
    d = np.sort(cdist(gen, train), axis=1)
    for j in range(1, len(train) + 1):
        with _blocks(block_bytes, workers):
            got = nn_distances(SampleSet(gen), SampleSet(train), j)
        assert np.array_equal(got, d[:, :j].mean(axis=1))


def test_importing_the_package_leaves_scipy_spatial_unloaded():
    # cdist is only the tests' oracle; importing scipy.spatial costs start-up
    # time and memory on every CLI run
    src = os.path.dirname(os.path.dirname(polarity_sampling.__file__))
    code = "import sys, polarity_sampling; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_nn_distances_subset_is_zero():
    train = np.random.default_rng(7).standard_normal((50, 2))
    d = nn_distances(SampleSet(train[:10]), SampleSet(train), j=1)
    assert np.all(d == 0.0)


def test_nn_distances_hand_value():
    d = nn_distances(SampleSet(np.array([[0.5]])),
                     SampleSet(np.array([[0.0], [1.0]])), j=2)
    assert d[0] == pytest.approx(0.5)


def test_nn_distances_mean_nondecreasing_in_j():
    rng = np.random.default_rng(8)
    gen = SampleSet(rng.standard_normal((40, 3)))
    train = SampleSet(rng.standard_normal((100, 3)))
    means = [nn_distances(gen, train, j).mean() for j in (1, 2, 3, 5)]
    assert all(b >= a for a, b in zip(means, means[1:]))


def test_nn_distances_permutation_invariant():
    rng = np.random.default_rng(9)
    gen = rng.standard_normal((20, 2))
    train = rng.standard_normal((30, 2))
    d1 = nn_distances(SampleSet(gen), SampleSet(train), j=3)
    perm = rng.permutation(30)
    d2 = nn_distances(SampleSet(gen), SampleSet(train[perm]), j=3)
    np.testing.assert_allclose(np.sort(d1), np.sort(d2))


def test_nn_distances_mode_polarity_shrinks_distances():
    # generator whose small-sigma region images the training cluster
    net = zoo.bimodal_generator()
    pool = build_pool(net, zoo.bimodal_domain(), 5000, 1, seed=0)
    train = SampleSet(zoo.bimodal_reference(1000, 0).sample())
    means = {}
    for rho in (0.0, -5.0):
        zs = PolaritySampler(pool, rho).draw(2000, seed=1)
        from polarity_sampling import forward

        gen = SampleSet(np.atleast_2d(forward(net, zs)))
        means[rho] = nn_distances(gen, train, j=3).mean()
    assert means[-5.0] < means[0.0]


class DomainSampler:
    """A LatentDomain behind the draw(n, seed) surface of the samplers."""

    def __init__(self, domain):
        self.domain = domain

    def draw(self, n, seed):
        return self.domain.sample(n, np.random.default_rng(seed))


def test_path_length_identity_net_exact():
    net = identity_net(1)
    dom = LatentDomain("uniform_box", lo=[-1.0], hi=[1.0])
    sampler = DomainSampler(dom)
    scores = path_length(net, sampler, 1e-4, 200, seed=0)
    # recompute endpoints with the same seeds to get the exact oracle
    seq = np.random.SeedSequence(0).spawn(3)
    e1 = sampler.draw(200, seq[0])
    e2 = sampler.draw(200, seq[1])
    np.testing.assert_allclose(scores, (e2[:, 0] - e1[:, 0]) ** 2, rtol=1e-9)


def test_path_length_linear_net():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((3, 2))
    net = CpaNetwork("lin", (Layer(A, np.zeros(3)),))
    dom = LatentDomain("uniform_box", lo=[-1, -1], hi=[1, 1])
    scores = path_length(net, DomainSampler(dom), 1e-4, 300, seed=1)
    seq = np.random.SeedSequence(1).spawn(3)
    e1 = DomainSampler(dom).draw(300, seq[0])
    e2 = DomainSampler(dom).draw(300, seq[1])
    expected = np.sum((e2 - e1) @ A.T * ((e2 - e1) @ A.T), axis=1)
    np.testing.assert_allclose(scores, expected, rtol=1e-6)


def test_path_length_epsilon_independent_on_linear_net():
    net = CpaNetwork("lin", (Layer(np.array([[2.0]]), np.zeros(1)),))
    dom = LatentDomain("uniform_box", lo=[-1.0], hi=[1.0])
    means = [
        path_length(net, DomainSampler(dom), eps, 500, seed=2).mean()
        for eps in (1e-2, 1e-4, 1e-6)
    ]
    assert max(means) - min(means) <= 1e-6 * max(means)


def test_path_length_mode_vs_antimode():
    net = zoo.two_piece_net()
    pool = build_pool(net, zoo.two_piece_domain(), 5000, 1, seed=3)
    low = path_length(net, PolaritySampler(pool, -20.0), 1e-4, 2000, seed=4).mean()
    high = path_length(net, PolaritySampler(pool, 20.0), 1e-4, 2000, seed=4).mean()
    # squared-slope ratio is 16; boundary crossings blur it slightly
    assert low * 10 < high


def test_path_length_argument_errors():
    net = identity_net(1)
    dom = LatentDomain("uniform_box", lo=[-1.0], hi=[1.0])
    with pytest.raises(InputError):
        path_length(net, DomainSampler(dom), -1.0, 10, seed=0)
    with pytest.raises(InputError):
        path_length(net, DomainSampler(dom), 1e-4, 0, seed=0)


# a step whose square overflows, one so small that its square underflows to
# zero, and one that moves the shifted latents past the float range
@pytest.mark.parametrize("epsilon, what", [(1e200, "the path-length scores"),
                                           (1e-200, "the path-length scores"),
                                           (1e308, "the latents")])
def test_path_length_at_extreme_epsilon_raises_floating_point_error(epsilon, what):
    net = CpaNetwork("lin", (Layer(np.array([[2.0]]), np.zeros(1)),))
    dom = LatentDomain("uniform_box", lo=[-10.0], hi=[10.0])
    with pytest.raises(FloatingPointError, match=what):
        path_length(net, DomainSampler(dom), epsilon, 10, seed=0)


def test_sample_set_validation():
    with pytest.raises(InputError):
        SampleSet(np.empty((0, 2)))
    with pytest.raises(InputError):
        SampleSet(np.array([[np.inf, 0.0]]))


def test_overflowing_points_raise_floating_point_error():
    far = SampleSet(np.array([[1e200, 0.0], [-1e200, 0.0], [3e200, 1.0]]))
    near = SampleSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(FloatingPointError, match="covariance"):
        frechet_distance(near, far)
    # finite covariances, but the mean gap squared overflows
    apart = SampleSet(np.array([[2e154, 0.0], [2e154, 1.0], [2e154, 2.0]]))
    with pytest.raises(FloatingPointError, match="Frechet"):
        frechet_distance(near, apart)


def test_nn_summary_refuses_non_finite_values():
    # an inf; no 20 bins between equal 1e20s; a mean that overflows
    for distances in ([1.0, np.inf], [1e20, 1e20], [0.0, 1.7e308, 1.7e308]):
        with pytest.raises(FloatingPointError, match="nearest-neighbour"):
            metrics.nn_summary(np.array(distances))
    assert metrics.nn_summary(np.array([1.0, 3.0]))["mean"] == 2.0
