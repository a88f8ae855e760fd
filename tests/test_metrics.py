from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from polarity_sampling import (
    CpaNetwork, InputError, LatentDomain, Layer,
    PolaritySampler, SampleSet, build_pool, frechet_distance, identity_net,
    nn_distances, path_length, precision_recall,
)
from polarity_sampling import cpa, zoo


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


def _grid(data, min_rows, max_rows, dim):
    """Points on a small integer grid (width 0 gives a single distinct
    point): repeated rows and exact distance ties."""
    width = data.draw(st.integers(0, 3))
    rows = data.draw(st.integers(min_rows, max_rows))
    return data.draw(arrays(np.int8, (rows, dim), elements=st.integers(0, width))).astype(float)


# block budgets of one row, a few rows, and the whole matrix at these sizes
BLOCK_BYTES = st.sampled_from([1, 100, cpa.BLOCK_BYTES])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), BLOCK_BYTES, st.data())
def test_precision_recall_matches_full_matrix_oracle(dim, block_bytes, data):
    real, fake = _grid(data, 2, 40, dim), _grid(data, 2, 40, dim)
    k_nn = data.draw(st.integers(1, min(len(real), len(fake)) - 1))
    with mock.patch.object(cpa, "BLOCK_BYTES", block_bytes):
        got = precision_recall(SampleSet(real), SampleSet(fake), k_nn)
    assert got == _oracle_precision_recall(real, fake, k_nn)


def test_precision_recall_single_distinct_point():
    real = np.ones((5, 2))
    fake = np.vstack([np.ones((3, 2)), np.zeros((4, 2))])
    expected = _oracle_precision_recall(real, fake, 2)
    assert precision_recall(SampleSet(real), SampleSet(fake), 2) == expected
    assert expected == (3 / 7, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), BLOCK_BYTES, st.data())
def test_cached_reference_matches_fresh_sets(dim, block_bytes, data):
    real, fake = _grid(data, 2, 30, dim), _grid(data, 2, 30, dim)
    ks = list(range(1, min(len(real), len(fake))))
    reference = SampleSet(real)
    for k_nn in data.draw(st.permutations(ks + ks)):
        with mock.patch.object(cpa, "BLOCK_BYTES", block_bytes):
            cached = precision_recall(reference, SampleSet(fake), k_nn)
        assert cached == precision_recall(SampleSet(real), SampleSet(fake), k_nn)
        assert cached == _oracle_precision_recall(real, fake, k_nn)


def test_sample_set_points_are_a_read_only_copy():
    pts = np.zeros((3, 2))
    s = SampleSet(pts)
    assert pts.flags.writeable
    with pytest.raises(ValueError):
        s.points[0, 0] = 1.0


# precision_recall reads recall off the same fake-by-real distances as
# precision, which rests on cdist being exactly symmetric, and builds each
# manifold from row blocks, which rests on a row not depending on its block.
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 100), st.integers(0, 2**32 - 1))
def test_scipy_cdist_transpose_and_row_blocks_are_exact(n_a, n_b, dim, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n_a, dim)), rng.standard_normal((n_b, dim))
    d = cdist(a, b)
    assert np.array_equal(d, cdist(b, a).T)
    assert np.array_equal(d[n_a // 2:], cdist(a[n_a // 2:], b))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), BLOCK_BYTES, st.data())
def test_nn_distances_matches_full_sort(dim, block_bytes, data):
    gen, train = _grid(data, 1, 30, dim), _grid(data, 1, 30, dim)
    d = np.sort(cdist(gen, train), axis=1)
    for j in range(1, len(train) + 1):
        with mock.patch.object(cpa, "BLOCK_BYTES", block_bytes):
            got = nn_distances(SampleSet(gen), SampleSet(train), j)
        assert np.array_equal(got, d[:, :j].mean(axis=1))


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


def test_sample_set_validation():
    with pytest.raises(InputError):
        SampleSet(np.empty((0, 2)))
    with pytest.raises(InputError):
        SampleSet(np.array([[np.inf, 0.0]]))
