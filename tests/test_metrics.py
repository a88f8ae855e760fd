import numpy as np
import pytest

from polarity_sampling import (
    CpaNetwork, InputError, LatentDomain, Layer,
    PolaritySampler, SampleSet, build_pool, frechet_distance, identity_net,
    nn_distances, path_length, precision_recall,
)
from polarity_sampling import zoo


def test_frechet_identical_sets_zero():
    pts = np.random.default_rng(0).standard_normal((100, 3))
    a, b = SampleSet(pts, "a"), SampleSet(pts.copy(), "b")
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
