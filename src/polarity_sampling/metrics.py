"""Distributional metrics: Fréchet distance, k-NN precision/recall,
nearest-neighbor distances, and interpolation path length."""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from . import cpa
from .errors import InputError


@dataclass(frozen=True)
class SampleSet:
    """A read-only (N, D) point set; its k-NN manifolds are cached per k."""

    points: np.ndarray
    _manifolds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InputError("sample set must be a nonempty 2-D array")
        if not np.all(np.isfinite(pts)):
            raise InputError("sample set contains non-finite entries")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def manifold(self, k):
        """k-NN manifold estimate: distinct points, their counts, and radii.

        Each distinct point's radius is the distance to its k-th nearest
        other distinct point (duplicates are self-matches), so replicating
        samples leaves the manifold unchanged.
        """
        if k not in self._manifolds:
            support, counts = np.unique(self.points, axis=0, return_counts=True)
            kk = min(k, support.shape[0] - 1)
            radii = np.zeros(support.shape[0])
            if kk >= 1:
                for rows in cpa.row_blocks(support.shape[0], 8 * support.shape[0]):
                    d = cdist(support[rows], support)
                    np.fill_diagonal(d[:, rows], np.inf)
                    d.partition(kk - 1, axis=1)
                    radii[rows] = d[:, kk - 1]
            for a in (support, counts, radii):
                a.flags.writeable = False
            self._manifolds[k] = support, counts, radii
        return self._manifolds[k]


def _mean_cov(points, reg=1e-10):
    mu = points.mean(axis=0)
    if points.shape[0] <= points.shape[1]:
        # too few points for a full-rank covariance; regularize instead of failing
        cov = np.cov(points, rowvar=False).reshape(points.shape[1], points.shape[1])
        cov = cov + reg * np.eye(points.shape[1])
    else:
        cov = np.atleast_2d(np.cov(points, rowvar=False))
    return mu, cov


def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a, b):
    """2-Wasserstein distance between Gaussians fitted to the two sets.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)); the matrix square
    root is taken on the symmetrized product S_a^(1/2) S_b S_a^(1/2), with
    round-off negatives clamped at zero.
    """
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")
    mu_a, cov_a = _mean_cov(a.points)
    mu_b, cov_b = _mean_cov(b.points)
    sa = _psd_sqrt(cov_a)
    inner = sa @ cov_b @ sa
    vals = np.clip(np.linalg.eigvalsh((inner + inner.T) / 2.0), 0.0, None)
    cross = 2.0 * np.sum(np.sqrt(vals))
    d = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b) - cross)
    return max(d, 0.0)


def precision_recall(real, fake, k_nn=3):
    """k-NN manifold precision/recall (Kynkäänniemi-style).

    Precision: fraction of fake points inside the real manifold estimate;
    recall: fraction of real points inside the fake manifold estimate.  One
    distance matrix between the two sets' distinct points serves both
    directions, and each point counts with its multiplicity.
    """
    if real.dim != fake.dim:
        raise InputError(f"dimension mismatch: {real.dim} vs {fake.dim}")
    if k_nn < 1:
        raise InputError(f"k_nn must be at least 1, got {k_nn}")
    if k_nn >= min(len(real), len(fake)):
        raise InputError(f"k_nn={k_nn} must be smaller than both set sizes")
    real_support, real_counts, real_radii = real.manifold(k_nn)
    fake_support, fake_counts, fake_radii = fake.manifold(k_nn)
    fake_covered = np.zeros(fake_support.shape[0], dtype=bool)
    real_covered = np.zeros(real_support.shape[0], dtype=bool)
    for rows in cpa.row_blocks(fake_support.shape[0], 8 * real_support.shape[0]):
        d = cdist(fake_support[rows], real_support)
        fake_covered[rows] = np.any(d <= real_radii[None, :], axis=1)
        real_covered |= np.any(d <= fake_radii[rows, None], axis=0)
    precision = fake_counts[fake_covered].sum() / len(fake)
    recall = real_counts[real_covered].sum() / len(real)
    return float(precision), float(recall)


def nn_distances(generated, training, j=3):
    """Per generated point, mean Euclidean distance to its j nearest training points."""
    if generated.dim != training.dim:
        raise InputError(f"dimension mismatch: {generated.dim} vs {training.dim}")
    if j < 1:
        raise InputError(f"j must be at least 1, got {j}")
    if j > len(training):
        raise InputError(f"j={j} exceeds training set size {len(training)}")
    nearest = np.empty((len(generated), j))
    for rows in cpa.row_blocks(len(generated), 8 * len(training)):
        d = cdist(generated.points[rows], training.points)
        nearest[rows] = np.partition(d, j - 1, axis=1)[:, :j]
    return np.sort(nearest, axis=1).mean(axis=1)


def path_length(net, sampler, epsilon, n_pairs, seed, feature_net=None):
    """Per-pair squared feature displacement per unit interpolation step.

    Endpoint pairs come from ``sampler.draw``; for each pair and t ~ U[0,1]
    the score is ||F(G(lerp(t))) - F(G(lerp(t+eps)))||^2 / eps^2.  Returns
    the (n_pairs,) score array.
    """
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if n_pairs < 1:
        raise InputError("need at least one pair")
    seq = np.random.SeedSequence(seed).spawn(3)
    e1 = sampler.draw(n_pairs, seq[0])
    e2 = sampler.draw(n_pairs, seq[1])
    t = np.random.default_rng(seq[2]).uniform(size=(n_pairs, 1))
    p0 = e1 + t * (e2 - e1)
    p1 = e1 + (t + epsilon) * (e2 - e1)
    x0 = cpa.forward(net, p0)
    x1 = cpa.forward(net, p1)
    if feature_net is not None:
        x0 = cpa.forward(feature_net, x0)
        x1 = cpa.forward(feature_net, x1)
    return np.sum((np.atleast_2d(x1) - np.atleast_2d(x0)) ** 2, axis=1) / epsilon**2


def nn_summary(distances):
    hist, edges = np.histogram(distances, bins=20)
    return {
        "mean": float(np.mean(distances)),
        "median": float(np.median(distances)),
        "histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in hist],
        },
    }
