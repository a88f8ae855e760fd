"""Distributional metrics: Fréchet distance, k-NN precision/recall,
nearest-neighbor distances, and interpolation path length."""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from . import cpa
from .errors import InputError


@dataclass(frozen=True)
class SampleSet:
    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InputError("sample set must be a nonempty 2-D array")
        if not np.all(np.isfinite(pts)):
            raise InputError("sample set contains non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


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


def _manifold(points, k):
    """k-NN manifold estimate: support points and per-point ball radii.

    The estimate is built on deduplicated points (duplicates are
    self-matches), so replicating samples leaves the manifold unchanged.
    """
    support = np.unique(points, axis=0)
    d = cdist(support, support)
    np.fill_diagonal(d, np.inf)
    kk = min(k, support.shape[0] - 1)
    if kk < 1:
        return support, np.zeros(support.shape[0])
    return support, np.partition(d, kk - 1, axis=1)[:, kk - 1]


def _covered_fraction(queries, support, radii):
    """Fraction of query points within some support point's k-NN ball."""
    d = cdist(queries, support)
    return float(np.mean(np.any(d <= radii[None, :], axis=1)))


def precision_recall(real, fake, k_nn=3):
    """k-NN manifold precision/recall (Kynkäänniemi-style).

    Precision: fraction of fake points inside the real manifold estimate;
    recall: fraction of real points inside the fake manifold estimate.
    """
    if real.dim != fake.dim:
        raise InputError(f"dimension mismatch: {real.dim} vs {fake.dim}")
    if k_nn >= min(len(real), len(fake)):
        raise InputError(f"k_nn={k_nn} must be smaller than both set sizes")
    precision = _covered_fraction(fake.points, *_manifold(real.points, k_nn))
    recall = _covered_fraction(real.points, *_manifold(fake.points, k_nn))
    return precision, recall


def nn_distances(generated, training, j=3):
    """Per generated point, mean Euclidean distance to its j nearest training points."""
    if generated.dim != training.dim:
        raise InputError(f"dimension mismatch: {generated.dim} vs {training.dim}")
    if j > len(training):
        raise InputError(f"j={j} exceeds training set size {len(training)}")
    d = np.sort(cdist(generated.points, training.points), axis=1)
    return d[:, :j].mean(axis=1)


@dataclass(frozen=True)
class PathLengthResult:
    scores: np.ndarray
    mean: float
    quantiles: dict


def path_length(net, sampler, epsilon, n_pairs, seed, feature_net=None):
    """Squared feature displacement per unit interpolation step.

    Endpoint pairs come from ``sampler.draw``; for each pair and t ~ U[0,1]
    the score is ||F(G(lerp(t))) - F(G(lerp(t+eps)))||^2 / eps^2.
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
    scores = np.sum((np.atleast_2d(x1) - np.atleast_2d(x0)) ** 2, axis=1) / epsilon**2
    qs = {q: float(np.quantile(scores, q)) for q in (0.1, 0.5, 0.9)}
    return PathLengthResult(scores=scores, mean=float(scores.mean()), quantiles=qs)


class DomainSampler:
    """Adapter giving a LatentDomain the same draw(n, seed) surface as samplers."""

    def __init__(self, domain):
        self.domain = domain

    def draw(self, n, seed):
        return self.domain.sample(n, np.random.default_rng(seed))


@dataclass(frozen=True)
class MetricReport:
    frechet: float
    precision: float
    recall: float
    nn_summary: dict = None
    ppl: dict = None
    config: dict = field(default_factory=dict)

    def to_json(self, path=None):
        doc = {
            "frechet": self.frechet,
            "precision": self.precision,
            "recall": self.recall,
            "nn_summary": self.nn_summary,
            "ppl": self.ppl,
            "config": self.config,
        }
        text = json.dumps(doc, indent=1)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def nn_summary(distances, bins=20):
    hist, edges = np.histogram(distances, bins=bins)
    return {
        "mean": float(np.mean(distances)),
        "median": float(np.median(distances)),
        "histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in hist],
        },
    }
