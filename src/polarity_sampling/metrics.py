"""Distributional metrics: Fréchet distance, k-NN precision/recall,
nearest-neighbor distances, and interpolation path length."""

from dataclasses import dataclass, field

import numpy as np

from . import cpa
from .errors import InputError, finite_array

_COV_REG = 1e-10   # ridge on the covariance of a set of at most D points
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny            # smallest normal number, 2**-1022
_SAFE = np.finfo(np.float64).max / 8         # no Gram term can overflow below this


def _pair_distances(a, b):
    """Euclidean distance between row i of ``a`` and row i of ``b``.

    The squared differences are summed in coordinate order and then rooted
    once: bit for bit the rounding of scipy's ``cdist``, on which every
    distance the metrics compare (and so every CLI output) rests.
    """
    diff = a - b
    acc = np.square(diff[:, 0])
    for col in diff.T[1:]:
        acc += np.square(col)
    return np.sqrt(acc)


def _prune_level(r):
    """Squared-distance levels such that ``s > _prune_level(r)`` proves
    ``sqrt(s)`` rounds above ``r``.

    Rounding ``sqrt(s)`` to ``r`` or below needs ``s <= r^2 (1 + eps/2)^2``;
    ``fl(r*r) * (1 + 4 eps)`` is above that.  Where ``r*r`` is subnormal,
    the next float above it already roots above ``r``; where it overflows,
    the level is inf, which prunes nothing.
    """
    return r * r * (1 + 4 * _EPS)


class _Gram:
    """Lower bounds on the squared distances from rows of ``a`` to every row
    of ``b``, one GEMM per row block.

    Both sets are centred on ``b``'s mean: x = a - m, y = b - m, rounded.
    With u = eps/2, D coordinates and R = ||x|| + max ||y||, the Gram
    estimate g = ||x||^2 + ||y||^2 - 2 x.y (any summation order) is within
    (D + 2) u R^2 of ||x - y||^2; the rounding of the centring moves that
    by at most 2 u R^2 from ||a - b||^2; and the squared sum s that
    ``_pair_distances`` roots is within (D + 2) u ||a - b||^2 of it.  So
    |g - s| <= (D + 3) eps R^2; ``slack`` is four times that, which also
    covers the rounding of R and of the bound's own arithmetic.  Underflow
    adds at most 2**-1075 per product, under 4 D products per pair, hence
    the smallest normal number on top.  A row whose R^2 nears overflow
    gets an infinite slack, so its bounds are -inf or NaN and prune nothing.
    """

    def __init__(self, a, b):
        mean = b.mean(axis=0)
        x, y = a - mean, b - mean
        x_sq, y_sq = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
        r_sq = (np.sqrt(x_sq) + np.sqrt(y_sq.max())) ** 2
        self.slack = np.where(
            r_sq < _SAFE, 4 * (a.shape[1] + 4) * _EPS * r_sq + _TINY, np.inf
        )
        x *= -2.0            # the GEMM then yields -2 x.y; scaling by 2 is exact
        self._x = x
        self._y = y
        self._y_sq = y_sq
        self._x_sq_lo = x_sq - self.slack

    def lower(self, rows):
        """(rows, len(b)) lower bounds on the squared distances."""
        lo = self._x[rows] @ self._y.T
        lo += self._y_sq
        lo += self._x_sq_lo[rows, None]
        return lo


@np.errstate(over="ignore", invalid="ignore")
def _k_nearest(a, b, k, self_match):
    """Each row of ``a``: its ``k`` nearest exact distances to ``b``, ascending.

    With ``self_match`` (``a`` is ``b``) row i skips column i.  Only pairs
    whose Gram lower bound is not above the row's k-th smallest upper bound
    are measured exactly; every pruned pair is strictly farther than the
    k-th nearest, so ties are kept.
    """
    gram = _Gram(a, b)
    nearest = np.empty((a.shape[0], k))

    def block(rows):
        lo = gram.lower(rows)
        n_rows = lo.shape[0]
        diag = (np.arange(n_rows), rows.start + np.arange(n_rows))
        if self_match:
            lo[diag] = np.inf
        # k-th smallest upper bound: adding a per-row constant keeps the order
        thr = np.partition(lo, k - 1, axis=1)[:, k - 1] + 2 * gram.slack[rows]
        keep = ~(lo > thr[:, None])
        if self_match:
            keep[diag] = False
        i, j = np.divmod(np.flatnonzero(keep), b.shape[0])
        d = _pair_distances(a[rows.start + i], b[j])
        first = np.searchsorted(i, np.arange(n_rows))
        nearest[rows] = d[np.lexsort((d, i))][first[:, None] + np.arange(k)]

    cpa.map_blocks(block, a.shape[0], 8 * b.shape[0])
    return nearest


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
                radii = _k_nearest(support, support, kk, self_match=True)[:, -1]
            for a in (support, counts, radii):
                a.flags.writeable = False
            self._manifolds[k] = support, counts, radii
        return self._manifolds[k]


def _mean_cov(points):
    n, d = points.shape
    cov = np.cov(points, rowvar=False).reshape(d, d)
    if n <= d:
        # too few points for a full-rank covariance; regularize instead of failing
        cov = cov + _COV_REG * np.eye(d)
    return points.mean(axis=0), cov


def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


@np.errstate(over="ignore", invalid="ignore")
def frechet_distance(a, b):
    """2-Wasserstein distance between Gaussians fitted to the two sets.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)); the matrix square
    root is taken on the symmetrized product S_a^(1/2) S_b S_a^(1/2), with
    round-off negatives clamped at zero.  Points so far apart that a
    covariance or the distance overflows raise FloatingPointError; a set of
    fewer than 2 points, which has no covariance, raises InputError.
    """
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if min(len(a), len(b)) < 2:
        raise InputError(f"the Frechet distance needs at least 2 points per set, "
                         f"got {len(a)} and {len(b)}")
    mu_a, cov_a = _mean_cov(a.points)
    mu_b, cov_b = _mean_cov(b.points)
    for cov in (cov_a, cov_b):
        finite_array(cov, "a covariance of the point sets", FloatingPointError)
    sa = _psd_sqrt(cov_a)
    inner = sa @ cov_b @ sa
    finite_array(inner, "the covariance product", FloatingPointError)
    vals = np.clip(np.linalg.eigvalsh((inner + inner.T) / 2.0), 0.0, None)
    cross = 2.0 * np.sum(np.sqrt(vals))
    d = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b) - cross)
    finite_array(d, "the Frechet distance", FloatingPointError)
    return max(d, 0.0)


@np.errstate(over="ignore", invalid="ignore")
def precision_recall(real, fake, k_nn=3):
    """k-NN manifold precision/recall (Kynkäänniemi-style).

    Precision: fraction of fake points inside the real manifold estimate;
    recall: fraction of real points inside the fake manifold estimate.  One
    cross pass between the two sets' distinct points serves both
    directions, and each point counts with its multiplicity.  A pair is
    measured exactly unless its Gram lower bound proves it outside both
    balls.
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
    gram = _Gram(fake_support, real_support)
    real_level, fake_level = _prune_level(real_radii), _prune_level(fake_radii)

    def block(rows):
        """The fake and the real points covered by a pair in this block."""
        lo = gram.lower(rows)
        # pruned: proved outside both balls (a NaN level or bound prunes nothing)
        far = lo > fake_level[rows, None]
        far &= lo > real_level
        i, j = np.divmod(np.flatnonzero(~far), real_support.shape[0])
        i += rows.start
        d = _pair_distances(fake_support[i], real_support[j])
        return i[d <= real_radii[j]], j[d <= fake_radii[i]]

    for fake_in, real_in in cpa.map_blocks(
            block, fake_support.shape[0], 8 * real_support.shape[0]):
        fake_covered[fake_in] = True
        real_covered[real_in] = True
    precision = fake_counts[fake_covered].sum() / len(fake)
    recall = real_counts[real_covered].sum() / len(real)
    return float(precision), float(recall)


@np.errstate(over="ignore", invalid="ignore")
def nn_distances(generated, training, j=3):
    """Per generated point, mean Euclidean distance to its j nearest training points."""
    if generated.dim != training.dim:
        raise InputError(f"dimension mismatch: {generated.dim} vs {training.dim}")
    if j < 1:
        raise InputError(f"j must be at least 1, got {j}")
    if j > len(training):
        raise InputError(f"j={j} exceeds training set size {len(training)}")
    return _k_nearest(generated.points, training.points, j, self_match=False).mean(axis=1)


def path_length(net, sampler, epsilon, n_pairs, seed, feature_net=None):
    """Per-pair squared feature displacement per unit interpolation step.

    Endpoint pairs come from ``sampler.draw``; for each pair and t ~ U[0,1]
    the score is ||F(G(lerp(t))) - F(G(lerp(t+eps)))||^2 / eps^2.  Returns
    the (n_pairs,) score array.  An ``epsilon`` so large that a shifted
    latent or a score overflows, or so small that its square underflows,
    raises FloatingPointError.
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
    what = f"path-length scores at epsilon={epsilon!r}"
    with np.errstate(all="ignore"):
        p1 = finite_array(e1 + (t + epsilon) * (e2 - e1), "the latents of " + what,
                          FloatingPointError)
        x0 = cpa.forward(net, p0)
        x1 = cpa.forward(net, p1)
        if feature_net is not None:
            x0 = cpa.forward(feature_net, x0)
            x1 = cpa.forward(feature_net, x1)
        scores = np.sum((x1 - x0) ** 2, axis=1) / np.float64(epsilon) ** 2
    return finite_array(scores, "the " + what, FloatingPointError)


@np.errstate(over="ignore", invalid="ignore")
def nn_summary(distances):
    """Mean, median and 20-bin histogram of nearest-neighbour distances;
    FloatingPointError if a distance, the mean or the median is not finite,
    or if the range is too narrow for 20 bins at its magnitude."""
    finite_array(distances, "nearest-neighbour distances", FloatingPointError)
    try:
        hist, edges = np.histogram(distances, bins=20)
    except ValueError as exc:
        raise FloatingPointError(f"nearest-neighbour histogram: {exc}") from exc
    mean, median = float(np.mean(distances)), float(np.median(distances))
    finite_array([mean, median], "the nearest-neighbour mean and median",
                 FloatingPointError)
    return {
        "mean": mean,
        "median": median,
        "histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in hist],
        },
    }
