"""Singular-value machinery for per-region slope matrices.

The per-candidate score of the batch sampler is the log-volume
``sum_i log(sigma_i + eps)`` over the top-k singular values of the region's
slope matrix; everything here feeds that computation.
"""

import numpy as np

from .errors import InputError

DEFAULT_EPS = 1e-12
# relative cutoff below which singular values count as zero in pseudo-determinants
RANK_RTOL = 1e-10


def batch_top_k_singular_values(As, k):
    """Top-k spectra for a stack of matrices (n, D, K) -> (n, k)."""
    As = np.asarray(As, dtype=np.float64)
    if As.ndim != 3:
        raise InputError(f"expected a stack of matrices, got shape {As.shape}")
    if not (1 <= k <= min(As.shape[1:])):
        raise InputError(f"k={k} outside [1, min{As.shape[1:]}]")
    return np.linalg.svd(As, compute_uv=False)[:, :k]


def pseudo_log_det_sqrt(sigma, rtol=RANK_RTOL):
    """log of the product of nonzero singular values (pseudo-det to the 1/2).

    Values below ``rtol * sigma_max`` are treated as exact zeros and skipped.
    Returns 0.0 for the all-zero matrix (empty product).
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size == 0 or sigma.max() == 0.0:
        return 0.0
    keep = sigma > rtol * sigma.max()
    return float(np.sum(np.log(sigma[keep])))
