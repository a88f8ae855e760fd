"""Batched top-k singular values of per-region slope matrices.

The per-candidate score of the batch sampler is the log-volume
``sum_i log(sigma_i + eps)`` over these values.  At k = K,
``polarity.region_log_volumes`` scores most slopes by their QR diagonal
instead and calls this only on rows near rank deficiency.
"""

import numpy as np

from .errors import InputError


def batch_top_k_singular_values(As, k):
    """Top-k spectra for a stack of matrices (n, D, K) -> (n, k)."""
    As = np.asarray(As, dtype=np.float64)
    if As.ndim != 3:
        raise InputError(f"expected a stack of matrices, got shape {As.shape}")
    if not (1 <= k <= min(As.shape[1:])):
        raise InputError(f"k={k} outside [1, min{As.shape[1:]}]")
    return np.linalg.svd(As, compute_uv=False)[:, :k]
