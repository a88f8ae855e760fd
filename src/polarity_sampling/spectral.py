"""Singular-value machinery for per-region slope matrices.

The per-candidate score of the batch sampler is the log-volume
``sum_i log(sigma_i + eps)`` over the top-k singular values of the region's
slope matrix; everything here feeds that computation, including the
semi-orthogonal sketch used to shrink tall slope matrices before the SVD.
"""

import numpy as np

from .errors import InputError

DEFAULT_EPS = 1e-12
# relative cutoff below which singular values count as zero in pseudo-determinants
RANK_RTOL = 1e-10


def top_k_singular_values(A, k):
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise InputError(f"expected a matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError("matrix contains non-finite entries")
    if not (1 <= k <= min(A.shape)):
        raise InputError(f"k={k} outside [1, min{A.shape}]")
    return np.linalg.svd(A, compute_uv=False)[:k]


def batch_top_k_singular_values(As, k):
    """Top-k spectra for a stack of matrices (n, D, K) -> (n, k)."""
    As = np.asarray(As, dtype=np.float64)
    if As.ndim != 3:
        raise InputError(f"expected a stack of matrices, got shape {As.shape}")
    if not (1 <= k <= min(As.shape[1:])):
        raise InputError(f"k={k} outside [1, min{As.shape[1:]}]")
    return np.linalg.svd(As, compute_uv=False)[:, :k]


def log_volume(spectrum, eps=DEFAULT_EPS):
    """``sum_i log(sigma_i + eps)``; eps > 0 guards exactly-zero values."""
    if eps <= 0:
        raise InputError("eps must be positive")
    return float(np.sum(np.log(np.asarray(spectrum) + eps)))


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


def random_semi_orthogonal(rows, cols, seed):
    """Seeded random W (rows x cols) with orthonormal rows: W W^T = I.

    Rows of a standard-Gaussian draw are orthonormalized via QR; with
    probability one the draw has full row rank, so the result is exactly
    semi-orthogonal up to round-off.
    """
    if rows > cols:
        raise InputError(f"need rows <= cols, got {rows} > {cols}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((cols, rows))
    q, r = np.linalg.qr(g)
    # fix the sign convention so the output is a deterministic function of seed
    q = q * np.sign(np.diag(r))[None, :]
    return q.T


def sketch_spectrum(A, W, k):
    """Top-k singular values of the sketched slope matrix W A."""
    A = np.asarray(A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or A.ndim != 2 or W.shape[1] != A.shape[0]:
        raise InputError(
            f"sketch shape mismatch: W is {W.shape}, A is {A.shape}"
        )
    return top_k_singular_values(W @ A, k)
