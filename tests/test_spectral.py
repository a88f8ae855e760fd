import numpy as np
import pytest

from polarity_sampling import (
    CpaNetwork, InputError, Layer, identity_net, region_log_volumes,
)
from polarity_sampling.spectral import batch_top_k_singular_values


def top_k(A, k):
    return batch_top_k_singular_values(np.asarray(A)[None], k)[0]


def linear_net(weight):
    weight = np.asarray(weight, dtype=np.float64)
    return CpaNetwork("linear", (Layer(weight, np.zeros(weight.shape[0])),))


def test_identity_top_two():
    np.testing.assert_allclose(top_k(np.eye(3), 2), [1.0, 1.0])


def test_embedded_diagonal():
    A = np.zeros((4, 2))
    A[0, 0], A[1, 1] = 3.0, 2.0
    np.testing.assert_allclose(top_k(A, 2), [3.0, 2.0])


def test_product_matches_gram_determinant():
    # oracle: det(A^T A) computed directly
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 3))
    sigma = top_k(A, 3)
    np.testing.assert_allclose(
        np.prod(sigma), np.sqrt(np.linalg.det(A.T @ A)), rtol=1e-9
    )


def test_k_out_of_range():
    with pytest.raises(InputError):
        top_k(np.eye(3), 4)
    with pytest.raises(InputError):
        top_k(np.eye(3), 0)


def test_log_volume_ones_is_zero():
    lv, _ = region_log_volumes(identity_net(3), np.zeros((4, 3)), 3)
    assert np.all(np.abs(lv) < 4e-12)


def test_log_volume_exp_values():
    lv, _ = region_log_volumes(linear_net(np.e * np.eye(2)), np.zeros((1, 2)), 2)
    assert abs(lv[0] - 2.0) < 1e-9


def test_log_volume_product():
    lv, _ = region_log_volumes(linear_net(np.diag([2.0, 8.0])), np.ones((1, 2)), 2)
    np.testing.assert_allclose(np.exp(lv[0]), 16.0, rtol=1e-9)


def test_full_spectrum_product_identity():
    # exp(2 sum log sigma) == det(A^T A) for full-rank A
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = rng.standard_normal((6, 4))
        sigma = np.linalg.svd(A, compute_uv=False)
        lhs = np.exp(2.0 * np.sum(np.log(sigma)))
        np.testing.assert_allclose(lhs, np.linalg.det(A.T @ A), rtol=1e-8)


def test_orthogonal_invariance():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 4))
    Q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((5, 5)))
    np.testing.assert_allclose(
        top_k(Q @ A, 4), top_k(A, 4), rtol=1e-9, atol=1e-9,
    )


def test_scaling_equivariance():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        top_k(2.5 * A, 3), 2.5 * top_k(A, 3), rtol=1e-12,
    )
