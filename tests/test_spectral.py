import numpy as np
import pytest

from polarity_sampling import (
    InputError, log_volume, pseudo_log_det_sqrt, random_semi_orthogonal,
    sketch_spectrum, top_k_singular_values,
)


def test_identity_top_two():
    np.testing.assert_allclose(top_k_singular_values(np.eye(3), 2), [1.0, 1.0])


def test_embedded_diagonal():
    A = np.zeros((4, 2))
    A[0, 0], A[1, 1] = 3.0, 2.0
    np.testing.assert_allclose(top_k_singular_values(A, 2), [3.0, 2.0])


def test_product_matches_gram_determinant():
    # oracle: det(A^T A) computed directly
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 3))
    sigma = top_k_singular_values(A, 3)
    np.testing.assert_allclose(
        np.prod(sigma), np.sqrt(np.linalg.det(A.T @ A)), rtol=1e-9
    )


def test_k_out_of_range():
    with pytest.raises(InputError):
        top_k_singular_values(np.eye(3), 4)
    with pytest.raises(InputError):
        top_k_singular_values(np.full((2, 2), np.inf), 1)


def test_log_volume_ones_is_zero():
    spec = top_k_singular_values(np.eye(3), 3)
    assert abs(log_volume(spec, eps=1e-12)) < 4e-12


def test_log_volume_exp_values():
    spec = top_k_singular_values(np.e * np.eye(2), 2)
    assert abs(log_volume(spec, eps=1e-12) - 2.0) < 1e-9


def test_log_volume_product():
    A = np.diag([2.0, 8.0])
    lv = log_volume(top_k_singular_values(A, 2), eps=1e-12)
    np.testing.assert_allclose(np.exp(lv), 16.0, rtol=1e-9)


def test_log_volume_eps_positive():
    with pytest.raises(InputError):
        log_volume(top_k_singular_values(np.eye(2), 2), eps=0.0)


def test_full_spectrum_product_identity():
    # exp(2 sum log sigma) == det(A^T A) for full-rank A
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = rng.standard_normal((6, 4))
        sigma = np.linalg.svd(A, compute_uv=False)
        lhs = np.exp(2.0 * np.sum(np.log(sigma)))
        np.testing.assert_allclose(lhs, np.linalg.det(A.T @ A), rtol=1e-8)


def test_pseudo_log_det_skips_zeros():
    sigma = np.array([2.0, 1.0, 0.0])
    np.testing.assert_allclose(pseudo_log_det_sqrt(sigma), np.log(2.0))
    assert pseudo_log_det_sqrt(np.zeros(3)) == 0.0


def test_semi_orthogonal_square_case():
    W = random_semi_orthogonal(3, 3, seed=0)
    np.testing.assert_allclose(
        np.linalg.svd(W, compute_uv=False), np.ones(3), atol=1e-10
    )


def test_semi_orthogonal_definition():
    W = random_semi_orthogonal(2, 5, seed=1)
    assert np.linalg.norm(W @ W.T - np.eye(2)) <= 1e-10


def test_semi_orthogonal_deterministic():
    a = random_semi_orthogonal(3, 7, seed=42)
    b = random_semi_orthogonal(3, 7, seed=42)
    assert np.array_equal(a, b)


def test_semi_orthogonal_rejects_tall():
    with pytest.raises(InputError):
        random_semi_orthogonal(5, 2, seed=0)


def test_sketch_square_orthogonal_preserves_spectrum():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 3))
    W = random_semi_orthogonal(5, 5, seed=3)
    np.testing.assert_allclose(
        sketch_spectrum(A, W, 3),
        top_k_singular_values(A, 3),
        rtol=1e-9, atol=1e-12,
    )


def test_sketch_never_increases_singular_values():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rng.standard_normal((6, 3))
        W = random_semi_orthogonal(4, 6, seed=int(rng.integers(1 << 30)))
        full = top_k_singular_values(A, 3)
        sk = sketch_spectrum(A, W, 3)
        assert np.all(sk <= full + 1e-9)


def test_sketch_preserves_rank_one_inside_row_space():
    # A = u v^T with u inside the row space of W: sigma_1 survives the sketch
    rng = np.random.default_rng(5)
    W = random_semi_orthogonal(3, 8, seed=6)
    u = W.T @ np.eye(3)[:, 0]
    v = rng.standard_normal(4)
    A = np.outer(u, v)
    sigma1 = np.linalg.norm(u) * np.linalg.norm(v)
    np.testing.assert_allclose(sketch_spectrum(A, W, 1)[0], sigma1, rtol=1e-9)


def test_orthogonal_invariance():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 4))
    Q = random_semi_orthogonal(5, 5, seed=8)
    np.testing.assert_allclose(
        top_k_singular_values(Q @ A, 4),
        top_k_singular_values(A, 4),
        rtol=1e-9, atol=1e-9,
    )


def test_scaling_equivariance():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        top_k_singular_values(2.5 * A, 3),
        2.5 * top_k_singular_values(A, 3),
        rtol=1e-12,
    )


def test_sketch_shape_mismatch():
    with pytest.raises(InputError):
        sketch_spectrum(np.eye(3), random_semi_orthogonal(2, 4, seed=0), 1)
