import json

import numpy as np
import pytest

from polarity_sampling import (
    CpaNetwork, InputError, Layer, ValidationError,
    affine_maps, compose, fingerprint, forward, identity_net,
    load_model, region_codes, save_model,
)
from polarity_sampling import zoo


def linear_net(w, b=None, name="lin"):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    b = np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=float)
    return CpaNetwork(name=name, layers=(Layer(w, b),))


def test_forward_identity():
    net = identity_net(2)
    np.testing.assert_array_equal(forward(net, np.array([0.3, -0.2])), [0.3, -0.2])


def test_forward_two_piece_hand_value():
    net = zoo.two_piece_net()
    # z<0 branch has slope 2, z>=0 branch slope 1/2
    assert forward(net, np.array([-1.0]))[0] == -2.0
    assert forward(net, np.array([1.0]))[0] == 0.5
    assert forward(net, np.array([0.0]))[0] == 0.0


def test_forward_batch_matches_single():
    net = zoo.random_net(3)
    zs = np.random.default_rng(0).uniform(-1, 1, size=(20, net.input_dim))
    batch = forward(net, zs)
    for i in range(20):
        # batched and single-row BLAS paths may differ in the last bit
        np.testing.assert_allclose(batch[i], forward(net, zs[i]),
                                   rtol=1e-13, atol=1e-14)


def test_forward_input_errors():
    net = identity_net(2)
    with pytest.raises(InputError):
        forward(net, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InputError):
        forward(net, np.array([np.nan, 0.0]))


def test_cpa_exactness_forward_equals_affine_map():
    # random 2-layer relu net: forward(z) == A z + b with (A, b) from affine_maps
    rng = np.random.default_rng(11)
    net = CpaNetwork(
        name="r2",
        layers=(
            Layer(rng.standard_normal((6, 3)), rng.standard_normal(6), "relu"),
            Layer(rng.standard_normal((4, 6)), rng.standard_normal(4)),
        ),
    )
    for z in rng.uniform(-2, 2, size=(200, 3)):
        A, b, _ = affine_maps(net, z)
        np.testing.assert_allclose(
            forward(net, z), A[0] @ z + b[0], rtol=1e-12, atol=1e-12
        )


def test_region_code_identity_net_empty():
    assert region_codes(identity_net(3), np.array([1.0, 2.0, 3.0]))[0].size == 0


def test_region_code_single_relu_unit():
    net = CpaNetwork(name="one", layers=(Layer(np.array([[1.0]]), np.array([0.5]), "relu"),))
    assert region_codes(net, np.array([0.0]))[0].tolist() == [True]
    # ties at exactly zero resolve to the off branch
    assert region_codes(net, np.array([-0.5]))[0].tolist() == [False]


def test_nearby_points_share_code_and_map():
    net = zoo.random_net(5)
    rng = np.random.default_rng(1)
    found = 0
    for _ in range(50):
        z = rng.uniform(-1, 1, net.input_dim)
        z2 = z + 1e-9 * rng.standard_normal(net.input_dim)
        codes = region_codes(net, np.stack([z, z2]))
        if np.array_equal(codes[0], codes[1]):
            A, b, _ = affine_maps(net, z)
            for p in (z, z2):
                np.testing.assert_allclose(
                    forward(net, p), A[0] @ p + b[0], rtol=1e-12, atol=1e-12
                )
            found += 1
    assert found > 0


def test_affine_map_identity():
    A, b, _ = affine_maps(identity_net(2), np.array([0.7, -0.3]))
    np.testing.assert_array_equal(A[0], np.eye(2))
    np.testing.assert_array_equal(b[0], np.zeros(2))


def test_affine_map_two_piece_hand_values():
    A, b, _ = affine_maps(zoo.two_piece_net(), np.array([1.0]))
    np.testing.assert_allclose(A[0], [[0.5]])
    np.testing.assert_allclose(b[0], [0.0], atol=1e-15)
    A, b, _ = affine_maps(zoo.two_piece_net(), np.array([-1.0]))
    np.testing.assert_allclose(A[0], [[2.0]])


def finite_diff_jacobian(net, z, scale=1e-6):
    K = net.input_dim
    J = np.zeros((net.output_dim, K))
    for d in range(K):
        h = scale * (1.0 + abs(z[d]))
        zp, zm = z.copy(), z.copy()
        zp[d] += h
        zm[d] -= h
        J[:, d] = (forward(net, zp) - forward(net, zm)) / (2 * h)
    return J


@pytest.mark.parametrize("seed", range(4))
def test_affine_map_matches_finite_differences(seed):
    net = zoo.random_net(100 + seed)
    rng = np.random.default_rng(seed)
    for z in rng.uniform(-2, 2, size=(50, net.input_dim)):
        J = finite_diff_jacobian(net, z)
        A = affine_maps(net, z)[0][0]
        assert np.linalg.norm(A - J) <= 1e-6 * max(np.linalg.norm(J), 1.0)


@pytest.mark.parametrize("seed", [None, 13, 100, 101])
def test_affine_maps_bits_equal_region_codes(seed):
    net = identity_net(3) if seed is None else zoo.random_net(seed)
    zs = np.random.default_rng(0).uniform(-2, 2, size=(300, net.input_dim))
    _, _, bits = affine_maps(net, zs)
    assert bits.dtype == bool and bits.shape == (300, net.num_units)
    np.testing.assert_array_equal(bits, region_codes(net, zs))


def test_compose_with_identity_is_noop():
    net = zoo.random_net(7)
    comp = compose(net, identity_net(net.output_dim))
    zs = np.random.default_rng(2).uniform(-1, 1, size=(100, net.input_dim))
    np.testing.assert_array_equal(forward(comp, zs), forward(net, zs))


def test_compose_linear_chain_rule():
    w1 = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
    w2 = np.array([[1.0, -1.0, 0.5]])
    comp = compose(linear_net(w1), linear_net(w2))
    A, b, _ = affine_maps(comp, np.array([0.3, 0.4]))
    np.testing.assert_allclose(A[0], w2 @ w1)


def test_compose_one_d_pieces_hand_product():
    # pieces 2z then 3z on the positive orthant -> composed slope 6 at z=1
    f = CpaNetwork(name="f", layers=(Layer(np.array([[2.0]]), np.zeros(1), "relu"),))
    g = CpaNetwork(name="g", layers=(Layer(np.array([[3.0]]), np.zeros(1), "relu"),))
    A, b, _ = affine_maps(compose(f, g), np.array([1.0]))
    np.testing.assert_allclose(A[0], [[6.0]])


def test_compose_chain_rule_general():
    f = zoo.random_net(21, input_dim=3)
    g = zoo.random_net(22, input_dim=f.output_dim)
    comp = compose(f, g)
    rng = np.random.default_rng(5)
    checked = 0
    for z in rng.uniform(-1, 1, size=(50, 3)):
        # skip probes within 1e-9 of a boundary of either constituent
        if _near_boundary(f, z) or _near_boundary(g, forward(f, z)):
            continue
        lhs = affine_maps(comp, z)[0][0]
        rhs = affine_maps(g, forward(f, z))[0][0] @ affine_maps(f, z)[0][0]
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
        checked += 1
    assert checked > 10


def _near_boundary(net, z, tol=1e-9):
    h = np.atleast_2d(np.asarray(z, dtype=float))
    for layer in net.layers:
        pre = h @ layer.weight.T + layer.bias
        if layer.nonlinear and np.any(np.abs(pre) < tol):
            return True
        if layer.activation == "relu":
            h = np.maximum(pre, 0.0)
        elif layer.activation == "leaky_relu":
            h = np.where(pre > 0, pre, layer.alpha * pre)
        else:
            h = pre
    return False


def test_compose_dimension_mismatch():
    with pytest.raises(ValidationError):
        compose(identity_net(2), identity_net(3))


def test_piecewise_count_bound():
    net = zoo.random_net(17)
    zs = np.random.default_rng(3).uniform(-2, 2, size=(2000, net.input_dim))
    codes = region_codes(net, zs)
    distinct = len({c.tobytes() for c in codes})
    assert distinct <= 2 ** net.num_units


def test_save_load_round_trip(tmp_path):
    net = zoo.random_net(9)
    path = tmp_path / "net.json"
    save_model(net, path)
    loaded = load_model(path)
    assert fingerprint(loaded) == fingerprint(net)
    zs = np.random.default_rng(4).uniform(-3, 3, size=(100, net.input_dim))
    np.testing.assert_array_equal(forward(loaded, zs), forward(net, zs))


def test_load_row_length_mismatch_names_layer(tmp_path):
    doc = {
        "name": "bad", "input_dim": 2,
        "layers": [
            {"weight": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0],
             "activation": "relu"},
            {"weight": [[1.0, 2.0], [3.0]], "bias": [0.0, 0.0],
             "activation": "identity"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="layer 1"):
        load_model(path)


def test_load_unsupported_activation(tmp_path):
    doc = {"name": "t", "input_dim": 1,
           "layers": [{"weight": [[1.0]], "bias": [0.0], "activation": "tanh"}]}
    path = tmp_path / "tanh.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="tanh"):
        load_model(path)


def test_load_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", "layers": [')
    with pytest.raises(ValidationError, match="line 1 column"):
        load_model(path)


def test_dimension_chain_violation(tmp_path):
    doc = {"name": "chain", "input_dim": 2,
           "layers": [{"weight": [[1.0, 0.0]], "bias": [0.0]},
                      {"weight": [[1.0, 1.0]], "bias": [0.0]}]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="layer 1"):
        load_model(path)


def test_leaky_alpha_range_enforced():
    with pytest.raises(ValidationError):
        Layer(np.eye(1), np.zeros(1), "leaky_relu", alpha=1.5)
