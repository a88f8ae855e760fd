import contextlib
import hashlib
import json
import multiprocessing
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarity_sampling import (
    CpaNetwork, InputError, Layer, ValidationError,
    affine_maps, compose, fingerprint, forward, identity_net,
    load_model, region_codes, save_model,
)
from polarity_sampling import cpa, zoo


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


def test_model_bytes_are_those_of_per_entry_floats(tmp_path):
    # the model document as float() of each entry gives it: save_model and
    # fingerprint keep their bytes whatever converts the arrays
    odd = CpaNetwork("odd", (Layer(np.array([[-0.0, 5e-324], [1e300, -1e-310]]),
                                   np.array([0.1, -0.0]), "leaky_relu", 0.2),))
    nets = [zoo.two_piece_net(), zoo.ramp_2d_net(), zoo.halfspace_net(), zoo.abs_net(),
            zoo.bimodal_generator(), zoo.shift_generator(), odd,
            *(zoo.random_net(seed) for seed in range(8))]
    path = tmp_path / "net.json"
    for net in nets:
        layers = []
        for layer in net.layers:
            d = {"weight": [[float(v) for v in row] for row in layer.weight],
                 "bias": [float(v) for v in layer.bias], "activation": layer.activation}
            if layer.activation == "leaky_relu":
                d["alpha"] = float(layer.alpha)
            layers.append(d)
        doc = {"name": net.name, "input_dim": net.input_dim, "layers": layers}
        save_model(net, path)
        assert path.read_text() == json.dumps(doc, indent=1) + "\n"
        blob = json.dumps(doc, sort_keys=True).encode()
        assert fingerprint(net) == hashlib.sha256(blob).hexdigest()


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


def test_layer_names_the_rule_it_enforces():
    with pytest.raises(ValidationError, match="only exact piecewise-affine"):
        Layer(np.eye(1), np.zeros(1), "tanh")
    with pytest.raises(ValidationError, match="must be a matrix"):
        Layer(np.ones(2), np.zeros(2))
    with pytest.raises(ValidationError, match="do not agree"):
        Layer(np.eye(2), np.zeros(3))


def test_leaky_alpha_range_enforced():
    with pytest.raises(ValidationError):
        Layer(np.eye(1), np.zeros(1), "leaky_relu", alpha=1.5)


def _where_walk(net, z):
    """Reference layer walk with np.where activations: (output, A, b, bits)."""
    h = z0 = np.atleast_2d(np.asarray(z, dtype=np.float64))
    n, k = h.shape
    A = np.broadcast_to(np.eye(k), (n, k, k)).copy()
    bits = []
    for layer in net.layers:
        pre = h @ layer.weight.T + layer.bias
        A = layer.weight[None, :, :] @ A
        if layer.activation == "identity":
            h = pre
            continue
        on = pre > 0.0
        bits.append(on)
        if layer.activation == "relu":
            h = np.where(on, pre, 0.0)
            A *= np.where(on, 1.0, 0.0)[:, :, None]
        else:
            h = np.where(on, pre, layer.alpha * pre)
            A *= np.where(on, 1.0, layer.alpha)[:, :, None]
    b = h - np.einsum("ndk,nk->nd", A, z0)
    bits = np.concatenate(bits, axis=1) if bits else np.zeros((n, 0), dtype=bool)
    return h, A, b, bits


# pre-activations of these inputs under zero or tiny biases are ±0.0 or subnormal
_TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 2.2250738585072014e-308]


@pytest.mark.parametrize("activation, alpha",
                         [("relu", 0.0), ("leaky_relu", 0.2), ("leaky_relu", 0.999)])
def test_in_place_activation_matches_where_form_bit_for_bit(activation, alpha):
    # a run of -0.0: fmax keeps the sign of some zeros and drops it from others,
    # by their position in its vector loop
    special = np.array(_TINY + [-1e-310, -1.5, 2.0, np.inf, -np.inf, np.nan] + [-0.0] * 33)
    # leaky layers are activated a row block at a time: a (rows, 5) array over
    # three block edges, the first entry past each edge a subnormal, inf, and
    # one in the -0.0 run
    step = cpa.BLOCK_BYTES // (8 * 5)
    tall = np.random.default_rng(0).standard_normal((3 * step + 10, 5))
    for edge, first in zip((step, 2 * step, 3 * step), (4, 10, 29)):
        tall[edge - 10:edge + 10] = np.resize(np.roll(special, 50 - first), (20, 5))
    layer = Layer(np.eye(1), np.zeros(1), activation, alpha)
    for pre in (special, tall):
        slope = 0.0 if activation == "relu" else alpha * pre
        expected = np.where(pre > 0.0, pre, slope)
        assert cpa._apply_activation(layer, pre.copy()).tobytes() == expected.tobytes()


def test_forward_holds_one_block_beyond_the_widest_leaky_layer():
    # a leaky layer of 4 x BLOCK_BYTES: its alpha * pre is formed in one block
    rng = np.random.default_rng(0)
    net = CpaNetwork("wide", (
        Layer(rng.standard_normal((512, 4)), rng.standard_normal(512), "leaky_relu", 0.2),
        Layer(rng.standard_normal((4, 512)), np.zeros(4)),
    ))
    z = rng.standard_normal((4 * cpa.BLOCK_BYTES // (8 * 512), 4))
    expected = _where_walk(net, z)[0]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = forward(net, z)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.tobytes() == expected.tobytes()
    # the leaky layer's pre-activation and the output are what it must hold
    assert peak <= 8 * len(z) * 512 + out.nbytes + cpa.BLOCK_BYTES


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, -0.0, 1e-310, 1.0]),
       st.booleans(), st.data())
def test_layer_walk_matches_where_reference_bit_for_bit(seed, bias_scale, tiny, data):
    base = zoo.random_net(seed)
    net = CpaNetwork(base.name, tuple(
        Layer(l.weight, bias_scale * l.bias, l.activation, l.alpha) for l in base.layers))
    n, k = data.draw(st.integers(1, 6)), net.input_dim
    entry = st.sampled_from(_TINY) if tiny else st.sampled_from(_TINY) | st.floats(-2, 2)
    z = np.array(data.draw(st.lists(entry, min_size=n * k, max_size=n * k))).reshape(n, k)
    out, A, b, bits = _where_walk(net, z)
    got_A, got_b, got_bits = affine_maps(net, z)
    assert forward(net, z).tobytes() == out.tobytes()
    assert got_A.tobytes() == A.tobytes()
    assert got_b.tobytes() == b.tobytes()
    assert np.array_equal(got_bits, bits)
    assert np.array_equal(region_codes(net, z), bits)


# --- map_blocks ----------------------------------------------------------------


@pytest.fixture
def workers():
    """Patch map_blocks' worker count; helpers run only with a BLAS control."""
    def patch(count):
        if count > 1 and cpa._openblas_controls() is None:
            pytest.skip("no OpenBLAS thread control in this process: map_blocks is serial")
        return mock.patch.object(cpa, "_workers", lambda: count)
    return patch


def _blocks(n_rows):
    """One row per block."""
    return n_rows, cpa.BLOCK_BYTES


def _meet_a_helper(started):
    """Called first in a block: a helper marks ``started``; the calling
    thread waits for it, so the blocks are surely shared out."""
    if threading.current_thread() is threading.main_thread():
        assert started.wait(10)
    else:
        started.set()


def test_map_blocks_returns_results_in_block_order_under_contention(workers):
    # more workers than CPUs, and a thread switch every microsecond: a block
    # taken twice or lost, or a result out of place, breaks the equality
    seen, started = set(), threading.Event()

    def fn(rows):
        _meet_a_helper(started)
        seen.add(threading.get_ident())
        np.linalg.svd(np.ones((4, 3, 3)), compute_uv=False)   # releases the lock
        return rows.start, rows.stop

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(4):
            got = cpa.map_blocks(fn, *_blocks(3000))
    finally:
        sys.setswitchinterval(interval)
    assert got == [(i, i + 1) for i in range(3000)]
    assert len(seen) > 1


def test_map_blocks_runs_serially_without_blas_control():
    seen = set()
    with mock.patch.object(cpa, "_workers", lambda: 2), \
            mock.patch.object(cpa, "_openblas_controls", lambda: None):
        got = cpa.map_blocks(lambda rows: seen.add(threading.get_ident()) or rows.start,
                             *_blocks(50))
    assert got == list(range(50))
    assert seen == {threading.get_ident()}


def test_map_blocks_helpers_keep_the_callers_errstate(workers):
    seen, started = set(), threading.Event()

    def fn(rows):
        _meet_a_helper(started)
        seen.add(threading.get_ident())
        time.sleep(1e-3)
        np.array([1e308]) * 10.0   # overflows: a warning, hence an error, unless ignored
        return np.geterr()["over"]

    with workers(2), warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        got = cpa.map_blocks(fn, *_blocks(40))
    assert got == ["ignore"] * 40
    assert len(seen) == 2


def test_map_blocks_raises_the_first_failing_block_once_every_thread_stopped(workers):
    # the first block a helper takes fails slowly; the caller's blocks from
    # three after it fail at once, so a later block's error comes first
    lock, active, started, done, slow = threading.Lock(), [0], [], [], []
    helper = threading.Event()

    def fn(rows):
        _meet_a_helper(helper)
        with lock:
            active[0] += 1
            started.append(rows.start)
            if threading.current_thread() is not threading.main_thread() and not slow:
                slow.append(rows.start)
        try:
            if slow and rows.start == slow[0]:
                time.sleep(0.05)
                raise ValueError(f"block {rows.start}")
            if slow and rows.start >= slow[0] + 3:
                raise ValueError(f"block {rows.start}")
            time.sleep(1e-3)
            done.append(rows.start)
        finally:
            with lock:
                active[0] -= 1

    with workers(2), pytest.raises(ValueError) as raised:
        try:
            cpa.map_blocks(fn, *_blocks(100))
        finally:
            assert active[0] == 0   # every thread stopped before the error
            finished = len(done)
    assert str(raised.value) == f"block {slow[0]}"
    assert set(range(slow[0])) <= set(done)   # every block before it ran
    assert len(started) < 100   # no block started once one had failed
    time.sleep(0.05)
    assert len(done) == finished   # and no helper went on writing


def test_map_blocks_holds_blas_to_one_thread_and_restores_it(workers):
    with workers(2):
        controls = cpa._openblas_controls()
        before = [get() for get, _ in controls]
        try:
            for _, set_ in controls:
                set_(2)
            inside = cpa.map_blocks(lambda rows: [get() for get, _ in controls],
                                    *_blocks(8))
            assert inside == [[1] * len(controls)] * 8
            assert [get() for get, _ in controls] == [2] * len(controls)
            with pytest.raises(ZeroDivisionError):
                cpa.map_blocks(lambda rows: 1 / 0, *_blocks(8))
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)


def test_map_blocks_overlapping_calls_restore_blas_once_the_last_leaves(workers):
    # call A holds BLAS, call B enters, A leaves, then B leaves: B must not
    # restore the count of 1 it found on entry
    a_in, b_in, a_out, got = (threading.Event(), threading.Event(),
                              threading.Event(), {})
    with workers(2):
        controls = cpa._openblas_controls()
        before = [get() for get, _ in controls]

        def call(name, enter, wait_for):
            def fn(rows):
                enter.set()
                assert wait_for.wait(10)
                return [get() for get, _ in controls]
            got[name] = cpa.map_blocks(fn, *_blocks(2))

        a = threading.Thread(target=call, args=("a", a_in, b_in), daemon=True)
        b = threading.Thread(target=call, args=("b", b_in, a_out), daemon=True)
        try:
            for _, set_ in controls:
                set_(2)
            a.start()
            assert a_in.wait(10)
            b.start()
            a.join(10)
            a_out.set()
            b.join(10)
            assert not a.is_alive() and not b.is_alive()
            assert got == {"a": [[1] * len(controls)] * 2, "b": [[1] * len(controls)] * 2}
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_map_blocks_leaves_no_thread_behind(workers, fails):
    # each thread's first block waits for the other's, so both run blocks
    before, seen, meet = threading.active_count(), set(), threading.Barrier(2, timeout=10)

    def fn(rows):
        if threading.current_thread() not in seen:
            seen.add(threading.current_thread())
            meet.wait()
        if fails and threading.current_thread() is threading.main_thread():
            raise ValueError(f"block {rows.start}")
        return rows.start

    with workers(2), pytest.raises(ValueError) if fails else contextlib.nullcontext():
        assert cpa.map_blocks(fn, *_blocks(8)) == list(range(8))
    assert len(seen) == 2
    assert not any(thread.is_alive() for thread in seen - {threading.main_thread()})
    assert threading.active_count() == before


def _map_blocks_in_order():
    assert cpa.map_blocks(lambda rows: rows.start, *_blocks(8)) == list(range(8))


def test_map_blocks_runs_in_a_child_forked_after_a_threaded_call(workers):
    with workers(2):
        _map_blocks_in_order()
        child = multiprocessing.get_context("fork").Process(target=_map_blocks_in_order)
        child.start()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("map_blocks hung in a forked child")
    assert child.exitcode == 0


def test_map_blocks_inside_a_block_returns_the_nested_results(workers):
    def fn(rows):
        return cpa.map_blocks(lambda inner: (rows.start, inner.start), *_blocks(3))

    got = []
    with workers(2):
        caller = threading.Thread(target=lambda: got.append(cpa.map_blocks(fn, *_blocks(4))),
                                  daemon=True)
        caller.start()
        caller.join(30)
    assert not caller.is_alive(), "nested map_blocks hung"
    assert got == [[[(i, j) for j in range(3)] for i in range(4)]]
