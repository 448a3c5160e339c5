import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqn.autodiff import (MlpSpec, ParamStore, Tensor, _make, _toposort, add, attn_mix, backward,
                          concat_rows, dot, grad_check, grad_check_groups, linear, matmul, matvec,
                          matvec_rows, max_rows, mlp_forward, mul, register_attention, row_softmax,
                          rowdot, scatter_mean, segment_mix, self_attention_layer, softmax,
                          sum_all)
from gqn.errors import ConfigError, ContractError, InvalidInputError, ShapeError


# ----------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)


def test_softmax_shift_and_symmetry():
    np.testing.assert_allclose(softmax(Tensor([5.0, 5.0, 5.0])).data, [1 / 3] * 3, atol=1e-15)


def test_softmax_direct_evaluation():
    # exp(ln 2) = 2, exp(0) = 1 -> [2/3, 1/3]
    out = softmax(Tensor([math.log(2.0), 0.0])).data
    np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)


@pytest.mark.parametrize("bad", [[], [1.0, float("nan")], [float("inf"), 0.0]])
def test_softmax_rejects_bad_input(bad):
    with pytest.raises(InvalidInputError):
        softmax(Tensor(np.asarray(bad, dtype=np.float64)))


@given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=64))
def test_softmax_sums_to_one(values):
    p = softmax(Tensor(values)).data
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-9


def test_softmax_sums_to_one_at_length_1e6():
    rng = np.random.default_rng(0)
    p = softmax(Tensor(rng.uniform(-50.0, 50.0, size=10 ** 6))).data
    assert abs(p.sum() - 1.0) <= 1e-9


@given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=32),
       st.floats(-100.0, 100.0))
def test_softmax_shift_invariance(values, c):
    base = softmax(Tensor(values)).data
    shifted = softmax(Tensor(np.asarray(values) + c)).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_softmax_bitexact_under_permutation():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(257)
    base = softmax(Tensor(v)).data
    for _ in range(10):
        perm = rng.permutation(257)
        assert np.array_equal(softmax(Tensor(v[perm])).data, base[perm])


def test_softmax_gradient_of_sum_is_zero():
    s = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
    sum_all(softmax(s)).backward()
    assert np.abs(s.grad).max() <= 1e-12


# ----------------------------------------------------------------------------
# MLPs


def _mlp_220_params():
    spec = MlpSpec.relu_stack((2, 2, 1))
    params = ParamStore(seed=0)
    params.register_mlp("net", spec)
    return spec, params


def test_mlp_zero_weights_returns_bias():
    spec, params = _mlp_220_params()
    for name, t in params.items():
        t.data[...] = 0.0
    params["net/b1"].data[...] = 0.25
    out = mlp_forward(spec, params, "net", Tensor([[3.0, -4.0], [0.0, 9.0]]))
    np.testing.assert_array_equal(out.data, [[0.25], [0.25]])


def test_mlp_identity_layer_passes_input_through():
    spec = MlpSpec.linear(3, 3)
    params = ParamStore(seed=0)
    params.register_mlp("net", spec)
    params["net/W0"].data[...] = np.eye(3)
    params["net/b0"].data[...] = 0.0
    x = np.array([[0.5, -1.0, 2.0]])
    out = mlp_forward(spec, params, "net", Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_mlp_hand_computed_forward():
    # 2 -> 2 (relu) -> 1: hidden = relu([0.75, 0.55]), out = 0.525 - 0.33 + 0.1
    spec, params = _mlp_220_params()
    params["net/W0"].data[...] = [[0.1, -0.2], [0.3, 0.4]]
    params["net/b0"].data[...] = [0.05, -0.05]
    params["net/W1"].data[...] = [[0.7], [-0.6]]
    params["net/b1"].data[...] = [0.1]
    out = mlp_forward(spec, params, "net", Tensor([1.0, 2.0]))
    np.testing.assert_allclose(out.data, [0.295], atol=1e-12)


def test_mlp_width_mismatch_raises():
    spec, params = _mlp_220_params()
    with pytest.raises(ShapeError):
        mlp_forward(spec, params, "net", Tensor([[1.0, 2.0, 3.0]]))


@pytest.mark.parametrize("seed", range(8))
def test_mlp_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    spec = MlpSpec.relu_stack((3, 4, 2))
    params = ParamStore(seed=seed)
    params.register_mlp("net", spec)
    x = rng.standard_normal((5, 3))

    def fn(p):
        return sum_all(mlp_forward(spec, p, "net", Tensor(x)))

    assert grad_check(fn, params, eps=1e-5) <= 1e-6


# ----------------------------------------------------------------------------
# fused ops: linear and rowdot against the unfused chains they replace


def _relu_node(t):
    """ReLU as its own tape node, the layout ``linear`` replaces."""
    mask = t.data > 0.0
    return _make(np.where(mask, t.data, 0.0), (t,), lambda g: (g * mask,))


def _rowsum_node(t):
    cols = t.data.shape[1]
    return _make(t.data.sum(axis=1), (t,), lambda g: (np.repeat(g[:, None], cols, axis=1),))


def _unfused_linear(x, w, b, relu):
    h = matmul(x, w)
    if b is not None:
        h = add(h, b)
    return _relu_node(h) if relu else h


def _special_rows(rng, rows, cols):
    """Random rows plus an all-zero row, an all -0.0 row and a row holding a NaN.

    They give exact-zero and NaN pre-activations. A product never yields -0.0
    (BLAS accumulates from +0.0), so -0.0 enters through the inputs and the bias.
    """
    x = rng.standard_normal((rows, cols))
    x[0] = 0.0
    x[1] = -0.0
    x[2, 0] = np.nan
    return x


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("relu", [False, True])
def test_linear_matches_unfused_chain_bit_for_bit(bias, relu):
    rng = np.random.default_rng(21)
    x_data = _special_rows(rng, 9, 5)
    w_data = rng.standard_normal((5, 4))
    b_data = rng.standard_normal(4)
    b_data[0] = -0.0
    upstream = rng.standard_normal((9, 4))  # negative entries meet masked ones
    results = []
    for layer in (linear, _unfused_linear):
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True) if bias else None
        out = layer(x, w, b, relu)
        with np.errstate(invalid="ignore"):
            sum_all(mul(out, Tensor(upstream))).backward()
        results.append([out.data, x.grad, w.grad] + ([b.grad] if bias else []))
    pre = x_data @ w_data + (b_data if bias else 0.0)
    assert (pre == 0.0).any() and np.isnan(pre).any()
    if relu:
        out = results[0][0]
        assert not np.isnan(out).any() and not np.signbit(out).any()  # all masked to +0.0
    for fused, unfused in zip(*results, strict=True):
        assert _bits(fused) == _bits(unfused)


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


def test_rowdot_matches_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(22)
    a_data, b_data = _special_rows(rng, 7, 6), rng.standard_normal((7, 6))
    upstream = rng.standard_normal(7)
    results = []
    for op in (rowdot, lambda a, b: _rowsum_node(mul(a, b))):
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        out = op(a, b)
        sum_all(mul(out, Tensor(upstream))).backward()
        results.append((out.data, a.grad, b.grad))
    for fused, unfused in zip(*results, strict=True):
        assert _bits(fused) == _bits(unfused)
    with pytest.raises(ShapeError):
        rowdot(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


@pytest.mark.parametrize("bias,relu", [(True, True), (False, True), (True, False)])
def test_linear_gradients_match_finite_differences(bias, relu):
    rng = np.random.default_rng(23)
    params = ParamStore(seed=23)
    params.register("p/X", (6, 4))
    params.register("p/W", (4, 3))
    params.register("p/b", (3,), init="uniform")
    weights = rng.standard_normal((6, 3))

    def fn(p):
        out = linear(p["p/X"], p["p/W"], p["p/b"] if bias else None, relu=relu)
        return sum_all(mul(out, Tensor(weights)))

    assert grad_check(fn, params, eps=1e-6) <= 1e-8


def test_rowdot_gradients_match_finite_differences():
    rng = np.random.default_rng(24)
    params = ParamStore(seed=24)
    params.register("p/A", (5, 3))
    params.register("p/B", (5, 3))
    weights = rng.standard_normal(5)

    def fn(p):
        return sum_all(mul(rowdot(p["p/A"], p["p/B"]), Tensor(weights)))

    assert grad_check(fn, params, eps=1e-6) <= 1e-8


def test_mlp_records_one_tape_node_per_layer():
    spec = MlpSpec((3, 5, 4, 2), ("relu", "relu", "none"), (True, False, True))
    params = ParamStore(seed=0)
    params.register_mlp("net", spec)
    out = mlp_forward(spec, params, "net", Tensor(np.ones((7, 3))))
    assert sum(1 for t in _toposort(out) if t._backprop is not None) == spec.n_layers


def _sweep_keeping_graph(root):
    """The reverse sweep without freeing, for comparison."""
    root.grad = np.ones_like(root.data)
    for node in _toposort(root):
        if node._backprop is None:
            continue
        for parent, contrib in zip(node._parents, node._backprop(node.grad)):
            if contrib is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad = parent.grad + contrib


def test_backward_frees_interior_nodes_and_keeps_leaf_gradients():
    spec = MlpSpec.relu_stack((4, 6, 4))
    params = ParamStore(seed=5)
    params.register_mlp("net", spec)
    register_attention(params, "attn", 4)
    x = np.random.default_rng(5).standard_normal((5, 4))

    def loss():
        h = self_attention_layer(mlp_forward(spec, params, "net", Tensor(x)), params, "attn")
        return sum_all(rowdot(h, h))

    params.zero_grad()
    _sweep_keeping_graph(loss())
    expected = {name: t.grad.copy() for name, t in params.items()}

    params.zero_grad()
    root = loss()
    interior = [t for t in _toposort(root) if t._backprop is not None]
    root.backward()
    assert interior
    for t in interior:
        assert t.grad is None and t._parents == () and t._backprop is None
    for name, t in params.items():
        assert _bits(t.grad) == _bits(expected[name]), name


# ----------------------------------------------------------------------------
# self-attention


def _attn_params(d, seed=0):
    params = ParamStore(seed=seed)
    register_attention(params, "ctx_attn", d)
    return params


def test_attention_zero_value_projection_is_identity():
    params = _attn_params(4)
    params["ctx_attn/Wv"].data[...] = 0.0
    x = np.random.default_rng(0).standard_normal((1, 4))
    out = self_attention_layer(Tensor(x), params, "ctx_attn")
    np.testing.assert_array_equal(out.data, x)


def test_attention_identical_inputs_identical_outputs():
    params = _attn_params(4)
    row = np.random.default_rng(1).standard_normal(4)
    out = self_attention_layer(Tensor(np.tile(row, (6, 1))), params, "ctx_attn").data
    for i in range(1, 6):
        np.testing.assert_array_equal(out[i], out[0])


def test_attention_permutation_equivariance_bitexact():
    params = _attn_params(6, seed=2)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((9, 6))
    base = self_attention_layer(Tensor(x), params, "ctx_attn").data
    for _ in range(25):
        perm = rng.permutation(9)
        out = self_attention_layer(Tensor(x[perm]), params, "ctx_attn").data
        assert np.array_equal(out, base[perm])


# ----------------------------------------------------------------------------
# backward / grad_check


def test_backward_linear_gradient_is_exact():
    x = np.array([1.5, -2.0, 0.25])
    w = Tensor(np.zeros(3), requires_grad=True)
    dot(w, Tensor(x)).backward()
    np.testing.assert_array_equal(w.grad, x)


def test_backward_rejects_non_scalar_loss():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(InvalidInputError):
        (t * 2.0).backward()


def test_backward_zeroes_unreachable_params():
    params = ParamStore(seed=0)
    a = params.register("used/w", (3,))
    params.register("unused/w", (3,))
    grads = backward(sum_all(a * 2.0), params)
    np.testing.assert_array_equal(grads["unused/w"], np.zeros(3))
    np.testing.assert_array_equal(grads["used/w"], np.full(3, 2.0))


def test_grad_check_quadratic_is_exact():
    params = ParamStore(seed=1)
    params.register("w/a", (4,))

    def fn(p):
        w = p["w/a"]
        return sum_all(w * w)

    assert grad_check(fn, params, eps=1e-5) <= 1e-9


def test_grad_check_linear_is_exact():
    params = ParamStore(seed=2)
    params.register("w/a", (4,))
    c = np.array([1.0, -2.0, 3.0, 0.5])

    def fn(p):
        return dot(p["w/a"], Tensor(c))

    # zero truncation error for a linear map, so probe at the large-eps end
    # where subtractive cancellation is negligible
    assert grad_check(fn, params, eps=1e-3) <= 1e-12


def test_grad_check_rejects_bad_eps():
    params = ParamStore(seed=0)
    params.register("w/a", (2,))
    with pytest.raises(InvalidInputError):
        grad_check(lambda p: sum_all(p["w/a"]), params, eps=1e-2)


def test_grad_check_rejects_nondeterministic_fn():
    params = ParamStore(seed=0)
    params.register("w/a", (2,))
    state = {"calls": 0}

    def fn(p):
        state["calls"] += 1
        return sum_all(p["w/a"]) * float(state["calls"])

    with pytest.raises(ContractError):
        grad_check(fn, params, eps=1e-5)


def test_grad_check_groups_covers_every_group():
    params = ParamStore(seed=0)
    params.register("a/w", (2,))
    params.register("b/w", (2,))
    errs = grad_check_groups(lambda p: sum_all(p["a/w"]), params, eps=1e-5)
    assert sorted(errs) == ["a", "b"]


# ----------------------------------------------------------------------------
# param store and structural ops


def test_param_store_same_seed_bitidentical():
    a, b = ParamStore(seed=9), ParamStore(seed=9)
    for store in (a, b):
        store.register("m/W", (4, 3))
        store.register_mlp("net", MlpSpec.relu_stack((2, 3, 1)))
    for name, t in a.items():
        assert np.array_equal(t.data, b[name].data)


def test_param_store_init_independent_of_registration_order():
    a, b = ParamStore(seed=4), ParamStore(seed=4)
    a.register("x/W", (3, 3))
    a.register("y/W", (3, 3))
    b.register("y/W", (3, 3))
    b.register("x/W", (3, 3))
    assert np.array_equal(a["x/W"].data, b["x/W"].data)
    assert np.array_equal(a["y/W"].data, b["y/W"].data)


def test_param_store_rejects_duplicate_names():
    params = ParamStore(seed=0)
    params.register("a/w", (2,))
    with pytest.raises(ConfigError):
        params.register("a/w", (2,))


def test_param_init_bounds_follow_fan_sum():
    params = ParamStore(seed=0)
    t = params.register("m/W", (50, 30))
    bound = math.sqrt(6.0 / 80.0)
    assert np.abs(t.data).max() <= bound
    assert np.abs(t.data).max() > 0.5 * bound  # actually spread over the interval


def test_max_rows_routes_gradient_to_first_argmax():
    t = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]), requires_grad=True)
    sum_all(max_rows(t)).backward()
    np.testing.assert_array_equal(t.grad, [[1.0, 1.0], [0.0, 0.0]])


def test_max_rows_pools_each_row_block():
    t = Tensor(np.array([[1.0, 4.0], [3.0, 4.0], [0.0, -1.0], [-2.0, -1.0]]), requires_grad=True)
    out = max_rows(t, 2)
    np.testing.assert_array_equal(out.data, [[3.0, 4.0], [0.0, -1.0]])
    sum_all(out * Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))).backward()
    np.testing.assert_array_equal(t.grad, [[0.0, 2.0], [1.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
    with pytest.raises(ContractError):
        max_rows(t, 3)


def test_matvec_rows_rows_are_matvec_bits():
    rng = np.random.default_rng(12)
    a, xs = rng.standard_normal((37, 9)), rng.standard_normal((5, 9))
    out = matvec_rows(Tensor(a), Tensor(xs)).data
    for q in range(5):
        assert np.array_equal(out[q], matvec(Tensor(a), Tensor(xs[q])).data)
    with pytest.raises(ShapeError):
        matvec_rows(Tensor(a), Tensor(np.ones((2, 8))))


def test_matvec_rows_and_concat_rows_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    params = ParamStore(seed=13)
    params.register("p/A", (6, 3))
    params.register("p/x", (3,))
    params.register("p/X", (2, 3))
    w = rng.standard_normal((3, 6))

    def fn(p):
        xs = concat_rows([p["p/x"], p["p/X"]])
        return sum_all(matvec_rows(p["p/A"], xs) * Tensor(w))

    assert grad_check(fn, params, eps=1e-5) <= 1e-8
    assert concat_rows([params["p/x"], params["p/X"]]).data.shape == (3, 3)
    with pytest.raises(ShapeError):
        concat_rows([Tensor(np.ones(3)), Tensor(np.ones((2, 4)))])


def test_scatter_mean_averages_by_contributor_count():
    a = Tensor(np.array([[2.0, 0.0]]), requires_grad=True)
    b = Tensor(np.array([[4.0, 2.0]]), requires_grad=True)
    out = scatter_mean([(np.array([1]), a), (np.array([1]), b)], 3)
    np.testing.assert_array_equal(out.data, [[0.0, 0.0], [3.0, 1.0], [0.0, 0.0]])
    sum_all(out).backward()
    np.testing.assert_array_equal(a.grad, [[0.5, 0.5]])


def test_segment_mix_bitexact_under_group_permutation():
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((6, 4))
    w = rng.random(6)
    base = segment_mix(Tensor(feats), Tensor(w), 3).data
    for _ in range(10):
        perm = np.concatenate([rng.permutation(3), 3 + rng.permutation(3)])
        out = segment_mix(Tensor(feats[perm]), Tensor(w[perm]), 3).data
        assert np.array_equal(out, base)


def test_attn_mix_matches_plain_matmul():
    rng = np.random.default_rng(2)
    w, v = rng.random((5, 5)), rng.standard_normal((5, 3))
    out = attn_mix(Tensor(w), Tensor(v)).data
    np.testing.assert_allclose(out, w @ v, atol=1e-12)


def test_matvec_shape_error():
    with pytest.raises(ShapeError):
        matvec(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))


def test_composite_gradient_matches_finite_differences():
    # exercise gather/scale/segment/stack/row_softmax/attn_mix in one closure
    rng = np.random.default_rng(7)
    params = ParamStore(seed=7)
    params.register("p/W", (4, 4))
    x = rng.standard_normal((6, 4))
    mix_w = rng.random(4)

    def fn(p):
        from gqn.autodiff import concat_cols, gather_rows, matmul, scale_rows
        h = matmul(Tensor(x), p["p/W"])
        g = gather_rows(h, np.array([0, 2, 2, 5]))
        s = row_softmax(g)
        mixed = segment_mix(concat_cols([g, s]), Tensor(mix_w), 2)
        return sum_all(scale_rows(mixed, Tensor(np.array([0.5, 2.0]))))

    assert grad_check(fn, params, eps=1e-5) <= 1e-6
