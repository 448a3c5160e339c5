import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gqn import pipeline
from gqn.autodiff import (MlpSpec, ParamStore, Tensor, _attn_mix, _bilinear_score_grads,
                          _bilinear_scores, _cell_scale, _check_split_mlp, _make, _relu_inplace,
                          _scatter_add, _segment_mix, _split_linear, _split_linear_grads,
                          _toposort, _zero_unless_positive, add, backward, concat_cols,
                          concat_rows, gather_rows, grad_check, grad_check_groups, linear,
                          matvec_rows, max_rows, mlp_forward, mul, no_grad,
                          register_attention, reshape, row_softmax, scale_rows,
                          self_attention_layer, sub, sum_all)
from gqn.edge_focus import update_nodes
from gqn.errors import ConfigError, ContractError, InvalidInputError, ShapeError
from gqn.scene import SceneSpec, demo_boxes, flatten_grid, generate_scene, sinusoidal_encoding
from split_mlp_node import split_mlp_node
from unfolded_edge_stage import mix_node, rowdot, unfolded_edge_focus_update


# ----------------------------------------------------------------------------
# softmax, on one row of row_softmax


def _softmax_row(values):
    return row_softmax(Tensor(np.asarray(values, dtype=np.float64)[None, :])).data[0]


def test_softmax_symmetry():
    np.testing.assert_allclose(_softmax_row([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_shift_and_symmetry():
    np.testing.assert_allclose(_softmax_row([5.0, 5.0, 5.0]), [1 / 3] * 3, atol=1e-15)


def test_softmax_direct_evaluation():
    # exp(ln 2) = 2, exp(0) = 1 -> [2/3, 1/3]
    np.testing.assert_allclose(_softmax_row([math.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-12)


@pytest.mark.parametrize("bad", [[], [1.0, float("nan")], [float("inf"), 0.0]])
def test_softmax_rejects_bad_input(bad):
    with pytest.raises(ShapeError if not bad else InvalidInputError):
        _softmax_row(bad)


@given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=64))
def test_softmax_sums_to_one(values):
    p = _softmax_row(values)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-9


def test_softmax_sums_to_one_at_length_1e6():
    rng = np.random.default_rng(0)
    p = _softmax_row(rng.uniform(-50.0, 50.0, size=10 ** 6))
    assert abs(p.sum() - 1.0) <= 1e-9


@given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=32),
       st.floats(-100.0, 100.0))
def test_softmax_shift_invariance(values, c):
    base = _softmax_row(values)
    shifted = _softmax_row(np.asarray(values) + c)
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_softmax_bitexact_under_permutation():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(257)
    base = _softmax_row(v)
    for _ in range(10):
        perm = rng.permutation(257)
        assert np.array_equal(_softmax_row(v[perm]), base[perm])


def test_softmax_gradient_of_sum_is_zero():
    s = Tensor(np.array([[0.3, -1.2, 2.0]]), requires_grad=True)
    sum_all(row_softmax(s)).backward()
    assert np.abs(s.grad).max() <= 1e-12


# ----------------------------------------------------------------------------
# elementwise ops and scaling


@pytest.mark.parametrize("op", [add, sub, mul], ids=["add", "sub", "mul"])
def test_elementwise_ops_reject_unequal_shapes(op):
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    for other in (np.ones(2), np.ones((1, 2)), np.ones((2, 3)), 1.0):
        with pytest.raises(ShapeError):
            op(a, other)
        with pytest.raises(ShapeError):
            op(other, a)


def test_elementwise_op_gradients():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, -4.0]]), requires_grad=True)
    sum_all(add(sub(a, b), mul(a, b))).backward()
    np.testing.assert_array_equal(a.grad, [[4.0, -3.0]])  # 1 + b
    np.testing.assert_array_equal(b.grad, [[0.0, 1.0]])   # -1 + a


def test_tensor_scales_only_by_a_number():
    t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with pytest.raises(TypeError):
        t * t
    with pytest.raises(TypeError):
        t * np.ones(2)
    sum_all(0.5 * t).backward()
    np.testing.assert_array_equal(t.grad, [0.5, 0.5])


# ----------------------------------------------------------------------------
# MLPs


def _mlp_220_params():
    spec = MlpSpec((2, 2, 1))
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
    spec = MlpSpec((3, 3))
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
    out = mlp_forward(spec, params, "net", Tensor([[1.0, 2.0]]))
    np.testing.assert_allclose(out.data, [[0.295]], atol=1e-12)


def test_mlp_width_mismatch_raises():
    spec, params = _mlp_220_params()
    with pytest.raises(ShapeError):
        mlp_forward(spec, params, "net", Tensor([[1.0, 2.0, 3.0]]))
    with pytest.raises(ShapeError):  # one row is a (1, w_in) matrix, not a vector
        mlp_forward(spec, params, "net", Tensor([1.0, 2.0]))


@pytest.mark.parametrize("seed", range(8))
def test_mlp_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    spec = MlpSpec((3, 4, 2))
    params = ParamStore(seed=seed)
    params.register_mlp("net", spec)
    x = rng.standard_normal((5, 3))

    def fn(p):
        return sum_all(mlp_forward(spec, p, "net", Tensor(x)))

    assert grad_check(fn, params, eps=1e-5) <= 1e-6


# ----------------------------------------------------------------------------
# fused ops: linear and the bilinear edge scores against the unfused chains they replace


def _relu_node(t):
    """ReLU as its own tape node, the layout ``linear`` replaces."""
    mask = t.data > 0.0
    return _make(np.where(mask, t.data, 0.0), (t,), lambda g: (g * mask,))


def _unfused_linear(x, w, b, relu):
    """The product, the bias and the ReLU as three tape nodes."""
    h = _make(x.data @ w.data, (x, w), lambda g: (g @ w.data.T, x.data.T @ g))
    h = _make(h.data + b.data, (h, b), lambda g: (g, g.sum(axis=0)))
    return _relu_node(h) if relu else h


def _special_rows(rng, rows, cols):
    """Random rows plus an all-zero row, an all -0.0 row and a row holding a NaN.

    They give exact-zero and NaN pre-activations. A product of a zero row is
    -0.0 only where every one of its terms is, which the random weights here
    do not give, so -0.0 enters through the inputs and the bias.
    """
    x = rng.standard_normal((rows, cols))
    x[0] = 0.0
    x[1] = -0.0
    x[2, 0] = np.nan
    return x


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("width", [1, 8, 64])
def test_bilinear_scores_of_a_row_do_not_depend_on_the_slice(width):
    """A chunk scores each query's edges as it would alone: every row's score has
    the same bits inside any slice of the rows, at any offset and length of at
    least two. (numpy takes a one-row product as a matrix-vector product, which
    rounds differently; a query has n * k >= 2 edges.)"""
    rng = np.random.default_rng(width)
    x = rng.standard_normal((24, width))
    weights = [rng.standard_normal((width, width)), rng.standard_normal(width),
               rng.standard_normal((width, width)), rng.standard_normal(width)]
    whole = _bilinear_scores(x, *weights)
    for start in range(6):
        for stop in range(start + 2, len(x) + 1):
            assert np.array_equal(_bilinear_scores(x[start:stop], *weights), whole[start:stop])


# ``train_bias`` False gives a constant bias, which gets no gradient.
@pytest.mark.parametrize("train_bias", [False, True])
@pytest.mark.parametrize("relu", [False, True])
def test_linear_matches_unfused_chain_bit_for_bit(train_bias, relu):
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
        b = Tensor(b_data.copy(), requires_grad=train_bias)
        out = layer(x, w, b, relu)
        with np.errstate(invalid="ignore"):
            sum_all(mul(out, Tensor(upstream))).backward()
        assert (b.grad is not None) == train_bias
        results.append([out.data, x.grad, w.grad] + ([b.grad] if train_bias else []))
    pre = x_data @ w_data + b_data
    assert (pre == 0.0).any() and np.isnan(pre).any()
    if relu:
        out = results[0][0]
        assert not np.isnan(out).any() and not np.signbit(out).any()  # all masked to +0.0
    for fused, unfused in zip(*results, strict=True):
        assert _bits(fused) == _bits(unfused)


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


def _score_node(x, wq, bq, wk, bk):
    """The bilinear edge scores as one tape node, built from the private helpers."""
    parents = (x, wq, bq, wk, bk)
    return _make(_bilinear_scores(*(t.data for t in parents)), parents,
                 lambda g: _bilinear_score_grads(g, *(t.data for t in parents)))


def _scores_and_mix(score, x0, w0, b0, proj, k):
    """The pipeline's use of edge features: scored per edge and mixed with the weights.

    ``x`` feeds both the scores and the weighted sum, so the order in which its
    gradient contributions accumulate shows in every upstream gradient.
    """
    x = linear(x0, w0, b0, relu=True)
    scores = score(x, *proj)
    beta = reshape(row_softmax(reshape(scores, (x.data.shape[0] // k, k))), (x.data.shape[0],))
    return scores, mix_node(x, beta, k)


def test_bilinear_edge_scores_match_the_linear_and_rowdot_chain():
    """``x A xᵀ + x·c + bq·bk`` rounds differently from the two projections it
    replaces, so outputs and gradients agree to 1e-12 of their largest entry."""
    rng = np.random.default_rng(22)
    k = 3
    x0_data = rng.standard_normal((12, 5))
    w0_data, b0_data = rng.standard_normal((5, 6)), rng.standard_normal(6)
    proj_data = [rng.standard_normal((6, 6)), rng.standard_normal(6),
                 rng.standard_normal((6, 6)), rng.standard_normal(6)]
    upstream = rng.standard_normal((4, 6))

    def projections(x, wq, bq, wk, bk):
        return rowdot(linear(x, wq, bq), linear(x, wk, bk))

    results = []
    for score in (_score_node, projections):
        x0, w0, b0, *proj = [Tensor(a.copy(), requires_grad=True)
                             for a in (x0_data, w0_data, b0_data, *proj_data)]
        scores, mixed = _scores_and_mix(score, x0, w0, b0, proj, k)
        sum_all(mul(mixed, Tensor(upstream))).backward()
        results.append([scores.data, mixed.data, x0.grad, w0.grad, b0.grad]
                       + [t.grad for t in proj])
    for bilinear, chain in zip(*results, strict=True):
        _assert_close(bilinear, chain, 1e-12)


# ``train_bias`` False gives a constant bias, which gets no gradient.
@pytest.mark.parametrize("train_bias,relu", [(True, True), (False, True), (True, False)])
def test_linear_gradients_match_finite_differences(train_bias, relu):
    rng = np.random.default_rng(23)
    params = ParamStore(seed=23)
    params.register("p/X", (6, 4))
    params.register("p/W", (4, 3))
    params.register("p/b", (3,), init="uniform")
    weights = rng.standard_normal((6, 3))
    fixed_b = Tensor(params["p/b"].data.copy())

    def fn(p):
        out = linear(p["p/X"], p["p/W"], p["p/b"] if train_bias else fixed_b, relu=relu)
        return sum_all(mul(out, Tensor(weights)))

    assert grad_check(fn, params, eps=1e-6) <= 1e-8


def test_edge_scores_gradients_match_finite_differences():
    rng = np.random.default_rng(24)
    params = ParamStore(seed=24)
    params.register("p/X", (5, 3))
    params.register("p/Wq", (3, 3))
    params.register("p/bq", (3,), init="uniform")
    params.register("p/Wk", (3, 3))
    params.register("p/bk", (3,), init="uniform")
    weights = rng.standard_normal(5)

    def fn(p):
        scores = _score_node(p["p/X"], p["p/Wq"], p["p/bq"], p["p/Wk"], p["p/bk"])
        return sum_all(mul(scores, Tensor(weights)))

    assert grad_check(fn, params, eps=1e-6) <= 1e-8


# ----------------------------------------------------------------------------
# the split first layer against the concatenated layer it replaces, and the
# split MLP node (split_mlp_node.py) against the layer-by-layer chain it fuses

# Edges grouped by source, two per node; edge 0 -> 1 joins two zero rows.
_SRC = np.repeat(np.arange(5), 2)
_DST = np.array([1, 2, 0, 3, 4, 0, 1, 4, 2, 3])
_GATHER = np.array([0, 0, 1, 2, 1, 2])
_SPLIT_MODES = ["edge", "gathered", "identity"]


def _split_inputs(mode, rng):
    """Inputs of one mode whose pre-activations hold exact zeros and NaNs.

    Row 0 of ``a`` is zero and row 1 is -0.0, the rows of ``b`` they meet are
    zero, and the bias is zero in column 0; row 2 of ``a`` holds a NaN.
    """
    per_node = mode in ("edge", "identity")
    a = _special_rows(rng, 5 if per_node else 6, 3)
    b = rng.standard_normal((5 if per_node else 3, 4))
    b[:2] = 0.0
    rows = {"edge": _DST, "identity": None}.get(mode, _GATHER)
    bias = rng.standard_normal(2)
    bias[0] = 0.0
    return a, b, rng.standard_normal((7, 2)), bias, rows


def _concat_first_layer(mode, a, b, w, bias, rows, relu):
    """The concatenated form: build ``[a || b[rows]]`` (edges: ``[a[dst] - a[src] || b[dst]]``)."""
    if mode == "edge":
        left = sub(gather_rows(a, rows), gather_rows(a, _SRC))
    else:
        left = a
    right = b if rows is None else gather_rows(b, rows)
    return linear(concat_cols([left, right]), w, bias, relu)


def _split_pre_activation(a, b, w, bias, rows, k):
    """``_split_linear``'s arithmetic without its ReLU: the layer's pre-activation.

    The edge form also leaves out the 0.0 that ``_split_linear`` adds to the
    per-node sum before its gather, which only its one-pass ReLU needs.
    """
    d_a = a.shape[1]
    h = a @ w[:d_a]
    c = b @ w[d_a:]
    if k:
        c += h
        c += bias
        out = c[rows]
        by_source = out.reshape(a.shape[0], k, w.shape[1])
        by_source -= h[:, None, :]
        return out
    out = h
    out += c if rows is None else c[rows]
    out += bias
    return out


def _split_first_layer(mode, a, b, w, bias, rows, relu):
    """The split first layer as its own tape node, built from the private helpers; without
    ``relu`` its output is the pre-activation and its gradient ``_split_linear_grads``'s
    unmasked one."""
    k = 2 if mode == "edge" else 0
    out = (_split_linear if relu else _split_pre_activation)(a.data, b.data, w.data, bias.data,
                                                             rows, k)
    return _make(out, (a, b, w, bias), lambda g: _split_linear_grads(
        _zero_unless_positive(g, out) if relu else g, a.data, b.data, w.data, rows, k))


def _assert_close(got, ref, rel):
    """Equal NaN positions, and elsewhere within ``rel`` of the largest finite entry."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    finite = ~np.isnan(ref)
    scale = np.abs(ref[finite]).max(initial=0.0)
    assert np.abs(got[finite] - ref[finite]).max(initial=0.0) <= rel * scale


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("mode", _SPLIT_MODES)
def test_split_linear_matches_the_concatenated_layer(mode, relu):
    rng = np.random.default_rng(25)
    a_data, b_data, w_data, bias_data, rows = _split_inputs(mode, rng)
    results = []
    for layer in (_split_first_layer, _concat_first_layer):
        a, b, w, bias = (Tensor(x.copy(), requires_grad=True)
                         for x in (a_data, b_data, w_data, bias_data))
        out = layer(mode, a, b, w, bias, rows, relu)
        upstream = np.random.default_rng(26).standard_normal(out.data.shape)
        with np.errstate(invalid="ignore"):
            sum_all(mul(out, Tensor(upstream))).backward()
        results.append((out.data, a.grad, b.grad, w.grad, bias.grad))
    with np.errstate(invalid="ignore"):
        pre = _concat_first_layer(mode, *(Tensor(x) for x in (a_data, b_data, w_data, bias_data)),
                                  rows, relu=False).data
    assert (pre == 0.0).any() and np.isnan(pre).any()
    if relu:
        assert not np.isnan(results[0][0]).any()
    for split, concat in zip(*results, strict=True):
        _assert_close(split, concat, 1e-12)


def _mlp_params(widths, seed=0):
    params = ParamStore(seed=seed)
    params.register_mlp("net", MlpSpec(widths))
    return params


def test_split_linear_keeps_one_tape_node_and_rejects_mismatched_shapes():
    a, b = Tensor(np.ones((5, 3)), requires_grad=True), Tensor(np.ones((5, 4)))
    params = _mlp_params((7, 2, 2))
    out = split_mlp_node(params, "net", a, b, _DST, k=2)
    assert out.data.shape == (10, 2)
    assert _toposort(out)[0]._parents == (a, b) + tuple(params[f"net/{p}{i}"]
                                                        for i in range(2) for p in "Wb")
    layers = [(w.data, bias.data) for w, bias in params.layers("net")]
    for rows, k in ((_DST, 2), (None, 0)):  # each failing case changes one of these shapes
        _check_split_mlp("net", a.data, b.data, layers, rows, k)
    with pytest.raises(ShapeError):  # b's width does not fill w
        _check_split_mlp("net", a.data, np.ones((5, 3)), layers, None, 0)
    with pytest.raises(ShapeError):  # one edge index per edge
        _check_split_mlp("net", a.data, b.data, layers, _DST[:-1], 2)
    with pytest.raises(ShapeError):  # identity rows need equal row counts
        _check_split_mlp("net", a.data, np.ones((4, 4)), layers, None, 0)
    bad = [(np.ones((7, 2)), np.ones(2)), (np.ones((3, 2)), np.ones(2))]
    with pytest.raises(ShapeError):  # a later layer's rows do not match its input width
        _check_split_mlp("bad", a.data, b.data, bad, None, 0)


@pytest.mark.parametrize("mode", _SPLIT_MODES)
def test_split_linear_gradients_match_finite_differences(mode):
    rng = np.random.default_rng(27)
    a, b, w, bias, rows = _split_inputs(mode, rng)
    params = ParamStore(seed=27)
    a = rng.standard_normal(a.shape)  # no NaN: finite differences need finite values
    for name, x in (("p/a", a), ("p/b", b), ("p/w", w), ("p/bias", bias)):
        params.register(name, x.shape)
        params[name].data[...] = x
    weights = rng.standard_normal(({"edge": 10, "identity": 5}.get(mode, 6), 2))

    def fn(p):
        out = _split_first_layer(mode, p["p/a"], p["p/b"], p["p/w"], p["p/bias"], rows, relu=True)
        return sum_all(mul(out, Tensor(weights)))

    assert grad_check(fn, params, eps=1e-6) <= 1e-8


_SPLIT_MLP_WIDTHS = (7, 2, 3)


@pytest.mark.parametrize("widths", [(7, 2), (7, 4, 3, 2)], ids=["1-layer", "3-layer"])
def test_split_mlp_rejects_any_depth_but_two(widths):
    """The node MLP has exactly two layers; every other stored depth fails at
    ``update_nodes``' shape gate, whose other checks these shapes pass."""
    params = ParamStore(seed=0)
    params.register_mlp("node_mlp", MlpSpec(widths))
    with pytest.raises(ShapeError, match="exactly two layers"):
        update_nodes(Tensor(np.ones((5, 3))), params, np.ones((5, 4)))


def _layer_by_layer(params, name, a, b, rows, k):
    """The split MLP as it ran before the fusion: the split first layer, then a ``linear``
    node."""
    mode = "edge" if k else "identity" if rows is None else "gathered"
    h = _split_first_layer(mode, a, b, params[f"{name}/W0"], params[f"{name}/b0"], rows,
                           relu=True)
    return linear(h, params[f"{name}/W1"], params[f"{name}/b1"])


def _signed_zero_upstream(params, shape):
    """An upstream gradient of tiny positive entries whose hidden gradient holds -0.0.

    Row 0 of the output layer's weight is -1e-300, so every product of column 0
    of the hidden gradient ``g @ W.T`` underflows to -0.0. The weight is stored
    in Fortran order: OpenBLAS then reads ``W.T`` as a plain matrix and keeps
    the sign of a sum of -0.0 products, which it does not for a transposed one.
    """
    w = params["net/W1"]
    w.data[0] = -1e-300
    w.data = np.asfortranarray(w.data)
    return np.random.default_rng(28).uniform(0.5, 1.0, shape) * 1e-300


@pytest.mark.parametrize("upstream_kind", ["normal", "signed_zero"])
@pytest.mark.parametrize("widths", [_SPLIT_MLP_WIDTHS], ids=["2-layer"])
@pytest.mark.parametrize("mode", _SPLIT_MODES)
def test_split_mlp_matches_the_layer_by_layer_chain_bit_for_bit(mode, widths, upstream_kind):
    """The fused node's output and every gradient equal the chain's, byte for byte.

    With ``signed_zero`` the hidden gradient holds -0.0, which the chain's tape
    adds to zeros (giving +0.0) and the fused node passes on as it is.
    """
    a_data, b_data, _, _, rows = _split_inputs(mode, np.random.default_rng(25))
    k = 2 if mode == "edge" else 0
    results = []
    for mlp in (split_mlp_node, _layer_by_layer):
        params = _mlp_params(widths, seed=25)
        a, b = Tensor(a_data.copy(), requires_grad=True), Tensor(b_data.copy(), requires_grad=True)
        rows_out = {"edge": 10, "identity": 5}.get(mode, 6)
        if upstream_kind == "normal":
            upstream = np.random.default_rng(26).standard_normal((rows_out, widths[-1]))
        else:
            upstream = _signed_zero_upstream(params, (rows_out, widths[-1]))
        out = mlp(params, "net", a, b, rows, k)
        with np.errstate(invalid="ignore"):
            sum_all(mul(out, Tensor(upstream))).backward()
        results.append([out.data, a.grad, b.grad] + [t.grad for _, t in params.items()])
    if upstream_kind == "signed_zero":
        hidden_grad = upstream @ params["net/W1"].data.T
        assert ((hidden_grad == 0.0) & np.signbit(hidden_grad)).any()
    for fused, chain in zip(*results, strict=True):
        assert _bits(fused) == _bits(chain)


def test_split_mlp_is_one_tape_node_that_keeps_only_its_inputs_and_output():
    a, b = Tensor(np.ones((5, 3)), requires_grad=True), Tensor(np.ones((5, 4)), requires_grad=True)
    params = _mlp_params((7, 4, 2))
    out = split_mlp_node(params, "net", a, b, _DST, k=2)
    assert [t for t in _toposort(out) if t._backprop is not None] == [out]
    assert out._parents == (a, b) + tuple(params[f"net/{p}{i}"] for i in range(2) for p in "Wb")
    # Its backward holds no array but the edge targets.
    arrays = [c for c in (cell.cell_contents for cell in out._backprop.__closure__)
              if isinstance(c, np.ndarray)]
    assert len(arrays) == 1 and np.array_equal(arrays[0], _DST)


@pytest.mark.parametrize("widths", [_SPLIT_MLP_WIDTHS], ids=["2-layer"])
def test_split_mlp_fed_a_constant_summaries_operand_keeps_every_other_gradient(widths):
    """With a constant gathered operand (the context MLP's summaries) the node still
    returns its gradient and the tape drops it: ``b.grad`` stays None and every other
    gradient has the bits it has when ``b`` requires grad."""
    rng = np.random.default_rng(31)
    a_data, b_data = rng.standard_normal((6, 3)), rng.standard_normal((3, 4))
    upstream = rng.standard_normal((6, widths[-1]))
    results = []
    for b_grad in (True, False):
        params = _mlp_params(widths, seed=31)
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=b_grad)
        out = split_mlp_node(params, "net", a, b, _GATHER)
        sum_all(mul(out, Tensor(upstream))).backward()
        assert (b.grad is not None) == b_grad
        results.append([_bits(a.grad)] + [_bits(t.grad) for _, t in params.items()])
    assert results[0] == results[1]


@pytest.mark.parametrize("widths", [_SPLIT_MLP_WIDTHS], ids=["2-layer"])
@pytest.mark.parametrize("mode", _SPLIT_MODES)
def test_split_mlp_gradients_match_finite_differences(mode, widths):
    rng = np.random.default_rng(30)
    a, b, _, _, rows = _split_inputs(mode, rng)
    params = _mlp_params(widths, seed=30)
    for name, x in (("in/a", rng.standard_normal(a.shape)), ("in/b", b)):
        params.register(name, x.shape)
        params[name].data[...] = x
    weights = rng.standard_normal(({"edge": 10, "identity": 5}.get(mode, 6), widths[-1]))

    def fn(p):
        out = split_mlp_node(p, "net", p["in/a"], p["in/b"], rows, k=2 if mode == "edge" else 0)
        return sum_all(mul(out, Tensor(weights)))

    assert grad_check(fn, params, eps=1e-6) <= 1e-8


# ----------------------------------------------------------------------------
# ReLU: the in-place fmax form against the masked copy it replaced

_RELU_SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                           5e-324, -5e-324, 1e308, -1e308])


def _masked_relu(pre):
    """The layers' former ReLU: every entry that is not > 0 becomes 0.0."""
    out = pre.copy()
    np.copyto(out, 0.0, where=~(out > 0.0))
    return out


def _relu_layer(mode, rng, relu):
    """One layer whose bias is ``_RELU_SPECIALS``, on inputs of +-1e-300 and a normal row.

    A product of two +-1e-300 entries underflows to a zero of their sign, so
    those rows carry the specials into the pre-activation, and the normal row
    gives tiny values of either sign. Column 1 of the weights is -1e-300, input
    row 0 is +1e-300 and row 1 is -1e-300, and every entry of ``b`` is +1e-300:
    then row 0 (for the edge form, edge 1 -> 0) sums -0.0 products and the
    -0.0 bias to a -0.0 pre-activation.
    """
    def tiny(rows, cols):
        x = rng.choice([1e-300, -1e-300], size=(rows, cols))
        x[:2] = [[1e-300], [-1e-300]][:rows]
        return x

    bias = Tensor(_RELU_SPECIALS.copy())
    if mode == "linear":
        x = np.concatenate([tiny(6, 5), rng.standard_normal((1, 5))])
        w = tiny(5, 10)
        w[:, 1] = -1e-300
        return linear(Tensor(x), Tensor(w), bias, relu)
    per_node = mode in ("edge", "identity")
    a = np.concatenate([tiny(4 if per_node else 5, 3), rng.standard_normal((1, 3))])
    b = np.full((5 if per_node else 3, 4), 1e-300)
    w = tiny(7, 10)
    w[:, 1] = -1e-300
    rows = {"edge": _DST, "identity": None}.get(mode, _GATHER)
    layer = _split_linear if relu else _split_pre_activation
    return Tensor(layer(a, b, w, bias.data, rows, 2 if mode == "edge" else 0))


def _holds_every_special(pre):
    zero, nan, neg = pre == 0.0, np.isnan(pre), np.signbit(pre)
    return ((zero & neg).any() and (zero & ~neg).any() and (nan & neg).any()
            and (nan & ~neg).any() and (pre > 0.0).any() and (pre < 0.0).any()
            and all((pre == v).any() for v in _RELU_SPECIALS[4:]))


@pytest.mark.parametrize("mode", ["linear"] + _SPLIT_MODES)
def test_relu_matches_the_masked_copy_byte_for_byte(mode):
    """The output equals the masked copy of the layer's own pre-activation, sign bits included."""
    with np.errstate(invalid="ignore"):
        pre = _relu_layer(mode, np.random.default_rng(29), relu=False).data
        out = _relu_layer(mode, np.random.default_rng(29), relu=True).data
    assert _holds_every_special(pre)
    assert _bits(out) == _bits(_masked_relu(pre))
    assert not np.isnan(out).any() and not np.signbit(out).any()


@pytest.mark.parametrize("length", range(1, 18))
def test_relu_maps_every_special_value_like_the_masked_copy_in_every_position(length):
    """Each special value meets each position of arrays of 1 to 17 entries.

    Vectorized loops treat the tail of an array apart from its body, and
    ``fmax`` keeps -0.0 in some positions but not in others.
    """
    for shift in range(len(_RELU_SPECIALS)):
        pre = np.resize(np.roll(_RELU_SPECIALS, shift), length)
        out = pre.copy()
        _relu_inplace(out)
        assert _bits(out) == _bits(_masked_relu(pre))


@pytest.mark.parametrize("column", [False, True], ids=["full", "column"])
def test_zero_unless_positive_matches_np_where_byte_for_byte(column):
    """Each special value of ``g`` (NaN of either sign, ±inf, ±0.0, subnormals) meets each
    of ``x``, for a mask of ``g``'s shape and for a broadcast (rows, 1) one."""
    values = np.concatenate([_RELU_SPECIALS, [1.0, -2.5]])
    n = len(values)
    g = np.tile(values, (n, 1))  # g[i, j] = values[j]
    x = values[:, None] if column else g.T.copy()  # x[i, j] = values[i]
    x_before = x.copy()
    out = g.copy()
    _zero_unless_positive(out, x)
    with np.errstate(invalid="ignore"):
        assert _bits(out) == _bits(np.where(x > 0, g, 0.0))
    assert _bits(x) == _bits(x_before)


def test_two_relu_layers_handed_one_gradient_each_mask_their_own():
    """``add`` hands one gradient array to two ``linear(relu=True)`` parents over one
    input. Each masks its gradient in place, so this holds only while ``backward`` gives
    every node a gradient no other node holds."""
    rng = np.random.default_rng(31)
    x_data = rng.standard_normal((9, 5))
    w_data = [rng.standard_normal((5, 4)) for _ in range(2)]
    b_data = [rng.standard_normal(4) for _ in range(2)]
    upstream = rng.standard_normal((9, 4))
    x = Tensor(x_data.copy(), requires_grad=True)
    ws = [Tensor(w.copy(), requires_grad=True) for w in w_data]
    bs = [Tensor(b.copy(), requires_grad=True) for b in b_data]
    outs = [linear(x, w, b, relu=True) for w, b in zip(ws, bs)]
    sum_all(mul(add(*outs), Tensor(upstream))).backward()
    masked = [np.where(out.data > 0.0, upstream, 0.0) for out in outs]
    assert ((outs[0].data > 0.0) != (outs[1].data > 0.0)).any()  # a shared array would show
    for w, b, g in zip(ws, bs, masked):
        assert _bits(w.grad) == _bits(x_data.T @ g)
        assert _bits(b.grad) == _bits(g.sum(axis=0))
    assert _bits(x.grad) == _bits(masked[0] @ w_data[0].T + 0.0 + masked[1] @ w_data[1].T)


def _concat_infuse_context(chunks, summaries, params, num_cells):
    """Context infusion with the concatenated first layer and the output layer per node,
    then the per-cell mean of the nodes' outputs as one plain node."""
    mixed = []
    for _, nodes, rows in chunks:
        tiled = gather_rows(summaries, np.repeat(rows, nodes.data.shape[0] // len(rows)))
        d = nodes.data.shape[1]
        mixed.append(mlp_forward(MlpSpec((2 * d, d, d)), params, "context_mlp",
                                 concat_cols([nodes, tiled])))
    scale = _cell_scale(np.concatenate([c for c, _, _ in chunks]), num_cells)
    mean = np.zeros((num_cells, mixed[0].data.shape[1]))
    for (cells, _, _), t in zip(chunks, mixed):
        _scatter_add(mean, cells, t.data)
    mean *= scale[:, None]
    return _make(mean, tuple(mixed),
                 lambda g: tuple((g * scale[:, None])[cells] for cells, _, _ in chunks))


def test_run_gqn_matches_the_concatenated_first_layers(monkeypatch):
    config = pipeline.GqnConfig()
    scene_spec = SceneSpec(16, 16, config.d, boxes=demo_boxes(16, 16, config.d, 2, 0),
                           clutter_density=0.05, noise_amplitude=0.05, seed=0)
    grid, _ = generate_scene(scene_spec)
    flat = flatten_grid(grid, sinusoidal_encoding(16, 16, config.d))
    params = pipeline.init_params(config, flat.m_bev)

    def maps_and_grads():
        out = pipeline.run_gqn(flat, config, params, global_map=flat.states)
        maps = [m.data for m in out.set_maps]
        maps += [out.concat_map.data, out.skip_map.data, out.fused_map.data,
                 out.global_vectors.data]
        return maps, backward(sum_all(out.fused_map), params)

    maps, grads = maps_and_grads()
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "edge_focus_update", unfolded_edge_focus_update)
        patch.setattr(pipeline, "infuse_context", _concat_infuse_context)
        ref_maps, ref_grads = maps_and_grads()

    for got, ref in zip(maps, ref_maps, strict=True):
        _assert_close(got, ref, 1e-9)
    # ctx_attn/bk has an analytically zero gradient (softmax ignores a per-row
    # shift), so it is rounding noise either way: hold it to an absolute floor.
    floor = 1e-12 * max(np.abs(g).max() for g in ref_grads.values())
    for name, ref in ref_grads.items():
        tol = max(1e-9 * np.abs(ref).max(), floor)
        assert np.abs(grads[name] - ref).max() <= tol, name


def test_mlp_records_one_tape_node_per_layer():
    spec = MlpSpec((3, 5, 4, 2))
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
    spec = MlpSpec((4, 6, 4))
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


def test_attention_layer_is_one_tape_node_that_keeps_q_k_v_and_its_weights():
    """The layer's parents are x and Wq, bq, Wk, bk, Wv, bv. Of the (tau, tau) arrays it
    forms it keeps only the attention weights p: not the scores, nor the scaled scores."""
    tau, d = 5, 4
    params = _attn_params(d, seed=3)
    x = Tensor(np.random.default_rng(3).standard_normal((tau, d)), requires_grad=True)
    out = self_attention_layer(x, params, "ctx_attn")
    weights = tuple(params[f"ctx_attn/{p}"] for p in ("Wq", "bq", "Wk", "bk", "Wv", "bv"))
    assert out._parents[0] is x and out._parents[1:] == weights
    tape = _toposort(out)
    assert [t for t in tape if t._backprop is not None] == [out]
    assert not [t for t in tape if t.data.shape == (tau, tau)]
    kept = [c for c in (cell.cell_contents for cell in out._backprop.__closure__)
            if isinstance(c, np.ndarray) and not any(c is w.data for w in weights)]
    assert sorted(a.shape for a in kept) == [(tau, d)] * 3 + [(tau, tau)]
    wq, bq, wk, bk = (w.data for w in weights[:4])
    scores = (x.data @ wq + bq) @ (x.data @ wk + bk).T / math.sqrt(d)
    (p,) = [a for a in kept if a.shape == (tau, tau)]
    np.testing.assert_allclose(p, row_softmax(Tensor(scores)).data, rtol=1e-12)


def test_stacked_attention_layers_match_finite_differences_in_their_input():
    """Two shared-weight layers, as ``deep_context.context_exchange`` stacks them, with their
    input registered as a parameter: x's gradient is the residual's plus q's, k's and v's."""
    tau, d = 5, 4
    params = _attn_params(d, seed=11)
    params.register("x/in", (tau, d))
    rng = np.random.default_rng(11)
    for b in ("bq", "bk", "bv"):
        params[f"ctx_attn/{b}"].data[...] = rng.standard_normal(d)

    def fn(p):
        h = p["x/in"]
        for _ in range(2):
            h = self_attention_layer(h, p, "ctx_attn")
        return sum_all(mul(h, h))

    errs = grad_check_groups(fn, params, eps=1e-5)
    assert set(errs) == {"ctx_attn", "x"} and max(errs.values()) <= 1e-6


# ----------------------------------------------------------------------------
# backward / grad_check


def test_backward_linear_gradient_is_exact():
    x = np.array([[1.5, -2.0, 0.25]])
    w = Tensor(np.zeros((1, 3)), requires_grad=True)
    rowdot(w, Tensor(x)).backward()
    np.testing.assert_array_equal(w.grad, x)


def test_no_grad_records_nothing_and_keeps_forward_values():
    spec = MlpSpec((4, 6, 3))
    params = ParamStore(seed=6)
    params.register_mlp("net", spec)
    x = Tensor(np.random.default_rng(6).standard_normal((5, 4)))

    def forward():
        return mlp_forward(spec, params, "net", x)

    recorded = forward()
    with no_grad():
        with no_grad():
            forward()
        out = forward()
        seen = []
        thread = threading.Thread(target=lambda: seen.append(forward().requires_grad))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert not out.requires_grad and out._parents == () and out._backprop is None
    assert _bits(out.data) == _bits(recorded.data)
    assert recorded.requires_grad and seen == [True]  # another thread still records
    assert all(t.requires_grad for _, t in params.items())
    with pytest.raises(RuntimeError), no_grad():
        raise RuntimeError
    assert forward().requires_grad  # recording resumes on exit, also after an error


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
        return sum_all(mul(w, w))

    assert grad_check(fn, params, eps=1e-5) <= 1e-9


def test_grad_check_linear_is_exact():
    params = ParamStore(seed=2)
    params.register("w/a", (1, 4))
    c = np.array([[1.0, -2.0, 3.0, 0.5]])

    def fn(p):
        return rowdot(p["w/a"], Tensor(c))

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
        store.register_mlp("net", MlpSpec((2, 3, 1)))
    for name, t in a.items():
        assert np.array_equal(t.data, b[name].data)
    # ``layers`` gives back what ``register_mlp`` made, in layer order
    layers = a.layers("net")
    assert [(w.data.shape, bias.data.shape) for w, bias in layers] == [((2, 3), (3,)),
                                                                       ((3, 1), (1,))]
    assert all(w is a[f"net/W{i}"] and bias is a[f"net/b{i}"]
               for i, (w, bias) in enumerate(layers))
    assert a.layers("m") == [] and a.layers("missing") == []


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
    # a matrix's fans are its shape; a (d,) vector's are (d, d)
    params = ParamStore(seed=0)
    for name, shape, bound in (("m/W", (50, 30), math.sqrt(6.0 / 80.0)),
                               ("m/u", (24,), math.sqrt(6.0 / (2 * 24)))):
        t = params.register(name, shape)
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
    sum_all(mul(out, Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])))).backward()
    np.testing.assert_array_equal(t.grad, [[0.0, 2.0], [1.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
    with pytest.raises(ContractError):
        max_rows(t, 3)


def test_matvec_rows_rows_are_matvec_bits():
    rng = np.random.default_rng(12)
    a, xs = rng.standard_normal((37, 9)), rng.standard_normal((5, 9))
    out = matvec_rows(Tensor(a), Tensor(xs)).data
    for q in range(5):
        assert np.array_equal(out[q], a @ xs[q])
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
        return sum_all(mul(matvec_rows(p["p/A"], xs), Tensor(w)))

    assert grad_check(fn, params, eps=1e-5) <= 1e-8
    assert concat_rows([params["p/x"], params["p/X"]]).data.shape == (3, 3)
    with pytest.raises(ShapeError):
        concat_rows([Tensor(np.ones(3)), Tensor(np.ones((2, 4)))])


def test_concat_cols_orders_channels_by_part():
    a = Tensor(np.ones((4, 2)))
    b = Tensor(np.full((4, 2), 2.0))
    c = Tensor(np.full((4, 2), 3.0))
    out = concat_cols([a, b, c])
    assert out.data.shape == (4, 6)
    assert np.array_equal(out.data[:, 0:2], a.data)
    assert np.array_equal(out.data[:, 4:6], c.data)


def test_concat_cols_rejects_row_mismatch():
    with pytest.raises(ShapeError):
        concat_cols([Tensor(np.ones((4, 2))), Tensor(np.ones((5, 2)))])


def test_concat_cols_drops_constant_parts_from_the_tape():
    const = np.arange(8.0).reshape(4, 2)
    const_alive = weakref.ref(const)
    left = Tensor(np.ones((4, 1)), requires_grad=True)
    right = Tensor(np.ones((4, 3)), requires_grad=True)
    out = concat_cols([left, Tensor(const), right])
    del const
    assert const_alive() is None  # the output copied it; nothing else holds it
    upstream = np.arange(24.0).reshape(4, 6)
    sum_all(mul(out, Tensor(upstream))).backward()
    np.testing.assert_array_equal(left.grad, upstream[:, :1])
    np.testing.assert_array_equal(right.grad, upstream[:, 3:])


def test_scatter_mean_averages_by_contributor_count():
    cells, mean = np.array([1, 1]), np.zeros((3, 2))
    scale = _cell_scale(cells, 3)
    _scatter_add(mean, cells, np.array([[2.0, 0.0], [4.0, 2.0]]))
    mean *= scale[:, None]
    np.testing.assert_array_equal(mean, [[0.0, 0.0], [3.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(scale, [0.0, 0.5, 0.0])  # zero on the cells no row hits


@pytest.mark.parametrize("width", [1, 5])
def test_scatter_mean_equals_add_at_byte_for_byte(width):
    """Each cell adds its rows in contribution order, then row order, as the 2-D
    ``np.add.at`` does, then is scaled."""
    rng = np.random.default_rng(43)
    contributions = []
    for size in (7, 0, 25, 1, 18):
        ix = rng.integers(0, 10, size)  # repeats within a contribution and across them
        rows = rng.standard_normal((size, width)) * np.exp(rng.uniform(-30.0, 30.0, (size, width)))
        rows[ix == 3] = -0.0
        rows[ix == 4] = np.where(rng.random((int((ix == 4).sum()), width)) < 0.5, -0.0, np.inf)
        contributions.append((ix, Tensor(rows)))
    acc, cnt = np.zeros((12, width)), np.zeros(12)  # cells 10 and 11 get no row
    for ix, t in contributions:
        np.add.at(acc, ix, t.data)
        np.add.at(cnt, ix, 1.0)
    ref = acc * (1.0 / np.maximum(cnt, 1.0))[:, None]
    mean = np.zeros((12, width))
    for ix, t in contributions:
        _scatter_add(mean, ix, t.data)
    mean *= _cell_scale(np.concatenate([ix for ix, _ in contributions]), 12)[:, None]
    assert _bits(mean) == _bits(ref)


@pytest.mark.parametrize("shape", [(9,), (9, 4)])
def test_gather_rows_backward_equals_add_at_byte_for_byte(shape):
    """A vector's or a matrix's gathered gradient scatters back through ``_scatter_add`` with
    the bits of ``np.add.at`` into zeros: repeats add in gather order, -0.0 sums to +0.0."""
    rng = np.random.default_rng(53)
    idx = rng.integers(0, shape[0] - 1, 20)  # repeats; the last row is never gathered
    g = rng.standard_normal((20,) + shape[1:]) * np.exp(rng.uniform(-30.0, 30.0, (20,) + shape[1:]))
    g[idx == idx[0]] = -0.0
    g[idx == idx[1]] = np.inf
    t = Tensor(rng.standard_normal(shape), requires_grad=True)
    (grad,) = gather_rows(t, idx)._backprop(g)
    ref = np.zeros(shape)
    np.add.at(ref, idx, g)
    assert _bits(grad) == _bits(ref)


@pytest.mark.parametrize("k", [0, 3])
def test_split_linear_grads_scatter_equals_add_at_byte_for_byte(k):
    """The gathered rows' gradient scatters back to b's rows as ``np.add.at`` into zeros
    would: each row adds its terms left to right from +0.0 in gather order."""
    rng = np.random.default_rng(47)
    n, d_a, d_b, width = 6, 2, 3, 5
    m = n if k else 9  # row 8 of a gathered b is never gathered
    rows = rng.integers(0, m - (0 if k else 1), n * max(k, 1))  # repeats
    a, b = rng.standard_normal((n, d_a)), rng.standard_normal((m, d_b))
    w = rng.standard_normal((d_a + d_b, width))
    shape = (len(rows), width)
    g = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
    g[rows == rows[0]] = -0.0  # a row whose every term is -0.0 sums to +0.0
    gc = np.zeros((m, width))
    np.add.at(gc, rows, g)
    ga, gb, gw, _ = _split_linear_grads(g, a, b, w, rows, k)
    gh = gc - g.reshape(n, k, width).sum(axis=1) if k else g
    assert _bits(gb) == _bits(gc @ w[d_a:].T)
    assert _bits(gw[d_a:]) == _bits(b.T @ gc)
    assert _bits(ga) == _bits(gh @ w[:d_a].T)


@pytest.mark.parametrize("cell", [-1, 4])
def test_scatter_mean_rejects_cells_outside_the_map(cell):
    with pytest.raises(InvalidInputError):
        _cell_scale(np.array([0, cell]), 4)  # the scale of a mean is taken before its sums


def _left_to_right(terms):
    """Sum a (rows, k, c) stack over its k axis in stored order, from +0.0, one float at a time."""
    rows, k, c = terms.shape
    out = np.zeros((rows, c))
    for r in range(rows):
        for ch in range(c):
            total = 0.0
            for j in range(k):
                total += float(terms[r, j, ch])
            out[r, ch] = total
    return out


def _mix_inputs(kind, k, c, rng):
    n = 9
    if kind == "random":
        t = rng.standard_normal((n * k, c)) * np.exp(rng.uniform(-30.0, 30.0, (n * k, c)))
        return t, rng.uniform(0.0, 1.0, n * k)
    if kind == "ties":
        return rng.integers(-2, 3, (n * k, c)).astype(float), rng.integers(1, 3, n * k) / 2.0
    # signed zeros and infinities, mostly; row 0 is all -0.0 and row 1 holds both zeros
    t = rng.choice([0.0, -0.0, -0.0, np.inf, -np.inf, 1.5, -1.5], size=(n * k, c))
    t[:k] = -0.0
    t[k:2 * k] = np.where(np.arange(k) % 2, 0.0, -0.0)[:, None]
    return t, np.ones(n * k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 12, 13])
@pytest.mark.parametrize("kind", ["random", "ties", "zeros_and_infs"])
@pytest.mark.parametrize("c", [2, 3, 16])
def test_segment_mix_equals_the_sorted_sum_byte_for_byte(k, kind, c):
    """Each group adds its weighted rows in stored order (the name predates that order)."""
    t, w = _mix_inputs(kind, k, c, np.random.default_rng(31 + k))
    with np.errstate(invalid="ignore"):
        out = _segment_mix(t, w, k)
        ref = _left_to_right((t * w[:, None]).reshape(-1, k, c))
    assert _bits(out) == _bits(ref)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 12, 13])
def test_segment_mix_adds_one_channel_left_to_right(k):
    """One channel sums the addends left to right from +0.0, as wider inputs do.

    numpy's own ``sum`` over a single channel switches to pairwise summation
    at k >= 8, so there a plain reduction would round differently.
    """
    rng = np.random.default_rng(37)
    t = rng.standard_normal((9 * k, 1)) * np.exp(rng.uniform(-30.0, 30.0, (9 * k, 1)))
    t[:k] = -0.0
    assert _bits(_segment_mix(t, np.ones(9 * k), k)) == _bits(_left_to_right(t.reshape(9, k, 1)))


@pytest.mark.parametrize("kind", ["random", "ties", "zeros_and_infs"])
@pytest.mark.parametrize("c", [1, 6])
def test_attn_mix_adds_the_rows_of_values_left_to_right(kind, c):
    """Row i sums ``weights[i, j] * values[j]`` over j in stored order, for one channel too."""
    rng = np.random.default_rng(41)
    values = _mix_inputs(kind, 2, c, rng)[0][:13]
    weights = rng.uniform(0.0, 1.0, (7, 13))
    with np.errstate(invalid="ignore"):
        out = _attn_mix(weights, values)
        ref = _left_to_right(weights[:, :, None] * values[None, :, :])
    assert _bits(out) == _bits(ref)


def test_attn_mix_matches_plain_matmul():
    rng = np.random.default_rng(2)
    w, v = rng.random((5, 5)), rng.standard_normal((5, 3))
    out = _attn_mix(w, v)
    np.testing.assert_allclose(out, w @ v, atol=1e-12)


def test_matvec_shape_error():
    with pytest.raises(ShapeError):  # one vector is a (1, d) matrix of rows
        matvec_rows(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))


def test_composite_gradient_matches_finite_differences():
    # exercise linear/gather/row_softmax/concat/segment mix/scale in one closure
    rng = np.random.default_rng(7)
    params = ParamStore(seed=7)
    params.register("p/W", (4, 4))
    x = rng.standard_normal((6, 4))
    mix_w = rng.random(4)

    def fn(p):
        h = linear(Tensor(x), p["p/W"], Tensor(np.zeros(4)))
        g = gather_rows(h, np.array([0, 2, 2, 5]))
        s = row_softmax(g)
        mixed = mix_node(concat_cols([g, s]), Tensor(mix_w), 2)
        return sum_all(scale_rows(mixed, Tensor(np.array([0.5, 2.0]))))

    assert grad_check(fn, params, eps=1e-5) <= 1e-6
