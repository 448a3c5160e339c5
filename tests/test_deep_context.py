import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gqn.autodiff import (MlpSpec, ParamStore, Tensor, concat_rows, grad_check,
                          register_attention, sum_all)
from gqn.deep_context import context_exchange, infuse_context, pool_query
from gqn.errors import ConfigError, ContractError, ShapeError


def _ctx_params(d, seed=0):
    params = ParamStore(seed=seed)
    register_attention(params, "ctx_attn", d)
    return params


# ----------------------------------------------------------------------------
# pooling


def test_pool_single_node_is_that_node():
    v = np.array([[0.3, -2.0, 5.0]])
    np.testing.assert_array_equal(pool_query(Tensor(v)).data, v)


def test_pool_elementwise_max():
    v = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
    np.testing.assert_array_equal(pool_query(v).data, [[3.0, 5.0]])


def test_pool_identical_nodes():
    row = np.array([0.1, 0.2, 0.3])
    v = Tensor(np.tile(row, (7, 1)))
    np.testing.assert_array_equal(pool_query(v).data, [row])


def test_pool_rejects_empty():
    with pytest.raises(ContractError):
        pool_query(Tensor(np.zeros((0, 3))))


@given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_pool_monotone_under_extra_node(n, seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, 4))
    extra = rng.standard_normal((1, 4))
    pooled = pool_query(Tensor(base)).data
    grown = pool_query(Tensor(np.vstack([base, extra]))).data
    assert np.all(grown >= pooled)


# ----------------------------------------------------------------------------
# context exchange


def test_zero_steps_is_exact_identity():
    params = _ctx_params(4)
    g = concat_rows([Tensor(np.arange(4.0)), Tensor(np.ones(4))])
    out = context_exchange(g, 0, params)
    assert out is g


def test_single_summary_zero_value_projection_residual_only():
    params = _ctx_params(4)
    params["ctx_attn/Wv"].data[...] = 0.0
    g = Tensor(np.random.default_rng(0).standard_normal((1, 4)))
    out = context_exchange(g, 3, params)
    np.testing.assert_array_equal(out.data, g.data)


def test_exchange_rejects_negative_steps():
    params = _ctx_params(4)
    with pytest.raises(ConfigError):
        context_exchange(Tensor(np.zeros((2, 4))), -1, params)


# ----------------------------------------------------------------------------
# context infusion


def _eta(w0, w1, seed=0):
    """The two-layer context MLP with weights ``w0`` and ``w1`` and zero biases."""
    params = ParamStore(seed=seed)
    params.register_mlp("context_mlp", MlpSpec((w0.shape[0], w0.shape[1], w1.shape[1])))
    for i, w in enumerate((w0, w1)):
        params[f"context_mlp/W{i}"].data[...] = w
        params[f"context_mlp/b{i}"].data[...] = 0.0
    return params


def test_infuse_passthrough_of_node_half():
    # relu(x) and relu(-x) of the node half side by side, then their difference x
    eye, zeros = np.eye(3), np.zeros((3, 3))
    params = _eta(np.block([[eye, -eye], [zeros, zeros]]), np.vstack([eye, -eye]))
    nodes = Tensor(np.random.default_rng(1).standard_normal((5, 3)))
    out = infuse_context(nodes, Tensor(np.array([[9.0, -9.0, 4.0]])), params, rows=[0])
    np.testing.assert_allclose(out.data, nodes.data, atol=1e-15)


def test_infuse_zero_weights_bias_everywhere():
    params = _eta(np.zeros((6, 3)), np.zeros((3, 3)))
    params["context_mlp/b1"].data[...] = [1.0, 2.0, 3.0]
    out = infuse_context(Tensor(np.zeros((4, 3))), Tensor(np.zeros((1, 3))), params, rows=[0])
    np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))


def test_infuse_identical_nodes_identical_outputs():
    params = ParamStore(seed=2)
    params.register_mlp("context_mlp", MlpSpec((6, 3, 3)))
    nodes = Tensor(np.tile([0.5, 0.5, -1.0], (3, 1)))
    out = infuse_context(nodes, Tensor(np.ones((1, 3))), params, rows=[0]).data
    assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])


def test_infuse_width_mismatch():
    params = ParamStore(seed=0)
    params.register_mlp("context_mlp", MlpSpec((5, 3, 3)))
    with pytest.raises(ShapeError):
        infuse_context(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))), params, rows=[0])


def test_infuse_rejects_a_summary_vector():
    params = _eta(np.zeros((6, 3)), np.zeros((3, 3)))
    with pytest.raises(ShapeError):  # one summary is a (1, d) matrix, picked by rows=[0]
        infuse_context(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)), params, rows=[0])


def test_infuse_rejects_empty_rows():
    params = _eta(np.zeros((6, 3)), np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        infuse_context(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))), params, rows=[])


def test_output_width_matches_d_per_node():
    params = ParamStore(seed=3)
    params.register_mlp("context_mlp", MlpSpec((8, 4, 4)))
    out = infuse_context(Tensor(np.random.default_rng(4).standard_normal((6, 4))),
                         Tensor(np.zeros((1, 4))), params, rows=[0])
    assert out.data.shape == (6, 4)


def test_module_gradients_match_finite_differences():
    d = 4
    rng = np.random.default_rng(5)
    params = _ctx_params(d, seed=6)
    params.register_mlp("context_mlp", MlpSpec((2 * d, d, d)))
    node_sets = [rng.standard_normal((3, d)), rng.standard_normal((5, d))]

    def fn(p):
        pooled = concat_rows([pool_query(Tensor(v)) for v in node_sets])
        mixed = context_exchange(pooled, 2, p)
        return sum_all(concat_rows([infuse_context(Tensor(v), mixed, p, rows=[i])
                                    for i, v in enumerate(node_sets)]))

    assert grad_check(fn, params, eps=1e-5, max_coords_per_param=8, seed=1) <= 1e-4
