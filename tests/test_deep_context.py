import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gqn.autodiff import (MlpSpec, ParamStore, Tensor, _cell_scale, _make, _scatter_add,
                          _toposort, as_tensor, backward, concat_rows, grad_check, mul,
                          register_attention, sum_all)
from gqn import pipeline
from gqn.deep_context import context_exchange, infuse_context, pool_query
from gqn.errors import ConfigError, ContractError, ShapeError
from gqn.scene import SceneSpec, demo_boxes, flatten_grid, generate_scene, sinusoidal_encoding
from split_mlp_node import split_mlp_node


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


def _one_chunk(nodes, cells=None, row=0):
    """One query's nodes as one chunk, node i in cell i unless ``cells`` says otherwise."""
    nodes = as_tensor(nodes)
    return [(np.arange(len(nodes.data)) if cells is None else np.asarray(cells), nodes, [row])]


def test_infuse_passthrough_of_node_half():
    # relu(x) and relu(-x) of the node half side by side, then their difference x
    eye, zeros = np.eye(3), np.zeros((3, 3))
    params = _eta(np.block([[eye, -eye], [zeros, zeros]]), np.vstack([eye, -eye]))
    nodes = Tensor(np.random.default_rng(1).standard_normal((5, 3)))
    out = infuse_context(_one_chunk(nodes), Tensor(np.array([[9.0, -9.0, 4.0]])), params, 7)
    np.testing.assert_allclose(out.data[:5], nodes.data, atol=1e-15)
    assert np.array_equal(out.data[5:], np.zeros((2, 3)))


def test_infuse_zero_weights_bias_everywhere():
    params = _eta(np.zeros((6, 3)), np.zeros((3, 3)))
    params["context_mlp/b1"].data[...] = [1.0, 2.0, 3.0]
    out = infuse_context(_one_chunk(np.zeros((4, 3))), Tensor(np.zeros((1, 3))), params, 4)
    np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))


def test_infuse_leaves_uncovered_cells_zero_and_without_gradient():
    """The output layer runs on every cell, and a cell no node covers is zeroed: it gets
    no bias and passes no gradient to W1 or b1."""
    params = ParamStore(seed=2)
    params.register_mlp("context_mlp", MlpSpec((6, 3, 3)))
    params["context_mlp/b1"].data[...] = [1.0, 2.0, 3.0]
    nodes = Tensor(np.random.default_rng(3).standard_normal((3, 3)))
    out = infuse_context(_one_chunk(nodes, cells=[4, 1, 4]), Tensor(np.ones((1, 3))), params, 6)
    covered = np.isin(np.arange(6), [1, 4])
    assert np.array_equal(out.data[~covered], np.zeros((4, 3)))
    sum_all(out).backward()
    np.testing.assert_array_equal(params["context_mlp/b1"].grad, [2.0, 2.0, 2.0])


def test_infuse_identical_nodes_identical_outputs():
    params = ParamStore(seed=2)
    params.register_mlp("context_mlp", MlpSpec((6, 3, 3)))
    nodes = np.tile([0.5, 0.5, -1.0], (3, 1))
    out = infuse_context(_one_chunk(nodes), Tensor(np.ones((1, 3))), params, 3).data
    assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])


def test_infuse_width_mismatch():
    params = ParamStore(seed=0)
    params.register_mlp("context_mlp", MlpSpec((5, 3, 3)))
    with pytest.raises(ShapeError):
        infuse_context(_one_chunk(np.zeros((2, 3))), Tensor(np.zeros((1, 3))), params, 2)


def test_infuse_rejects_a_summary_vector():
    params = _eta(np.zeros((6, 3)), np.zeros((3, 3)))
    with pytest.raises(ShapeError):  # one summary is a (1, d) matrix, picked by rows=[0]
        infuse_context(_one_chunk(np.zeros((2, 3))), Tensor(np.zeros(3)), params, 2)


def test_infuse_rejects_empty_rows():
    params = _eta(np.zeros((6, 3)), np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        infuse_context([(np.arange(2), Tensor(np.zeros((2, 3))), [])], Tensor(np.zeros((1, 3))),
                       params, 2)


def test_infuse_rejects_cells_not_one_per_node_and_no_chunks():
    params = _eta(np.zeros((6, 3)), np.zeros((3, 3)))
    summaries = Tensor(np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        infuse_context(_one_chunk(np.zeros((2, 3)), cells=[0]), summaries, params, 2)
    with pytest.raises(ContractError):
        infuse_context([], summaries, params, 2)


def test_output_width_matches_d_per_node():
    params = ParamStore(seed=3)
    params.register_mlp("context_mlp", MlpSpec((8, 4, 4)))
    out = infuse_context(_one_chunk(np.random.default_rng(4).standard_normal((6, 4))),
                         Tensor(np.zeros((1, 4))), params, 9)
    assert out.data.shape == (9, 4)


def test_module_gradients_match_finite_differences():
    d = 4
    rng = np.random.default_rng(5)
    params = _ctx_params(d, seed=6)
    params.register_mlp("context_mlp", MlpSpec((2 * d, d, d)))
    node_sets = [rng.standard_normal((3, d)), rng.standard_normal((5, d))]
    cells = [np.array([0, 2, 5]), np.array([2, 1, 2, 5, 3])]  # cell 4 stays empty

    def fn(p):
        pooled = concat_rows([pool_query(Tensor(v)) for v in node_sets])
        mixed = context_exchange(pooled, 2, p)
        return sum_all(infuse_context([(c, Tensor(v), [i]) for i, (c, v)
                                       in enumerate(zip(cells, node_sets))], mixed, p, 6))

    assert grad_check(fn, params, eps=1e-5, max_coords_per_param=8, seed=1) <= 1e-4


# ----------------------------------------------------------------------------
# the fold against the unfolded form


def _scatter_mean_node(contributions, num_cells):
    """The per-cell mean of (cells, rows) contributions as one plain node."""
    scale = _cell_scale(np.concatenate([c for c, _ in contributions]), num_cells)
    mean = np.zeros((num_cells, contributions[0][1].data.shape[1]))
    for cells, t in contributions:
        _scatter_add(mean, cells, t.data)
    mean *= scale[:, None]
    return _make(mean, tuple(t for _, t in contributions),
                 lambda g: tuple((g * scale[:, None])[cells] for cells, _ in contributions))


def _unfolded_infuse_context(chunks, summaries, params, num_cells):
    """Context infusion as it ran before the fold: one split-MLP node per chunk, which
    keeps its (Q*n, d) output, then one mean of those outputs per cell."""
    mixed = [(np.asarray(cells), split_mlp_node(
        params, "context_mlp", nodes, summaries,
        rows=np.repeat(rows, nodes.data.shape[0] // len(rows))))
        for cells, nodes, rows in chunks]
    return _scatter_mean_node(mixed, num_cells)


def _infusion_case(seed, queries=(2, 1, 3), n=5, d=8, tau=7, num_cells=24):
    """Chunks of ``queries`` queries of n nodes each over overlapping cells, some cells
    empty; nodes, summaries and the context MLP are parameters."""
    rng = np.random.default_rng(seed)
    params = ParamStore(seed=seed)
    params.register_mlp("context_mlp", MlpSpec((2 * d, d, d)))
    for name in ("context_mlp/b0", "context_mlp/b1"):
        params[name].data[...] = rng.standard_normal(d)
    params.register("in/summaries", (tau, d))
    chunks, first = [], 0
    for i, q in enumerate(queries):
        nodes = params.register(f"in/nodes{i}", (q * n, d))
        cells = rng.integers(0, num_cells - 4, q * n)  # the last four cells stay empty
        chunks.append((cells, nodes, np.arange(first, first + q)))
        first += q
    return params, chunks, rng.standard_normal((num_cells, d))


def _map_and_grads(infuse, seed):
    params, chunks, upstream = _infusion_case(seed)
    out = infuse(chunks, params["in/summaries"], params, len(upstream))
    sum_all(mul(out, Tensor(upstream))).backward()
    return out.data, {name: t.grad for name, t in params.items()}


@pytest.mark.parametrize("seed", range(3))
def test_infuse_matches_the_unfolded_mlp_then_mean(seed):
    """Running the output layer after the mean moves the map and every gradient (nodes,
    summaries and weights) by rounding only."""
    out, grads = _map_and_grads(infuse_context, seed)
    ref, ref_grads = _map_and_grads(_unfolded_infuse_context, seed)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    for name, g in ref_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


def test_infuse_is_one_tape_node_that_keeps_no_per_node_array():
    params, chunks, _ = _infusion_case(0)
    out = infuse_context(chunks, params["in/summaries"], params, 24)
    weights = tuple(params[f"context_mlp/{p}{i}"] for i in range(2) for p in "Wb")
    assert out._parents == tuple(nodes for _, nodes, _ in chunks) + (
        params["in/summaries"],) + weights
    assert [t for t in _toposort(out) if t._backprop is not None] == [out]
    # the backward holds the cells, the per-node summary rows and the (24,) scale:
    # no float array with a row per node or per cell
    held = [c for c in (cell.cell_contents for cell in out._backprop.__closure__)]
    assert [a.shape for a in held if isinstance(a, np.ndarray) and a.dtype != np.intp] == [(24,)]


def test_infuse_one_query_at_a_time_gives_the_chunked_bits():
    params, chunks, upstream = _infusion_case(4)
    summaries = params["in/summaries"]
    per_query = [(cells[i * 5:(i + 1) * 5], Tensor(nodes.data[i * 5:(i + 1) * 5]), [row])
                 for cells, nodes, rows in chunks for i, row in enumerate(rows)]
    chunked = infuse_context(chunks, summaries, params, len(upstream)).data
    assert len(per_query) == 6
    assert chunked.tobytes() == infuse_context(per_query, summaries, params,
                                               len(upstream)).data.tobytes()


def test_run_gqn_matches_the_unfolded_infusion(monkeypatch):
    """The reference config end to end, with the unfolded infusion as the oracle."""
    config = pipeline.GqnConfig()
    scene_spec = SceneSpec(16, 16, config.d, boxes=demo_boxes(16, 16, config.d, 2, 0),
                           clutter_density=0.05, noise_amplitude=0.05, seed=0)
    grid, _ = generate_scene(scene_spec)
    flat = flatten_grid(grid, sinusoidal_encoding(16, 16, config.d))
    params = pipeline.init_params(config, flat.m_bev)

    def maps_and_grads():
        out = pipeline.run_gqn(flat, config, params, global_map=flat.states)
        maps = [m.data for m in out.set_maps] + [out.skip_map.data, out.fused_map.data]
        return maps, backward(sum_all(out.fused_map), params)

    maps, grads = maps_and_grads()
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "infuse_context", _unfolded_infuse_context)
        ref_maps, ref_grads = maps_and_grads()

    for got, ref in zip(maps, ref_maps, strict=True):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # ctx_attn/bk has an analytically zero gradient (softmax ignores a per-row
    # shift), so it is rounding noise either way: hold it to an absolute floor.
    floor = 1e-12 * max(np.abs(g).max() for g in ref_grads.values())
    for name, ref in ref_grads.items():
        tol = max(1e-12 * np.abs(ref).max(), floor)
        assert np.abs(grads[name] - ref).max() <= tol, name
