import numpy as np
import pytest

from gqn import pipeline
from gqn.autodiff import (MlpSpec, ParamStore, Tensor, _toposort, as_tensor, backward,
                          concat_cols, concat_rows, gather_rows, sum_all)
from gqn.deep_context import context_exchange, infuse_context, pool_query
from gqn.edge_focus import edge_focus_update
from gqn.errors import ConfigError, ShapeError
from gqn.pipeline import (GqnConfig, fusion_weights, init_params, mask_loss, run_gqn,
                          skip_fuse, soft_fusion, toy_train)
from gqn.query_init import QuerySetSpec, init_graph_query
from gqn.scene import (FlatPairs, SceneSpec, demo_boxes, flatten_grid, generate_scene,
                       sinusoidal_encoding)

TOY_SETS = (QuerySetSpec(4, 0.1, 2), QuerySetSpec(4, 0.2, 3))


def toy_config(**kw):
    defaults = dict(d=8, context_steps=2, sets=TOY_SETS, seed=0)
    defaults.update(kw)
    return GqnConfig(**defaults)


def toy_inputs(h=8, w=8, d=8, seed=0):
    spec = SceneSpec(h, w, d, boxes=demo_boxes(h, w, d, 2, seed),
                     clutter_density=0.1, noise_amplitude=0.05, seed=seed)
    grid, truth = generate_scene(spec)
    flat = flatten_grid(grid, sinusoidal_encoding(h, w, d))
    return spec, flat, truth


# ----------------------------------------------------------------------------
# configuration and parameters


def test_config_requires_strictly_ascending_ratios():
    with pytest.raises(ConfigError):
        GqnConfig(d=8, sets=(QuerySetSpec(2, 0.2, 2), QuerySetSpec(2, 0.2, 3)))


@pytest.mark.parametrize("base", [1.0, 0.5, 0.0, -2.0, float("inf"), float("nan")])
def test_config_rejects_a_frequency_base_not_above_one_or_not_finite(base):
    with pytest.raises(ConfigError, match="freq_base must be a finite number above 1"):
        toy_config(freq_base=base)


def test_config_accepts_a_frequency_base_just_above_one():
    assert toy_config(freq_base=1.0 + 2 ** -52).freq_base > 1.0


def test_default_config_matches_reference_dimensions():
    cfg = GqnConfig()
    assert cfg.tau == 96
    assert cfg.mlp1_spec.widths == (320, 128, 64)   # 64*5 -> 128 -> 64
    assert cfg.mlp2_spec.widths == (128, 64, 2)     # 64*2 -> 64 -> 2
    edge_mlp = init_params(cfg, 32 * 32).layers("edge_mlp")  # the stage reads the store
    assert [(w.data.shape, b.data.shape) for w, b in edge_mlp] == [((128, 64), (64,)),
                                                                   ((64, 64), (64,))]
    assert cfg.context_steps == 6
    assert [s.k for s in cfg.sets] == [4, 8, 12]
    assert [s.ratio for s in cfg.sets] == [0.10, 0.20, 0.30]


def test_init_params_same_seed_bitidentical():
    a = init_params(toy_config(), 64)
    b = init_params(toy_config(), 64)
    assert a.names() == b.names()
    for name, t in a.items():
        assert np.array_equal(t.data, b[name].data)


def test_init_params_registers_one_global_vector_per_query():
    params = init_params(toy_config(), 64)
    assert sum(1 for n in params.names() if n.startswith("query_global/")) == 8


def test_default_config_registers_96_global_vectors():
    params = init_params(GqnConfig(), 4096)
    assert sum(1 for n in params.names() if n.startswith("query_global/")) == 96


def test_init_params_rejects_k_not_below_n():
    cfg = toy_config(sets=(QuerySetSpec(2, 0.1, 7),))  # n = round(6.4) = 6 <= k
    with pytest.raises(ConfigError):
        init_params(cfg, 64)


# ----------------------------------------------------------------------------
# projection / concatenation / fusion


def _node_mean(contributions, num_cells):
    """A set map whose context MLP passes each node through as relu(x) - relu(-x), and so
    the per-cell mean of the (cells, node rows) contributions, one query each."""
    d = np.shape(contributions[0][1])[1]
    eye, params = np.eye(d), ParamStore(seed=0)
    params.register_mlp("context_mlp", MlpSpec((2 * d, 2 * d, d)))
    params["context_mlp/W0"].data[...] = np.block([[eye, -eye], [np.zeros((d, 2 * d))]])
    params["context_mlp/W1"].data[...] = np.vstack([eye, -eye])
    chunks = [(np.array(cells), Tensor(np.array(rows)), [0]) for cells, rows in contributions]
    return infuse_context(chunks, Tensor(np.zeros((1, d))), params, num_cells).data


def test_projection_single_node_writes_single_cell():
    out = _node_mean([([2 * 4 + 3], [[1.0, 2.0, 3.0]])], 16)  # cell (2,3) of 4x4
    assert np.array_equal(out[11], [1.0, 2.0, 3.0])
    assert np.count_nonzero(out) == 3


def test_projection_averages_contributors():
    out = _node_mean([([5], [[2.0, 4.0]]), ([5], [[6.0, 0.0]])], 9)
    np.testing.assert_array_equal(out[5], [4.0, 2.0])


def test_projection_untouched_cells_zero():
    out = _node_mean([([0], np.ones((1, 2)))], 4)
    assert np.array_equal(out[1:], np.zeros((3, 2)))


def _fusion_params(cfg):
    params = ParamStore(seed=0)
    params.register_mlp("mlp1", cfg.mlp1_spec)
    params.register_mlp("mlp2", cfg.mlp2_spec)
    return params


def test_skip_fuse_zero_weights_yields_bias():
    cfg = toy_config()
    params = _fusion_params(cfg)
    for name in ("mlp1/W0", "mlp1/b0", "mlp1/W1"):
        params[name].data[...] = 0.0
    params["mlp1/b1"].data[...] = np.arange(8.0)
    m = 6
    out = skip_fuse(Tensor(np.random.default_rng(0).standard_normal((m, 8))),
                    [Tensor(np.zeros((m, 8))), Tensor(np.zeros((m, 8)))], Tensor(np.zeros((m, 8))),
                    params, cfg.mlp1_spec)
    np.testing.assert_array_equal(out.data, np.tile(np.arange(8.0), (m, 1)))


def test_skip_fuse_is_per_cell_pure():
    cfg = toy_config()
    params = _fusion_params(cfg)
    row_s, row_c, row_e = np.ones(8), np.full(8, 0.5), np.zeros(8)
    out = skip_fuse(Tensor(np.tile(row_s, (3, 1))), [Tensor(np.tile(row_c, (3, 1)))] * 2,
                    Tensor(np.tile(row_e, (3, 1))), params, cfg.mlp1_spec).data
    assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])


def test_skip_fuse_rejects_wrong_composed_width():
    cfg = toy_config()
    params = _fusion_params(cfg)
    with pytest.raises(ShapeError):
        skip_fuse(Tensor(np.zeros((3, 8))), [Tensor(np.zeros((3, 8)))],  # 8+8+8 != 32
                  Tensor(np.zeros((3, 8))), params, cfg.mlp1_spec)


def test_soft_fusion_equal_logits_averages_pathways():
    cfg = toy_config()
    params = _fusion_params(cfg)
    for name in ("mlp2/W0", "mlp2/b0", "mlp2/W1", "mlp2/b1"):
        params[name].data[...] = 0.0
    g = np.random.default_rng(1).standard_normal((5, 8))
    glob = np.random.default_rng(2).standard_normal((5, 8))
    out = soft_fusion(Tensor(g), Tensor(glob), params, cfg.mlp2_spec)
    np.testing.assert_allclose(out.data, (g + glob) / 2.0, atol=1e-15)


def test_fusion_weights_sum_to_one():
    cfg = toy_config()
    params = _fusion_params(cfg)
    g = np.random.default_rng(3).standard_normal((10, 8))
    glob = np.random.default_rng(4).standard_normal((10, 8))
    w = fusion_weights(Tensor(g), Tensor(glob), params, cfg.mlp2_spec).data
    np.testing.assert_allclose(w.sum(axis=1), np.ones(10), atol=1e-9)


def test_soft_fusion_saturated_logits_select_graph_pathway():
    cfg = toy_config()
    params = _fusion_params(cfg)
    for name in ("mlp2/W0", "mlp2/b0", "mlp2/W1"):
        params[name].data[...] = 0.0
    params["mlp2/b1"].data[...] = [20.0, -20.0]
    g = np.random.default_rng(5).standard_normal((6, 8))
    glob = np.random.default_rng(6).standard_normal((6, 8))
    out = soft_fusion(Tensor(g), Tensor(glob), params, cfg.mlp2_spec)
    np.testing.assert_allclose(out.data, g, atol=1e-8)


def test_fusion_weights_reject_a_stored_layer_beyond_the_spec():
    cfg = toy_config()
    params = init_params(cfg, 64)
    params.register("mlp2/W2", (2, 2))
    params.register("mlp2/b2", (2,), init="zeros")
    with pytest.raises(ShapeError, match="mlp2"):
        fusion_weights(Tensor(np.zeros((4, 8))), Tensor(np.zeros((4, 8))), params, cfg.mlp2_spec)


def test_soft_fusion_rejects_shape_mismatch():
    cfg = toy_config()
    params = _fusion_params(cfg)
    with pytest.raises(ShapeError):
        soft_fusion(Tensor(np.zeros((4, 8))), Tensor(np.zeros((5, 8))), params, cfg.mlp2_spec)


# ----------------------------------------------------------------------------
# full pipeline


def test_run_gqn_output_shapes():
    cfg = toy_config()
    _, flat, _ = toy_inputs()
    params = init_params(cfg, flat.m_bev)
    out = run_gqn(flat, cfg, params, global_map=flat.states)
    assert out.concat_map.data.shape == (64, 2 * 8)
    assert out.skip_map.data.shape == (64, 8)
    assert out.fused_map.data.shape == (64, 8)
    assert out.global_vectors.data.shape == (8, 8)
    assert len(out.set_maps) == 2 and sum(q.queries for q in out.queries) == 8


def test_run_gqn_without_global_map_has_no_fused_map():
    cfg = toy_config()
    _, flat, _ = toy_inputs()
    params = init_params(cfg, flat.m_bev)
    assert run_gqn(flat, cfg, params).fused_map is None


def test_run_gqn_flatten_order_invariance_bitexact():
    cfg = toy_config()
    _, flat, _ = toy_inputs(seed=1)
    params = init_params(cfg, flat.m_bev)
    base = run_gqn(flat, cfg, params, global_map=flat.states)
    perm = np.random.default_rng(7).permutation(flat.m_bev)
    inv = np.argsort(perm)
    out = run_gqn(flat.reordered(perm), cfg, params, global_map=flat.states[perm])
    assert np.array_equal(out.skip_map.data[inv], base.skip_map.data)
    assert np.array_equal(out.fused_map.data[inv], base.fused_map.data)
    assert np.array_equal(out.concat_map.data[inv], base.concat_map.data)
    assert np.array_equal(out.global_vectors.data, base.global_vectors.data)


def test_run_gqn_two_calls_identical_bits():
    cfg = toy_config()
    _, flat, _ = toy_inputs(seed=2)
    params = init_params(cfg, flat.m_bev)
    a = run_gqn(flat, cfg, params, global_map=flat.states)
    b = run_gqn(flat, cfg, params, global_map=flat.states)
    assert np.array_equal(a.fused_map.data, b.fused_map.data)
    assert np.array_equal(a.global_vectors.data, b.global_vectors.data)


def _per_query_reference(flat, config, params, global_map):
    """The pipeline one query at a time, composed from single-query layer calls."""
    states, enc = Tensor(flat.states), Tensor(flat.positions)
    staged = []
    for q, (set_index, spec) in enumerate((i, s) for i, s in enumerate(config.sets)
                                          for _ in range(s.queries)):
        query = init_graph_query(params[f"query_global/{q}"], states, flat, set_index, q, spec)
        nodes = edge_focus_update(query, params)
        staged.append((query, nodes))
    summaries = context_exchange(concat_rows([pool_query(nodes) for _, nodes in staged]),
                                 config.context_steps, params)
    set_maps = []
    for set_index in range(config.num_sets):
        chunks = [(flat.bev_indices[query.pair_rows], nodes, [query.query_index])
                  for query, nodes in staged if query.set_index == set_index]
        set_maps.append(gather_rows(infuse_context(chunks, summaries, params, flat.m_bev),
                                    flat.bev_indices))
    skip_map = skip_fuse(states, set_maps, enc, params, config.mlp1_spec)
    fused = soft_fusion(skip_map, as_tensor(global_map), params, config.mlp2_spec)
    return set_maps, concat_cols(set_maps), skip_map, fused, summaries


@pytest.mark.parametrize("side,config",
                         [(16, toy_config()), (16, GqnConfig()), (16, toy_config(d=1))],
                         ids=["toy", "reference", "one_channel"])
def test_run_gqn_matches_per_query_reference(side, config):
    scene_spec = SceneSpec(side, side, config.d, boxes=demo_boxes(side, side, config.d, 2, 0),
                           clutter_density=0.05, noise_amplitude=0.05, seed=0)
    grid, _ = generate_scene(scene_spec)
    # the encoding needs a multiple of 4 channels; one channel takes the first of four
    enc = sinusoidal_encoding(side, side, -(-config.d // 4) * 4).values[:, :config.d]
    flat = FlatPairs(grid.features.copy(), enc.copy(), np.arange(grid.m_bev), side, side)
    params = init_params(config, flat.m_bev)
    out = run_gqn(flat, config, params, global_map=flat.states)
    set_maps, concat_map, skip_map, fused, summaries = _per_query_reference(
        flat, config, params, flat.states)

    for a, b in zip(out.set_maps, set_maps, strict=True):
        assert np.array_equal(a.data, b.data)
    assert np.array_equal(out.concat_map.data, concat_map.data)
    assert np.array_equal(out.skip_map.data, skip_map.data)
    assert np.array_equal(out.fused_map.data, fused.data)
    assert np.array_equal(out.global_vectors.data, summaries.data)

    grads = backward(sum_all(out.fused_map), params)
    ref_grads = backward(sum_all(fused), params)
    for name, ref in ref_grads.items():
        scale = np.abs(ref).max()
        assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name

    chunks = np.bincount([chunk.set_index for chunk in out.queries], minlength=config.num_sets)
    assert sum(chunk.queries for chunk in out.queries) == config.tau
    if config.tau == GqnConfig().tau:
        assert chunks.max() > 1  # the reference config is split across several chunks


def _tape_ops(root):
    return sum(1 for t in _toposort(root) if t._backprop is not None)


def test_tape_size_does_not_grow_with_queries_per_chunk():
    _, flat, _ = toy_inputs(h=16, w=16, seed=0)
    counts = []
    for queries in (4, 8):
        cfg = toy_config(sets=(QuerySetSpec(queries, 0.1, 2), QuerySetSpec(queries, 0.2, 3)))
        out = run_gqn(flat, cfg, init_params(cfg, flat.m_bev), global_map=flat.states)
        assert len(out.queries) == 2  # one chunk per set
        counts.append(_tape_ops(sum_all(out.fused_map)))
    assert counts[0] == counts[1]


def test_each_query_chunk_adds_seven_tape_ops(monkeypatch):
    """A chunk records the concat of its global vectors, their scores and softmax, the
    reshape and gather of the picks' weights, its edge stage and its max-pool: seven ops.
    No reshape sits before the stacked vectors' scores and no scale node before the edge
    stage."""
    _, flat, _ = toy_inputs(h=16, w=16, seed=0)
    cfg = toy_config()
    params = init_params(cfg, flat.m_bev)
    counts = []
    for budget in (pipeline.CHUNK_BYTES, 1):  # one chunk per set, then one per query
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", budget)
        out = run_gqn(flat, cfg, params, global_map=flat.states)
        counts.append((len(out.queries), _tape_ops(sum_all(out.fused_map))))
    (few, ops_few), (many, ops_many) = counts
    assert (few, many) == (len(cfg.sets), cfg.tau)
    assert ops_many - ops_few == 7 * (many - few)


def test_each_context_step_adds_one_tape_op():
    """A context-attention step is one node: its projections, scores, softmax, mix and
    residual add record nothing of their own."""
    _, flat, _ = toy_inputs(h=16, w=16, seed=0)
    counts = []
    for steps in (1, 2):
        cfg = toy_config(context_steps=steps)
        out = run_gqn(flat, cfg, init_params(cfg, flat.m_bev), global_map=flat.states)
        counts.append(_tape_ops(sum_all(out.fused_map)))
    assert counts[1] - counts[0] == 1


def _unfused_extra_bytes(layers, rows):
    """Bytes a layer-by-layer MLP of these stored layers keeps beyond its layer outputs:
    the product before the bias and, on hidden layers, the pre-activation of the ReLU."""
    return sum(rows * w.data.shape[1] * 8 * (1 + (i < len(layers) - 1))
               for i, (w, _) in enumerate(layers))


def test_tape_keeps_at_most_70_percent_of_the_unfused_layout():
    config = GqnConfig()
    _, flat, _ = toy_inputs(h=16, w=16, d=config.d, seed=0)
    params = init_params(config, flat.m_bev)
    out = run_gqn(flat, config, params, global_map=flat.states)
    kept = sum(t.data.nbytes for t in _toposort(out.fused_map))

    layers = params.layers
    extra = 0
    for chunk in out.queries:
        edges = chunk.n_nodes * chunk.k
        extra += (_unfused_extra_bytes(layers("edge_mlp"), edges)
                  + _unfused_extra_bytes(layers("edge_q"), edges)
                  + _unfused_extra_bytes(layers("edge_k"), edges)
                  + edges * config.d * 8  # the elementwise product the edge scores sum
                  + _unfused_extra_bytes(layers("node_mlp"), chunk.n_nodes)
                  + _unfused_extra_bytes(layers("context_mlp"), chunk.n_nodes))
    extra += config.context_steps * 3 * config.tau * config.d * 8  # q, k, v before their bias
    extra += (_unfused_extra_bytes(layers("mlp1"), flat.m_bev)
              + _unfused_extra_bytes(layers("mlp2"), flat.m_bev))
    assert kept <= 0.7 * (kept + extra)


def test_tape_holds_no_concatenated_first_layer_input():
    config = GqnConfig()
    _, flat, _ = toy_inputs(h=16, w=16, d=config.d, seed=0)
    out = run_gqn(flat, config, init_params(config, flat.m_bev), global_map=flat.states)
    concat_shapes = {shape for chunk in out.queries
                     for shape in ((chunk.n_nodes * chunk.k, 2 * config.d),
                                   (chunk.n_nodes, 2 * config.d))}
    assert not concat_shapes & {t.data.shape for t in _toposort(out.fused_map)}


def test_tape_holds_one_per_edge_array_per_chunk():
    # Now a pin of none: the edge stage is one node per chunk that recomputes
    # its edge features, scores and weights in backward.
    config = GqnConfig()
    _, flat, _ = toy_inputs(h=16, w=16, d=config.d, seed=0)
    out = run_gqn(flat, config, init_params(config, flat.m_bev), global_map=flat.states)
    edge_rows = {chunk.n_nodes * chunk.k for chunk in out.queries}
    assert len(out.queries) > config.num_sets  # several chunks per set
    assert flat.m_bev not in edge_rows
    assert not [t.data.shape for t in _toposort(out.fused_map)
                if t.data.ndim and t.data.shape[0] in edge_rows]


def test_each_split_mlp_is_one_tape_node_per_chunk():
    """The edge, node, q and key weights each feed exactly one node per chunk, the edge
    stage's. (The context MLP is one node per set; see the next test.)"""
    config = GqnConfig()
    _, flat, _ = toy_inputs(h=16, w=16, d=config.d, seed=0)
    params = init_params(config, flat.m_bev)
    out = run_gqn(flat, config, params, global_map=flat.states)
    tape = _toposort(out.fused_map)
    stages = [t for t in tape if params["edge_q/W0"] in t._parents]
    assert len(stages) == len(out.queries)
    for name, layers in (("edge_mlp", 2), ("edge_q", 1), ("edge_k", 1), ("node_mlp", 2)):
        for p in (f"{name}/{w}{i}" for i in range(layers) for w in "Wb"):
            users = [t for t in tape if params[p] in t._parents]
            assert users == stages and all(t._parents.count(params[p]) == 1 for t in users), p


def test_each_set_map_is_one_infusion_node_over_its_chunks():
    """A set map is one node, the only one that reads the context MLP. Its parents are
    its chunks' updated node states (the edge stages' outputs) in query order, then the
    summaries and W0, b0, W1, b1. No (Q*n, d) context-MLP output and no selected states
    are on the tape: the only (Q*n, d) tensors are the edge stages' outputs."""
    config = GqnConfig()
    _, flat, _ = toy_inputs(h=16, w=16, d=config.d, seed=0)
    params = init_params(config, flat.m_bev)
    out = run_gqn(flat, config, params, global_map=flat.states)
    tape = _toposort(out.fused_map)
    weights = tuple(params[f"context_mlp/{p}{i}"] for i in range(2) for p in "Wb")
    stages = [t for t in tape if params["edge_q/W0"] in t._parents]  # in query order
    assert [t for t in tape if any(p in weights for p in t._parents)] == [
        t for t in tape if any(t is m for m in out.set_maps)]
    first = 0
    for i, set_map in enumerate(out.set_maps):
        chunks = [chunk for chunk in out.queries if chunk.set_index == i]
        nodes = set_map._parents[:len(chunks)]
        assert [t.data.shape for t in nodes] == [(c.n_nodes, config.d) for c in chunks]
        assert all(a is b for a, b in zip(nodes, stages[first:first + len(chunks)], strict=True))
        assert set_map._parents[len(chunks):] == (out.global_vectors,) + weights
        first += len(chunks)
    node_shapes = {(chunk.n_nodes, config.d) for chunk in out.queries}
    kept = {id(t) for t in tape if t.data.shape in node_shapes}
    assert kept == {id(t) for t in stages}


def test_every_global_vector_receives_gradient():
    cfg = toy_config()
    scene, flat, truth = toy_inputs(seed=3)
    params = init_params(cfg, flat.m_bev)
    grads = backward(sum_all(run_gqn(flat, cfg, params, global_map=flat.states).fused_map),
                     params)
    for q in range(cfg.tau):
        assert np.linalg.norm(grads[f"query_global/{q}"]) > 0.0


def test_mask_loss_gradient_reaches_u():
    cfg = toy_config()
    scene, flat, truth = toy_inputs(h=16, w=16, seed=0)
    params = init_params(cfg, flat.m_bev)
    from gqn.pipeline import register_readout
    register_readout(params, cfg.d)
    grads = backward(mask_loss(flat, cfg, params, truth.mask), params)
    assert all(np.linalg.norm(grads[f"query_global/{q}"]) > 0.0 for q in range(cfg.tau))


# ----------------------------------------------------------------------------
# training demo


def test_toy_train_zero_steps_returns_initial_loss_only():
    scene, _, _ = toy_inputs(h=16, w=16)
    result = toy_train(scene, toy_config(), steps=0, learning_rate=0.01)
    assert len(result.losses) == 1 and not result.diverged


def test_toy_train_deterministic_curves():
    scene, _, _ = toy_inputs(h=16, w=16)
    a = toy_train(scene, toy_config(), steps=4, learning_rate=0.01)
    b = toy_train(scene, toy_config(), steps=4, learning_rate=0.01)
    assert a.losses == b.losses and len(a.losses) == 5


def test_toy_train_rejects_mismatched_d():
    scene, _, _ = toy_inputs(h=16, w=16, d=8)
    with pytest.raises(ConfigError):
        toy_train(scene, toy_config(d=4, sets=TOY_SETS), steps=1, learning_rate=0.01)
