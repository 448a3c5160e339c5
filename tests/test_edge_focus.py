import math

import numpy as np
import pytest

from gqn import autodiff, edge_focus
from gqn.autodiff import (MlpSpec, ParamStore, Tensor, _bilinear_score_grads, _bilinear_scores,
                          _make, _segment_mix, _segment_mix_grads, _split_linear,
                          _split_linear_grads, _toposort, concat_cols, gather_rows, grad_check,
                          linear, mlp_forward, mul, reshape, row_softmax, split_mlp_forward,
                          sum_all)
from gqn.edge_focus import (_fold, _fold_grads, edge_attention, edge_features, edge_focus_update,
                            update_nodes)
from gqn.errors import ContractError, ShapeError
from gqn.pipeline import GqnConfig, init_params
from gqn.query_init import GraphQuery, QuerySetSpec, build_knn_edges, init_graph_query
from gqn.scene import SceneSpec, flatten_grid, generate_scene, sinusoidal_encoding


def _manual_query(states, positions, k):
    """Build a GraphQuery directly from raw arrays with unit selection weights."""
    states = np.asarray(states, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    n = states.shape[0]
    return GraphQuery(
        set_index=0, query_index=0, n_nodes=n, k=k,
        grid_positions=positions, pair_rows=np.arange(n),
        states_raw=states,
        alpha=Tensor(np.full(n, 1.0 / n)), states=Tensor(states),
        edge_dst=build_knn_edges(states, k),
    )


def _passthrough_params(params, name, d, half):
    """A two-layer MLP ``name`` over [x || y], each of width d, that returns half ``half``
    (0 for x, 1 for y) as relu(v) - relu(-v); zero biases."""
    eye = np.eye(d)
    params.register_mlp(name, MlpSpec((2 * d, 2 * d, d)))
    first = [np.hstack([eye, -eye]), np.zeros((d, 2 * d))]
    params[f"{name}/W0"].data[...] = np.vstack(first if half == 0 else first[::-1])
    params[f"{name}/W1"].data[...] = np.vstack([eye, -eye])
    for i in range(2):
        params[f"{name}/b{i}"].data[...] = 0.0


def _edge_mlp_params(first_weights, d_out=2, seed=0):
    """A two-layer edge MLP whose first layer is ``first_weights`` with a zero bias."""
    w = np.asarray(first_weights, dtype=np.float64)
    params = ParamStore(seed=seed)
    params.register_mlp("edge_mlp", MlpSpec((w.shape[0], w.shape[1], d_out)))
    params["edge_mlp/W0"].data[...] = w
    params["edge_mlp/b0"].data[...] = 0.0
    return params


def _stage_layers(params, d):
    """Register the edge stage's layers at their config shapes: the (2d, d, d) edge and node
    MLPs and one (d, d) layer each for q and key."""
    for name, widths in (("edge_mlp", (2 * d, d, d)), ("node_mlp", (2 * d, d, d)),
                         ("edge_q", (d, d)), ("edge_k", (d, d))):
        params.register_mlp(name, MlpSpec(widths))
    return params


# ----------------------------------------------------------------------------
# edge features: the edge MLP's last hidden layer


def test_edge_feature_hand_evaluation():
    # all-ones first layer on input [1, -1, 2, 0] -> 1 - 1 + 2 + 0 = 2 everywhere
    states = [[2.0, 0.0], [5.0, 5.0]]
    positions = [[1.0, -1.0], [2.0, -2.0]]
    q = _manual_query(states, positions, 1)
    params = _edge_mlp_params(np.ones((4, 2)))
    feats = edge_features(q, params)
    # edge 0 -> 1 input is [p1 - p0 || x1] = [1, -1, 5, 5] -> 10; edge 1 -> 0 is [-1, 1, 2, 0] -> 2
    np.testing.assert_allclose(feats.data, [[10.0, 10.0], [2.0, 2.0]], atol=1e-12)


def test_edge_feature_zero_relpos_when_positions_coincide():
    q = _manual_query([[1.0, 2.0], [3.0, 4.0]], [[0.5, 0.5], [0.5, 0.5]], 1)
    # weights picking out the relative-position half only
    params = _edge_mlp_params(np.vstack([np.eye(2), np.zeros((2, 2))]))
    feats = edge_features(q, params)
    np.testing.assert_array_equal(feats.data, np.zeros((2, 2)))


def test_edge_feature_relpos_antisymmetric():
    q = _manual_query([[1.0, 0.0], [1.0, 0.1]], [[0.0, 1.0], [2.0, 5.0]], 1)
    # relu(r) and relu(-r) side by side, so their difference is the relative position r
    eye = np.eye(2)
    params = _edge_mlp_params(np.block([[eye, -eye], [np.zeros((2, 4))]]))
    feats = edge_features(q, params).data
    rel = feats[:, :2] - feats[:, 2:]
    np.testing.assert_allclose(rel[0], -rel[1], atol=1e-15)  # p1-p0 vs p0-p1
    np.testing.assert_allclose(rel[0], [2.0, 4.0], atol=1e-15)


def test_edge_feature_width_mismatch():
    q = _manual_query([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]], 1)
    params = ParamStore(seed=0)
    params.register_mlp("edge_mlp", MlpSpec((6, 2, 2)))
    with pytest.raises(ShapeError):
        edge_features(q, params)


def test_edge_features_reject_a_one_layer_edge_mlp():
    """The stages read their layers from the store. The edge and node MLPs have exactly
    two layers (the stage folds the edge MLP's output layer into the scores); a stored 1-
    or 3-layer edge or node MLP fails at the shape gate, whose other checks these shapes
    pass. So does a config-shaped store with one more stored layer on the edge MLP or q."""
    q = _manual_query([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]], 1)
    square, two = MlpSpec((2, 2)), MlpSpec((4, 2, 2))

    def stage_params(edge_spec, node_spec):
        params = ParamStore(seed=0)
        for name, spec in (("edge_mlp", edge_spec), ("node_mlp", node_spec),
                           ("edge_q", square), ("edge_k", square)):
            params.register_mlp(name, spec)
        return params

    edge_focus_update(q, stage_params(two, two))  # runs at two layers
    for other in (MlpSpec((4, 2)), MlpSpec((4, 2, 2, 2))):
        params = stage_params(other, two)
        with pytest.raises(ShapeError, match="exactly two layers"):
            edge_features(q, params)
        with pytest.raises(ShapeError, match="exactly two layers"):
            edge_focus_update(q, params)
        params = stage_params(two, other)
        with pytest.raises(ShapeError, match="exactly two layers"):
            update_nodes(q, Tensor(np.ones((2, 2))), params)
        with pytest.raises(ShapeError, match="exactly two layers"):
            edge_focus_update(q, params)

    query, _ = _toy_query(seed=2)
    config = GqnConfig(d=4, sets=(QuerySetSpec(1, 0.3, 3),))
    edge_focus_update(query, init_params(config, 36))  # runs as the config builds it
    for name, i, match in (("edge_mlp", 2, "exactly two layers"),
                           ("edge_q", 1, r"one \(4, 4\) layer each")):
        params = init_params(config, 36)
        params.register(f"{name}/W{i}", (4, 4))
        params.register(f"{name}/b{i}", (4,), init="zeros")
        with pytest.raises(ShapeError, match=match):
            edge_focus_update(query, params)


# ----------------------------------------------------------------------------
# edge attention


def _qk_identity_params(d):
    params = ParamStore(seed=0)
    for name in ("edge_q", "edge_k"):
        params.register_mlp(name, MlpSpec((d, d)))
        params[f"{name}/W0"].data[...] = np.eye(d)
        params[f"{name}/b0"].data[...] = 0.0
    return params


def test_single_edge_gets_weight_one():
    params = _qk_identity_params(2)
    beta = edge_attention(Tensor(np.array([[3.0, -1.0]])), 1, 1, params)
    np.testing.assert_array_equal(beta.data, [1.0])


def test_identical_edge_features_uniform_weights():
    params = _qk_identity_params(2)
    feats = Tensor(np.tile([[0.7, 0.2]], (4, 1)))
    beta = edge_attention(feats, 1, 4, params)
    np.testing.assert_allclose(beta.data, np.full(4, 0.25), atol=1e-15)


@pytest.mark.parametrize("q_widths,k_widths", [
    ((2, 2, 2), (2, 2)),  # q is two layers
    ((2, 2), (2, 3)),     # key is not square
    ((3, 3), (3, 3)),     # width is not the features'
], ids=["two-layer-q", "wide-key", "other-width"])
def test_edge_attention_scores_with_one_square_layer_each(q_widths, k_widths):
    """q and key are read from the store; any stored shape but one (d, d) layer each, d the
    features' width, fails at the gate."""
    params = ParamStore(seed=0)
    params.register_mlp("edge_q", MlpSpec(q_widths))
    params.register_mlp("edge_k", MlpSpec(k_widths))
    with pytest.raises(ShapeError, match=r"one \(2, 2\) layer each"):
        edge_attention(Tensor(np.ones((4, 2))), 2, 2, params)


def test_edge_attention_direct_softmax():
    # identity q/k projections give scores |e|^2: [ln 3, 0] -> [0.75, 0.25]
    params = _qk_identity_params(2)
    feats = Tensor(np.array([[math.sqrt(math.log(3.0)), 0.0], [0.0, 0.0]]))
    beta = edge_attention(feats, 1, 2, params)
    np.testing.assert_allclose(beta.data, [0.75, 0.25], atol=1e-12)


def test_edge_attention_rejects_zero_edges():
    params = _qk_identity_params(2)
    with pytest.raises(ContractError):
        edge_attention(Tensor(np.zeros((0, 2))), 0, 0, params)


def test_beta_normalizes_per_node():
    rng = np.random.default_rng(0)
    params = _qk_identity_params(3)
    beta = edge_attention(Tensor(rng.standard_normal((12, 3))), 4, 3, params)
    sums = beta.data.reshape(4, 3).sum(axis=1)
    np.testing.assert_allclose(sums, np.ones(4), atol=1e-9)


# ----------------------------------------------------------------------------
# node update


def test_update_single_edge_uses_its_feature():
    """With one edge per node the weight is exactly 1, so the message is that edge's
    feature: the edge MLP's output, which the stage itself never builds."""
    q = _manual_query([[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, -1.0]], 1)
    params = _edge_mlp_params([[1.0, -1.0], [2.0, 0.5], [0.0, 1.0], [1.0, 1.0]])
    params["edge_mlp/W1"].data[...] = [[1.0, 2.0], [-1.0, 0.5]]
    params["edge_mlp/b1"].data[...] = [0.25, -0.5]
    _passthrough_params(params, "node_mlp", 2, half=0)  # the message half
    for name in ("edge_q", "edge_k"):
        params.register_mlp(name, MlpSpec((2, 2)))
    hidden = edge_features(q, params).data
    feats = hidden @ params["edge_mlp/W1"].data + params["edge_mlp/b1"].data
    out = edge_focus_update(q, params)
    np.testing.assert_allclose(out.data, feats, atol=1e-15)


def test_update_passthrough_of_state_half_with_zero_edges():
    q = _manual_query([[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2)), 1)
    params = ParamStore(seed=0)
    _passthrough_params(params, "node_mlp", 2, half=1)  # the state half
    out = update_nodes(q, Tensor(np.zeros((2, 2))), params)
    np.testing.assert_allclose(out.data, q.states.data, atol=1e-15)


# ----------------------------------------------------------------------------
# composed operator


def _toy_query(seed=0, d=4, k=3, u_grad=True):
    spec = SceneSpec(6, 6, d, boxes=(), clutter_density=0.5, noise_amplitude=0.2, seed=seed)
    grid, _ = generate_scene(spec)
    flat = flatten_grid(grid, sinusoidal_encoding(6, 6, d))
    u = Tensor(np.random.default_rng(seed).standard_normal(d), requires_grad=u_grad)
    return init_graph_query(u, Tensor(flat.states), flat, 0, 0, QuerySetSpec(1, 0.3, k)), u


def test_composition_invariant_under_slot_relabeling():
    query, _ = _toy_query(seed=4)
    params = _stage_layers(ParamStore(seed=3), 4)
    base = edge_focus_update(query, params).data

    rng = np.random.default_rng(8)
    for _ in range(5):
        perm = rng.permutation(query.n_nodes)
        relabeled = GraphQuery(
            set_index=0, query_index=0, n_nodes=query.n_nodes, k=query.k,
            grid_positions=query.grid_positions, pair_rows=query.pair_rows[perm],
            states_raw=query.states_raw[perm],
            alpha=Tensor(query.alpha.data[perm]), states=Tensor(query.states.data[perm]),
            edge_dst=build_knn_edges(query.states_raw[perm], query.k),
        )
        out = edge_focus_update(relabeled, params).data
        assert np.array_equal(out, base[perm])  # identical multiset, relabeled rows


def test_edge_focus_gradients_match_finite_differences():
    query, u = _toy_query(seed=6)
    params = _stage_layers(ParamStore(seed=5), 4)

    def fn(p):
        return sum_all(edge_focus_update(query, p))

    assert grad_check(fn, params, eps=1e-5, max_coords_per_param=8, seed=0) <= 1e-4


# ----------------------------------------------------------------------------
# the edge stage as one tape node, against the chain of per-stage nodes it fuses


def _stage_params(d, seed):
    params = _stage_layers(ParamStore(seed=seed), d)
    for name in ("edge_mlp", "node_mlp", "edge_q", "edge_k"):
        # nonzero biases, so every bias term shows
        for i, (_, bias) in enumerate(params.layers(name)):
            bias.data[...] = np.random.default_rng(seed + i).uniform(-0.5, 0.5, d)
    return params


def _hidden_node(query, params):
    """The edge MLP's hidden layer, after the ReLU, as one node over ``(states, W0, b0)``,
    with the calls the fused node runs."""
    w0, b0 = params["edge_mlp/W0"], params["edge_mlp/b0"]
    rows, k = np.asarray(query.edge_dst, np.intp), query.k
    h = _split_linear(query.positions, query.states.data, w0.data, b0.data, rows, k, relu=True)
    return _make(h, (query.states, w0, b0), lambda g: _split_linear_grads(
        g, query.positions, query.states.data, w0.data, rows, k, h)[1:])


def _fold_node(out_w, out_b, w, b):
    """``_fold`` as one node whose output stacks the composed weight over its bias."""
    parents = (out_w, out_b, w, b)
    return _make(np.vstack(_fold(*(t.data for t in parents))), parents,
                 lambda g: _fold_grads(g[:-1].copy(), g[-1].copy(), out_w.data, out_b.data,
                                       w.data))


def _score_node(x, fold_q, fold_k):
    """``_bilinear_scores`` of ``x`` under q's and key's folds, each stacked as
    ``_fold_node`` gives it."""
    parents = (x, fold_q, fold_k)

    def arrays():
        return [x.data] + [part.copy() for f in (fold_q, fold_k)
                           for part in (f.data[:-1], f.data[-1])]

    def backprop(g):
        gx, gwq, gbq, gwk, gbk = _bilinear_score_grads(g, *arrays())
        return gx, np.vstack([gwq, gbq]), np.vstack([gwk, gbk])

    return _make(_bilinear_scores(*arrays()), parents, backprop)


def _mix_node(t, w, k):
    return _make(_segment_mix(t.data, w.data, k), (t, w),
                 lambda g: _segment_mix_grads(g, t.data, w.data, k))


def _per_stage_chain(query, params):
    """One tape node per stage of the folded form, built from the helpers the fused node runs."""
    n, k = query.n_nodes, query.k
    hidden = _hidden_node(query, params)
    out_w, out_b = params["edge_mlp/W1"], params["edge_mlp/b1"]
    folds = [_fold_node(out_w, out_b, params[f"{name}/W0"], params[f"{name}/b0"])
             for name in ("edge_q", "edge_k")]
    scores = _score_node(hidden, *folds)
    beta = reshape(row_softmax(reshape(scores, (n, k))), (n * k,))
    message = linear(_mix_node(hidden, beta, k), out_w, out_b)
    return split_mlp_forward(params, "node_mlp", message, query.states)


def _rowdot(a, b):
    return _make((a.data * b.data).sum(axis=1), (a, b),
                 lambda g: (g[:, None] * b.data, g[:, None] * a.data))


def _unfolded_update(query, params):
    """The edge stage as written before the fold, one plain node per op: the edge MLP's
    output f = h W + b per edge, q and key projected from f, the per-node softmax,
    the message sum of beta * f, then the node MLP over [message || state]."""
    n, k, d = query.n_nodes, query.k, query.states.data.shape[1]
    mlp, square = MlpSpec((2 * d, d, d)), MlpSpec((d, d))
    rel = Tensor(query.positions[query.edge_dst] - query.positions[query.edge_src])
    neighbor = gather_rows(query.states, query.edge_dst)
    feats = mlp_forward(mlp, params, "edge_mlp", concat_cols([rel, neighbor]))
    q = mlp_forward(square, params, "edge_q", feats)
    key = mlp_forward(square, params, "edge_k", feats)
    beta = reshape(row_softmax(reshape(_rowdot(q, key), (n, k))), (n * k,))
    message = _mix_node(feats, beta, k)
    return mlp_forward(mlp, params, "node_mlp", concat_cols([message, query.states]))


def _outputs_and_grads(stage, d, k, u_grad=True):
    """The stage's output, the gradient reaching u through the states (which both MLPs
    read) and every weight's gradient, under a random upstream gradient."""
    query, u = _toy_query(seed=d, d=d, k=k, u_grad=u_grad)
    params = _stage_params(d, seed=d)
    out = stage(query, params)
    upstream = np.random.default_rng(k).standard_normal(out.data.shape)
    sum_all(mul(out, Tensor(upstream))).backward()
    return [out.data, u.grad] + [t.grad for _, t in params.items()]


@pytest.mark.parametrize("d,k", [(4, 3), (8, 2), (8, 5)])
def test_edge_focus_update_matches_the_per_stage_chain_bit_for_bit(d, k):
    """The output and every gradient equal those of the chain of per-stage nodes of the
    folded form, byte for byte."""
    fused, chain = (_outputs_and_grads(stage, d, k) for stage in (edge_focus_update,
                                                                   _per_stage_chain))
    assert all(g is not None and np.abs(g).max() > 0.0 for g in fused[1:])
    for got, ref in zip(fused, chain, strict=True):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_edge_focus_update_matches_the_unfolded_stage(d, k):
    """Folding the edge MLP's output layer into q, key and the message moves the output
    and every gradient by rounding only."""
    fused, unfolded = (_outputs_and_grads(stage, d, k) for stage in (edge_focus_update,
                                                                      _unfolded_update))
    for got, ref in zip(fused, unfolded, strict=True):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("d,k", [(4, 3), (8, 5)])
def test_edge_focus_update_fed_constant_states_keeps_every_weight_gradient(d, k):
    """A chunk built from a constant global vector u has constant states: the node still
    returns their gradient and the tape drops it, so ``u.grad`` stays None and the output
    and every weight's gradient have the bits they have when u requires grad."""
    fed, constant = (_outputs_and_grads(edge_focus_update, d, k, u_grad)
                     for u_grad in (True, False))
    assert fed[1] is not None and constant[1] is None
    del fed[1], constant[1]
    assert [a.tobytes() for a in fed] == [a.tobytes() for a in constant]


def test_edge_focus_update_is_one_tape_node_that_keeps_only_its_inputs():
    query, _ = _toy_query(seed=7)
    params = _stage_params(4, seed=7)
    out = edge_focus_update(query, params)
    weights = tuple(params[f"{name}/{p}{i}"] for name, layers in
                    (("edge_mlp", 2), ("edge_q", 1), ("edge_k", 1), ("node_mlp", 2))
                    for i in range(layers) for p in "Wb")
    assert out._parents == (query.states,) + weights
    # No per-edge array is on the tape or held by the backward: only the inputs.
    edges = query.n_nodes * query.k
    assert all(t.data.shape[:1] != (edges,) for t in _toposort(out))
    arrays = [c for c in (cell.cell_contents for cell in out._backprop.__closure__)
              if isinstance(c, np.ndarray)]
    assert sorted(map(id, arrays)) == sorted(
        map(id, (query.grid_positions, query.pair_rows, query.edge_dst)))
    # The stage functions it runs give values only.
    hidden = edge_features(query, params)
    nodes = update_nodes(query, Tensor(np.ones((query.n_nodes, 4))), params)
    assert query.states.requires_grad
    assert hidden.data.shape == (edges, 4)
    assert not any(t.requires_grad or t._parents for t in (hidden, nodes))


def test_edge_focus_update_runs_one_per_edge_product_and_builds_no_edge_mlp_output(monkeypatch):
    """The forward's only (n*k)-row matrix product is the bilinear score's ``h A``: the
    edge MLP's output layer runs on the n per-node message rows, not per edge."""
    query, _ = _toy_query(seed=5, d=8, k=3)
    params = _stage_params(8, seed=5)
    dense_rows, score_rows = [], []

    def dense(x, *args, **kwargs):
        dense_rows.append(x.shape[0])
        return real_dense(x, *args, **kwargs)

    def scores(x, *args):
        score_rows.append(x.shape[0])
        return real_scores(x, *args)

    real_dense, real_scores = autodiff._dense, autodiff._bilinear_scores
    for module in (autodiff, edge_focus):
        monkeypatch.setattr(module, "_dense", dense)
    monkeypatch.setattr(edge_focus, "_bilinear_scores", scores)
    edge_focus_update(query, params)
    assert score_rows == [query.n_nodes * query.k]
    assert dense_rows and set(dense_rows) == {query.n_nodes}
