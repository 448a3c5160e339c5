"""Edge-attention node updates for a graph query.

Per directed edge i->j the edge feature is an MLP of the relative position
concatenated with the neighbor's (selection-weighted) state, so each edge
carries both geometric and semantic cues. Attention then runs *over edges*:
each edge is scored by the dot product of its own query/key projections,
normalized across the K edges leaving the same node, and the node update is
an MLP of the attention-weighted edge sum concatenated with the node's state.
The sum adds a node's K edges left to right in stored order, nearest first
with ties to the lower slot (``query_init.build_knn_edges``); that order, not
a sort of the terms, is what makes its bits reproducible.

Per-node split: the first layer of the edge MLP is linear in
``[p_j - p_i || s_j]``, so with W_p and W_s the top and bottom rows of its
weight it equals ``(P W_p + S W_s)[j] - (P W_p)[i] + b``, the linearity
DGCNN's EdgeConv uses to compute its ``theta (x_j - x_i) + phi x_i`` edge
function per point (Wang et al., "Dynamic Graph CNN for Learning on Point
Clouds", 2019, eq. 8). The products are per node, k times fewer than per
edge, and neither the (n*k, 2d) input nor the gathered neighbor states is
built. The node MLP's ``[message || state]`` takes the same split without a
gather.

Scoring: q and key are one (d, d) layer each, and their per-edge dot product
is taken as the bilinear form ``x A xᵀ + x·c + bq·bk`` with ``A = Wq Wkᵀ``
(``autodiff._bilinear_scores``): one (n*k, d) x (d, d) product, where two
projections would take two.

One tape node per chunk: ``edge_focus_update`` runs features, scores,
softmax, weighted sum and node MLP as array code and records one node that
keeps only its inputs (positions, states, edge targets, the parameters) and
its (n, d) output. Its backward recomputes every per-edge array with the
forward's calls, so they carry the same bits (Chen et al., "Training Deep
Nets with Sublinear Memory Cost", 2016), then backprops through the stages
in reverse. ``edge_features``, ``edge_attention`` and ``update_nodes`` are
those forward calls; they return value-only tensors.

Pairing the two projections of the same edge yields exactly one weight per
edge, which is what the weighted aggregation consumes. The natural
generalization, a full KxK score matrix between the edges of a neighborhood,
would need a reduction back to one weight per edge; if ever wanted, it slots
in at ``edge_attention`` without touching the rest of the operator.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (MlpSpec, ParamStore, Tensor, _bilinear_score_grads, _bilinear_scores,
                       _check_split_mlp, _make, _row_softmax, _row_softmax_grad, _segment_mix,
                       _segment_mix_grads, _split_mlp_grads, _split_mlp_outputs)
from .errors import ContractError, ShapeError
from .query_init import GraphQuery

Array = np.ndarray


def _layers(params: ParamStore, name: str, spec: MlpSpec) -> list[tuple[Tensor, Tensor]]:
    return [(params[f"{name}/W{i}"], params[f"{name}/b{i}"]) for i in range(spec.n_layers)]


def _arrays(layers: list[tuple[Tensor, Tensor]]) -> list[tuple[Array, Array]]:
    return [(w.data, b.data) for w, b in layers]


def _scoring(params: ParamStore, q_spec: MlpSpec, k_spec: MlpSpec) -> list[Tensor]:
    """q's and key's weight and bias: ``[Wq, bq, Wk, bk]``."""
    return [t for name, spec in (("edge_q", q_spec), ("edge_k", k_spec))
            for layer in _layers(params, name, spec) for t in layer]


def _edge_weights(feats: Array, n_nodes: int, k: int, scoring: list[Array]) -> Array:
    """The (n, k) softmax over each node's k bilinear edge scores."""
    return _row_softmax(_bilinear_scores(feats, *scoring).reshape(n_nodes, k))


def edge_features(query: GraphQuery, params: ParamStore, spec: MlpSpec) -> Tensor:
    """Per-edge features: MLP(relative position || neighbor state), shape (n_nodes*k, d)."""
    d = query.positions.shape[1]
    if spec.widths[0] != 2 * d:
        raise ShapeError(f"edge MLP expects input width {spec.widths[0]}, node width is {d}")
    if not np.array_equal(query.edge_src, np.repeat(np.arange(query.n_nodes), query.k)):
        raise ContractError("edge features need edges grouped by source, k per node")
    layers, rows = _arrays(_layers(params, "edge_mlp", spec)), np.asarray(query.edge_dst, np.intp)
    _check_split_mlp("edge_mlp", query.positions, query.states.data, layers, rows, query.k)
    return Tensor(_split_mlp_outputs(query.positions, query.states.data, layers, rows, query.k,
                                     len(layers))[-1])


def edge_attention(feats: Tensor, n_nodes: int, k: int, params: ParamStore,
                   q_spec: MlpSpec, k_spec: MlpSpec) -> Tensor:
    """Per-edge weights, normalized over each node's k edges; shape (n*k,)."""
    if k < 1 or feats.data.shape[0] != n_nodes * k:
        raise ContractError(f"need k >= 1 edges per node, got {feats.data.shape[0]} for {n_nodes}x{k}")
    d = feats.data.shape[1]
    if q_spec.widths != (d, d) or k_spec.widths != (d, d):
        raise ShapeError(f"edge scoring needs one ({d}, {d}) layer each for q and key, got "
                         f"widths {q_spec.widths} and {k_spec.widths}")
    scoring = [t.data for t in _scoring(params, q_spec, k_spec)]
    return Tensor(_edge_weights(feats.data, n_nodes, k, scoring).reshape(n_nodes * k))


def update_nodes(query: GraphQuery, feats: Tensor, beta: Tensor, params: ParamStore,
                 spec: MlpSpec) -> Tensor:
    """Updated node states: MLP(attention-weighted edge sum || node state), shape (n_nodes, d)."""
    d = query.positions.shape[1]
    if spec.widths[0] != 2 * d:
        raise ShapeError(f"node MLP expects input width {spec.widths[0]}, node width is {d}")
    message = _segment_mix(feats.data, beta.data, query.k)
    layers = _arrays(_layers(params, "node_mlp", spec))
    _check_split_mlp("node_mlp", message, query.states.data, layers, None, 0)
    return Tensor(_split_mlp_outputs(message, query.states.data, layers, None, 0, len(layers))[-1])


def edge_focus_update(query: GraphQuery, params: ParamStore, edge_spec: MlpSpec,
                      node_spec: MlpSpec, q_spec: MlpSpec, k_spec: MlpSpec) -> Tensor:
    """The full edge-attention update for one query chunk, as one tape node.

    Every step is per edge or per node, so a chunk of stacked queries gives
    each query the rows it would get alone. The node's parents are the
    states twice (node MLP first, then edge MLP: the order in which a chain
    of one node per stage would pass their gradients), then the edge MLP's,
    q's, key's and node MLP's weights and biases.
    """
    feats = edge_features(query, params, edge_spec)
    beta = edge_attention(feats, query.n_nodes, query.k, params, q_spec, k_spec)
    out = update_nodes(query, feats, beta, params, node_spec).data

    edge, node = _layers(params, "edge_mlp", edge_spec), _layers(params, "node_mlp", node_spec)
    scoring = _scoring(params, q_spec, k_spec)
    states, positions, n, k = query.states, query.positions, query.n_nodes, query.k
    rows = np.asarray(query.edge_dst, np.intp)
    parents = ((states, states) + tuple(t for layer in edge for t in layer) + tuple(scoring)
               + tuple(t for layer in node for t in layer))
    first_q, first_node = 2 + 2 * len(edge), 6 + 2 * len(edge)

    def backprop(g):
        need = tuple(p.requires_grad for p in parents)
        edge_arrays, node_arrays = _arrays(edge), _arrays(node)
        qk = [t.data for t in scoring]
        hidden = _split_mlp_outputs(positions, states.data, edge_arrays, rows, k, len(edge))
        feats = hidden.pop()
        beta = _edge_weights(feats, n, k, qk)
        message = _segment_mix(feats, beta.reshape(n * k), k)
        grads = [None] * len(parents)
        node_grads = _split_mlp_grads(
            g, message, states.data, node_arrays, None, 0,
            _split_mlp_outputs(message, states.data, node_arrays, None, 0, len(node) - 1),
            (any(need[1:first_node]), need[0]) + need[first_node:])
        grads[0], grads[first_node:] = node_grads[1], node_grads[2:]
        if node_grads[0] is None:
            return tuple(grads)
        gfeats, gbeta = _segment_mix_grads(node_grads[0], feats, beta.reshape(n * k), k)
        gscores = _row_softmax_grad(gbeta.reshape(n, k), beta).reshape(n * k)
        need_feats = any(need[1:first_q])
        gx, *grads[first_q:first_node] = _bilinear_score_grads(
            gscores, feats, *qk, (need_feats,) + need[first_q:first_node])
        if not need_feats:
            return tuple(grads)
        gfeats += gx
        edge_grads = _split_mlp_grads(gfeats, positions, states.data, edge_arrays, rows, k, hidden,
                                      (False,) + need[1:first_q])
        grads[1:first_q] = edge_grads[1:]
        return tuple(grads)

    return _make(out, parents, backprop)
