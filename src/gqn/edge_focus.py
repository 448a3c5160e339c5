"""Edge-attention node updates for a graph query.

Per directed edge i->j the edge feature is an MLP of the relative position
concatenated with the neighbor's (selection-weighted) state, so each edge
carries both geometric and semantic cues. Attention then runs *over edges*:
each edge is scored by the dot product of its own query/key projections,
normalized across the K edges leaving the same node, and the node update is
an MLP of the attention-weighted edge sum concatenated with the node's state.

Per-node split: the first layer of the edge MLP is linear in
``[p_j - p_i || s_j]``, so with W_p and W_s the top and bottom rows of its
weight it equals ``(P W_p + S W_s)[j] - (P W_p)[i] + b``, the linearity
DGCNN's EdgeConv uses to compute its ``theta (x_j - x_i) + phi x_i`` edge
function per point (Wang et al., "Dynamic Graph CNN for Learning on Point
Clouds", 2019, eq. 8). The products are per node, k times fewer than per
edge, and neither the (n*k, 2d) input nor the gathered neighbor states is
built. The node MLP's ``[message || state]`` takes the same split without a
gather. Each MLP is one tape node (``autodiff.split_mlp_forward``) that keeps
its output but not its (n*k, d) or (n, d) hidden layer; its backward
recomputes the hidden layer from the per-node products and a gather, with no
per-edge product.

Scoring: q and key are one (d, d) layer each, and ``autodiff.edge_scores``
takes their per-edge dot products in one tape node that keeps only the edge
features (already on the tape for the aggregation). The two (n*k, d)
projections are recomputed in backward, not stored.

Pairing the two projections of the same edge yields exactly one weight per
edge, which is what the weighted aggregation consumes. The natural
generalization, a full KxK score matrix between the edges of a neighborhood,
would need a reduction back to one weight per edge; if ever wanted, it slots
in at ``edge_attention`` without touching the rest of the operator.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (MlpSpec, ParamStore, Tensor, edge_scores, reshape, row_softmax, segment_mix,
                       split_mlp_forward)
from .errors import ContractError, ShapeError
from .query_init import GraphQuery


def edge_features(query: GraphQuery, params: ParamStore, spec: MlpSpec) -> Tensor:
    """Per-edge features: MLP(relative position || neighbor state), shape (n_nodes*k, d)."""
    d = query.positions.shape[1]
    if spec.widths[0] != 2 * d:
        raise ShapeError(f"edge MLP expects input width {spec.widths[0]}, node width is {d}")
    if not np.array_equal(query.edge_src, np.repeat(np.arange(query.n_nodes), query.k)):
        raise ContractError("edge features need edges grouped by source, k per node")
    return split_mlp_forward(spec, params, "edge_mlp", Tensor(query.positions), query.states,
                             rows=query.edge_dst, k=query.k)


def edge_attention(feats: Tensor, n_nodes: int, k: int, params: ParamStore,
                   q_spec: MlpSpec, k_spec: MlpSpec) -> Tensor:
    """Per-edge weights, normalized over each node's k edges; shape (n*k,)."""
    if k < 1 or feats.data.shape[0] != n_nodes * k:
        raise ContractError(f"need k >= 1 edges per node, got {feats.data.shape[0]} for {n_nodes}x{k}")
    d = feats.data.shape[1]
    if q_spec.widths != (d, d) or k_spec.widths != (d, d):
        raise ShapeError(f"edge scoring needs one ({d}, {d}) layer each for q and key, got "
                         f"widths {q_spec.widths} and {k_spec.widths}")
    scores = edge_scores(feats, params["edge_q/W0"], params["edge_q/b0"],
                         params["edge_k/W0"], params["edge_k/b0"])
    beta = row_softmax(reshape(scores, (n_nodes, k)))
    return reshape(beta, (n_nodes * k,))


def update_nodes(query: GraphQuery, feats: Tensor, beta: Tensor, params: ParamStore,
                 spec: MlpSpec) -> Tensor:
    """Updated node states: MLP(attention-weighted edge sum || node state), shape (n_nodes, d)."""
    d = query.positions.shape[1]
    if spec.widths[0] != 2 * d:
        raise ShapeError(f"node MLP expects input width {spec.widths[0]}, node width is {d}")
    message = segment_mix(feats, beta, query.k)
    return split_mlp_forward(spec, params, "node_mlp", message, query.states)


def edge_focus_update(query: GraphQuery, params: ParamStore, edge_spec: MlpSpec,
                      node_spec: MlpSpec, q_spec: MlpSpec, k_spec: MlpSpec) -> Tensor:
    """The full edge-attention update for one query chunk: features, weights, aggregation.

    Every step is per edge or per node, so a chunk of stacked queries gives
    each query the rows it would get alone.
    """
    feats = edge_features(query, params, edge_spec)
    beta = edge_attention(feats, query.n_nodes, query.k, params, q_spec, k_spec)
    return update_nodes(query, feats, beta, params, node_spec)
