"""Edge-attention node updates for a graph query.

Per directed edge i->j the edge feature is an MLP of the relative position
concatenated with the neighbor's (selection-weighted) state, so each edge
carries both geometric and semantic cues. Attention then runs *over edges*:
each edge is scored by the dot product of its own query/key projections,
normalized across the K edges leaving the same node, and the node update is
an MLP of the attention-weighted edge sum concatenated with the node's state.

Scoring note: pairing the two projections of the same edge yields exactly one
weight per edge, which is what the weighted aggregation consumes. The natural
generalization, a full KxK score matrix between the edges of a neighborhood,
would need a reduction back to one weight per edge; if ever wanted, it slots
in at ``edge_attention`` without touching the rest of the operator.
"""

from __future__ import annotations

from .autodiff import (MlpSpec, ParamStore, Tensor, concat_cols, gather_rows, mlp_forward,
                       reshape, row_softmax, rowdot, segment_mix)
from .errors import ContractError, ShapeError
from .query_init import GraphQuery


def edge_features(query: GraphQuery, params: ParamStore, spec: MlpSpec,
                  name: str = "edge_mlp") -> Tensor:
    """Per-edge features: MLP(relative position || neighbor state), shape (n_nodes*k, d)."""
    d = query.positions.shape[1]
    if spec.widths[0] != 2 * d:
        raise ShapeError(f"edge MLP expects input width {spec.widths[0]}, node width is {d}")
    rel = Tensor(query.positions[query.edge_dst] - query.positions[query.edge_src])
    neighbor = gather_rows(query.states, query.edge_dst)
    return mlp_forward(spec, params, name, concat_cols([rel, neighbor]))


def edge_attention(feats: Tensor, n_nodes: int, k: int, params: ParamStore,
                   q_spec: MlpSpec, k_spec: MlpSpec,
                   q_name: str = "edge_q", k_name: str = "edge_k") -> Tensor:
    """Per-edge weights, normalized over each node's k edges; shape (n*k,)."""
    if k < 1 or feats.data.shape[0] != n_nodes * k:
        raise ContractError(f"need k >= 1 edges per node, got {feats.data.shape[0]} for {n_nodes}x{k}")
    q = mlp_forward(q_spec, params, q_name, feats)
    key = mlp_forward(k_spec, params, k_name, feats)
    scores = rowdot(q, key)
    beta = row_softmax(reshape(scores, (n_nodes, k)))
    return reshape(beta, (n_nodes * k,))


def update_nodes(query: GraphQuery, feats: Tensor, beta: Tensor, params: ParamStore,
                 spec: MlpSpec, name: str = "node_mlp") -> Tensor:
    """Updated node states: MLP(attention-weighted edge sum || node state), shape (n_nodes, d)."""
    d = query.positions.shape[1]
    if spec.widths[0] != 2 * d:
        raise ShapeError(f"node MLP expects input width {spec.widths[0]}, node width is {d}")
    message = segment_mix(feats, beta, query.k)
    return mlp_forward(spec, params, name, concat_cols([message, query.states]))


def edge_focus_update(query: GraphQuery, params: ParamStore, edge_spec: MlpSpec,
                      node_spec: MlpSpec, q_spec: MlpSpec, k_spec: MlpSpec) -> Tensor:
    """The full edge-attention update for one query chunk: features, weights, aggregation.

    Every step is per edge or per node, so a chunk of stacked queries gives
    each query the rows it would get alone.
    """
    feats = edge_features(query, params, edge_spec)
    beta = edge_attention(feats, query.n_nodes, query.k, params, q_spec, k_spec)
    return update_nodes(query, feats, beta, params, node_spec)
