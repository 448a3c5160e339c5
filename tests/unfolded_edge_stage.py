"""The edge stage as written before the fold, one plain tape node per op.

The library runs the edge stage as one fused node (``edge_focus.edge_focus_update``)
that folds the edge MLP's output layer into q, key and the message. Tests that
hold that node, or the pipeline that runs it, against the unfolded stage build
the stage here, with its weighted edge sum and row-wise dot products as nodes.
"""

from gqn.autodiff import (MlpSpec, Tensor, _make, _segment_mix, _segment_mix_grads, concat_cols,
                          gather_rows, mlp_forward, reshape, row_softmax)
from chunk_states import node_states


def rowdot(a, b):
    """Row-wise dot products of two (rows, cols) tensors as one tape node."""

    def backprop(g):
        ga = g[:, None] * b.data if a.requires_grad else None
        gb = g[:, None] * a.data if b.requires_grad else None
        return ga, gb

    return _make((a.data * b.data).sum(axis=1), (a, b), backprop)


def mix_node(t, w, k):
    """The weighted edge sum as one tape node, built from the private helpers."""
    return _make(_segment_mix(t.data, w.data, k), (t, w),
                 lambda g: _segment_mix_grads(g, t.data, w.data, k))


def unfolded_edge_focus_update(query, params):
    """The edge stage over the chunk's states (``node_states``, built once): the edge MLP's
    output f = h W + b per edge over the concatenated [relative position || neighbor
    state], q and key projected from f, the per-node softmax, the message sum of
    beta * f, then the node MLP over [message || state]."""
    n, k, states = query.n_nodes, query.k, node_states(query)
    d = states.data.shape[1]
    mlp, square = MlpSpec((2 * d, d, d)), MlpSpec((d, d))
    rel = Tensor(query.positions[query.edge_dst] - query.positions[query.edge_src])
    neighbor = gather_rows(states, query.edge_dst)
    feats = mlp_forward(mlp, params, "edge_mlp", concat_cols([rel, neighbor]))
    q = mlp_forward(square, params, "edge_q", feats)
    key = mlp_forward(square, params, "edge_k", feats)
    beta = reshape(row_softmax(reshape(rowdot(q, key), (n, k))), (n * k,))
    message = mix_node(feats, beta, k)
    return mlp_forward(mlp, params, "node_mlp", concat_cols([message, states]))
