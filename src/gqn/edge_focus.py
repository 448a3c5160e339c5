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

Folded output layer: the edge MLP's last layer is linear, ``f = h W + b`` on
its last hidden layer h (after the ReLU), and both consumers of f are affine
in it, so the stage never builds f:

- q and key are projections of h with the composed layers ``Wq' = W Wq``,
  ``bq' = b Wq + bq`` (and so for key), formed once per chunk from (d, d)
  matrices (``_fold``);
- the message ``Σβ·f`` is taken as ``(Σβ·h) W + b``, one per-node product.
  The weights of a node sum to one, and the ``Σβ·b`` term they would carry
  is the same for every edge of a node, so it drops out of β's gradient:
  the softmax Jacobian removes per-row constants.

This moves results by rounding only; the unfolded form is the oracle of the
tests.

Layers: each stage reads its layers from the parameters
(``ParamStore.layers``), as ``pipeline.init_params`` registered them from d,
and gates the stored shapes. The edge and node MLPs have exactly two layers,
a split hidden layer and a linear output layer (``(2d, d, d)``); their one
shape gate is ``autodiff._check_split_mlp``. q and key are exactly one
(d, d) layer each, d the edge MLP's output width (``_scoring``); the edge
MLP's gate, in ``edge_features``, runs before they are read.

Scoring: the per-edge dot product of q and key is taken as the bilinear
form ``h A hᵀ + h·c + bq'·bk'`` with ``A = Wq' Wk'ᵀ``
(``autodiff._bilinear_scores``): one (n*k, d) x (d, d) product, the only
per-edge product of the stage's forward, where projecting f and then q and
key would take three.

One tape node per chunk: ``edge_focus_update`` runs the hidden features,
scores, softmax, weighted sum, message and node MLP as array code and records
one node that keeps only its inputs (the grid's positions and the nodes' rows
in it, states, edge targets, the parameters) and its (n, d) output. Its
backward gathers the nodes' positions again and recomputes every per-edge
array with the forward's calls, so they carry the same bits (Chen et al.,
"Training Deep Nets with Sublinear Memory Cost", 2016), then backprops
through the stages in reverse; the gradients of the output layer, q and key
chain back through the (d, d) products of the fold. ``edge_features`` (the
gate and the split hidden layer) and ``update_nodes`` (the gate and the node
MLP's two layers) are forward calls of the node, and return value-only
tensors; ``edge_attention`` scores any rows under q and key, as the node
scores h under the composed layers.

Pairing the two projections of the same edge yields exactly one weight per
edge, which is what the weighted aggregation consumes. The natural
generalization, a full KxK score matrix between the edges of a neighborhood,
would need a reduction back to one weight per edge; if ever wanted, it slots
in at the scoring (``_edge_weights``) without touching the rest of the operator.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (ParamStore, Tensor, _bilinear_score_grads, _bilinear_scores,
                       _check_split_mlp, _dense, _dense_grads, _make, _row_softmax,
                       _row_softmax_grad, _segment_mix, _segment_mix_grads, _split_linear,
                       _split_linear_grads, _split_mlp_grads)
from .errors import ContractError, ShapeError
from .query_init import GraphQuery

Array = np.ndarray


def _arrays(layers: list[tuple[Tensor, Tensor]]) -> list[tuple[Array, Array]]:
    return [(w.data, b.data) for w, b in layers]


def _scoring(params: ParamStore, d: int) -> list[Tensor]:
    """q's and key's stored weight and bias, ``[Wq, bq, Wk, bk]``; raises ``ShapeError``
    unless each is exactly one (d, d) layer."""
    q, key = params.layers("edge_q"), params.layers("edge_k")
    shapes = [[(w.data.shape, b.data.shape) for w, b in layers] for layers in (q, key)]
    if shapes != [[((d, d), (d,))]] * 2:
        raise ShapeError(f"edge scoring needs one ({d}, {d}) layer each for q and key, got "
                         f"layers {shapes[0]} and {shapes[1]}")
    return [t for layer in q + key for t in layer]


def _fold(out_w: Array, out_b: Array, w: Array, b: Array) -> tuple[Array, Array]:
    """The layer ``x w + b`` read through ``x = h out_w + out_b``: ``(out_w w, out_b w + b)``."""
    bias = out_b @ w
    bias += b
    return out_w @ w, bias


def _fold_grads(g_w: Array, g_b: Array, out_w: Array, out_b: Array, w: Array) -> tuple:
    """Gradients of ``_fold`` for ``out_w``, ``out_b``, ``w`` and ``b``."""
    gw = out_w.T @ g_w
    gw += np.outer(out_b, g_b)
    return g_w @ w.T, w @ g_b, gw, g_b


def _edge_weights(x: Array, n_nodes: int, k: int, scoring: list[Array]) -> Array:
    """The (n, k) softmax over each node's k bilinear edge scores of the rows ``x``."""
    return _row_softmax(_bilinear_scores(x, *scoring).reshape(n_nodes, k))


def edge_features(query: GraphQuery, params: ParamStore) -> Tensor:
    """Per-edge features h: the edge MLP's hidden layer over (relative position || neighbor
    state), after the ReLU; shape (n_nodes*k, hidden width). Row e is the edge from node
    e // k to node ``query.edge_dst[e]``.

    The MLP's second layer is linear; the stage folds it into the scores and
    the message (see the module docstring), so no per-edge output is built.
    """
    positions, states = query.positions, query.states.data
    layers, rows = _arrays(params.layers("edge_mlp")), np.asarray(query.edge_dst, np.intp)
    _check_split_mlp("edge_mlp", positions, states, layers, rows, query.k)
    return Tensor(_split_linear(positions, states, *layers[0], rows, query.k, relu=True))


def edge_attention(feats: Tensor, n_nodes: int, k: int, params: ParamStore) -> Tensor:
    """Per-edge weights of the rows ``feats`` under q and key, normalized over each node's
    k edges; shape (n*k,)."""
    if k < 1 or feats.data.shape[0] != n_nodes * k:
        raise ContractError(f"need k >= 1 edges per node, got {feats.data.shape[0]} for {n_nodes}x{k}")
    scoring = [t.data for t in _scoring(params, feats.data.shape[1])]
    return Tensor(_edge_weights(feats.data, n_nodes, k, scoring).reshape(n_nodes * k))


def update_nodes(query: GraphQuery, message: Tensor, params: ParamStore) -> Tensor:
    """Updated node states: MLP(message || node state), shape (n_nodes, d)."""
    layers = _arrays(params.layers("node_mlp"))
    _check_split_mlp("node_mlp", message.data, query.states.data, layers, None, 0)
    hidden = _split_linear(message.data, query.states.data, *layers[0], None, 0, relu=True)
    return Tensor(_dense(hidden, *layers[1], relu=False))


def edge_focus_update(query: GraphQuery, params: ParamStore) -> Tensor:
    """The full edge-attention update for one query chunk, as one tape node.

    Every step is per edge or per node, so a chunk of stacked queries gives
    each query the rows it would get alone. The node's parents are the
    states, then the edge MLP's, q's, key's and node MLP's weights and
    biases; the positions are a constant. The backward returns the gradient
    of every parent, and ``Tensor.backward`` drops those of parents that do
    not require grad.
    """
    hidden = edge_features(query, params).data  # gates the edge MLP before q and key are read

    edge, node = params.layers("edge_mlp"), params.layers("node_mlp")
    scoring = _scoring(params, edge[-1][0].data.shape[1])
    states, n, k = query.states, query.n_nodes, query.k
    grid_positions, pair_rows = query.grid_positions, query.pair_rows
    rows = np.asarray(query.edge_dst, np.intp)

    def folded() -> list[Array]:
        """q's and key's layers composed with the edge MLP's output layer."""
        (out_w, out_b), (wq, bq, wk, bk) = _arrays(edge)[-1], [t.data for t in scoring]
        return [*_fold(out_w, out_b, wq, bq), *_fold(out_w, out_b, wk, bk)]

    def mix_and_message(h: Array, fold: list[Array]) -> tuple[Array, Array, Array]:
        """The weights, their sum of h per node, and the message ``mix W + b``."""
        beta = _edge_weights(h, n, k, fold).reshape(n * k)
        mix = _segment_mix(h, beta, k)
        return beta, mix, _dense(mix, *_arrays(edge)[-1], relu=False)

    out = update_nodes(query, Tensor(mix_and_message(hidden, folded())[2]), params).data

    parents = ((states,) + tuple(t for layer in edge for t in layer) + tuple(scoring)
               + tuple(t for layer in node for t in layer))

    def backprop(g):
        ((w0, b0), (out_w, out_b)), node_arrays = _arrays(edge), _arrays(node)
        wq, _, wk, _ = [t.data for t in scoring]
        positions = grid_positions[pair_rows]
        h, fold = _split_linear(positions, states.data, w0, b0, rows, k, relu=True), folded()
        beta, mix, message = mix_and_message(h, fold)
        # the node MLP's hidden layer goes in unnamed, so it is freed with the call
        node_grads = _split_mlp_grads(
            g, message, states.data, node_arrays, None, 0,
            _split_linear(message, states.data, *node_arrays[0], None, 0, relu=True))
        gmix, gw_out, gb_out = _dense_grads(node_grads[0], mix, out_w, None)
        gh, gbeta = _segment_mix_grads(gmix, h, beta, k)
        gscores = _row_softmax_grad(gbeta.reshape(n, k), beta.reshape(n, k)).reshape(n * k)
        gx, gwq, gbq, gwk, gbk = _bilinear_score_grads(gscores, h, *fold)
        q_grads = _fold_grads(gwq, gbq, out_w, out_b, wq)
        k_grads = _fold_grads(gwk, gbk, out_w, out_b, wk)
        gh += gx
        del gx  # the edge layer's gradient masks gh into a new (n*k, d) array: free one first
        edge_grads = _split_linear_grads(gh, positions, states.data, w0, rows, k, h)
        # the states' gradient adds the node MLP's part, then the edge MLP's, as
        # a chain of one node per stage would
        return ((node_grads[1] + edge_grads[1],) + edge_grads[2:]
                + (gw_out + q_grads[0] + k_grads[0], gb_out + q_grads[1] + k_grads[1])
                + q_grads[2:] + k_grads[2:] + node_grads[2:])

    return _make(out, parents, backprop)
