"""Inter-query context pooling.

Each query is condensed to a graph-level summary by elementwise max over its
updated node states (a chunk of Q queries, stacked query-major, pools to Q
summaries in one op); summaries of all queries exchange information through
repeated residual self-attention (shared weights across steps, zero steps is
the identity); the updated summary is then concatenated onto every node of
its query and mixed back in by an MLP, and each set's mixed nodes are
averaged per BEV cell into the set's map.

Per-node split: the context MLP's first layer is linear in
``[node || summary]``, so with W_a and W_b the top and bottom rows of its
weight it equals ``N W_a + (U W_b)[rows] + b``, the split DGCNN's EdgeConv
makes (Wang et al., "Dynamic Graph CNN for Learning on Point Clouds", 2019,
eq. 8). Each chunk multiplies all tau summaries U by W_b and gathers the
product's rows per node (``autodiff._split_linear``), so the tiled (N, 2d)
input is never built. The MLP's layers are the stored ``context_mlp`` ones,
exactly two (``(2d, d, d)``, registered from d), and
``autodiff._check_split_mlp`` gates their shapes. Every chunk forms the same
(tau, d) x (d, h) product, so each node's bits do not depend on how the
queries are chunked; projecting only a chunk's gathered summary rows would
change them.

Folded output layer: the BEV projection averages a set's infused nodes per
cell, and the MLP's output layer is linear, so for a covered cell the mean of
``h W1 + b1`` over its nodes is ``(mean h) W1 + b1``: the mean's weights sum
to one. ``infuse_context`` therefore averages the hidden layer h per cell and
runs the output layer once per cell, on all of the grid's cells, then zeros
the cells no node covers. One tape node per set keeps its (cells, d) map and
no per-node output; at 32x32 such outputs would be 19,648 rows, 9.6 MiB of
tape. Its backward recomputes each chunk's hidden layer with
the forward's call. This moves results by rounding only; the unfolded form
(one node per chunk, then the mean) is the oracle of the tests. The hidden
layer is row-wise and the mean adds each cell's rows in query order, so one
query at a time gives the chunked bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import (ParamStore, Tensor, _cell_scale, _check_split_mlp, _dense, _make,
                       _scatter_add, _split_linear, _split_linear_grads,
                       _zero_unless_positive, max_rows, self_attention_layer)
from .errors import ConfigError, ContractError, ShapeError

Array = np.ndarray


def pool_query(nodes: Tensor, queries: int = 1) -> Tensor:
    """Elementwise max over each query's node states: (queries * n, d) -> (queries, d)."""
    return max_rows(nodes, queries)


def context_exchange(summaries: Tensor, steps: int, params: ParamStore) -> Tensor:
    """Apply ``steps`` shared-weight self-attention layers over (tau, d) summaries.

    Each step is one tape node (``autodiff.self_attention_layer``). The
    summaries come in query order, and each attention row sums its tau terms
    in that order (``autodiff._attn_mix``).
    """
    if steps < 0:
        raise ConfigError(f"context steps must be >= 0, got {steps}")
    out = summaries
    for _ in range(steps):
        out = self_attention_layer(out, params, "ctx_attn")
    return out


def infuse_context(chunks: Sequence[tuple[Array, Tensor, Sequence[int]]], summaries: Tensor,
                   params: ParamStore, num_cells: int) -> Tensor:
    """One set's (num_cells, d) map: per cell, the mean over its nodes of MLP(node || summary).

    ``chunks`` holds the set's query chunks in query order, each as ``(cells,
    nodes, rows)``: ``nodes`` stacks Q queries of n nodes each, query-major,
    node i lies in cell ``cells[i]``, and query q's summary is row ``rows[q]``
    of the (tau, d) ``summaries``. A cell no node covers is zero.

    One tape node whose parents are the chunks' nodes in order, then the
    summaries and the context MLP's W0, b0, W1 and b1. The hidden layer runs
    per chunk (``_split_linear``), and each chunk's rows are added into their
    cells as soon as they are computed (``_scatter_add``), so each cell adds
    its rows in query order; the output layer runs on the means (see the
    module docstring). The node keeps its inputs, the (num_cells,) scale and
    its map; no (Q*n, d) array outlives its chunk, in the forward or in the
    backward's recompute.
    """
    if not chunks:
        raise ContractError("a set map needs at least one query chunk")
    layers = params.layers("context_mlp")
    arrays = [(w.data, b.data) for w, b in layers]
    node_cells, node_rows = [], []  # per chunk, each node's cell and summary row
    for cells, nodes, rows in chunks:
        rows = np.asarray(rows, dtype=np.intp)
        if (nodes.data.ndim != 2 or summaries.data.ndim != 2
                or summaries.data.shape[1] != nodes.data.shape[1]):
            raise ShapeError(f"nodes {nodes.data.shape} vs summaries {summaries.data.shape}")
        if not len(rows) or nodes.data.shape[0] % len(rows):
            raise ShapeError(f"{nodes.data.shape[0]} nodes do not split into {len(rows)} queries")
        if np.shape(cells) != nodes.data.shape[:1]:
            raise ShapeError(f"{np.shape(cells)} cells for {nodes.data.shape[0]} nodes")
        node_cells.append(np.asarray(cells, dtype=np.intp))
        node_rows.append(np.repeat(rows, nodes.data.shape[0] // len(rows)))
        _check_split_mlp("context_mlp", nodes.data, summaries.data, arrays, node_rows[-1], 0)
    scale = _cell_scale(np.concatenate(node_cells), num_cells)
    (w0, b0), (w1, b1) = layers
    parents = tuple(nodes for _, nodes, _ in chunks) + (summaries, w0, b0, w1, b1)

    def hidden(i: int) -> Array:
        """Chunk i's hidden layer after the ReLU, the same call in the forward and backward."""
        return _split_linear(parents[i].data, summaries.data, w0.data, b0.data, node_rows[i], 0)

    def backprop(g):
        _zero_unless_positive(g, scale[:, None])  # an uncovered cell is a constant zero
        g_mean = g @ w1.data.T
        g_mean *= scale[:, None]
        mean = np.zeros((num_cells, w0.data.shape[1]))
        node_grads, sums = [], None  # the summaries', W0's and b0's, added in query order
        for i, cells in enumerate(node_cells):
            h = hidden(i)
            _scatter_add(mean, cells, h)
            g_nodes, *rest = _split_linear_grads(_zero_unless_positive(g_mean[cells], h),
                                                 parents[i].data, summaries.data, w0.data,
                                                 node_rows[i], 0)
            node_grads.append(g_nodes)
            if sums is None:
                sums = rest
            else:
                for total, part in zip(sums, rest):
                    total += part
        mean *= scale[:, None]
        return (*node_grads, *sums, mean.T @ g, g.sum(axis=0))

    mean = np.zeros((num_cells, w0.data.shape[1]))
    for i, cells in enumerate(node_cells):
        _scatter_add(mean, cells, hidden(i))
    mean *= scale[:, None]
    out = _dense(mean, w1.data, b1.data)
    out[scale == 0.0] = 0.0
    return _make(out, parents, backprop)
