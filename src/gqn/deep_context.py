"""Inter-query context pooling.

Each query is condensed to a graph-level summary by elementwise max over its
updated node states (a chunk of Q queries, stacked query-major, pools to Q
summaries in one op); summaries of all queries exchange information through
repeated residual self-attention (shared weights across steps, zero steps is
the identity); the updated summary is then concatenated onto every node of
its query and mixed back in by an MLP.

Per-node split: the context MLP's first layer is linear in
``[node || summary]``, so with W_a and W_b the top and bottom rows of its
weight it equals ``N W_a + (U W_b)[rows] + b``, the split DGCNN's EdgeConv
makes (Wang et al., "Dynamic Graph CNN for Learning on Point Clouds", 2019,
eq. 8). ``infuse_context`` multiplies all tau summaries U by W_b and gathers
the product's rows per node (``autodiff.split_mlp_forward``, one tape node
that recomputes its hidden layer in backward), so the tiled (N, 2d) input is
never built. Every chunk forms the same (tau, d) x (d, h) product, so
each node's bits do not depend on how the queries are chunked; projecting
only a chunk's gathered summary rows would change them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import MlpSpec, ParamStore, Tensor, max_rows, self_attention_layer, split_mlp_forward
from .errors import ConfigError, ShapeError


def pool_query(nodes: Tensor, queries: int = 1) -> Tensor:
    """Elementwise max over each query's node states: (queries * n, d) -> (queries, d)."""
    return max_rows(nodes, queries)


def context_exchange(summaries: Tensor, steps: int, params: ParamStore) -> Tensor:
    """Apply ``steps`` shared-weight self-attention layers over (tau, d) summaries.

    The summaries come in query order, and each attention row sums its tau
    terms in that order (``autodiff.attn_mix``).
    """
    if steps < 0:
        raise ConfigError(f"context steps must be >= 0, got {steps}")
    out = summaries
    for _ in range(steps):
        out = self_attention_layer(out, params, "ctx_attn")
    return out


def infuse_context(nodes: Tensor, summaries: Tensor, params: ParamStore, spec: MlpSpec,
                   rows: Sequence[int]) -> Tensor:
    """Mix each query's updated summary into each of its nodes: MLP(node || summary).

    ``nodes`` stacks Q queries of n nodes each, query-major. Query q's summary
    is row ``rows[q]`` of the (tau, d) ``summaries``.
    """
    if (nodes.data.ndim != 2 or summaries.data.ndim != 2
            or summaries.data.shape[1] != nodes.data.shape[1]):
        raise ShapeError(f"nodes {nodes.data.shape} vs summaries {summaries.data.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    if not len(rows) or nodes.data.shape[0] % len(rows):
        raise ShapeError(f"{nodes.data.shape[0]} nodes do not split into {len(rows)} queries")
    return split_mlp_forward(spec, params, "context_mlp", nodes, summaries,
                             rows=np.repeat(rows, nodes.data.shape[0] // len(rows)))
