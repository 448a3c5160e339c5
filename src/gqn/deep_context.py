"""Inter-query context pooling.

Each query is condensed to a graph-level summary by elementwise max over its
updated node states (a chunk of Q queries, stacked query-major, pools to Q
summaries in one op); summaries of all queries exchange information through
repeated residual self-attention (shared weights across steps, zero steps is
the identity); the updated summary is then concatenated onto every node of
its query and mixed back in by an MLP.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import (MlpSpec, ParamStore, Tensor, concat_cols, gather_rows, max_rows,
                       mlp_forward, self_attention_layer)
from .errors import ConfigError, ShapeError


def pool_query(nodes: Tensor, queries: int = 1) -> Tensor:
    """Elementwise max over each query's node states: (queries * n, d) -> (queries, d)."""
    return max_rows(nodes, queries)


def context_exchange(summaries: Tensor, steps: int, params: ParamStore) -> Tensor:
    """Apply ``steps`` shared-weight self-attention layers over (tau, d) summaries."""
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
    if spec.widths[0] != 2 * nodes.data.shape[1]:
        raise ShapeError(f"context MLP expects input width {spec.widths[0]}")
    rows = np.asarray(rows, dtype=np.intp)
    if nodes.data.shape[0] % len(rows):
        raise ShapeError(f"{nodes.data.shape[0]} nodes do not split into {len(rows)} queries")
    tiled = gather_rows(summaries, np.repeat(rows, nodes.data.shape[0] // len(rows)))
    return mlp_forward(spec, params, "context_mlp", concat_cols([nodes, tiled]))
