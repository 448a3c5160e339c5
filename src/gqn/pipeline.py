"""Multi-set query orchestration over a flattened BEV grid.

Runs every query of every set through initialization, the edge-attention
update and context pooling, projects each set's context-infused node states
back onto the BEV grid by contributor-count mean, one tape node per set that
scatters straight into pair order (``project_to_bev``, which runs
``deep_context.infuse_context``: the context MLP's output layer runs after
the mean, once per cell, so no per-node output is kept), and applies the
skip MLP (mlp1) over [input state || set maps || positional encoding], the
only place the set maps are concatenated. When a global-pathway map is
supplied, the skip output is blended with it via per-pixel softmax weights
from mlp2. Updated per-query summary vectors are exposed so an external
detection head could consume them.

Alignment contract: every map in ``GqnOutput`` has one row per *input pair*,
in the caller's pair order. Because all internal reductions are functions of
the pair set (see the sampling and autodiff modules), feeding a permuted pair
list yields the same maps, permuted the same way, bit for bit.

Chunk layout: the queries of one set share n and k, so the per-query stage
runs on chunks of Q queries stacked query-major (see ``GraphQuery``). One
chunk costs seven tape ops whatever Q is (its vectors' concat, scores and
softmax, its picks' reshape and gather, its max-pool and its whole edge stage,
``edge_focus_update``); its kNN is one build over the stacked states. A
chunk keeps its nodes' pair rows, selection weights and edge targets, and
shares the grid's features and encodings: it has no (Q*n, d) array, stored
or derived. ``init_graph_query`` gathers the raw states for
kNN and keeps none; the edge stage's node gathers and scales them again, in
the forward and in the backward's recompute. Every op of that stage is
row-wise or per query, so a chunk's outputs and the set maps carry the same
bits as one query at a time; only gradients summed over rows round
differently. The largest arrays a chunk builds are the (n*k, d) per-edge
temporaries of the edge stage's op (the first layers are split per node, so
no (n*k, 2d) input exists). None of them is kept on the tape: they
live inside the op's forward and inside its backward's recompute. Q is capped
so that one of them stays within ``CHUNK_BYTES``. Larger arrays are mapped
fresh for each forward. Per
forward on a 32x32 grid with one BLAS thread, whole-set chunks (arrays up to
60 MB) cost about 20k minor page faults and 0.2 s of system time, a 16 MiB
budget about 26k and 0.16 s, and 2 MiB about 5k and 0.01 s. Budgets of 1 to
8 MiB ran the forward equally fast; 2 MiB is the largest that did not raise
the fault count. The toy configs fit one chunk per set.

The skip MLP's input is laid out as (state d) || (S set maps, S*d) || (encoding
d); with the default three sets that is the 5*d-wide fusion input. The mean in
the BEV projection divides by the number of contributing (query, node) pairs
per cell, not by the set's query count, so sparsely covered cells are not
diluted toward zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import (MlpSpec, ParamStore, Tensor, add, as_tensor, backward, column,
                       concat_cols, concat_rows, linear, mean_all, mlp_forward, mul,
                       register_attention, row_softmax, scale_rows, sub)
from .deep_context import context_exchange, infuse_context, pool_query
from .edge_focus import edge_focus_update
from .errors import ConfigError, InvalidInputError, ShapeError
from .query_init import GraphQuery, QuerySetSpec, init_graph_query
from .scene import FlatPairs, SceneSpec, flatten_grid, generate_scene, sinusoidal_encoding

Array = np.ndarray

DEFAULT_SETS = (QuerySetSpec(32, 0.10, 4), QuerySetSpec(32, 0.20, 8), QuerySetSpec(32, 0.30, 12))

# Largest per-edge temporary, in bytes, that the edge stage's op may build for
# one query chunk; see the module docstring for why it is this small.
CHUNK_BYTES = 2 * 2 ** 20


@dataclass(frozen=True)
class GqnConfig:
    d: int = 64
    context_steps: int = 6
    sets: tuple[QuerySetSpec, ...] = DEFAULT_SETS
    freq_base: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"feature width d={self.d} must be >= 1")
        if self.context_steps < 0:
            raise ConfigError(f"context_steps must be >= 0, got {self.context_steps}")
        if not (math.isfinite(self.freq_base) and self.freq_base > 1.0):
            raise ConfigError(f"freq_base must be a finite number above 1, got {self.freq_base}")
        if not self.sets:
            raise ConfigError("need at least one query set")
        ratios = [s.ratio for s in self.sets]
        if any(b <= a for a, b in zip(ratios, ratios[1:])):
            raise ConfigError(f"set sampling ratios must be strictly ascending, got {ratios}")

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    @property
    def tau(self) -> int:
        return sum(s.queries for s in self.sets)

    # Skip and gate MLP shapes, parameterized by d. With d=64 and three sets
    # these are the 320->128->64 skip MLP and the 128->64->2 fusion-gate MLP.
    @property
    def mlp1_spec(self) -> MlpSpec:
        return MlpSpec(((self.num_sets + 2) * self.d, 2 * self.d, self.d))

    @property
    def mlp2_spec(self) -> MlpSpec:
        return MlpSpec((2 * self.d, self.d, 2))


@dataclass
class GqnOutput:
    set_maps: tuple[Tensor, ...]   # one (pairs, d) map per set
    skip_map: Tensor               # (pairs, d)
    fused_map: Tensor | None       # (pairs, d) when a global-pathway map was supplied
    global_vectors: Tensor         # (tau, d) context-updated query summaries
    queries: tuple[GraphQuery, ...]  # the query chunks, in query order

    @property
    def concat_map(self) -> Tensor:
        """(pairs, num_sets * d), channels in set order; built on access, never by ``run_gqn``."""
        return concat_cols(self.set_maps)

    @property
    def coverage(self) -> tuple[float, ...]:
        """Per set, the share of the grid's cells that hold at least one of its nodes."""
        cells = self.skip_map.data.shape[0]
        return tuple(
            np.unique(np.concatenate([q.pair_rows for q in self.queries if q.set_index == i])).size
            / cells for i in range(len(self.set_maps)))


def init_params(config: GqnConfig, m_bev: int) -> ParamStore:
    """Register every parameter group the pipeline uses, seeded deterministically.

    Fails fast if any set's k is not below its sampled node count on a grid of
    ``m_bev`` cells.
    """
    for i, s in enumerate(config.sets):
        n = s.n_nodes(m_bev)
        if s.k >= n:
            raise ConfigError(f"set {i}: k={s.k} >= n={n} nodes (ratio {s.ratio} of {m_bev} cells)")
    d, params = config.d, ParamStore(seed=config.seed)
    for q in range(config.tau):
        params.register(f"query_global/{q}", (d,))
    # the fused stages' fixed layers, which they read back with ``ParamStore.layers``
    split, square = MlpSpec((2 * d, d, d)), MlpSpec((d, d))
    params.register_mlp("edge_mlp", split)
    params.register_mlp("node_mlp", split)
    params.register_mlp("edge_q", square)
    params.register_mlp("edge_k", square)
    params.register_mlp("context_mlp", split)
    register_attention(params, "ctx_attn", d)
    params.register_mlp("mlp1", config.mlp1_spec)
    params.register_mlp("mlp2", config.mlp2_spec)
    return params


def skip_fuse(states: Tensor, set_maps: Sequence[Tensor], enc: Tensor, params: ParamStore,
              spec: MlpSpec) -> Tensor:
    """Per-cell skip MLP over [input state || set maps || encoding], concatenated once."""
    return mlp_forward(spec, params, "mlp1", concat_cols([states, *set_maps, enc]))


def fusion_weights(graph_map: Tensor, global_map: Tensor, params: ParamStore,
                   spec: MlpSpec) -> Tensor:
    """Per-cell softmax weights (m, 2) for blending graph and global pathways."""
    if graph_map.data.shape != global_map.data.shape:
        raise ShapeError(f"pathway maps disagree: {graph_map.data.shape} vs {global_map.data.shape}")
    logits = mlp_forward(spec, params, "mlp2", concat_cols([graph_map, global_map]))
    return row_softmax(logits)


def soft_fusion(graph_map: Tensor, global_map: Tensor, params: ParamStore,
                spec: MlpSpec) -> Tensor:
    """Blend the two pathways per cell: w0 * graph + w1 * global, weights summing to 1."""
    w = fusion_weights(graph_map, global_map, params, spec)
    return add(scale_rows(graph_map, column(w, 0)), scale_rows(global_map, column(w, 1)))


def project_to_bev(set_chunks: Sequence[tuple[GraphQuery, Tensor]], summaries: Tensor,
                   params: ParamStore, flat: FlatPairs) -> Tensor:
    """One set's map in pair order: per cell, the mean of its nodes mixed with their summaries.

    Each chunk names its nodes' rows in the caller's pair order (``pair_rows``),
    so the set's one infusion node (``infuse_context``) adds each cell's node
    rows in query order, as one query at a time would, straight into that
    cell's pair row.
    """
    return infuse_context(
        [(query.pair_rows, nodes, np.arange(query.query_index, query.query_index + query.queries))
         for query, nodes in set_chunks], summaries, params, flat.m_bev)


def _chunk_size(spec: QuerySetSpec, m_bev: int, d: int) -> int:
    """Queries of one set per chunk: as many as keep an (n*k, d) per-edge temporary in budget."""
    return max(1, CHUNK_BYTES // (spec.n_nodes(m_bev) * spec.k * d * 8))


def run_gqn(flat: FlatPairs, config: GqnConfig, params: ParamStore,
            global_map: Tensor | Array | None = None) -> GqnOutput:
    """Run every query set end to end over a flattened grid.

    ``global_map`` is the stand-in for a global reasoning pathway, aligned with
    the input pair order; without it the fused map is None.
    """
    states = Tensor(flat.states)
    enc = Tensor(flat.positions)

    chunks = []  # per set, its (query chunk, updated node states) pairs in query order
    q_index = 0
    for set_index, spec in enumerate(config.sets):
        size = _chunk_size(spec, flat.m_bev, config.d)
        set_chunks = []
        for first in range(q_index, q_index + spec.queries, size):
            last = min(first + size, q_index + spec.queries)
            u = concat_rows([params[f"query_global/{q}"] for q in range(first, last)])
            query = init_graph_query(u, states, flat, set_index, first, spec)
            nodes = edge_focus_update(query, params)
            set_chunks.append((query, nodes))
        chunks.append(set_chunks)
        q_index += spec.queries

    summaries = context_exchange(
        concat_rows([pool_query(nodes, query.queries)
                     for set_chunks in chunks for query, nodes in set_chunks]),
        config.context_steps, params)

    set_maps = [project_to_bev(set_chunks, summaries, params, flat) for set_chunks in chunks]

    skip_map = skip_fuse(states, set_maps, enc, params, config.mlp1_spec)
    fused = None
    if global_map is not None:
        fused = soft_fusion(skip_map, as_tensor(global_map), params, config.mlp2_spec)

    return GqnOutput(
        set_maps=tuple(set_maps),
        skip_map=skip_map,
        fused_map=fused,
        global_vectors=summaries,
        queries=tuple(query for set_chunks in chunks for query, _ in set_chunks),
    )


# ----------------------------------------------------------------------------
# desk-scale training demo


@dataclass
class TrainResult:
    losses: list[float]      # loss before any update, then after each step
    diverged: bool


def register_readout(params: ParamStore, d: int) -> None:
    """One-channel linear readout used by the training demo's mask regression."""
    params.register("readout/W", (d, 1))
    params.register("readout/b", (1,), init="zeros")


def mask_loss(flat: FlatPairs, config: GqnConfig, params: ParamStore, mask: Array) -> Tensor:
    """Mean squared error of the skip map's (m, 1) readout against a per-pair 0/1 (m,) mask."""
    out = run_gqn(flat, config, params)
    pred = linear(out.skip_map, params["readout/W"], params["readout/b"])
    err = sub(pred, Tensor(mask[:, None]))
    return mean_all(mul(err, err))


def toy_train(scene_spec: SceneSpec, config: GqnConfig, steps: int,
              learning_rate: float) -> TrainResult:
    """Gradient-descend all parameters on a synthetic scene's object mask.

    Returns the loss curve (steps + 1 entries). A non-finite loss stops the
    run and flags it as diverged instead of raising.
    """
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if scene_spec.d != config.d:
        raise ConfigError(f"scene d={scene_spec.d} != pipeline d={config.d}")
    grid, truth = generate_scene(scene_spec)
    enc = sinusoidal_encoding(scene_spec.height, scene_spec.width, scene_spec.d,
                              config.freq_base)
    flat = flatten_grid(grid, enc)
    params = init_params(config, flat.m_bev)
    register_readout(params, config.d)

    losses: list[float] = []

    def step_loss() -> Tensor | None:
        # Numeric blowups after a finite start are divergence, not a bug:
        # report them as a failed run instead of crashing.
        try:
            return mask_loss(flat, config, params, truth.mask)
        except InvalidInputError:
            if not losses:
                raise
            return None

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            loss = step_loss()
            if loss is None or not np.isfinite(loss.item()):
                return TrainResult(losses, diverged=True)
            losses.append(loss.item())
            backward(loss, params)
            for _, t in params.items():
                t.data = t.data - learning_rate * t.grad
        final = step_loss()
        if final is None or not np.isfinite(final.item()):
            return TrainResult(losses, diverged=True)
        losses.append(final.item())
        return TrainResult(losses, diverged=False)
