"""Analytic op-count model for graph construction and processing.

Compares per-query graphs (a fraction of the grid, small k) against one
full-scene graph (every cell, k=20) under a unit-cost model: one unit per
pairwise distance during construction, one per edge operation during
processing. Constant factors cancel in the reduction ratios, which is what
the model reports.

Every graph, the full-scene one and each set's, gets the three ``COUNTS``;
a ``CostReport`` holds them, and ``run_benchmark`` reads the ``gqn bench``
rows from one report per grid size. Peak cost means the single most expensive
graph: the largest query graph on one side, the full-scene graph on the
other. Node counts use the *exact* rational ratio * m_bev (ratios are read as
decimal literals), so the headline processing reduction, 1 - (max ratio*k) /
k_full, is computed exactly; the rounded integer counts the live pipeline
uses are reported alongside.

Construction is counted in two modes and both are reported: ``naive`` exact
pairwise search at n*(n-1)/2 distance evaluations, and ``indexed`` at
n*log2(n) + n*k for an index-assisted build. The indexed mode is counted
only; the pipeline always runs the exact search at desk scale.

FLOP estimates are closed-form integer sums over the pipeline's stages
(scoring, edge features, edge attention, node updates, pooling, context
attention, projection, skip/gate MLPs), counting 2 FLOPs per multiply-add.
They count the layers the code runs, whose 2d-wide first layers are split
per node and whose edge MLP output layer is folded into scoring and the
message, and depend only on the configuration and grid size, never on grid
content.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .autodiff import MlpSpec
from .errors import ConfigError
from .pipeline import GqnConfig
from .query_init import build_knn_edges

FULL_GRAPH_K = 20

Count = int | Fraction

MODES = ("naive", "indexed")

COUNTS = ("processing", "construction_naive", "construction_indexed")  # per graph

EXEC_NODE_CAP = 2048  # the largest graph whose kNN build is timed


def exact_nodes(ratio: float, m_bev: int) -> Fraction:
    """ratio * m_bev as an exact rational, reading the ratio as its decimal literal."""
    return Fraction(str(ratio)) * m_bev


def processing_cost(n: Count, k: int) -> Count:
    """Edge operations for one graph: n * k."""
    if k < 1 or n <= k:
        raise ConfigError(f"processing_cost needs n > k >= 1, got n={n}, k={k}")
    return n * k


def construction_cost(n: Count, k: int, mode: str) -> Count | float:
    """Distance evaluations to build one graph's kNN edges.

    naive: n*(n-1)/2 exact pairwise; indexed: n*log2(n) + n*k.
    """
    if mode not in MODES:
        raise ConfigError(f"construction mode {mode!r} not in {MODES}")
    if k < 1 or n <= k:
        raise ConfigError(f"construction_cost needs n > k >= 1, got n={n}, k={k}")
    if mode == "naive":
        return n * (n - 1) / Fraction(2)
    return float(n) * float(np.log2(float(n))) + float(n * k)


def _graph_counts(n: Count, k: int) -> dict[str, Count | float]:
    """One graph's unit counts, under the names the report gives them."""
    return {"processing": processing_cost(n, k),
            "construction_naive": construction_cost(n, k, "naive"),
            "construction_indexed": construction_cost(n, k, "indexed")}


@dataclass(frozen=True)
class SetCost:
    """Unit costs for a single query graph of one set."""

    ratio: float
    k: int
    n_exact: Fraction
    n_rounded: int
    processing: Fraction
    construction_naive: Fraction
    construction_indexed: float

    def to_dict(self) -> dict:
        return {"ratio": self.ratio, "k": self.k, "n_exact": str(self.n_exact),
                "n": float(self.n_exact), "n_rounded": self.n_rounded,
                **{name: float(getattr(self, name)) for name in COUNTS}}


@dataclass(frozen=True)
class CostReport:
    """The full-scene graph's counts and each set's; peaks and reductions derive from them."""

    m_bev: int
    full_k: int
    sets: tuple[SetCost, ...]
    full: dict[str, Count | float]  # the full-scene graph's counts, by name
    flops: int

    def peak(self, name: str) -> Fraction | float:
        """The largest query graph's count."""
        return max(getattr(s, name) for s in self.sets)

    def reduction(self, name: str) -> Fraction | float:
        """1 - peak / full: exact for processing and naive construction, a float for indexed."""
        return 1 - self.peak(name) / self.full[name]

    def reduction_pct(self, name: str) -> float:
        return float(self.reduction(name) * 100)

    @property
    def peak_processing(self) -> Fraction:
        return self.peak("processing")

    @property
    def processing_reduction_pct(self) -> float:
        return self.reduction_pct("processing")

    @property
    def construction_naive_reduction_pct(self) -> float:
        return self.reduction_pct("construction_naive")

    @property
    def construction_indexed_reduction_pct(self) -> float:
        return self.reduction_pct("construction_indexed")

    def to_dict(self) -> dict:
        return {
            "m_bev": self.m_bev,
            "full_k": self.full_k,
            "sets": [s.to_dict() for s in self.sets],
            **{f"full_{name}": count if isinstance(count, int) else float(count)
               for name, count in self.full.items()},  # n * k stays an integer
            **{f"peak_{name}": float(self.peak(name)) for name in COUNTS},
            "processing_reduction_pct": self.processing_reduction_pct,
            "processing_reduction_exact": str(self.reduction("processing") * 100),
            "construction_naive_reduction_pct": self.construction_naive_reduction_pct,
            "construction_indexed_reduction_pct": self.construction_indexed_reduction_pct,
            "flops": self.flops,
        }


def compare_full_vs_queries(config: GqnConfig, m_bev: int, full_k: int = FULL_GRAPH_K) -> CostReport:
    """All counts for the configured sets and one full graph; the report derives the rest."""
    if m_bev <= full_k:
        raise ConfigError(f"m_bev={m_bev} must exceed the full-graph k={full_k}")
    sets = []
    for i, s in enumerate(config.sets):
        n = exact_nodes(s.ratio, m_bev)
        if n <= s.k:
            raise ConfigError(f"set {i}: exact n={float(n)} <= k={s.k} at m_bev={m_bev}")
        sets.append(SetCost(s.ratio, s.k, n, s.n_nodes(m_bev), **_graph_counts(n, s.k)))
    return CostReport(m_bev, full_k, tuple(sets), _graph_counts(m_bev, full_k),
                      flop_estimate(config, m_bev))


def _linear_flops(rows: int, w_in: int, w_out: int) -> int:
    return rows * (2 * w_in * w_out + w_out)


def _mlp_flops(rows: int, spec: MlpSpec) -> int:
    total = sum(_linear_flops(rows, spec.widths[i], spec.widths[i + 1])
                for i in range(spec.n_layers))
    return total + rows * sum(spec.widths[1:-1])  # ReLU on the hidden layers


def _split_layer_flops(d: int, product_rows: int, adds: int) -> int:
    """A (2d, d) first layer split per node: ``product_rows`` rows times one (d, d) half of
    W0, and ``adds`` rows of d sums that combine the products and add the bias (per node, or
    gathered per edge)."""
    return product_rows * 2 * d * d + adds * d


def _split_mlp_flops(d: int, product_rows: int, adds: int, rows: int) -> int:
    """A (2d, d, d) MLP whose first layer runs split per node, as
    ``autodiff.split_mlp_forward`` runs the node MLP: the split layer
    (``_split_layer_flops``), the ReLU on each of the ``rows`` hidden outputs, then
    the dense output layer."""
    return _split_layer_flops(d, product_rows, adds) + rows * d + _linear_flops(rows, d, d)


def _flop_stages(config: GqnConfig, m_bev: int) -> dict[str, int]:
    """Closed-form FLOPs of one pipeline pass per stage; a function of config and grid size only.

    The stages are named as the benchmark's spans. The fused stages' layers
    are fixed, so they are counted from d: the (2d, d, d) edge, node and
    context MLPs and one (d, d) layer each for q and key, as
    ``pipeline.init_params`` registers them. The estimate counts the
    layers the code runs, not the concatenated layers of the paper: the
    first layers of the edge, node and context MLPs are split per node
    (``autodiff._split_linear``), so their products are per node, the edge
    layer adds its bias per node and then a per-edge gather-add, and the
    summary half of the context layer is one (tau, d) x (d, d) product. The
    context MLP's linear output layer runs after the per-cell mean
    (``deep_context.infuse_context``): once per cell of the grid per set. The
    edge MLP's linear output layer is folded (``edge_focus``): no per-edge
    output is built, edges are scored on the hidden layer h as the bilinear
    form ``h A hᵀ + h·c + bq·bk`` (``autodiff._bilinear_scores``, one (d, d)
    product per edge), and the message is one per-node product with the
    output layer. Before that, q's and key's layers are composed with the
    output layer, and ``A = Wq Wkᵀ``, ``c`` and ``bq·bk`` are formed from the
    composed weights. The pipeline repeats the summary product, the
    composition and the forming of ``A``, ``c`` and ``bq·bk`` for every query
    chunk (the chunk count follows ``pipeline.CHUNK_BYTES``, not the model's
    inputs); the estimate counts each once per pass, so that it stays affine
    in k, which leaves out about 4.0% at the 32x32 reference config (1.3%
    summary products, 2.7% composition, ``A``, ``c`` and ``bq·bk``; 52
    chunks).

    Per query: scoring 2*m_bev*d plus a softmax, selection weighting, the edge
    MLP's hidden layer, the bilinear edge scores, per-node softmax and
    weighted aggregation (all linear in n*k), then the message product, the
    node MLP, the context MLP's hidden layer, pooling and projection adds per
    node. Shared: context attention steps over all tau summaries, per set the
    per-cell mean normalization and the context MLP's output layer, and the
    skip and gate MLPs over every cell.
    """
    d, tau = config.d, config.tau
    stages = dict.fromkeys(("query_init.score", "query_init.select", "edge_focus.features",
                            "edge_focus.attention", "edge_focus.update", "deep_context.pool",
                            "deep_context.exchange", "deep_context.infuse", "pipeline.project",
                            "pipeline.skip", "pipeline.gate"), 0)
    for s in config.sets:
        n = s.n_nodes(m_bev)
        edges = n * s.k
        per_query = {
            "query_init.score": 2 * m_bev * d + 4 * m_bev,            # scores + softmax
            "query_init.select": 2 * n * d + n,                       # selection weighting
            # the hidden layer: per-node products of both halves, their sum
            # and the bias, then per edge the source term subtracted and the ReLU
            "edge_focus.features": _split_layer_flops(d, 2 * n, 2 * n + edges) + edges * d,
            # h A, plus c, the row dot with h, plus bq·bk, then the softmax
            "edge_focus.attention": edges * (2 * d * d + 3 * d + 1 + 4),
            "edge_focus.update": (2 * edges * d                       # weighted aggregation
                                  + _linear_flops(n, d, d)            # message, per node
                                  + _split_mlp_flops(d, 2 * n, 2 * n, n)),
            "deep_context.pool": n * d,                               # max pooling
            # node half per node, plus the gathered summary half and the bias,
            # then the ReLU; the output layer runs per cell, below
            "deep_context.infuse": _split_layer_flops(d, n, 2 * n) + n * d,
            "pipeline.project": n * d,                                # scatter adds
        }
        for stage, flops in per_query.items():
            stages[stage] += s.queries * flops
    stages["deep_context.infuse"] += (2 * tau * d * d                  # summary half, U W_b
                                      + config.num_sets * _linear_flops(m_bev, d, d))  # output
    stages["edge_focus.attention"] += (2 * (2 * d * d * d + 2 * d * d + d)   # q and key composed
                                       + 2 * d * d * d + 4 * d * d + 3 * d)  # A, c and bq·bk
    stages["deep_context.exchange"] = config.context_steps * (
        3 * _linear_flops(tau, d, d)                                  # q/k/v projections
        + 2 * (2 * tau * tau * d)                                     # score and mixing matmuls
        + 4 * tau * tau                                               # row softmax
        + tau * d)                                                    # residual add
    stages["pipeline.project"] += config.num_sets * m_bev * d         # per-cell mean normalization
    stages["pipeline.skip"] = _mlp_flops(m_bev, config.mlp1_spec)
    stages["pipeline.gate"] = _mlp_flops(m_bev, config.mlp2_spec) + m_bev * (8 + 4 * d)  # + blend
    return stages


def flop_estimate(config: GqnConfig, m_bev: int) -> int:
    """Closed-form FLOPs for one pipeline pass: the sum of ``_flop_stages``."""
    return sum(_flop_stages(config, m_bev).values())


def run_benchmark(config: GqnConfig, m_bev_sweep: list[int], modes: Sequence[str] = MODES,
                  full_k: int = FULL_GRAPH_K,
                  seed: int = 0) -> tuple[list[CostReport], list[dict]]:
    """One cost report per sweep size, and one row per (m_bev, mode) read from it.

    A row holds its mode's full and peak construction counts, both reductions
    and, in naive mode, the wall times of the library's exact kNN,
    ``build_knn_edges``, on random features, for graphs of at most
    ``EXEC_NODE_CAP`` nodes: that build still does the all-pairs distance work
    the naive count counts. The indexed build is counted, not implemented.
    Skipped timings are None.
    """
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"unknown benchmark mode {mode!r}")
    if not m_bev_sweep:
        raise ConfigError("empty m_bev sweep")
    reports = [compare_full_vs_queries(config, m_bev, full_k) for m_bev in m_bev_sweep]
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for report in reports:
        peak = max(report.sets, key=lambda s: s.processing)
        for mode in modes:
            name, timed = f"construction_{mode}", mode == "naive"
            rows.append({
                "m_bev": report.m_bev,
                "mode": mode,
                "full_count": float(report.full[name]),
                "peak_query_count": float(report.peak(name)),
                "reduction_pct": report.reduction_pct(name),
                "processing_reduction_pct": report.processing_reduction_pct,
                "wall_full_s": _time_knn(rng, report.m_bev, full_k, config.d) if timed else None,
                "wall_peak_s": _time_knn(rng, peak.n_rounded, peak.k, config.d) if timed else None,
            })
    return reports, rows


def _time_knn(rng: np.random.Generator, n: int, k: int, d: int) -> float | None:
    """Seconds for one exact kNN build over n random features; None above ``EXEC_NODE_CAP``."""
    if n > EXEC_NODE_CAP:
        return None
    features = rng.standard_normal((n, d))
    start = time.perf_counter()
    build_knn_edges(features, k)
    return time.perf_counter() - start
