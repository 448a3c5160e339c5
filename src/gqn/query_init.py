"""Graph query construction: attention-guided node sampling plus feature-space kNN.

A graph query owns a learnable global vector that scores every BEV cell; the
top-N cells become its nodes and each node gets directed edges to its K
nearest neighbors in state-feature space.

Top-N selection is discrete, so selected node states are multiplied by m_bev
times their attention weight before any downstream use. That keeps a live
gradient path from every downstream loss back to the global vector (and the
grid features), and leaves magnitudes near 1 under a uniform attention map.
Nearest-neighbor structure itself is built on the raw, unscaled features.

All tie-breaks are by lower BEV index (selection) or lower node slot (kNN),
which makes query construction a pure function of the pair *set*: reordering
the flattened grid changes nothing, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, gather_rows, matvec_rows, reshape, row_softmax, scale_rows
from .errors import ConfigError, InvalidInputError, ShapeError
from .scene import FlatPairs

Array = np.ndarray

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)
_NORM_LIMIT = float(np.finfo(np.float64).max) / 8  # largest squared norm kNN accepts


@dataclass(frozen=True)
class QuerySetSpec:
    """One set of queries sharing a sampling ratio and neighbor count."""

    queries: int
    ratio: float
    k: int

    def __post_init__(self):
        if self.queries < 1:
            raise ConfigError(f"set needs at least one query, got {self.queries}")
        if not 0.0 < self.ratio <= 1.0:
            raise ConfigError(f"sampling ratio {self.ratio} outside (0, 1]")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    def n_nodes(self, m_bev: int) -> int:
        """round(ratio * m_bev), clamped to [1, m_bev - 1] so k < n stays satisfiable."""
        return min(max(int(round(self.ratio * m_bev)), 1), max(m_bev - 1, 1))


@dataclass
class GraphQuery:
    """A chunk of Q >= 1 queries of one set: sampled nodes and their kNN edges.

    The Q queries are stacked query-major: rows q*n .. (q+1)*n - 1 of every
    per-node field belong to query ``query_index + q``, and edge slots are
    chunk-wide, so query q's edges stay inside its own rows. ``n_nodes`` counts
    the nodes of the whole chunk, Q*n. With Q = 1 it is a single query.
    Edge sources are not stored: every node has k edges, so ``edge_src`` is
    derived from ``n_nodes`` and ``k``. Nor are the positions or the cells: the
    chunk keeps the grid's encodings and its nodes' pair rows, ``positions``
    gathers them on each read, and a node's cell is
    ``flat.bev_indices[pair_rows]``, distinct within each query.
    """

    set_index: int
    query_index: int   # the chunk's first query
    n_nodes: int       # Q * n
    k: int
    grid_positions: Array  # (m, d) the grid's positional encodings, shared, not copied
    pair_rows: Array    # (Q*n,) the nodes' rows in the grid's pair order
    states_raw: Array   # (Q*n, d) unscaled features for kNN, the data ``states`` is scaled from
    alpha: Tensor       # (Q*n,) selection weights of the chosen cells
    states: Tensor      # (Q*n, d) features scaled by m_bev * alpha
    # (Q*n*k,) target slots: node i's k edges are entries i*k .. (i+1)*k - 1,
    # nearest first, ties to the lower slot; the weighted edge sum adds a node's
    # edges in this order, so it is what makes that sum reproducible
    edge_dst: Array
    queries: int = 1

    @property
    def edge_src(self) -> Array:
        """(Q*n*k,) source slots, derived: node i repeated k times, in slot order."""
        return np.repeat(np.arange(self.n_nodes, dtype=np.intp), self.k)

    @property
    def positions(self) -> Array:
        """(Q*n, d) positional encodings of the nodes, gathered from the grid's."""
        return self.grid_positions[self.pair_rows]


def attention_scores(u: Tensor, states: Tensor) -> Tensor:
    """Softmax-normalized compatibility of global vectors with every cell.

    A (d,) vector gives (m,) scores; (Q, d) rows give (Q, m), row q exactly
    the scores of ``u[q]`` alone.
    """
    if states.data.ndim != 2 or states.data.shape[0] == 0:
        raise InvalidInputError("attention_scores needs a non-empty (m, d) grid")
    m, d = states.data.shape
    if u.data.ndim not in (1, 2) or u.data.shape[-1] != d:
        raise ShapeError(f"global vector shape {u.data.shape} vs feature width {d}")
    alpha = row_softmax(matvec_rows(states, reshape(u, (-1, d))))
    return alpha if u.data.ndim == 2 else reshape(alpha, (m,))


def select_nodes(alpha: Tensor, states: Tensor, flat: FlatPairs, n: int) -> GraphQuery:
    """Pick the n highest-weight cells of each row of alpha; ties go to the lower BEV index.

    ``alpha`` is (m,) for one query or (Q, m) for Q. The selected rows are
    gathered once: ``states_raw`` is that gather's data, ``states`` the gather
    scaled by m_bev * alpha; the positions are not gathered, the chunk keeps
    the rows. Returns the chunk's nodes as a query without edges (k = 0);
    ``init_graph_query`` numbers it and adds the kNN edges.
    """
    m = alpha.data.shape[-1]
    if not 1 <= n <= m:
        raise ConfigError(f"node count {n} outside [1, {m}]")
    if states.data.shape[0] != m or len(flat.bev_indices) != m:
        raise ShapeError("alpha, states and flattened pairs disagree on cell count")
    scores = alpha.data.reshape(-1, m)
    queries = scores.shape[0]
    pick = np.lexsort((np.broadcast_to(flat.bev_indices, scores.shape), -scores),
                      axis=-1)[:, :n]
    alpha_sel = gather_rows(reshape(alpha, (queries * m,)),
                            (pick + m * np.arange(queries)[:, None]).reshape(-1))
    rows = pick.reshape(-1)
    raw = gather_rows(states, rows)
    return GraphQuery(
        set_index=0,
        query_index=0,
        n_nodes=queries * n,
        k=0,
        grid_positions=flat.positions,
        pair_rows=rows,
        states_raw=raw.data,
        alpha=alpha_sel,
        states=scale_rows(raw, alpha_sel * float(m)),
        edge_dst=np.empty(0, dtype=np.intp),
        queries=queries,
    )


def build_knn_edges(features: Array, k: int) -> Array:
    """Directed edges from each node to its k nearest neighbors (self excluded).

    ``features`` is one query's (n, d) nodes or a chunk's (Q, n, d) stack;
    each query's nodes are wired among themselves only. The result is defined
    by exact pairwise squared Euclidean distances computed from explicit
    differences, d2_ij = sum((f_i - f_j)**2), so duplicate vectors tie at
    exactly zero; ties break to the lower node slot. Returns only the
    (Q*n*k,) chunk-wide targets: entries (q*n + i)*k .. (q*n + i)*k + k - 1 are
    node q*n + i's k neighbors, each in q*n .. q*n + n - 1. That order, nearest
    first and ties to the lower slot, makes the weighted edge sum
    reproducible: ``autodiff._segment_mix`` adds a node's edges left to right
    in it. Slots are ranked by (-alpha, BEV index) (``select_nodes``), so the
    order is a function of the pair set. A stack gives each query the edges
    it gets alone, plus q*n.

    It runs over blocks of whole queries, or of rows of one query when a
    query is large, sized so that even the worst-case candidate tile,
    (block, n, d) when every distance ties, stays near 64 MB, as does the
    (block, k, k) table of gaps:

    1. Candidate pass. Squared norms s_i and each query's Gram matrix F F^T
       give g_ij = s_i + s_j - 2 f_i.f_j, one GEMM per query instead of a
       (block, n, d) difference tensor. With the diagonal at +inf, g_i(k) is
       the k-th smallest value of row i (``np.partition``); every slot with
       g_ij <= g_i(k) + margin_i is a candidate. A row with exactly k
       candidates has no near-tie at its k-th value: they are its k
       smallest g_ij, read off the candidate mask.
    2. Certified order. Such a row whose k candidates' Gram values all
       differ pairwise by more than margin_i takes their Gram order, ranked
       by counting the pairwise comparisons.
    3. Re-rank pass. Every other row (exact ties, near-ties, duplicates)
       keeps its w smallest g_ij (``np.argpartition``), w the most candidates
       any row of the block has: all of its candidates, plus a few extra
       slots where it has fewer than w. Those slots alone get d2_ij from
       explicit differences (the same subtraction and einsum reduction as a
       full pass) and are ordered by (d2, slot); the first k are the edges.
       Without near-ties w = k, and the pass touches k differences per row
       instead of n.

    Why the candidates hold every true edge. Let u = eps/2, t_ij the exact
    squared distance and gamma_m = m u / (1 - m u), the bound on the relative error
    of an m-term floating-point dot product or sum of non-negative terms in
    any summation order (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), which covers blocked and FMA GEMM kernels. With
    S_i = s_i + max_j s_j over the nodes of i's query:

    - Gram form: each norm is off by at most gamma_d s, the dot product by
      gamma_d |f_i| |f_j| <= gamma_d S_i / 2 (doubled by the factor 2), and
      the two additions round values of size at most 2 S_i, so
      |g_ij - t_ij| <= (2 gamma_d + 4u) S_i.
    - Explicit form: a rounded difference, a rounded square and a d-term
      non-negative sum give |d2_ij - t_ij| <= gamma_(d+2) t_ij, and
      t_ij <= (|f_i| + |f_j|)^2 <= 2 S_i.

    So |g_ij - d2_ij| <= D_i = (2 gamma_d + 2 gamma_(d+2) + 4u) S_i, about
    (2d + 4) eps S_i. Shifting every entry of a row by at most D_i moves its
    k-th order statistic by at most D_i, so each of the k edges satisfies
    g_ij <= d2_ij + D_i <= d2_i(k) + D_i <= g_i(k) + 2 D_i. The margin used,
    4 (d + 4) eps S_i, exceeds 2 D_i by 8 eps S_i, which absorbs the rounding
    of the threshold itself, the second-order terms of gamma and the use of
    computed norms. Underflow adds at most eta/2 (eta the smallest subnormal)
    per rounded product: 2d products in the two norms, d in the dot product
    (counted twice, as it is doubled) and d squares in the explicit form.
    So |g_ij - d2_ij| gains at most 5d eta/2, and the margin's absolute term,
    8 (d + 4) eta, exceeds twice that. The slots
    kept for a row are a superset of its k edges, so re-ranking them in the
    same total order (d2, slot) returns exactly the edges a full explicit
    pass returns.

    Why the certified order is the (d2, slot) order. A row read off the mask
    has exactly k candidates, and they hold its k edges, so they are its
    edges. Suppose the computed gap fl(g_ia - g_ib) of two of them exceeds
    the computed margin m_i. A subtraction rounds by a factor within
    1 +- u and never underflows, so g_ia - g_ib > m_i / (1 + u), and
    d2_ia - d2_ib >= g_ia - g_ib - 2 D_i > m_i (1 - u) - 2 D_i. The term
    u m_i, about 2 (d + 4) eps^2 S_i, is one more second-order term that the
    8 eps S_i slack absorbs, so d2_ia > d2_ib. When every pair of the k
    candidates has such a gap, d2 is strictly ordered as g is: no two of
    them tie, and the Gram order is the (d2, slot) order.

    Raises InvalidInputError on NaN or inf features, and on features so large
    that squared distances would overflow float64.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim not in (2, 3):
        raise ShapeError(f"features must be (n, d) or (Q, n, d), got {features.shape}")
    stack = features[None] if features.ndim == 2 else features
    queries, n, d = stack.shape
    if not 1 <= k < n:
        raise ConfigError(f"k={k} must satisfy 1 <= k < n={n}")
    nodes = stack.reshape(queries * n, d)
    sq = np.einsum("nd,nd->n", nodes, nodes).reshape(queries, n)
    sq_max = sq.max(axis=1)  # NaN or inf for a query with a NaN or inf feature
    if not (sq_max <= _NORM_LIMIT).all():
        if not np.isfinite(stack).all():
            raise InvalidInputError("kNN features contain NaN or inf")
        raise InvalidInputError(
            f"kNN feature norms too large (max squared norm {sq_max.max():.3g}): "
            "squared distances would overflow float64")
    margin = 4.0 * (d + 4) * (_EPS * (sq + sq_max[:, None]) + 2.0 * _TINY)
    dst = np.empty((queries * n, k), dtype=np.intp)
    # ~64MB worst-case tile: (rows, n, d) differences, or (rows, k, k) gaps
    tile = max(1, 2 ** 23 // max(1, n * max(d, k)))
    group, height = max(1, tile // n), min(n, tile)  # whole queries, or rows of one query
    for q0 in range(0, queries, group):
        q1 = min(queries, q0 + group)
        for r0 in range(0, n, height):
            r1 = min(n, r0 + height)
            diag = np.arange(r1 - r0)
            # each query's own F F^T: numpy's syrk path when the block holds whole
            # queries; into a buffer, since a fresh (Q, n, n) result is mapped anew
            approx = np.empty((q1 - q0, r1 - r0, n))
            np.matmul(stack[q0:q1, r0:r1], stack[q0:q1].transpose(0, 2, 1), out=approx)
            approx *= -2.0
            approx += sq[q0:q1, None, :]
            approx += sq[q0:q1, r0:r1, None]
            approx[:, diag, diag + r0] = np.inf  # no self-edges
            approx = approx.reshape(-1, n)
            lim = margin[q0:q1, r0:r1].reshape(-1)
            kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
            near = approx <= (kth + lim)[:, None]
            rows = np.arange(len(approx))
            own = q0 * n + r0 + rows  # the rows' chunk-wide slots
            base = (own - own % n)[:, None]  # their query's first slot
            out = dst[own[0]:own[-1] + 1]
            loose, width = np.empty(0, dtype=np.intp), k
            if np.count_nonzero(near) > len(own) * k:  # some row has more than its k smallest
                count = np.count_nonzero(near, axis=1)
                loose, width = np.flatnonzero(count > k), int(count.max())
                # keep k placeholders in such a row, so that every row reads k off
                # the mask; those rows are re-ranked below
                near[loose] &= np.cumsum(near[loose], axis=1) <= k
            pick = np.flatnonzero(near)
            cand, gram = (pick % n).reshape(-1, k), approx.reshape(-1)[pick].reshape(-1, k)
            # a over b by more than the margin: on a certified row, one of each
            # pair, so a's count is its rank
            wide = gram[:, :, None] - gram[:, None, :] > lim[:, None, None]
            rank = np.count_nonzero(wide, axis=2)
            np.put(out, rank + k * rows[:, None], cand + base)
            unsure = rank.sum(axis=1) < k * (k - 1) // 2
            unsure[loose] = True
            redo = np.flatnonzero(unsure)
            if len(redo):
                kept = (cand[redo] if width == k else
                        np.argpartition(approx[redo], width - 1, axis=1)[:, :width])
                out[redo] = _rerank(nodes, own[redo], kept + base[redo], k)
    return dst.reshape(-1)


def _rerank(nodes: Array, own: Array, kept: Array, k: int) -> Array:
    """The first k of each row of ``kept`` by (d2, slot), d2 from explicit differences.

    Row r ranks the rows ``kept[r]`` of ``nodes`` by their distance to row ``own[r]``.
    """
    diff = nodes[kept]
    np.subtract(nodes[own, None, :], diff, out=diff)
    d2 = np.einsum("bnd,bnd->bn", diff, diff)
    return np.take_along_axis(kept, np.lexsort((kept, d2), axis=1)[:, :k], axis=1)


def init_graph_query(u: Tensor, states: Tensor, flat: FlatPairs,
                     set_index: int, query_index: int, spec: QuerySetSpec) -> GraphQuery:
    """Initialize a chunk of queries: scores, top-N sampling, one kNN build for the chunk.

    ``u`` is one global vector (d,) or the chunk's Q vectors (Q, d); query q
    of the chunk is query ``query_index + q``. Returns the stacked chunk.
    """
    n = spec.n_nodes(flat.m_bev)
    if spec.k >= n:
        raise ConfigError(
            f"set {set_index}: k={spec.k} >= n={n} sampled nodes (ratio {spec.ratio} of {flat.m_bev})")
    nodes = select_nodes(attention_scores(u, states), states, flat, n)
    return replace(
        nodes,
        set_index=set_index,
        query_index=query_index,
        k=spec.k,
        edge_dst=build_knn_edges(nodes.states_raw.reshape(nodes.queries, n, -1), spec.k),
    )
