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
    derived from ``n_nodes`` and ``k``.
    """

    set_index: int
    query_index: int   # the chunk's first query
    n_nodes: int       # Q * n
    k: int
    bev_indices: Array  # (Q*n,) cell indices, distinct within each query
    positions: Array    # (Q*n, d) positional encodings, fixed
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
    scaled by m_bev * alpha. Returns the chunk's nodes as a query without
    edges (k = 0); ``init_graph_query`` numbers it and adds the kNN edges.
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
        bev_indices=flat.bev_indices[rows],
        positions=flat.positions[rows],
        states_raw=raw.data,
        alpha=alpha_sel,
        states=scale_rows(raw, alpha_sel * float(m)),
        edge_dst=np.empty(0, dtype=np.intp),
        queries=queries,
    )


def build_knn_edges(features: Array, k: int) -> Array:
    """Directed edges from each node to its k nearest neighbors (self excluded).

    The result is defined by exact pairwise squared Euclidean distances
    computed from explicit differences, d2_ij = sum((f_i - f_j)**2), so
    duplicate vectors tie at exactly zero; ties break to the lower node slot.
    Returns only the (n*k,) targets: entries i*k .. i*k + k - 1 are node i's
    k neighbors. That order, nearest first and ties to the lower slot, makes the
    weighted edge sum reproducible: ``autodiff._segment_mix`` adds a node's
    edges left to right in it. Slots are ranked by (-alpha, BEV index)
    (``select_nodes``), so the order is a function of the pair set.

    It is computed in two passes over blocks of rows, sized so that even the
    worst-case candidate tile, (block, n, d) when every distance ties,
    stays near 64 MB:

    1. Candidate pass. Squared norms s_i and a Gram block F F^T give
       g_ij = s_i + s_j - 2 f_i.f_j, one GEMM instead of a (block, n, d)
       difference tensor. With the diagonal at +inf, g_i(k) is the k-th
       smallest value of row i (``np.partition``); every slot with
       g_ij <= g_i(k) + margin_i is a candidate. When every row of the
       block has exactly k candidates (no near-ties), those are its k
       smallest g_ij and are read off the candidate mask. Otherwise, if the
       most candidates any row has is w, each row keeps its w smallest g_ij
       (``np.argpartition``): all of its candidates, plus a few extra slots
       where it has fewer than w.
    2. Re-rank pass. The kept slots alone get d2_ij from explicit
       differences (the same subtraction and einsum reduction as a full
       pass) and are ordered by (d2, slot); the first k of each row are
       the edges. Without near-ties w = k, and the pass touches n k
       differences instead of n^2.

    Why the candidates hold every true edge. Let u = eps/2, t_ij the exact
    squared distance and gamma_m = m u / (1 - m u), the bound on the relative error
    of an m-term floating-point dot product or sum of non-negative terms in
    any summation order (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), which covers blocked and FMA GEMM kernels. With
    S_i = s_i + max_j s_j:

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

    Raises InvalidInputError on NaN or inf features, and on features so large
    that squared distances would overflow float64.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError(f"features must be (n, d), got {features.shape}")
    n, d = features.shape
    if not 1 <= k < n:
        raise ConfigError(f"k={k} must satisfy 1 <= k < n={n}")
    sq = np.einsum("nd,nd->n", features, features)
    sq_max = float(sq.max())  # NaN or inf if any feature is
    if not sq_max <= _NORM_LIMIT:
        if not np.isfinite(features).all():
            raise InvalidInputError("kNN features contain NaN or inf")
        raise InvalidInputError(
            f"kNN feature norms too large (max squared norm {sq_max:.3g}): "
            "squared distances would overflow float64")
    margin = 4.0 * (d + 4) * (_EPS * (sq + sq_max) + 2.0 * _TINY)
    dst = np.empty((n, k), dtype=np.intp)
    block = max(1, min(n, int(2 ** 23 // max(1, n * d))))  # ~64MB worst-case candidate tile
    for r0 in range(0, n, block):
        r1 = min(n, r0 + block)
        rows = np.arange(r1 - r0)
        approx = features[r0:r1] @ features.T
        approx *= -2.0
        approx += sq[None, :]
        approx += sq[r0:r1, None]
        approx[rows, rows + r0] = np.inf  # no self-edges
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        near = approx <= (kth + margin[r0:r1])[:, None]
        if np.count_nonzero(near) == len(rows) * k:  # no row has more than its k smallest
            cand = (np.flatnonzero(near) % n).reshape(-1, k)
        else:
            width = int(np.count_nonzero(near, axis=1).max())
            cand = np.argpartition(approx, width - 1, axis=1)[:, :width]
        diff = features[cand]
        np.subtract(features[r0:r1, None, :], diff, out=diff)
        d2 = np.einsum("bnd,bnd->bn", diff, diff)
        order = np.lexsort((cand, d2), axis=1)[:, :k]
        dst[r0:r1] = cand[rows[:, None], order]
    return dst.reshape(-1)


def init_graph_query(u: Tensor, states: Tensor, flat: FlatPairs,
                     set_index: int, query_index: int, spec: QuerySetSpec) -> GraphQuery:
    """Initialize a chunk of queries: scores, top-N sampling, kNN edges per query.

    ``u`` is one global vector (d,) or the chunk's Q vectors (Q, d); query q
    of the chunk is query ``query_index + q``. Returns the stacked chunk.
    """
    n = spec.n_nodes(flat.m_bev)
    if spec.k >= n:
        raise ConfigError(
            f"set {set_index}: k={spec.k} >= n={n} sampled nodes (ratio {spec.ratio} of {flat.m_bev})")
    nodes = select_nodes(attention_scores(u, states), states, flat, n)
    dst = [build_knn_edges(f, spec.k) for f in nodes.states_raw.reshape(nodes.queries, n, -1)]
    offsets = np.repeat(n * np.arange(nodes.queries, dtype=np.intp), n * spec.k)
    return replace(
        nodes,
        set_index=set_index,
        query_index=query_index,
        k=spec.k,
        edge_dst=np.concatenate(dst) + offsets,
    )
