from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqn import query_init
from gqn.autodiff import Tensor, mul, sum_all
from gqn.errors import ConfigError, InvalidInputError
from gqn.pipeline import GqnConfig, init_params, run_gqn
from gqn.query_init import (QuerySetSpec, attention_scores, build_knn_edges, init_graph_query,
                            select_nodes)
from gqn.scene import SceneSpec, demo_boxes, flatten_grid, generate_scene, sinusoidal_encoding
from chunk_states import node_states


def _flat(h=6, w=6, d=4, seed=0, noise=0.3):
    spec = SceneSpec(h, w, d, boxes=(), clutter_density=0.4, noise_amplitude=noise, seed=seed)
    grid, _ = generate_scene(spec)
    return flatten_grid(grid, sinusoidal_encoding(h, w, d))


def _cells(flat, query):
    """The BEV cell of each of the query's nodes."""
    return flat.bev_indices[query.pair_rows]


# ----------------------------------------------------------------------------
# attention scores


def test_zero_global_vector_gives_uniform_scores():
    flat = _flat()
    alpha = attention_scores(Tensor(np.zeros(4)), Tensor(flat.states))
    np.testing.assert_allclose(alpha.data, np.full(36, 1 / 36), atol=1e-15)


def test_scores_direct_softmax_evaluation():
    states = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    alpha = attention_scores(Tensor(np.array([1.0, 0.0])), states)
    np.testing.assert_allclose(alpha.data, [0.7310585786300049, 0.2689414213699951], atol=1e-12)


def test_orthogonal_global_vector_gives_uniform_scores():
    states = Tensor(np.array([[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]]))
    alpha = attention_scores(Tensor(np.array([0.0, 5.0])), states)
    np.testing.assert_allclose(alpha.data, np.full(3, 1 / 3), atol=1e-15)


def test_empty_grid_rejected():
    with pytest.raises(InvalidInputError):
        attention_scores(Tensor(np.zeros(4)), Tensor(np.zeros((0, 4))))


def test_scores_sum_to_one_and_differentiable_wrt_u():
    flat = _flat(seed=3)
    u = Tensor(np.random.default_rng(0).standard_normal(4), requires_grad=True)
    alpha = attention_scores(u, Tensor(flat.states))
    assert abs(alpha.data.sum() - 1.0) <= 1e-9
    # gradient of a weighted score sum w.r.t. u is generically nonzero
    sum_all(mul(alpha, Tensor(np.arange(36.0)))).backward()
    assert np.abs(u.grad).max() > 0.0


# ----------------------------------------------------------------------------
# node selection


def test_select_all_nodes_when_n_equals_m():
    flat = _flat()
    alpha = attention_scores(Tensor(np.zeros(4)), Tensor(flat.states))
    rows, _ = select_nodes(alpha, flat, 36)
    assert sorted(flat.bev_indices[rows]) == list(range(36))


def test_select_top1():
    flat = _flat(h=1, w=3, d=4)
    alpha = Tensor(np.array([0.1, 0.5, 0.4]))
    rows, _ = select_nodes(alpha, flat, 1)
    assert list(flat.bev_indices[rows]) == [1]


def test_select_tie_breaks_to_lower_bev_index():
    flat = _flat(h=1, w=3, d=4)
    alpha = Tensor(np.array([0.4, 0.4, 0.2]))
    rows, _ = select_nodes(alpha, flat, 1)
    assert list(flat.bev_indices[rows]) == [0]


@pytest.mark.parametrize("levels", [2, 5, 0], ids=["two-values", "five-values", "distinct"])
def test_select_matches_a_sort_of_each_whole_row(levels):
    """Partitioning first gives the rows and the order a lexsort of every cell by
    (-alpha, BEV index) gives, ties at the n-th weight included."""
    flat = _flat(h=6, w=6, d=4, seed=3).reordered(np.random.default_rng(0).permutation(36))
    rng = np.random.default_rng(levels)
    scores = rng.random((4, 36)) if not levels else rng.integers(0, levels, (4, 36)) / levels
    for n in (1, 5, 17, 35, 36):
        rows, weights = select_nodes(Tensor(scores), flat, n)
        ref = np.lexsort((np.broadcast_to(flat.bev_indices, scores.shape), -scores),
                         axis=-1)[:, :n]
        assert np.array_equal(rows, ref.reshape(-1))
        assert np.array_equal(weights.data, np.take_along_axis(scores, ref, 1).reshape(-1))


def test_select_rejects_nan_weights():
    flat = _flat(h=1, w=3, d=4)
    with pytest.raises(InvalidInputError, match="NaN"):
        select_nodes(Tensor(np.array([0.5, np.nan, 0.4])), flat, 2)


def test_select_rejects_oversized_n():
    flat = _flat()
    alpha = Tensor(np.full(36, 1 / 36))
    with pytest.raises(ConfigError):
        select_nodes(alpha, flat, 37)


def test_selected_set_invariant_under_pair_permutation():
    flat = _flat(seed=7)
    u = Tensor(np.random.default_rng(1).standard_normal(4))
    base, base_weights = select_nodes(attention_scores(u, Tensor(flat.states)), flat, 9)
    rng = np.random.default_rng(2)
    for _ in range(10):
        shuffled = flat.reordered(rng.permutation(flat.m_bev))
        rows, weights = select_nodes(attention_scores(u, Tensor(shuffled.states)), shuffled, 9)
        assert np.array_equal(shuffled.bev_indices[rows], flat.bev_indices[base])
        # the same states and weights, so the same scaled states
        assert np.array_equal(shuffled.states[rows], flat.states[base])
        assert np.array_equal(weights.data, base_weights.data)


@pytest.mark.parametrize("noise", [0.0, 0.3], ids=["ties", "noisy"])
def test_edge_targets_invariant_under_pair_permutation(noise):
    """Each node's edge targets, as cells, come in the same order for any flatten order.

    The weighted edge sum adds a node's edges in stored order, so this is
    what keeps it bit-identical when the grid is flattened differently.
    """
    flat = _flat(h=8, w=8, d=4, seed=9, noise=noise)
    us = Tensor(np.random.default_rng(4).standard_normal((3, 4)))
    spec = QuerySetSpec(3, 0.3, 5)
    base = init_graph_query(us, Tensor(flat.states), flat, 0, 0, spec)
    rng = np.random.default_rng(6)
    for _ in range(10):
        shuffled = flat.reordered(rng.permutation(flat.m_bev))
        query = init_graph_query(us, Tensor(shuffled.states), shuffled, 0, 0, spec)
        cells, base_cells = _cells(shuffled, query), _cells(flat, base)
        assert np.array_equal(cells[query.edge_src], base_cells[base.edge_src])
        assert np.array_equal(cells[query.edge_dst], base_cells[base.edge_dst])


def test_selection_scaling_carries_gradient_to_u():
    flat = _flat(seed=11)
    u = Tensor(np.random.default_rng(3).standard_normal(4), requires_grad=True)
    query = init_graph_query(u, Tensor(flat.states), flat, 0, 0, QuerySetSpec(1, 5 / 36, 1))
    assert query.n_nodes == 5
    sum_all(node_states(query)).backward()
    assert np.linalg.norm(u.grad) > 0.0


# ----------------------------------------------------------------------------
# kNN edges


def _knn_edges(features, k):
    """build_knn_edges as (src, dst): sources derived from its layout, k per node."""
    dst = build_knn_edges(features, k)
    n = len(features)
    assert dst.shape == (n * k,)
    return np.repeat(np.arange(n), k), dst


def test_complete_graph_when_k_is_n_minus_1():
    feats = np.random.default_rng(0).standard_normal((5, 3))
    src, dst = _knn_edges(feats, 4)
    assert len(src) == 5 * 4
    assert all(s != d for s, d in zip(src, dst))
    for i in range(5):
        assert sorted(dst[src == i]) == [j for j in range(5) if j != i]


def test_knn_1d_distance_table():
    # features 0, 1, 5 -> nearest neighbors 0->1, 1->0, 2->1
    src, dst = _knn_edges(np.array([[0.0], [1.0], [5.0]]), 1)
    assert list(src) == [0, 1, 2]
    assert list(dst) == [1, 0, 1]


def test_knn_duplicate_features_tie_to_lower_slot():
    feats = np.zeros((4, 2))
    src, dst = _knn_edges(feats, 2)
    assert len(src) == 8
    assert list(dst[src == 0]) == [1, 2]
    assert list(dst[src == 3]) == [0, 1]


def test_knn_rejects_k_not_below_n():
    with pytest.raises(ConfigError):
        build_knn_edges(np.zeros((3, 2)), 3)


@pytest.mark.parametrize("seed", range(5))
def test_knn_structure_invariants(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(5, 40)), int(rng.integers(1, 4))
    src, dst = _knn_edges(rng.standard_normal((n, 8)), k)
    assert len(src) == n * k
    assert not np.any(src == dst)
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert len(pairs) == n * k  # no duplicate edges
    counts = np.bincount(src, minlength=n)
    assert np.all(counts == k)  # exact out-degree


def test_knn_blocked_path_matches_single_block():
    # n*d large enough to force several distance tiles; compare with one-shot
    rng = np.random.default_rng(9)
    n = 1024
    feats = rng.standard_normal((n, 16))
    _, dst_a = _knn_edges(feats, 3)
    diff = feats[:, None, :] - feats[None, :, :]
    d2 = np.einsum("bnd,bnd->bn", diff, diff)
    d2[np.arange(n), np.arange(n)] = np.inf
    order = np.lexsort((np.broadcast_to(np.arange(n), d2.shape), d2), axis=1)
    assert np.array_equal(dst_a, order[:, :3].reshape(-1))


# ----------------------------------------------------------------------------
# kNN oracle: the single-pass explicit-difference algorithm the edges must match


def _knn_reference(features, k):
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    dst = np.empty((n, k), dtype=np.intp)
    slots = np.arange(n, dtype=np.intp)
    d = features.shape[1]
    block = max(1, min(n, int(2 ** 23 // max(1, n * d))))
    for r0 in range(0, n, block):
        r1 = min(n, r0 + block)
        diff = features[r0:r1, None, :] - features[None, :, :]
        d2 = np.einsum("bnd,bnd->bn", diff, diff)
        d2[np.arange(r1 - r0), np.arange(r0, r1)] = np.inf
        order = np.lexsort((np.broadcast_to(slots, d2.shape), d2), axis=1)
        dst[r0:r1] = order[:, :k]
    src = np.repeat(slots, k)
    return src, dst.reshape(-1)


def _gram_only_dst(features, k):
    """kNN ordered by Gram-form distances alone: fast, but not tie-exact."""
    n = features.shape[0]
    sq = np.einsum("nd,nd->n", features, features)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (features @ features.T)
    d2[np.arange(n), np.arange(n)] = np.inf
    order = np.lexsort((np.broadcast_to(np.arange(n), d2.shape), d2), axis=1)
    return order[:, :k].reshape(-1)


def _assert_matches_reference(features, k):
    src, dst = _knn_edges(features, k)
    ref_src, ref_dst = _knn_reference(features, k)
    assert np.array_equal(src, ref_src)
    assert np.array_equal(dst, ref_dst)


@pytest.mark.parametrize("n,d,k", [(30, 2, 5), (64, 3, 12), (120, 8, 20), (200, 1, 7)])
def test_knn_matches_reference_on_integer_lattice(n, d, k):
    feats = np.random.default_rng(n + d).integers(-2, 3, (n, d)).astype(np.float64)
    _assert_matches_reference(feats, k)


@pytest.mark.parametrize("seed", range(3))
def test_knn_matches_reference_on_near_duplicates(seed):
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((6, 16))
    feats = centres[rng.integers(0, 6, 90)] + 1e-15 * rng.standard_normal((90, 16))
    _assert_matches_reference(feats, 9)


@pytest.mark.parametrize("offset,spread", [(1e4, 1e-2), (1e3, 1e-4)])
def test_knn_matches_reference_where_gram_ordering_is_wrong(offset, spread):
    feats = offset + spread * np.random.default_rng(0).standard_normal((200, 64))
    assert not np.array_equal(_gram_only_dst(feats, 8), _knn_reference(feats, 8)[1])
    _assert_matches_reference(feats, 8)


@pytest.mark.parametrize("n", [2, 3, 17])
def test_knn_matches_reference_at_k_n_minus_1_and_d_1(n):
    rng = np.random.default_rng(n)
    _assert_matches_reference(rng.standard_normal((n, 1)), n - 1)
    _assert_matches_reference(rng.integers(0, 3, (n, 1)).astype(np.float64), n - 1)
    _assert_matches_reference(rng.standard_normal((n, 5)), n - 1)


def test_knn_matches_reference_on_reference_forward_states():
    h = w = 16
    config = GqnConfig()  # three sets of 32 queries, k=4/8/12, d=64
    spec = SceneSpec(h, w, config.d, boxes=demo_boxes(h, w, config.d, 2, 0),
                     clutter_density=0.05, noise_amplitude=0.05, seed=0)
    grid, _ = generate_scene(spec)
    flat = flatten_grid(grid, sinusoidal_encoding(h, w, config.d))
    out = run_gqn(flat, config, init_params(config, flat.m_bev))
    assert sum(chunk.queries for chunk in out.queries) == config.tau
    for chunk in out.queries:
        n = chunk.n_nodes // chunk.queries
        edges = n * chunk.k
        for q in range(chunk.queries):
            raw = chunk.grid_states.data[chunk.pair_rows[q * n:(q + 1) * n]]
            ref_src, ref_dst = _knn_reference(raw, chunk.k)
            assert np.array_equal(chunk.edge_src[q * edges:(q + 1) * edges] - q * n, ref_src)
            assert np.array_equal(chunk.edge_dst[q * edges:(q + 1) * edges] - q * n, ref_dst)


def test_knn_certificate_is_load_bearing():
    """A row whose Gram order is wrong takes the explicit re-rank, not its Gram order.

    With k = n - 1 every row's mask holds exactly k candidates. Node 0's two
    neighbours lie at squared distances 1e-7 apart (relative) on a 1e4 offset,
    where Gram values round by far more, so the Gram order disagrees with the
    explicit one; by the margin proof the two Gram values then lie within the
    margin of each other. Nodes 1 and 2 have well-separated neighbours.
    """
    rng = np.random.default_rng(2)
    p0 = 1e4 + 1e-2 * rng.standard_normal(2)
    v = 1e-2 * rng.standard_normal(2)
    feats = np.array([p0, p0 + v, p0 - v * (1 + 1e-7)])
    assert not np.array_equal(_gram_only_dst(feats, 2)[:2], _knn_reference(feats, 2)[1][:2])
    _assert_matches_reference(feats, 2)


def _reranked_rows(monkeypatch):
    """The rows ``build_knn_edges`` hands to the explicit re-rank, as they are reranked."""
    rows = []
    rerank = query_init._rerank

    def recorded(nodes, own, kept, k):
        rows.extend(own.tolist())
        return rerank(nodes, own, kept, k)

    monkeypatch.setattr(query_init, "_rerank", recorded)
    return rows


def test_knn_certificate_checks_every_adjacent_gap(monkeypatch):
    """One adjacent gap within the margin sends a row to the re-rank, however wide the rest.

    Node 0's candidates, sorted by Gram value, are a near-tied pair (the
    nodes of the load-bearing case) and a far node, so its first gap lies
    within the margin and its second is wide.
    """
    rng = np.random.default_rng(2)
    p0 = 1e4 + 1e-2 * rng.standard_normal(2)
    v = 1e-2 * rng.standard_normal(2)
    feats = np.array([p0, p0 + v, p0 - v * (1 + 1e-7), p0 + 50.0 * v])
    reranked = _reranked_rows(monkeypatch)
    _assert_matches_reference(feats, 3)
    assert 0 in reranked


def test_knn_certifies_a_row_with_one_edge(monkeypatch):
    """With k = 1 a row whose candidate mask holds one slot has no gap to check."""
    reranked = _reranked_rows(monkeypatch)
    _assert_matches_reference(np.array([[0.0], [1.0], [5.0]]), 1)
    assert reranked == []


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "one_tied_query"])
@pytest.mark.parametrize("queries,n,d,k", [
    (1, 24, 5, 4), (3, 24, 5, 4), (10, 24, 5, 4),  # one block
    (10, 200, 64, 8),  # three queries a block
    (2, 1024, 16, 3),  # blocks of rows of one query
])
def test_knn_stack_equals_single_query_builds(queries, n, d, k, tied):
    """One (Q, n, d) build gives query q the edges of its (n, d) build, plus q*n."""
    rng = np.random.default_rng(queries * n)
    stack = rng.standard_normal((queries, n, d))
    if tied:  # an integer lattice: exact ties, so its rows take the explicit re-rank
        stack[queries // 2] = rng.integers(-1, 2, (n, d))
    singles = [build_knn_edges(f, k) for f in stack]
    for f, single in zip(stack, singles):
        assert np.array_equal(single, _knn_reference(f, k)[1])
    expected = np.concatenate([single + q * n for q, single in enumerate(singles)])
    assert np.array_equal(build_knn_edges(stack, k), expected)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 48), d=st.integers(1, 12), data=st.data(),
       scale=st.sampled_from([1e-170, 1e-8, 1.0, 1e8, 1e100]),
       offset=st.sampled_from([0.0, 1.0, -1e3, 1e6]),
       lattice=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_knn_matches_reference_property(n, d, data, scale, offset, lattice, seed):
    k = data.draw(st.integers(1, n - 1), label="k")
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, (n, d)) if lattice else rng.standard_normal((n, d))
    _assert_matches_reference(offset + scale * base, k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_rejects_non_finite_features(bad):
    feats = np.random.default_rng(0).standard_normal((10, 3))
    feats[4, 1] = bad
    with pytest.raises(InvalidInputError):
        build_knn_edges(feats, 3)


def test_knn_rejects_features_whose_distances_overflow():
    feats = np.random.default_rng(0).standard_normal((10, 3)) * 1e160
    with pytest.raises(InvalidInputError):
        build_knn_edges(feats, 3)


# ----------------------------------------------------------------------------
# full query init


def test_init_graph_query_counts_and_guards():
    flat = _flat(h=8, w=8, d=4, seed=5)
    u = Tensor(np.random.default_rng(4).standard_normal(4))
    q = init_graph_query(u, Tensor(flat.states), flat, 0, 0, QuerySetSpec(1, 0.2, 3))
    assert q.n_nodes == round(0.2 * 64)
    assert len(q.edge_src) == q.n_nodes * 3
    assert len(set(_cells(flat, q).tolist())) == q.n_nodes
    with pytest.raises(ConfigError):
        init_graph_query(u, Tensor(flat.states), flat, 0, 0, QuerySetSpec(1, 0.05, 5))


def test_init_graph_query_chunk_stacks_single_queries():
    flat = _flat(h=8, w=8, d=4, seed=6)
    us = np.random.default_rng(5).standard_normal((3, 4))
    spec = QuerySetSpec(3, 0.3, 4)
    chunk = init_graph_query(Tensor(us), Tensor(flat.states), flat, 1, 7, spec)
    singles = [init_graph_query(Tensor(u), Tensor(flat.states), flat, 1, 7 + q, spec)
               for q, u in enumerate(us)]
    n, k = singles[0].n_nodes, spec.k
    assert (chunk.queries, chunk.n_nodes, chunk.k) == (3, 3 * n, k)
    assert (chunk.set_index, chunk.query_index) == (1, 7)
    for q, single in enumerate(singles):
        rows, edges = slice(q * n, (q + 1) * n), slice(q * n * k, (q + 1) * n * k)
        for field in ("pair_rows", "positions"):
            assert np.array_equal(getattr(chunk, field)[rows], getattr(single, field))
        assert np.array_equal(chunk.alpha.data[rows], single.alpha.data)
        assert np.array_equal(node_states(chunk).data[rows], node_states(single).data)
        assert np.array_equal(chunk.edge_src[edges], single.edge_src + q * n)
        assert np.array_equal(chunk.edge_dst[edges], single.edge_dst + q * n)


def test_init_graph_query_builds_knn_once_per_chunk(monkeypatch):
    calls = []

    def counted(features, k):
        calls.append(np.shape(features))
        return build_knn_edges(features, k)

    monkeypatch.setattr(query_init, "build_knn_edges", counted)
    flat = _flat(h=8, w=8, d=4, seed=8)
    spec = QuerySetSpec(3, 0.3, 4)
    n = spec.n_nodes(flat.m_bev)
    us = np.random.default_rng(7).standard_normal((3, 4))
    init_graph_query(Tensor(us), Tensor(flat.states), flat, 0, 0, spec)
    assert calls == [(3, n, 4)]
    init_graph_query(Tensor(us[0]), Tensor(flat.states), flat, 0, 0, spec)
    assert calls == [(3, n, 4), (1, n, 4)]


def test_chunk_keeps_no_copy_of_its_rows():
    # no field holds a float (Q*n, d) array: the chunk keeps the grid's features and
    # encodings, shared, and derives its positions from its rows
    flat = _flat(h=8, w=8, d=4, seed=7)
    flat = flat.reordered(np.random.default_rng(3).permutation(flat.m_bev))
    grid = Tensor(flat.states)
    u = Tensor(np.random.default_rng(6).standard_normal((2, 4)), requires_grad=True)
    chunk = init_graph_query(u, grid, flat, 0, 0, QuerySetSpec(2, 0.3, 3))
    for field in fields(chunk):
        value = getattr(chunk, field.name)
        array = value.data if isinstance(value, Tensor) else value
        if isinstance(array, np.ndarray) and array.dtype.kind == "f":
            assert array.shape != (chunk.n_nodes, 4), field.name
    assert chunk.grid_states is grid and chunk.grid_positions is flat.positions
    assert np.array_equal(grid.data[chunk.pair_rows],
                          flat.to_grid_order(flat.states)[_cells(flat, chunk)])
    assert np.array_equal(chunk.positions, flat.to_grid_order(flat.positions)[_cells(flat, chunk)])


def test_set_spec_validation():
    with pytest.raises(ConfigError):
        QuerySetSpec(0, 0.1, 1)
    with pytest.raises(ConfigError):
        QuerySetSpec(1, 0.0, 1)
    with pytest.raises(ConfigError):
        QuerySetSpec(1, 1.2, 1)
    assert QuerySetSpec(1, 1.0, 1).n_nodes(10) == 9  # clamped below m_bev
