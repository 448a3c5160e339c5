from fractions import Fraction

import pytest

from gqn.cost_model import (compare_full_vs_queries, construction_cost, exact_nodes,
                            flop_estimate, processing_cost, run_benchmark)
from gqn.errors import ConfigError
from gqn.pipeline import GqnConfig
from gqn.query_init import QuerySetSpec

REFERENCE = GqnConfig()  # three sets of 32, ratios .1/.2/.3, k=4/8/12, d=64


def single_set(ratio, k, queries=96, d=64):
    return GqnConfig(d=d, context_steps=6, sets=(QuerySetSpec(queries, ratio, k),))


# ----------------------------------------------------------------------------
# unit counts


def test_processing_cost_formula():
    assert processing_cost(100, 20) == 2000
    assert processing_cost(2, 1) == 2


def test_processing_cost_monotone_in_k():
    assert processing_cost(50, 11) > processing_cost(50, 10)


def test_processing_cost_rejects_k_not_below_n():
    with pytest.raises(ConfigError):
        processing_cost(1, 1)
    with pytest.raises(ConfigError):
        processing_cost(10, 10)


def test_construction_naive_pairwise_count():
    assert construction_cost(100, 5, "naive") == 4950  # 100 * 99 / 2


def test_construction_indexed_count():
    # 1024 * log2(1024) + 1024 * 8 = 10240 + 8192
    assert construction_cost(1024, 8, "indexed") == 18432.0


def test_construction_naive_independent_of_k():
    assert construction_cost(64, 2, "naive") == construction_cost(64, 20, "naive")


def test_construction_rejects_bad_mode_and_sizes():
    with pytest.raises(ConfigError):
        construction_cost(64, 2, "fancy")
    with pytest.raises(ConfigError):
        construction_cost(4, 4, "naive")


def test_exact_nodes_reads_decimal_ratio():
    assert exact_nodes(0.3, 1024) == Fraction(1536, 5)
    assert exact_nodes(0.1, 10) == 1


# ----------------------------------------------------------------------------
# full-vs-query comparison


def test_reference_processing_reduction_is_exactly_82():
    # 1 - (0.3 * 12) / 20 = 0.82, independent of grid size
    for m_bev in (64, 1024, 16384):
        report = compare_full_vs_queries(REFERENCE, m_bev)
        assert report.processing_reduction_pct == 82.0


def test_naive_construction_reduction_above_80():
    for m_bev in (64, 1024, 16384, 262144):
        report = compare_full_vs_queries(REFERENCE, m_bev)
        assert report.construction_naive_reduction_pct >= 80.0


def test_naive_reduction_approaches_large_grid_limit():
    # ratio of N(N-1)/2 terms tends to 1 - 0.3^2 = 91%
    report = compare_full_vs_queries(REFERENCE, 262144)
    assert abs(report.construction_naive_reduction_pct - 91.0) < 0.01


def test_indexed_reduction_at_10000_cells():
    # 3000*log2(3000) + 36000 vs 10000*log2(10000) + 200000 -> ~78.8%
    report = compare_full_vs_queries(REFERENCE, 10000)
    assert abs(report.construction_indexed_reduction_pct - 78.775) < 0.05


def test_indexed_reduction_window_over_sweep():
    for m_bev in (4096, 16384, 65536, 262144):
        report = compare_full_vs_queries(REFERENCE, m_bev)
        assert 75.0 <= report.construction_indexed_reduction_pct <= 82.0


def test_report_peak_is_single_most_expensive_graph():
    report = compare_full_vs_queries(REFERENCE, 1024)
    assert report.peak_processing == max(s.processing for s in report.sets)
    assert report.peak_processing == Fraction(1536, 5) * 12


def test_compare_rejects_saturated_sets():
    cfg = GqnConfig(d=8, sets=(QuerySetSpec(2, 0.1, 8),))
    with pytest.raises(ConfigError, match=r"exact n=6\.4 <= k=8 at m_bev=64"):
        compare_full_vs_queries(cfg, 64)  # a decimal node count, not 32/5


@pytest.mark.parametrize("mode", ["naive", "indexed"])
def test_benchmark_rejects_a_set_whose_rounded_count_is_not_above_k(mode):
    """0.0049 * 1024 = 5.0176 exact nodes, above k = 5, but the pipeline's graph has 5."""
    cfg = GqnConfig(d=8, sets=(QuerySetSpec(1, 0.0049, 5),))
    with pytest.raises(ConfigError, match=r"^set 0: rounded n=5 <= k=5 at m_bev=1024$"):
        run_benchmark(cfg, [1024], [mode])


def test_report_serializes_to_plain_json_types():
    import json
    report = compare_full_vs_queries(REFERENCE, 1024)
    payload = json.dumps(report.to_dict())
    assert "82" in payload


# ----------------------------------------------------------------------------
# FLOP model


def test_flops_affine_in_k_at_fixed_sampling():
    ks = [2, 4, 8, 12, 16, 20]
    ests = [flop_estimate(single_set(0.2, k), 1024) for k in ks]
    slope = Fraction(ests[1] - ests[0], ks[1] - ks[0])
    assert slope > 0
    for k, est in zip(ks, ests):
        assert Fraction(est - ests[0]) == slope * (k - ks[0])  # residual exactly zero


def test_flops_strictly_increase_with_sampling_ratio():
    scaled = [flop_estimate(single_set(r, k), 4096)
              for r, k in zip([0.1, 0.2, 0.3, 0.4, 0.5], [4, 8, 12, 16, 20])]
    assert all(b > a for a, b in zip(scaled, scaled[1:]))
    fixed = [flop_estimate(single_set(r, 8), 4096) for r in [0.1, 0.2, 0.3, 0.4, 0.5]]
    assert all(b > a for a, b in zip(fixed, fixed[1:]))


def test_flops_depend_only_on_config_and_grid_size():
    a = flop_estimate(REFERENCE, 4096)
    b = flop_estimate(REFERENCE, 4096)
    assert a == b and isinstance(a, int)


def test_flops_monotone_in_context_steps():
    shallow = flop_estimate(GqnConfig(context_steps=2), 1024)
    deep = flop_estimate(GqnConfig(context_steps=6), 1024)
    assert deep > shallow


# ----------------------------------------------------------------------------
# benchmark rows


def test_benchmark_rows_cover_sweep_and_modes():
    _, rows = run_benchmark(REFERENCE, [256, 1024], ["naive", "indexed"])
    assert len(rows) == 4
    naive_256 = next(r for r in rows if r["m_bev"] == 256 and r["mode"] == "naive")
    assert naive_256["wall_full_s"] is not None and naive_256["wall_full_s"] >= 0.0
    indexed = [r for r in rows if r["mode"] == "indexed"]
    assert all(r["wall_full_s"] is None for r in indexed)  # counted, not executed
    assert all(r["reduction_pct"] > 0 for r in rows)


def test_benchmark_rejects_empty_sweep_and_bad_mode():
    with pytest.raises(ConfigError):
        run_benchmark(REFERENCE, [], ["naive"])
    with pytest.raises(ConfigError):
        run_benchmark(REFERENCE, [1024], ["quantum"])
