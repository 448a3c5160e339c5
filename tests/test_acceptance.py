"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from gqn.autodiff import MlpSpec, ParamStore, Tensor
from gqn.cli import main
from gqn.cost_model import compare_full_vs_queries, flop_estimate
from gqn.edge_focus import edge_attention
from gqn.pipeline import GqnConfig, fusion_weights, init_params, run_gqn, toy_train
from gqn.query_init import QuerySetSpec, attention_scores, init_graph_query
from gqn.scene import SceneSpec, demo_boxes, flatten_grid, generate_scene, sinusoidal_encoding

REFERENCE = GqnConfig()  # three sets of 32 queries, ratios .1/.2/.3, k=4/8/12, d=64, six steps
TOY_SETS = (QuerySetSpec(4, 0.1, 2), QuerySetSpec(4, 0.2, 3))
TOY = GqnConfig(d=8, context_steps=2, sets=TOY_SETS, seed=0)

# Reference curve of the pinned 16x16 training scene, produced by this
# implementation once and frozen; regressions that bend the curve fail here.
PINNED_INITIAL_LOSS = 0.545792340626525
PINNED_FINAL_LOSS = 0.02126455884874894


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {num}: FAIL  {desc}")
        raise
    print(f"criterion {num}: PASS  {desc}")


def _toy_scene(h, w, seed=0):
    return SceneSpec(h, w, 8, boxes=demo_boxes(h, w, 8, 2, seed),
                     clutter_density=0.1 if h == 8 else 0.05,
                     noise_amplitude=0.05, seed=seed)


def _toy_flat(h, w, seed=0):
    grid, truth = generate_scene(_toy_scene(h, w, seed))
    return flatten_grid(grid, sinusoidal_encoding(h, w, 8, 100.0)), truth


def test_criterion_1_peak_processing_reduction_exact():
    def body():
        for m_bev in (64, 1024, 16384, 262144):
            report = compare_full_vs_queries(REFERENCE, m_bev)
            assert report.processing_reduction_pct == 82.0  # exact, analytic

    _report(1, "peak graph-processing reduction is exactly 82.0%", body)


def test_criterion_2_construction_reductions():
    def body():
        for m_bev in (64, 1024, 16384, 262144):
            report = compare_full_vs_queries(REFERENCE, m_bev)
            assert report.construction_naive_reduction_pct >= 80.0
            assert 75.0 <= report.construction_indexed_reduction_pct <= 82.0

    _report(2, "construction reduction: naive >= 80%, indexed within [75%, 82%]", body)


def test_criterion_3_flop_trends():
    def body():
        def one_set(ratio, k):
            return GqnConfig(d=64, context_steps=6, sets=(QuerySetSpec(96, ratio, k),))

        ks = [2, 4, 8, 12, 16, 20]
        ests = [flop_estimate(one_set(0.2, k), 1024) for k in ks]
        slope = Fraction(ests[1] - ests[0], ks[1] - ks[0])
        assert slope > 0
        for k, est in zip(ks, ests):
            assert Fraction(est - ests[0]) == slope * (k - ks[0])  # affine residual = 0

        ratios = [0.1, 0.2, 0.3, 0.4, 0.5]
        scaled = [flop_estimate(one_set(r, k), 4096) for r, k in zip(ratios, [4, 8, 12, 16, 20])]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))
        fixed = [flop_estimate(one_set(r, 8), 4096) for r in ratios]
        assert all(b > a for a, b in zip(fixed, fixed[1:]))

    _report(3, "FLOP estimate exactly affine in K, strictly increasing in sampling ratio", body)


def test_criterion_4_differentiability_gradcheck(tmp_path):
    def body():
        config = {
            "seed": 0,
            "scene": {"height": 8, "width": 8},
            "gqn": {"d": 8, "context_steps": 2,
                    "sets": [{"queries": 4, "ratio": 0.1, "k": 2},
                             {"queries": 4, "ratio": 0.2, "k": 3}]},
        }
        cfg_path = tmp_path / "gradcheck.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["pass"] is True
        expected_groups = {"query_global", "edge_mlp", "edge_q", "edge_k", "node_mlp",
                           "context_mlp", "ctx_attn", "mlp1", "mlp2"}
        assert set(report["groups"]) == expected_groups
        assert all(err <= 1e-4 for err in report["groups"].values())
        assert len(report["u_grad_norms"]) == 8
        assert all(norm > 0.0 for norm in report["u_grad_norms"].values())

    _report(4, "gradcheck <= 1e-4 on every parameter group, nonzero gradient on every u", body)


def test_criterion_5_normalization_invariants():
    def body():
        rng = np.random.default_rng(0)
        total = 0

        # attention score normalization over random grids
        for _ in range(4000):
            m = int(rng.integers(2, 65))
            d = int(rng.integers(2, 9))
            alpha = attention_scores(Tensor(rng.standard_normal(d) * 2.0),
                                     Tensor(rng.standard_normal((m, d))))
            assert abs(alpha.data.sum() - 1.0) <= 1e-9
            total += 1

        # per-node edge-attention normalization
        qk_params = {}
        for d in range(2, 9):
            p = ParamStore(seed=d)
            p.register_mlp("edge_q", MlpSpec((d, d)))
            p.register_mlp("edge_k", MlpSpec((d, d)))
            qk_params[d] = p
        for _ in range(3000):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 7))
            beta = edge_attention(Tensor(rng.standard_normal((n * k, d))), n, k, qk_params[d])
            sums = beta.data.reshape(n, k).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-9)
            total += 1

        # per-pixel fusion weight normalization
        gate_params = {}
        for d in (2, 4, 8):
            cfg = GqnConfig(d=d, sets=TOY_SETS)
            p = ParamStore(seed=d)
            p.register_mlp("mlp2", cfg.mlp2_spec)
            gate_params[d] = (p, cfg.mlp2_spec)
        for _ in range(3000):
            d = int(rng.choice([2, 4, 8]))
            m = int(rng.integers(1, 33))
            p, spec = gate_params[d]
            w = fusion_weights(Tensor(rng.standard_normal((m, d))),
                               Tensor(rng.standard_normal((m, d))), p, spec)
            assert np.all(np.abs(w.data.sum(axis=1) - 1.0) <= 1e-9)
            total += 1

        assert total == 10_000

    _report(5, "10,000 randomized instances: alpha, beta and fusion weights sum to 1 (1e-9)", body)


def test_criterion_6_structural_invariants():
    def body():
        rng = np.random.default_rng(1)
        for trial in range(1000):
            h = int(rng.integers(5, 10))
            w = int(rng.integers(5, 10))
            spec = SceneSpec(h, w, 4, boxes=(), clutter_density=0.5,
                             noise_amplitude=0.3, seed=trial)
            grid, _ = generate_scene(spec)
            flat = flatten_grid(grid, sinusoidal_encoding(h, w, 4, 100.0))
            k = int(rng.integers(1, 4))
            ratio = float(rng.uniform(0.2, 0.6))
            qspec = QuerySetSpec(1, ratio, k)
            if k >= qspec.n_nodes(flat.m_bev):
                continue
            u = Tensor(rng.standard_normal(4))
            q = init_graph_query(u, Tensor(flat.states), flat, 0, 0, qspec)
            assert len(set(flat.bev_indices[q.pair_rows].tolist())) == q.n_nodes
            assert not np.any(q.edge_src == q.edge_dst)
            assert np.all(np.bincount(q.edge_src, minlength=q.n_nodes) == k)
            assert len(set(zip(q.edge_src.tolist(), q.edge_dst.tolist()))) == q.n_nodes * k

        # flatten-order permutation invariance of the final maps, bit-exact
        flat, _ = _toy_flat(8, 8, seed=2)
        params = init_params(TOY, flat.m_bev)
        base = run_gqn(flat, TOY, params, global_map=flat.states)
        for _ in range(3):
            perm = rng.permutation(flat.m_bev)
            inv = np.argsort(perm)
            out = run_gqn(flat.reordered(perm), TOY, params, global_map=flat.states[perm])
            assert np.array_equal(out.skip_map.data[inv], base.skip_map.data)
            assert np.array_equal(out.fused_map.data[inv], base.fused_map.data)
            assert np.array_equal(out.concat_map.data[inv], base.concat_map.data)

    _report(6, "1,000 random queries: degree/self-edge/duplicate/index invariants; "
               "bit-exact flatten-order invariance", body)


def test_criterion_7_thread_determinism(tmp_path):
    def body():
        config = {
            "seed": 0,
            "scene": {"height": 8, "width": 8},
            "gqn": {"d": 8, "context_steps": 2,
                    "sets": [{"queries": 4, "ratio": 0.1, "k": 2},
                             {"queries": 4, "ratio": 0.2, "k": 3}]},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        digests = set()
        for trial in range(20):
            for threads in ("1", "8"):
                out = tmp_path / f"out_{trial}_{threads}"
                assert main(["run", "--config", str(cfg_path), "--out", str(out),
                             "--threads", threads]) == 0
                digests.add(hashlib.sha256((out / "maps.csv").read_bytes()).hexdigest())
        assert len(digests) == 1

    _report(7, "20 trials: 1-thread and 8-thread maps.csv digests bit-identical", body)


def test_criterion_8_toy_training_halves_loss():
    def body():
        result = toy_train(_toy_scene(16, 16), TOY, steps=200, learning_rate=0.01)
        assert not result.diverged
        assert len(result.losses) == 201
        initial, final = result.losses[0], result.losses[-1]
        assert final <= 0.5 * initial
        # pinned reference curve endpoints
        assert initial == pytest.approx(PINNED_INITIAL_LOSS, rel=1e-9)
        assert final == pytest.approx(PINNED_FINAL_LOSS, rel=1e-9)

    _report(8, "200-step training demo: final loss <= 50% of initial, pinned curve", body)


def test_criterion_9_shape_contracts():
    def body():
        assert GqnConfig().mlp1_spec.widths[0] == 5 * 64  # 64*5 -> 128 -> 64 skip MLP

        three_sets = (QuerySetSpec(2, 0.1, 2), QuerySetSpec(2, 0.2, 3), QuerySetSpec(2, 0.3, 4))
        cfg = GqnConfig(d=8, context_steps=1, sets=three_sets, seed=0)
        assert cfg.mlp1_spec.widths[0] == 5 * 8
        flat, _ = _toy_flat(8, 8, seed=3)
        params = init_params(cfg, flat.m_bev)
        out = run_gqn(flat, cfg, params, global_map=flat.states)
        assert out.concat_map.data.shape == (flat.m_bev, 3 * 8)   # S*d channels
        assert out.skip_map.data.shape == (flat.m_bev, 8)
        assert out.fused_map.data.shape == (flat.m_bev, 8)        # d channels

    _report(9, "shape contracts: concat S*d, skip MLP input 5d (3 sets), fused d", body)
