import hashlib
import json

import numpy as np
import pytest

from gqn.cli import main

TOY_8x8 = {
    "seed": 0,
    "scene": {"height": 8, "width": 8},
    "gqn": {"d": 8, "context_steps": 2,
            "sets": [{"queries": 4, "ratio": 0.1, "k": 2}, {"queries": 4, "ratio": 0.2, "k": 3}]},
}


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------------
# run


def test_run_writes_three_artifacts(tmp_path):
    cfg = _write(tmp_path, TOY_8x8)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "maps.csv").exists()
    assert (out / "globals.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert set(meta["artifacts"]) == {"maps.csv", "globals.csv"}
    assert meta["artifacts"]["maps.csv"] == _sha(out / "maps.csv")
    assert meta["tau"] == 8


def test_run_same_config_and_seed_identical_digests(tmp_path):
    cfg = _write(tmp_path, TOY_8x8)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert _sha(a / "maps.csv") == _sha(b / "maps.csv")
    assert _sha(a / "globals.csv") == _sha(b / "globals.csv")


def test_run_seed_flag_overrides_file_seed(tmp_path):
    cfg = _write(tmp_path, TOY_8x8)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
    assert _sha(a / "maps.csv") != _sha(b / "maps.csv")


def test_run_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2


def test_run_unknown_key_exits_2(tmp_path):
    cfg = _write(tmp_path, {"scene": {"height": 8, "width": 8, "wat": 1}})
    assert main(["run", "--config", cfg]) == 2


def test_run_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_negative_seed_exits_2(tmp_path):
    cfg = _write(tmp_path, TOY_8x8)
    assert main(["run", "--config", cfg, "--seed", "-3"]) == 2


@pytest.mark.parametrize("section,key,value", [
    ("gqn", "context_steps", True),
    ("scene", "height", 2.7),
    ("scene", "width", "8"),
    ("train", "steps", False),
])
def test_non_integer_where_int_expected_exits_2(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(TOY_8x8))
    doc.setdefault(section, {})[key] = value
    cfg = _write(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"config.{section}.{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("path,value", [
    (("gqn", "sets", 0, "ratio"), True),
    (("gqn", "sets", 0, "ratio"), "0.3"),
    (("scene", "noise_amplitude"), "nan"),
    (("scene", "noise_amplitude"), float("nan")),  # written as the NaN token, which json reads
    (("train", "learning_rate"), float("inf")),
    (("scene", "clutter_density"), 10 ** 400),
    (("gqn", "freq_base"), None),
], ids=["ratio-bool", "ratio-string", "noise-nan-string", "noise-nan", "rate-inf",
        "clutter-huge-int", "freq-null"])
def test_non_number_or_non_finite_where_float_expected_exits_2(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(TOY_8x8))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[path[-1]] = value
    cfg = _write(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "must be a finite number" in capsys.readouterr().err


def test_integer_accepted_where_float_expected(tmp_path):
    doc = json.loads(json.dumps(TOY_8x8))
    doc["scene"]["noise_amplitude"] = 0
    cfg = _write(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_integral_float_accepted_as_int(tmp_path):
    doc = json.loads(json.dumps(TOY_8x8))
    doc["scene"]["height"] = 8.0
    cfg = _write(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("height,width", [(0, 8), (8, -1)])
def test_empty_grid_exits_2_before_building_boxes(tmp_path, capsys, height, width):
    cfg = _write(tmp_path, {"scene": {"height": height, "width": width}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "grid must be at least 1x1" in capsys.readouterr().err


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, TOY_8x8)
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    assert main(["run", "--config", cfg, "--out", str(taken)]) == 2
    assert "exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep me"


def test_out_under_a_file_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, TOY_8x8)
    (tmp_path / "taken").write_text("")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "taken" / "out")]) == 2
    assert "output error" in capsys.readouterr().err


def test_run_threads_do_not_change_digest(tmp_path):
    cfg = _write(tmp_path, TOY_8x8)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--threads", "8"]) == 0
    assert _sha(a / "maps.csv") == _sha(b / "maps.csv")


# ----------------------------------------------------------------------------
# gradcheck


def test_gradcheck_toy_passes_and_reports_every_group(tmp_path):
    cfg = _write(tmp_path, TOY_8x8)
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["pass"] is True
    assert report["max_rel_err"] <= 1e-4
    assert sorted(report["groups"]) == ["context_mlp", "ctx_attn", "edge_k", "edge_mlp",
                                        "edge_q", "mlp1", "mlp2", "node_mlp", "query_global"]
    assert len(report["u_grad_norms"]) == 8
    assert all(v > 0.0 for v in report["u_grad_norms"].values())


def test_gradcheck_guards_oversized_grids(tmp_path):
    doc = dict(TOY_8x8, scene={"height": 64, "width": 64})
    cfg = _write(tmp_path, doc)
    assert main(["gradcheck", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


# ----------------------------------------------------------------------------
# bench


def test_bench_reproduces_reference_reductions(tmp_path):
    out = tmp_path / "out"
    assert main(["bench", "--out", str(out)]) == 0
    reports = json.loads((out / "cost_report.json").read_text())
    assert [r["m_bev"] for r in reports] == [1024, 16384]
    for r in reports:
        assert r["processing_reduction_pct"] == 82.0
        assert r["construction_naive_reduction_pct"] >= 80.0
        assert 75.0 <= r["construction_indexed_reduction_pct"] <= 82.0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0].startswith("m_bev,mode,")
    assert len(lines) == 1 + 2 * 2  # sweep x modes


def test_bench_empty_sweep_exits_2(tmp_path):
    cfg = _write(tmp_path, {"cost": {"m_bev_sweep": []}})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


# ----------------------------------------------------------------------------
# train-demo


def test_train_demo_zero_steps_single_row(tmp_path):
    cfg = _write(tmp_path, dict(TOY_8x8, train={"steps": 0}))
    out = tmp_path / "out"
    assert main(["train-demo", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "loss_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 2


def test_train_demo_fixed_seed_identical_curves(tmp_path):
    cfg = _write(tmp_path, dict(TOY_8x8, train={"steps": 3}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train-demo", "--config", cfg, "--out", str(a)]) == 0
    assert main(["train-demo", "--config", cfg, "--out", str(b)]) == 0
    assert _sha(a / "loss_curve.csv") == _sha(b / "loss_curve.csv")


def test_scene_gqn_width_mismatch_exits_2(tmp_path):
    cfg = _write(tmp_path, {"scene": {"d": 4}, "gqn": {"d": 8}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point here
def test_numeric_blowup_exits_3(tmp_path):
    doc = dict(TOY_8x8)
    doc["scene"] = {"height": 8, "width": 8, "noise_amplitude": 1e300}
    cfg = _write(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


def test_training_divergence_exits_4(tmp_path):
    cfg = _write(tmp_path, dict(TOY_8x8, train={"steps": 30, "learning_rate": 1e12}))
    out = tmp_path / "out"
    assert main(["train-demo", "--config", cfg, "--out", str(out)]) == 4
    lines = (out / "loss_curve.csv").read_text().strip().splitlines()
    assert len(lines) >= 2  # last finite losses recorded
    assert all(np.isfinite(float(line.split(",")[1])) for line in lines[1:])
