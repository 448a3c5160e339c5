import csv
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gqn import cli, pipeline
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


def test_run_reports_each_sets_coverage_of_the_grid(tmp_path):
    """meta.json gives each set's covered cells / m_bev at the default (toy) config: the
    4 queries of 26 nodes of set 0 cover 56 of the 256 cells, the 4 of 51 of set 1 cover
    130. A set map is nonzero exactly on the cells its set covers."""
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["m_bev"] == 256
    assert meta["coverage"] == [56 / 256, 130 / 256]
    maps = np.genfromtxt(out / "maps.csv", delimiter=",", names=True)
    for i, share in enumerate(meta["coverage"]):
        columns = [name for name in maps.dtype.names if name.startswith(f"set{i}_")]
        nonzero = np.any([maps[name] != 0.0 for name in columns], axis=0)
        assert nonzero.sum() == share * meta["m_bev"]


def test_run_same_config_and_seed_identical_digests(tmp_path):
    cfg = _write(tmp_path, TOY_8x8)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    assert _sha(a / "maps.csv") == _sha(b / "maps.csv")
    assert _sha(a / "globals.csv") == _sha(b / "globals.csv")


def test_run_forward_keeps_no_tape_and_matches_a_recording_forward(tmp_path, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        out = pipeline.run_gqn(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(cli, "run_gqn", spy)
    assert main(["run", "--config", _write(tmp_path, TOY_8x8), "--out", str(tmp_path / "out")]) == 0
    (args, kwargs, out), = calls
    assert not out.fused_map.requires_grad and out.fused_map._parents == ()
    recorded = pipeline.run_gqn(*args, **kwargs)
    assert recorded.fused_map.requires_grad
    for a, b in [(out.fused_map, recorded.fused_map), (out.skip_map, recorded.skip_map),
                 (out.global_vectors, recorded.global_vectors)]:
        assert a.data.tobytes() == b.data.tobytes()


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


@pytest.mark.parametrize("scene", [{"height": 8, "width": 8, "wat": 1}, {"cell_size": 0.5}],
                         ids=["unknown-key", "cell_size"])
def test_run_unknown_key_exits_2(tmp_path, scene):
    cfg = _write(tmp_path, {"scene": scene})
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


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("key,value", [
    ("center", [1]),
    ("center", [1, 1, 1]),
    ("center", 3),
    ("extent", []),
    ("extent", [1, 1, 1]),
    ("extent", "11"),
    ("extent", {"h": 1, "w": 1}),
], ids=["center-short", "center-long", "center-int", "extent-empty", "extent-long",
        "extent-string", "extent-object"])
def test_box_center_or_extent_not_two_integers_exits_2(tmp_path, capsys, command, key, value):
    box = {"center": [3, 3], "extent": [1, 1]}
    box[key] = value
    doc = json.loads(json.dumps(TOY_8x8))
    doc["scene"]["boxes"] = [box]
    cfg = _write(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"config.scene.boxes[0].{key} must be a list of two integers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench", "train-demo"])
@pytest.mark.parametrize("extent", [[0, 1], [-2, 2]], ids=["zero", "negative"])
def test_box_extent_below_one_exits_2(tmp_path, capsys, command, extent):
    doc = json.loads(json.dumps(TOY_8x8))
    doc["scene"]["boxes"] = [{"center": [3, 3], "extent": extent}]
    doc["train"] = {"steps": 0}
    cfg = _write(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "must be at least 1x1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench", "train-demo"])
@pytest.mark.parametrize("path,value,message", [
    (("cost", "modes"), "naive", "config.cost.modes must be a list"),
    (("cost", "modes"), ["bogus"], "config.cost.modes: unknown mode 'bogus'"),
    (("cost", "modes"), [], "config.cost.modes must list distinct modes"),
    (("cost", "modes"), ["naive", "naive"], "config.cost.modes must list distinct modes"),
    (("cost", "m_bev_sweep"), 5, "config.cost.m_bev_sweep must be a list"),
    (("scene", "boxes", 0, "signature"), 5, "config.scene.boxes[0].signature must be a list"),
], ids=["modes-string", "modes-unknown", "modes-empty", "modes-repeated", "sweep-int",
        "signature-int"])
def test_list_valued_key_of_wrong_type_exits_2(tmp_path, capsys, command, path, value, message):
    doc = json.loads(json.dumps(TOY_8x8))
    doc["scene"]["boxes"] = [{"center": [3, 3], "extent": [2, 2]}]
    doc["train"] = {"steps": 0}
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[path[-1]] = value
    cfg = _write(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench", "train-demo"])
@pytest.mark.parametrize("path,value,message", [
    (("gqn", "freq_base"), 0, "freq_base must be a finite number above 1, got 0"),
    (("gqn", "freq_base"), 1.0, "freq_base must be a finite number above 1, got 1.0"),
    (("gqn", "freq_base"), -3.5, "freq_base must be a finite number above 1, got -3.5"),
    (("cost", "full_k"), 0, "config.cost.full_k must be at least 1, got 0"),
    (("cost", "full_k"), -2, "config.cost.full_k must be at least 1, got -2"),
    (("cost", "m_bev_sweep"), [], "config.cost.m_bev_sweep must not be empty"),
    (("cost", "m_bev_sweep"), [1024, 20],
     "config.cost.m_bev_sweep entries must exceed config.cost.full_k=20"),
    (("cost", "m_bev_sweep"), [3],
     "config.cost.m_bev_sweep entries must exceed config.cost.full_k"),
    (("cost", "m_bev_sweep"), [1024, 1024], "config.cost.m_bev_sweep must list distinct sizes"),
    (("train", "learning_rate"), 0, "config.train.learning_rate must be positive, got 0.0"),
    (("train", "learning_rate"), -1, "config.train.learning_rate must be positive, got -1.0"),
    (("train", "steps"), -3, "config.train.steps must be at least 0, got -3"),
], ids=["freq-zero", "freq-one", "freq-negative", "full-k-zero", "full-k-negative",
        "sweep-empty", "sweep-at-full-k", "sweep-below-full-k", "sweep-repeated",
        "learning-rate-zero", "learning-rate-negative", "steps-negative"])
def test_out_of_range_frequency_base_full_k_or_sweep_exits_2(tmp_path, capsys, command, path,
                                                             value, message):
    doc = json.loads(json.dumps(TOY_8x8))
    doc["train"] = {"steps": 0}
    doc.setdefault(path[0], {})[path[1]] = value
    cfg = _write(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "bench", "train-demo"])
@pytest.mark.parametrize("sets,sweep,message", [
    ([{"queries": 2, "ratio": 0.001, "k": 4}], [1024],
     "config.cost.sets[0]: exact node count 1.024 at m_bev=1024 is not above k=4"),
    ([{"queries": 2, "ratio": 0.1, "k": 4}, {"queries": 1, "ratio": 0.125, "k": 8}], [64, 4096],
     "config.cost.sets[1]: exact node count 8.0 at m_bev=64 is not above k=8"),
    ([{"queries": 1, "ratio": 0.0049, "k": 5}], [1024],
     "config.cost.sets[0]: rounded node count 5 at m_bev=1024 is not above k=5"),
], ids=["below-k", "at-k-smallest-sweep", "rounded-at-k"])
def test_cost_set_not_above_its_k_exits_2(tmp_path, capsys, command, sets, sweep, message):
    doc = json.loads(json.dumps(TOY_8x8))
    doc["train"] = {"steps": 0}
    doc["cost"] = {"sets": sets, "m_bev_sweep": sweep}
    cfg = _write(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("file_value,flag", [
    (5, None), (None, None), ("", None), (["a"], None), (True, None), ("out", ""),
], ids=["int", "null", "empty", "list", "bool", "empty-flag"])
def test_out_dir_not_a_non_empty_string_exits_2(tmp_path, capsys, monkeypatch, file_value, flag):
    monkeypatch.chdir(tmp_path)  # an empty path would name the working directory
    doc = json.loads(json.dumps(TOY_8x8))
    doc["out_dir"] = file_value
    argv = ["run", "--config", _write(tmp_path, doc)] + ([] if flag is None else ["--out", flag])
    assert main(argv) == 2
    assert "out_dir must be a non-empty string" in capsys.readouterr().err
    assert not (tmp_path / "maps.csv").exists()


def test_run_echoes_the_parsed_config_in_schema_order(tmp_path, monkeypatch):
    """meta.json's ``config`` holds every key, defaults filled in and numbers parsed, in the
    order of the module docstring's schema, whatever the document's own order."""
    monkeypatch.chdir(tmp_path)
    doc = {
        "train": {"learning_rate": 0.02, "steps": 5},
        "cost": {"sets": [{"queries": 2, "ratio": 0.1, "k": 4}], "context_steps": 1, "d": 16,
                 "full_k": 10, "modes": ["indexed"], "m_bev_sweep": [256, 1024.0]},
        "gqn": {"d": 4, "context_steps": 1,
                "sets": [{"k": 2, "queries": 2}, {"queries": 1, "ratio": 0.3, "k": 3}]},
        "scene": {"boxes": [{"signature": [0.5, -1, 0.25, 2], "extent": [2, 2], "center": [3, 3]},
                            {"center": [8, 8], "extent": [3, 3]}],
                  "noise_amplitude": 0, "clutter_density": 0.1, "height": 12, "width": 12.0},
        "seed": 3,
    }
    assert main(["run", "--config", _write(tmp_path, doc)]) == 0
    config = json.loads((tmp_path / "out" / "meta.json").read_text())["config"]
    assert json.dumps(config) == (
        '{"seed": 3, "out_dir": "out", '
        '"scene": {"height": 12, "width": 12, "d": 4, "boxes": ['
        '{"center": [3, 3], "extent": [2, 2], "signature": [0.5, -1.0, 0.25, 2.0]}, '
        '{"center": [8, 8], "extent": [3, 3], "signature": [-0.014800834925203787, '
        '-0.1257419760451306, 0.07244907521438626, 0.7131583402770965]}], '
        '"clutter_density": 0.1, "noise_amplitude": 0.0, "seed": 3}, '
        '"gqn": {"d": 4, "context_steps": 1, "freq_base": 100.0, "sets": ['
        '{"queries": 2, "ratio": 0.1, "k": 2}, {"queries": 1, "ratio": 0.3, "k": 3}]}, '
        '"cost": {"m_bev_sweep": [256, 1024], "modes": ["indexed"], "full_k": 10, "d": 16, '
        '"context_steps": 1, "sets": [{"queries": 2, "ratio": 0.1, "k": 4}]}, '
        '"train": {"steps": 5, "learning_rate": 0.02}}')


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


@pytest.mark.parametrize("command", ["run", "train-demo"])
def test_grid_too_large_to_allocate_exits_2(tmp_path, capsys, command):
    """A 10^7 x 10^7 grid of d = 8 needs 5.68 PiB, beyond any 47-bit address space, so its
    allocation fails under every overcommit policy; the error is one line, not a traceback."""
    doc = dict(TOY_8x8, scene={"height": 10 ** 7, "width": 10 ** 7})
    cfg = _write(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("memory error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
    with open(out / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:  # each row restates its report's entries
        report = next(r for r in reports if r["m_bev"] == int(row["m_bev"]))
        mode = row["mode"]
        assert float(row["full_count"]) == report[f"full_construction_{mode}"]
        assert float(row["peak_query_count"]) == report[f"peak_construction_{mode}"]
        assert float(row["reduction_pct"]) == report[f"construction_{mode}_reduction_pct"]
        assert float(row["processing_reduction_pct"]) == report["processing_reduction_pct"]
        if mode == "indexed":  # counted, not built
            assert row["wall_full_s"] == row["wall_peak_s"] == ""
        elif row["m_bev"] == "1024":  # both graphs within the timed size
            assert float(row["wall_full_s"]) >= 0.0 and float(row["wall_peak_s"]) >= 0.0


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


# ----------------------------------------------------------------------------
# fuzzing main()

# Documents are drawn well-typed (values may still be out of range), then at
# most one entry is replaced by junk: a wrong type or a non-finite number. Junk
# never holds a large integral float, which ``_int`` would accept (1e6 passes
# as an integer), nor an empty object, which would restore the 16x16 default
# grid: every example stays at 8x8 or smaller.
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.floats(-3.0, 3.0), st.sampled_from([float("nan"), float("inf"), -1e300]),
                  st.lists(st.integers(-2, 3), max_size=3))


def _pair_or_not(values):
    return st.one_of(st.tuples(values, values).map(list), st.lists(values, max_size=3))


# Hypothesis favors small integers and the first branch of one_of, so the
# strategies below draw mostly in-range values and sometimes out-of-range ones.
_SMALL = st.integers(0, 9).map(lambda v: 8 - v)
_SETS = st.lists(st.fixed_dictionaries({}, optional={
    "queries": st.integers(0, 4),
    "ratio": st.sampled_from([0.5, 0.3, 0.2, 0.0, 1.1]) | st.floats(0.0, 1.1),
    "k": st.integers(-1, 5),
}), min_size=0, max_size=3).map(lambda sets: sorted(sets, key=lambda s: s.get("ratio", 0.1)))
_BOX = st.fixed_dictionaries({"center": _pair_or_not(_SMALL),
                              "extent": _pair_or_not(st.integers(-1, 4))},
                             optional={"signature": st.lists(st.floats(-2.0, 2.0), max_size=9)})
_DOC = st.fixed_dictionaries({
    # always set: the default of 200 steps would dominate the run time
    "train": st.fixed_dictionaries({"steps": st.one_of(st.integers(0, 3), st.just(-1))},
                                   optional={"learning_rate": st.floats(-1.0, 1e12)}),
    # always set: the default grid is 16x16
    "scene": st.fixed_dictionaries({"height": _SMALL, "width": _SMALL}, optional={
        "d": st.integers(0, 8),
        "boxes": st.lists(_BOX, max_size=2),
        "clutter_density": st.floats(0.0, 1.0) | st.floats(-0.5, 1.5),
        "noise_amplitude": st.floats(0.0, 1e300),
        "seed": st.integers(-1, 2 ** 64),
    }),
}, optional={
    "seed": st.integers(-1, 2 ** 64),
    "gqn": st.fixed_dictionaries({}, optional={
        "d": st.integers(0, 8),
        "context_steps": st.integers(-1, 3),
        "freq_base": st.floats(-10.0, 1e4),
        "sets": _SETS,
    }),
    "cost": st.fixed_dictionaries({}, optional={
        "m_bev_sweep": st.lists(st.integers(-4, 64), max_size=3),
        "modes": st.lists(st.sampled_from(["naive", "indexed", "bogus"]), max_size=3),
        "full_k": st.integers(-1, 8),
        "d": st.integers(0, 8),
        "context_steps": st.integers(-1, 3),
        "sets": _SETS,
    }),
})


def _paths(node, prefix=()):
    """Every key or index path into a JSON document, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@st.composite
def _documents(draw):
    doc = draw(_DOC)
    if "d" in doc["scene"] and draw(st.integers(0, 3)) < 3:
        doc["scene"]["d"] = doc.get("gqn", {}).get("d", 8)  # mostly consistent widths
    paths = list(_paths(doc))
    if draw(st.integers(0, 2)) == 2:  # Hypothesis favors small integers: mostly no junk
        path = draw(st.sampled_from(paths))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(_JUNK)
    if draw(st.integers(0, 7)) == 7:
        doc[draw(st.sampled_from(["bogus", "gqn"]))] = {"bogus": 1}  # an unknown key
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["run", "bench", "train-demo"]), doc=_documents(),
       seed=st.none() | st.integers(-2, 2 ** 64), threads=st.none() | st.integers(-1, 4))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge noise amplitudes overflow
def test_main_fuzzed_configs_exit_with_a_documented_code(command, doc, seed, threads):
    """Any config document and flags end in exit 0, 2, 3 or 4, never in an exception.

    ``scene.height`` and ``scene.width`` are always given, so grids stay at 8x8
    or smaller. ``gradcheck`` shares the config parsing of the other commands
    but runs hundreds of forwards per config, so it is left out.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        assert main(argv) in (0, 2, 3, 4)
