"""Command-line entry point: run | gradcheck | bench | train-demo.

Configuration is one JSON document; every section is optional and unknown
keys are rejected. Defaults are desk-scale: a 16x16 scene with d=8 features,
two query sets of four queries (ratios 0.10/0.20, k=2/3), two context steps.
The ``cost`` section instead defaults to the full-scale reference setup
(three sets of 32 queries, ratios 0.10/0.20/0.30, k=4/8/12, d=64, six context
steps) so the bench command reproduces the headline efficiency numbers out of
the box.

Schema (all keys optional)::

    {
      "seed": 0,                  # flag --seed > file > 0
      "out_dir": "out",
      "scene": {"height", "width", "d", "boxes", "clutter_density",
                "noise_amplitude", "cell_size", "seed"},
      "gqn":   {"d", "context_steps", "freq_base",
                "sets": [{"queries", "ratio", "k"}, ...]},
      "cost":  {"m_bev_sweep", "modes", "full_k",
                "d", "context_steps", "sets"},
      "train": {"steps", "learning_rate"}
    }

``scene.boxes`` entries are {"center": [r, c], "extent": [h, w],
"signature": [d floats]} with the signature optional (a seeded one is drawn).

Artifacts are plain CSV/JSON, rewritten from scratch each run and digested in
meta.json. Exit codes: 0 success, 2 config or output error, 3 numeric error,
4 training divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ParamStore, Tensor, backward, grad_check_groups, sum_all
from .cost_model import FULL_GRAPH_K, compare_full_vs_queries, run_benchmark
from .errors import ConfigError, GqnError
from .pipeline import GqnConfig, init_params, run_gqn, toy_train
from .query_init import QuerySetSpec
from .scene import (FlatPairs, ObjectBox, SceneSpec, demo_boxes, flatten_grid, generate_scene,
                    sinusoidal_encoding)

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_MAX_CELLS = 1024
GRADCHECK_COORDS_PER_PARAM = 6

_TOY_SETS = ({"queries": 4, "ratio": 0.10, "k": 2}, {"queries": 4, "ratio": 0.20, "k": 3})


@dataclass
class Settings:
    seed: int
    out_dir: Path
    scene: SceneSpec
    gqn: GqnConfig
    cost_config: GqnConfig
    m_bev_sweep: list[int]
    cost_modes: list[str]
    full_k: int
    train_steps: int
    learning_rate: float
    echo: dict


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) under {path}: {unknown}")


def _int(value, path: str) -> int:
    """A JSON integer. Integral floats such as 16.0 pass; bools, strings and 2.7 do not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return int(value)


def _float(value, path: str) -> float:
    """A finite JSON number. Integers pass; bools, strings, NaN and infinities do not."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{path} must be a finite number, got {value!r}")


def _parse_sets(raw, path: str) -> tuple[QuerySetSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path} must be a non-empty list of set objects")
    sets = []
    for i, entry in enumerate(raw):
        _check_keys(entry, {"queries", "ratio", "k"}, f"{path}[{i}]")
        sets.append(QuerySetSpec(_int(entry.get("queries", 1), f"{path}[{i}].queries"),
                                 _float(entry.get("ratio", 0.1), f"{path}[{i}].ratio"),
                                 _int(entry.get("k", 1), f"{path}[{i}].k")))
    return tuple(sets)


def _int_pair(value, path: str) -> tuple[int, int]:
    """A JSON list of exactly two integers."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a list of two integers, got {value!r}")
    return _int(value[0], path), _int(value[1], path)


def _parse_boxes(raw, d: int, seed: int, path: str) -> tuple[ObjectBox, ...]:
    if not isinstance(raw, list):
        raise ConfigError(f"{path} must be a list of box objects")
    boxes = []
    for i, entry in enumerate(raw):
        _check_keys(entry, {"center", "extent", "signature"}, f"{path}[{i}]")
        if "center" not in entry or "extent" not in entry:
            raise ConfigError(f"{path}[{i}] needs 'center' and 'extent'")
        if "signature" in entry:
            signature = tuple(_float(v, f"{path}[{i}].signature") for v in entry["signature"])
        else:
            rng = np.random.Generator(np.random.Philox(key=(seed << 8) ^ (i + 1)))
            signature = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=d))
        boxes.append(ObjectBox(_int_pair(entry["center"], f"{path}[{i}].center"),
                               _int_pair(entry["extent"], f"{path}[{i}].extent"),
                               signature))
    return tuple(boxes)


def load_settings(config_path: str | None, seed_flag: int | None,
                  out_flag: str | None) -> Settings:
    doc = {}
    if config_path is not None:
        with open(config_path) as fh:
            doc = json.load(fh)
    _check_keys(doc, {"seed", "out_dir", "scene", "gqn", "cost", "train"}, "config")

    seed = seed_flag if seed_flag is not None else _int(doc.get("seed", 0), "config.seed")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    out_dir = Path(out_flag if out_flag is not None else doc.get("out_dir", "out"))
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"output path {out_dir} exists and is not a directory")

    gqn_sec = doc.get("gqn", {})
    _check_keys(gqn_sec, {"d", "context_steps", "freq_base", "sets"}, "config.gqn")
    d = _int(gqn_sec.get("d", 8), "config.gqn.d")
    gqn = GqnConfig(
        d=d,
        context_steps=_int(gqn_sec.get("context_steps", 2), "config.gqn.context_steps"),
        sets=_parse_sets(gqn_sec.get("sets", list(_TOY_SETS)), "config.gqn.sets"),
        freq_base=_float(gqn_sec.get("freq_base", 100.0), "config.gqn.freq_base"),
        seed=seed,
    )

    scene_sec = doc.get("scene", {})
    _check_keys(scene_sec, {"height", "width", "d", "boxes", "clutter_density",
                            "noise_amplitude", "cell_size", "seed"}, "config.scene")
    height = _int(scene_sec.get("height", 16), "config.scene.height")
    width = _int(scene_sec.get("width", 16), "config.scene.width")
    if height < 1 or width < 1:
        raise ConfigError(f"config.scene grid must be at least 1x1, got {height}x{width}")
    scene_d = _int(scene_sec.get("d", d), "config.scene.d")
    if scene_d != d:
        raise ConfigError(f"scene d={scene_d} != gqn d={d}")
    scene_seed = _int(scene_sec.get("seed", seed), "config.scene.seed")
    if not 0 <= scene_seed < 2 ** 64:
        raise ConfigError(f"scene seed must be an unsigned 64-bit integer, got {scene_seed}")
    if "boxes" in scene_sec:
        boxes = _parse_boxes(scene_sec["boxes"], scene_d, scene_seed, "config.scene.boxes")
    else:
        boxes = demo_boxes(height, width, scene_d, 2, scene_seed)
    scene = SceneSpec(
        height=height,
        width=width,
        d=scene_d,
        boxes=boxes,
        clutter_density=_float(scene_sec.get("clutter_density", 0.05),
                               "config.scene.clutter_density"),
        noise_amplitude=_float(scene_sec.get("noise_amplitude", 0.05),
                               "config.scene.noise_amplitude"),
        cell_size=_float(scene_sec.get("cell_size", 0.5), "config.scene.cell_size"),
        seed=scene_seed,
    )

    cost_sec = doc.get("cost", {})
    _check_keys(cost_sec, {"m_bev_sweep", "modes", "full_k", "d", "context_steps", "sets"},
                "config.cost")
    cost_config = GqnConfig(
        d=_int(cost_sec.get("d", 64), "config.cost.d"),
        context_steps=_int(cost_sec.get("context_steps", 6), "config.cost.context_steps"),
        sets=(_parse_sets(cost_sec["sets"], "config.cost.sets")
              if "sets" in cost_sec else GqnConfig().sets),
        seed=seed,
    )
    sweep = [_int(m, "config.cost.m_bev_sweep")
             for m in cost_sec.get("m_bev_sweep", [1024, 16384])]
    modes = [str(m) for m in cost_sec.get("modes", ["naive", "indexed"])]
    full_k = _int(cost_sec.get("full_k", FULL_GRAPH_K), "config.cost.full_k")

    train_sec = doc.get("train", {})
    _check_keys(train_sec, {"steps", "learning_rate"}, "config.train")
    train_steps = _int(train_sec.get("steps", 200), "config.train.steps")
    learning_rate = _float(train_sec.get("learning_rate", 0.01), "config.train.learning_rate")

    echo = {
        "seed": seed,
        "out_dir": str(out_dir),
        "scene": {
            "height": height, "width": width, "d": scene_d,
            "boxes": [{"center": list(b.center), "extent": list(b.extent),
                       "signature": list(b.signature)} for b in boxes],
            "clutter_density": scene.clutter_density,
            "noise_amplitude": scene.noise_amplitude,
            "cell_size": scene.cell_size,
            "seed": scene_seed,
        },
        "gqn": {
            "d": d, "context_steps": gqn.context_steps, "freq_base": gqn.freq_base,
            "sets": [{"queries": s.queries, "ratio": s.ratio, "k": s.k} for s in gqn.sets],
        },
        "cost": {
            "m_bev_sweep": sweep, "modes": modes, "full_k": full_k,
            "d": cost_config.d, "context_steps": cost_config.context_steps,
            "sets": [{"queries": s.queries, "ratio": s.ratio, "k": s.k}
                     for s in cost_config.sets],
        },
        "train": {"steps": train_steps, "learning_rate": learning_rate},
    }
    return Settings(seed, out_dir, scene, gqn, cost_config, sweep, modes, full_k,
                    train_steps, learning_rate, echo)


# ----------------------------------------------------------------------------
# artifact writers


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_maps_csv(path: Path, flat: FlatPairs, named: list[tuple[str, np.ndarray]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["r", "c"]
        for name, arr in named:
            header += [f"{name}_{i}" for i in range(arr.shape[1])]
        writer.writerow(header)
        for i in range(len(flat.bev_indices)):
            r, c = divmod(int(flat.bev_indices[i]), flat.width)
            row = [r, c]
            for _, arr in named:
                row += [f"{v:.17g}" for v in arr[i]]
            writer.writerow(row)


def _write_globals_csv(path: Path, config: GqnConfig, vectors: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["set", "query"] + [f"g_{i}" for i in range(vectors.shape[1])])
        q = 0
        for set_index, spec in enumerate(config.sets):
            for _ in range(spec.queries):
                writer.writerow([set_index, q] + [f"{v:.17g}" for v in vectors[q]])
                q += 1


def _build_inputs(settings: Settings):
    grid, truth = generate_scene(settings.scene)
    enc = sinusoidal_encoding(settings.scene.height, settings.scene.width, settings.scene.d,
                              settings.gqn.freq_base)
    return flatten_grid(grid, enc), truth


# ----------------------------------------------------------------------------
# commands


def cmd_run(settings: Settings) -> int:
    flat, _ = _build_inputs(settings)
    params = init_params(settings.gqn, flat.m_bev)
    # Stand-in for the global reasoning pathway: the raw input features.
    out = run_gqn(flat, settings.gqn, params, global_map=flat.states)
    maps = [("skip", out.skip_map.data), ("fused", out.fused_map.data)]
    maps += [(f"set{i}", m.data) for i, m in enumerate(out.set_maps)]
    if not all(np.isfinite(arr).all() for _, arr in maps):
        raise GqnError("pipeline produced non-finite map values")

    settings.out_dir.mkdir(parents=True, exist_ok=True)
    maps_path = settings.out_dir / "maps.csv"
    globals_path = settings.out_dir / "globals.csv"
    _write_maps_csv(maps_path, flat, maps)
    _write_globals_csv(globals_path, settings.gqn, out.global_vectors.data)
    meta = {
        "command": "run",
        "config": settings.echo,
        "m_bev": flat.m_bev,
        "tau": settings.gqn.tau,
        "artifacts": {p.name: _digest(p) for p in (maps_path, globals_path)},
    }
    (settings.out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {maps_path}, {globals_path}, meta.json (m_bev={flat.m_bev}, "
          f"tau={settings.gqn.tau})")
    return 0


def cmd_gradcheck(settings: Settings) -> int:
    if settings.scene.m_bev > GRADCHECK_MAX_CELLS:
        raise ConfigError(f"gradcheck grid has {settings.scene.m_bev} cells; limit is "
                          f"{GRADCHECK_MAX_CELLS} (finite differences are O(params) passes)")
    flat, _ = _build_inputs(settings)
    params = init_params(settings.gqn, flat.m_bev)
    stub = flat.states  # exercises the fusion gate so mlp2 gets gradients

    def loss_fn(p: ParamStore) -> Tensor:
        return sum_all(run_gqn(flat, settings.gqn, p, global_map=stub).fused_map)

    errs = grad_check_groups(loss_fn, params, eps=1e-5,
                             max_coords_per_param=GRADCHECK_COORDS_PER_PARAM,
                             seed=settings.seed)
    grads = backward(loss_fn(params), params)
    u_norms = {name: float(np.linalg.norm(g)) for name, g in grads.items()
               if name.startswith("query_global/")}
    max_err = max(errs.values())
    ok = max_err <= GRADCHECK_TOLERANCE and all(v > 0.0 for v in u_norms.values())

    settings.out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "command": "gradcheck",
        "tolerance": GRADCHECK_TOLERANCE,
        "eps": 1e-5,
        "groups": errs,
        "max_rel_err": max_err,
        "u_grad_norms": u_norms,
        "u_grads_all_nonzero": all(v > 0.0 for v in u_norms.values()),
        "pass": ok,
    }
    (settings.out_dir / "gradcheck.json").write_text(json.dumps(report, indent=2) + "\n")
    for group in sorted(errs):
        print(f"gradcheck {group}: {errs[group]:.3e}")
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (max {max_err:.3e}, tol {GRADCHECK_TOLERANCE})")
    if not ok:
        raise GqnError(f"gradient check failed: max relative error {max_err:.3e}")
    return 0


def cmd_bench(settings: Settings) -> int:
    if not settings.m_bev_sweep:
        raise ConfigError("cost.m_bev_sweep must not be empty")
    reports = [compare_full_vs_queries(settings.cost_config, m, settings.full_k)
               for m in settings.m_bev_sweep]
    rows = run_benchmark(settings.cost_config, settings.m_bev_sweep, settings.cost_modes,
                         settings.full_k, seed=settings.seed)

    settings.out_dir.mkdir(parents=True, exist_ok=True)
    (settings.out_dir / "cost_report.json").write_text(
        json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    with open(settings.out_dir / "bench.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m_bev", "mode", "full_count", "peak_query_count",
                         "reduction_pct", "processing_reduction_pct",
                         "wall_full_s", "wall_peak_s"])
        for row in rows:
            writer.writerow([row["m_bev"], row["mode"], f"{row['full_count']:.17g}",
                             f"{row['peak_query_count']:.17g}", f"{row['reduction_pct']:.17g}",
                             f"{row['processing_reduction_pct']:.17g}",
                             "" if row["wall_full_s"] is None else f"{row['wall_full_s']:.6f}",
                             "" if row["wall_peak_s"] is None else f"{row['wall_peak_s']:.6f}"])
    for report in reports:
        print(f"m_bev={report.m_bev}: peak processing reduction "
              f"{report.processing_reduction_pct:.1f}% "
              f"(construction naive {report.construction_naive_reduction_pct:.1f}%, "
              f"indexed {report.construction_indexed_reduction_pct:.1f}%)")
    return 0


def cmd_train_demo(settings: Settings) -> int:
    result = toy_train(settings.scene, settings.gqn, settings.train_steps,
                       settings.learning_rate)
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    with open(settings.out_dir / "loss_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in enumerate(result.losses):
            writer.writerow([step, f"{loss:.17g}"])
    if result.diverged:
        print("training diverged; last finite losses recorded in loss_curve.csv",
              file=sys.stderr)
        return 4
    first, last = result.losses[0], result.losses[-1]
    print(f"train-demo: {settings.train_steps} steps, loss {first:.6f} -> {last:.6f}")
    return 0


# ----------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gqn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "run": ("run the pipeline and write maps.csv / globals.csv / meta.json", cmd_run),
        "gradcheck": ("verify backprop against central finite differences", cmd_gradcheck),
        "bench": ("write the analytic cost report and kNN benchmark", cmd_bench),
        "train-demo": ("run the desk-scale training loop", cmd_train_demo),
    }
    for name, (help_text, fn) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path (defaults apply if omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect (the pipeline is one thread)")
        p.set_defaults(handler=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        settings = load_settings(ns.config, ns.seed, ns.out)
    except (ConfigError, OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return ns.handler(settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GqnError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
