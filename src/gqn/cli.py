"""Command-line entry point: run | gradcheck | bench | train-demo.

Configuration is one JSON document; every section is optional and unknown
keys are rejected. Defaults are desk-scale, except that the ``cost`` section
defaults to the full-scale reference setup (three sets of 32 queries, ratios
0.10/0.20/0.30, k=4/8/12) so the bench command reproduces the headline
efficiency numbers out of the box.

Schema, with each key's default (all keys optional)::

    {
      "seed": 0,                  # flag --seed > file > 0
      "out_dir": "out",           # flag --out > file > "out"; a non-empty string
      "scene": {"height": 16, "width": 16, "d": <gqn.d>, "boxes": <two demo boxes>,
                "clutter_density": 0.05, "noise_amplitude": 0.05, "seed": <seed>},
      "gqn":   {"d": 8, "context_steps": 2, "freq_base": 100.0,
                "sets": [{"queries": 4, "ratio": 0.1, "k": 2},
                         {"queries": 4, "ratio": 0.2, "k": 3}]},
      "cost":  {"m_bev_sweep": [1024, 16384], "modes": ["naive", "indexed"],
                "full_k": 20, "d": 64, "context_steps": 6, "sets": <the three reference sets>},
      "train": {"steps": 200, "learning_rate": 0.01}
    }

A ``sets`` entry defaults to {"queries": 1, "ratio": 0.1, "k": 1}. A ``scene.boxes``
entry is {"center": [r, c], "extent": [h, w], "signature": [d floats]}; center
and extent are required, and a missing signature is drawn from the scene seed.
meta.json echoes the parsed config in this order, every default filled in.

Artifacts are plain CSV/JSON, rewritten from scratch each run; ``run`` also
digests its own in meta.json. Exit codes: 0 success, 2 config or output
error, 3 numeric error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import ParamStore, Tensor, backward, grad_check_groups, no_grad, sum_all
from .cost_model import FULL_GRAPH_K, MODES, exact_nodes, run_benchmark
from .errors import ConfigError, GqnError
from .pipeline import GqnConfig, init_params, run_gqn, toy_train
from .query_init import QuerySetSpec
from .scene import (FlatPairs, ObjectBox, SceneSpec, demo_boxes, flatten_grid, generate_scene,
                    sinusoidal_encoding)

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_MAX_CELLS = 1024
GRADCHECK_COORDS_PER_PARAM = 6


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
    echo: dict  # the parsed config; meta.json writes its spec objects with ``asdict``


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) under {path}: {unknown}")


def _fields(section, table: dict, path: str) -> dict:
    """``table`` maps each key to (parser, default); a given key is parsed at ``path.key``."""
    _check_keys(section, set(table), path)
    return {key: parse(section[key], f"{path}.{key}") if key in section else default
            for key, (parse, default) in table.items()}


def _int(value, path: str) -> int:
    """A JSON integer. Integral floats such as 16.0 pass; bools, strings and 2.7 do not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return int(value)


def _seed(value, path: str) -> int:
    seed = _int(value, path)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{path} must be an unsigned 64-bit integer, got {seed}")
    return seed


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


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list, got {value!r}")
    return value


def _ints(value, path: str) -> list[int]:
    return [_int(v, path) for v in _list(value, path)]


def _floats(value, path: str) -> tuple[float, ...]:
    return tuple(_float(v, path) for v in _list(value, path))


def _int_pair(value, path: str) -> tuple[int, int]:
    """A JSON list of exactly two integers."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a list of two integers, got {value!r}")
    return _int(value[0], path), _int(value[1], path)


def _out_dir(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path} must be a non-empty string, got {value!r}")
    return str(Path(value))  # the normal form, as meta.json names the directory


def _section(value, path: str):
    return value  # checked by its own ``_fields`` call


_SET = {"queries": (_int, 1), "ratio": (_float, 0.1), "k": (_int, 1)}
_BOX = {"center": (_int_pair, None), "extent": (_int_pair, None), "signature": (_floats, None)}


def _parse_sets(raw, path: str) -> tuple[QuerySetSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path} must be a non-empty list of set objects")
    return tuple(QuerySetSpec(**_fields(entry, _SET, f"{path}[{i}]"))
                 for i, entry in enumerate(raw))


def _parse_boxes(raw: list, d: int, seed: int, path: str) -> tuple[ObjectBox, ...]:
    boxes = []
    for i, entry in enumerate(raw):
        fields = _fields(entry, _BOX, f"{path}[{i}]")
        if fields["center"] is None or fields["extent"] is None:
            raise ConfigError(f"{path}[{i}] needs 'center' and 'extent'")
        if fields["signature"] is None:
            rng = np.random.Generator(np.random.Philox(key=(seed << 8) ^ (i + 1)))
            fields["signature"] = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=d))
        boxes.append(ObjectBox(**fields))
    return tuple(boxes)


def load_settings(config_path: str | None, seed_flag: int | None,
                  out_flag: str | None) -> Settings:
    doc = {}
    if config_path is not None:
        with open(config_path) as fh:
            doc = json.load(fh)
    if isinstance(doc, dict):  # a flag replaces the file's value and is parsed like it
        doc.update((key, flag) for key, flag in (("seed", seed_flag), ("out_dir", out_flag))
                   if flag is not None)
    config = _fields(doc, {"seed": (_seed, 0), "out_dir": (_out_dir, "out"),
                           "scene": (_section, {}), "gqn": (_section, {}),
                           "cost": (_section, {}), "train": (_section, {})}, "config")
    seed, out_dir = config["seed"], Path(config["out_dir"])
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"output path {out_dir} exists and is not a directory")

    config["gqn"] = _fields(config["gqn"], {
        "d": (_int, 8), "context_steps": (_int, 2), "freq_base": (_float, 100.0),
        "sets": (_parse_sets, (QuerySetSpec(4, 0.1, 2), QuerySetSpec(4, 0.2, 3)))}, "config.gqn")
    gqn = GqnConfig(**config["gqn"], seed=seed)

    scene = config["scene"] = _fields(config["scene"], {
        "height": (_int, 16), "width": (_int, 16), "d": (_int, gqn.d), "boxes": (_list, None),
        "clutter_density": (_float, 0.05), "noise_amplitude": (_float, 0.05),
        "seed": (_seed, seed)}, "config.scene")
    height, width, scene_d, scene_seed = (scene[k] for k in ("height", "width", "d", "seed"))
    if height < 1 or width < 1:
        raise ConfigError(f"config.scene grid must be at least 1x1, got {height}x{width}")
    if scene_d != gqn.d:
        raise ConfigError(f"scene d={scene_d} != gqn d={gqn.d}")
    scene["boxes"] = (demo_boxes(height, width, scene_d, 2, scene_seed) if scene["boxes"] is None
                      else _parse_boxes(scene["boxes"], scene_d, scene_seed, "config.scene.boxes"))
    scene_spec = SceneSpec(**scene)

    cost = config["cost"] = _fields(config["cost"], {
        "m_bev_sweep": (_ints, [1024, 16384]), "modes": (_list, list(MODES)),
        "full_k": (_int, FULL_GRAPH_K), "d": (_int, 64), "context_steps": (_int, 6),
        "sets": (_parse_sets, GqnConfig().sets)}, "config.cost")
    cost_config = GqnConfig(**{k: cost[k] for k in ("d", "context_steps", "sets")}, seed=seed)
    sweep, full_k, modes = cost["m_bev_sweep"], cost["full_k"], cost["modes"]
    if full_k < 1:
        raise ConfigError(f"config.cost.full_k must be at least 1, got {full_k}")
    if not sweep:
        raise ConfigError("config.cost.m_bev_sweep must not be empty")
    if len(set(sweep)) != len(sweep):
        raise ConfigError(f"config.cost.m_bev_sweep must list distinct sizes, got {sweep}")
    if min(sweep) <= full_k:
        raise ConfigError(f"config.cost.m_bev_sweep entries must exceed config.cost.full_k="
                          f"{full_k}, got {sweep}")
    smallest = min(sweep)  # a set's node counts, exact and rounded, never fall as m_bev grows
    for i, spec in enumerate(cost_config.sets):
        path, where = f"config.cost.sets[{i}]", f"at m_bev={smallest} is not above k={spec.k}"
        nodes = exact_nodes(spec.ratio, smallest)
        if nodes <= spec.k:
            raise ConfigError(f"{path}: exact node count {float(nodes)} {where}")
        if spec.n_nodes(smallest) <= spec.k:
            raise ConfigError(f"{path}: rounded node count {spec.n_nodes(smallest)} {where}")
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"config.cost.modes: unknown mode {mode!r}, expected one of {MODES}")
    if not modes or len(set(modes)) != len(modes):
        raise ConfigError(f"config.cost.modes must list distinct modes of {MODES}, got {modes!r}")

    train = config["train"] = _fields(config["train"], {
        "steps": (_int, 200), "learning_rate": (_float, 0.01)}, "config.train")
    if train["steps"] < 0:
        raise ConfigError(f"config.train.steps must be at least 0, got {train['steps']}")
    if train["learning_rate"] <= 0.0:
        raise ConfigError(f"config.train.learning_rate must be positive, got "
                          f"{train['learning_rate']}")
    return Settings(seed, out_dir, scene_spec, gqn, cost_config, sweep, modes, full_k,
                    train["steps"], train["learning_rate"], config)


# ----------------------------------------------------------------------------
# artifact writers


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# bench.csv: each column's name and the format spec of its cells; a None cell is left empty
_BENCH_COLUMNS = {"m_bev": "", "mode": "", "full_count": ".17g", "peak_query_count": ".17g",
                  "reduction_pct": ".17g", "processing_reduction_pct": ".17g",
                  "wall_full_s": ".6f", "wall_peak_s": ".6f"}


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
    # Stand-in for the global reasoning pathway: the raw input features. Nothing
    # here takes a gradient, so the forward keeps no tape.
    with no_grad():
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
        "coverage": list(out.coverage),  # per set, covered cells / m_bev
        "artifacts": {p.name: _digest(p) for p in (maps_path, globals_path)},
    }
    (settings.out_dir / "meta.json").write_text(json.dumps(meta, indent=2, default=asdict) + "\n")
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
    reports, rows = run_benchmark(settings.cost_config, settings.m_bev_sweep, settings.cost_modes,
                                  settings.full_k, seed=settings.seed)
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    (settings.out_dir / "cost_report.json").write_text(
        json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    with open(settings.out_dir / "bench.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_BENCH_COLUMNS)
        writer.writerows(["" if row[name] is None else format(row[name], spec)
                          for name, spec in _BENCH_COLUMNS.items()] for row in rows)
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
    except MemoryError as exc:  # e.g. a scene grid too large to allocate
        print(f"memory error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
