"""Benchmark of the gqn library: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload infer_ref32 --seed 0 --seconds 50 --trace 0

Workloads (NOTES.md gives the reason for each):

  train_toy    the pinned 200-step SGD run on a 16x16 toy scene, restarted
               as often as the run allows; a step is forward, backward and
               the parameter update
  infer_ref32  the reference config on a 32x32 grid; a step is one forward
               pass with the fusion gate, as ``gqn run`` does it
  grad_ref24   the reference config on a 24x24 grid; a step is forward plus
               backward of sum(fused_map) at fixed parameters (run by hand:
               BENCHMARK.json lists the other two)

``--trace 0`` reports the end-to-end metrics, measured untraced. ``--trace 1``
is the separate traced run: it times half of the run untraced and half with
every layer wrapped, and reports the per-layer metrics. Every step's output is
checked. Details, the environment and the spans go to perfbench/out/; the last
line of stdout is the result JSON.
"""

from __future__ import annotations

import os

# One BLAS thread and threads=1 in the pipeline: every workload is single-threaded.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
REFERENCE_PATH = HERE / "reference.json"

if not (SRC / "gqn" / "__init__.py").is_file():
    sys.exit(f"perfbench: gqn sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from gqn import autodiff, cost_model, pipeline, scene  # noqa: E402
from gqn.query_init import QuerySetSpec  # noqa: E402

from tracing import Tracer, summarize  # noqa: E402

SETUP_REPS = 3
# The host's CPU speed swings by up to 1.8x over seconds to minutes (NOTES.md). Of
# the step statistics tried, the mean of the ten fastest steps repeated best.
FASTEST_STEPS = 10
REL_TOL = 1e-9
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIB = 2 ** 20


# ----------------------------------------------------------------------------
# workloads


def build_scene(side: int, d: int, seed: int, freq_base: float):
    """The scene ``gqn run`` builds by default, on a side x side grid."""
    spec = scene.SceneSpec(side, side, d, boxes=scene.demo_boxes(side, side, d, 2, seed),
                           clutter_density=0.05, noise_amplitude=0.05, seed=seed)
    grid, truth = scene.generate_scene(spec)
    enc = scene.sinusoidal_encoding(side, side, d, freq_base)
    return scene.flatten_grid(grid, enc), truth


def matches(actual, expected) -> bool:
    """Equal within REL_TOL of the largest magnitude in ``expected``, entry by entry."""
    if isinstance(expected, dict):
        return actual.keys() == expected.keys() and all(
            matches(actual[k], expected[k]) for k in expected)
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return a.shape == e.shape and bool(np.all(np.abs(a - e) <= REL_TOL * np.abs(e).max()))


def summarize_map(a: np.ndarray) -> dict:
    return {"col_sum": a.sum(axis=0).tolist(),
            "col_sumsq": (a * a).sum(axis=0).tolist(),
            "rows": a[::max(1, len(a) // 8)].tolist()}


class TrainToy:
    """The pinned training run of acceptance criterion 8, step by step.

    The warm-up is the first step of the first 200-step episode; a new episode
    with fresh parameters starts whenever one ends. Each step's loss must match
    the reference curve: at seed 0 the recorded one, at other seeds the first
    episode of the run.
    """

    name = "train_toy"
    has_backward = True
    EPISODE = 200
    LEARNING_RATE = 0.01
    PINNED = (0.545792340626525, 0.02126455884874894)  # seed 0: before step 1, after step 200

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        self.config = pipeline.GqnConfig(
            d=8, context_steps=2, sets=(QuerySetSpec(4, 0.1, 2), QuerySetSpec(4, 0.2, 3)),
            seed=seed)
        self.flat, self.truth = build_scene(16, 8, seed, self.config.freq_base)
        self.curve = list(reference["losses"]) if reference else []
        self.recording = reference is None
        self._new_episode()

    def _new_episode(self) -> None:
        self.params = pipeline.init_params(self.config, self.flat.m_bev)
        pipeline.register_readout(self.params, self.config.d)
        self.losses: list[float] = []

    def forward(self):
        return pipeline.mask_loss(self.flat, self.config, self.params, self.truth.mask)

    def backward(self, loss) -> float:
        autodiff.backward(loss, self.params)
        for _, t in self.params.items():
            t.data = t.data - self.LEARNING_RATE * t.grad
        return loss.item()

    def _on_curve(self, i: int, loss: float) -> bool:
        if not math.isfinite(loss):
            return False
        if self.recording and i == len(self.curve):
            self.curve.append(loss)
            return True
        return math.isclose(loss, self.curve[i], rel_tol=REL_TOL)

    def check(self, loss: float) -> bool:
        ok = self._on_curve(len(self.losses), loss)
        self.losses.append(loss)
        if len(self.losses) == self.EPISODE:
            final = self.forward().item()
            ok = self._on_curve(self.EPISODE, final) and final <= 0.5 * self.losses[0] and ok
            if self.seed == 0:
                ok = ok and math.isclose(self.losses[0], self.PINNED[0], rel_tol=REL_TOL) \
                    and math.isclose(final, self.PINNED[1], rel_tol=REL_TOL)
            self.recording = False
            self._new_episode()
        return ok


class RefWorkload:
    """The reference config (3x32 queries, ratios .1/.2/.3, k=4/8/12, d=64,
    6 context steps) on a ``side`` x ``side`` grid, at fixed parameters.

    Every step must reproduce the warm-up's outputs bit for bit, be finite and
    have fusion weights summing to 1; at seed 0 it must also match the
    recorded reference.
    """

    side: int

    def __init__(self, seed: int, reference: dict | None):
        self.config = pipeline.GqnConfig(seed=seed)
        self.flat, _ = build_scene(self.side, self.config.d, seed, self.config.freq_base)
        self.params = pipeline.init_params(self.config, self.flat.m_bev)
        self.reference = reference
        self.first: dict[str, np.ndarray] | None = None

    def run(self):
        return pipeline.run_gqn(self.flat, self.config, self.params, global_map=self.flat.states)

    def _check(self, arrays: dict[str, np.ndarray], skip_map) -> bool:
        if not all(np.isfinite(a).all() for a in arrays.values()):
            return False
        weights = pipeline.fusion_weights(skip_map, autodiff.as_tensor(self.flat.states),
                                          self.params, self.config.mlp2_spec).data
        if not np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12):
            return False
        if self.first is None:
            self.first = {k: a.copy() for k, a in arrays.items()}
        elif not all(np.array_equal(a, self.first[k]) for k, a in arrays.items()):
            return False
        return self.reference is None or matches(self.summary(arrays), self.reference)


class InferRef32(RefWorkload):
    name = "infer_ref32"
    side = 32
    has_backward = False

    def forward(self):
        return self.run()

    def backward(self, out):
        return out

    def summary(self, arrays: dict[str, np.ndarray]) -> dict:
        return {k: summarize_map(a) for k, a in arrays.items()}

    def check(self, out) -> bool:
        arrays = {"fused_map": out.fused_map.data, "global_vectors": out.global_vectors.data}
        return self._check(arrays, out.skip_map)


class GradRef24(RefWorkload):
    name = "grad_ref24"
    side = 24
    has_backward = True

    def forward(self):
        out = self.run()
        return out.skip_map, autodiff.sum_all(out.fused_map)

    def backward(self, forward_out):
        skip_map, loss = forward_out
        grads = autodiff.backward(loss, self.params)
        return skip_map, loss.item(), grads

    def summary(self, arrays: dict[str, np.ndarray]) -> dict:
        norms = {}
        for group in self.params.groups():
            sq = sum(float((arrays[name] ** 2).sum())
                     for name, _ in self.params.group_items(group))
            norms[group] = math.sqrt(sq)
        return {"loss": float(arrays["loss"][0]), "grad_norms": norms}

    def check(self, result) -> bool:
        skip_map, loss, grads = result
        return self._check({"loss": np.array([loss]), **grads}, skip_map)


WORKLOADS = {w.name: w for w in (TrainToy, InferRef32, GradRef24)}


# ----------------------------------------------------------------------------
# measurement


def attempt(wl, tracer: Tracer | None = None, step: int = 0) -> tuple[float, bool]:
    """Time one step, then check its output untimed. Returns (seconds, passed)."""
    root = tracer.root("bench.step", step) if tracer else nullcontext()
    start = time.perf_counter()
    try:
        with root:
            out = wl.backward(wl.forward())
        elapsed = time.perf_counter() - start
        return elapsed, bool(wl.check(out))
    except Exception:  # a failing step is counted, not fatal
        traceback.print_exc()
        return time.perf_counter() - start, False


def set_up(cls, seed: int, reference, tracer: Tracer | None = None):
    """Build the workload SETUP_REPS times: scene, parameters, one warm-up step.

    Returns the last build, the set-up times and whether every warm-up passed.
    """
    times, ok, wl = [], True, None
    for rep in range(SETUP_REPS):
        wl = None  # free the previous build first
        root = tracer.root("bench.setup", -1 - rep) if tracer else nullcontext()
        start = time.perf_counter()
        with root:
            wl = cls(seed, reference)
            ok = attempt(wl)[1] and ok
        times.append(time.perf_counter() - start)
    return wl, times, ok


def run_steps(wl, seconds: float, tracer: Tracer | None = None) -> tuple[list[float], int]:
    """Run steps until ``seconds`` have passed (at least one); return times and failures."""
    times, failed = [], 0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        elapsed, ok = attempt(wl, tracer, len(times))
        times.append(elapsed)
        failed += not ok
    return times, failed


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with >= 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(times) * (1 - p / 100) >= 10:
            return p, float(np.percentile(times, p))
    return None


def step_time(times: list[float]) -> float:
    """Mean of the FASTEST_STEPS fastest step times."""
    return float(np.mean(np.sort(times)[:FASTEST_STEPS]))


def memory_peaks(wl) -> tuple[float, float]:
    """tracemalloc peaks in MiB of one forward and of the backward that follows it."""
    tracemalloc.start()
    try:
        forward_out = wl.forward()
        forward_peak = tracemalloc.get_traced_memory()[1]
        backward_peak = 0
        if wl.has_backward:
            tracemalloc.reset_peak()
            wl.backward(forward_out)
            backward_peak = tracemalloc.get_traced_memory()[1]
        del forward_out
    finally:
        tracemalloc.stop()
    return forward_peak / MIB, backward_peak / MIB


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def timed_run(cls, seed: int, seconds: float, reference) -> tuple[dict, dict]:
    wl, setup_times, warm_ok = set_up(cls, seed, reference)
    times, failed = run_steps(wl, seconds)
    m_bev = wl.flat.m_bev
    step = step_time(times)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "step_fast10_s": metric(step, "s"),
        "cells_per_s": metric(m_bev / step, "cells/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {"setup_times_s": setup_times, "steps": len(times), "m_bev": m_bev,
               "step_s_median": statistics.median(times), "step_s_tail": tail(times),
               "cells_per_s_mean": m_bev * len(times) / sum(times),
               "failed_ratio": failed / len(times), "step_times_s": times}
    return result(warm_ok, len(times), failed, metrics), details


# per-layer metric: (span name, per-step field of the span summary, unit)
SPAN_METRICS = {
    "query_init.score_s": ("query_init.score", "total_s", "s"),
    "query_init.select_s": ("query_init.select", "total_s", "s"),
    "query_init.knn_s": ("query_init.knn", "total_s", "s"),
    "query_init.knn_calls": ("query_init.knn", "calls", "count"),
    "query_init.knn_pairs": ("query_init.knn", "work", "count"),
    "edge_focus.features_s": ("edge_focus.features", "total_s", "s"),
    "edge_focus.attention_s": ("edge_focus.attention", "total_s", "s"),
    "edge_focus.update_s": ("edge_focus.update", "total_s", "s"),
    "edge_focus.edges": ("edge_focus.features", "work", "count"),
    "deep_context.pool_s": ("deep_context.pool", "total_s", "s"),
    "deep_context.exchange_s": ("deep_context.exchange", "total_s", "s"),
    "deep_context.infuse_s": ("deep_context.infuse", "total_s", "s"),
    "pipeline.project_s": ("pipeline.project", "total_s", "s"),
    "pipeline.skip_s": ("pipeline.skip", "total_s", "s"),
    "pipeline.gate_s": ("pipeline.gate", "total_s", "s"),
    "pipeline.forward_s": ("pipeline.forward", "total_s", "s"),
    "pipeline.self_s": ("pipeline.forward", "self_s", "s"),
    "autodiff.backward_s": ("autodiff.backward", "total_s", "s"),
    "autodiff.tensors": ("bench.step", "work", "count"),
}
SCENE_SPANS = ("scene.generate", "scene.encoding", "scene.flatten")


def traced_run(cls, seed: int, seconds: float, reference) -> tuple[dict, dict]:
    tracer = Tracer()
    with tracer.installed():
        wl, _, warm_ok = set_up(cls, seed, reference, tracer)
    untraced, failed_untraced = run_steps(wl, seconds / 2)
    with tracer.installed():
        traced, failed_traced = run_steps(wl, seconds / 2, tracer)
    forward_peak, backward_peak = memory_peaks(wl)

    steps = summarize(tracer.spans, range(len(traced)))
    setup = summarize(tracer.spans, range(-SETUP_REPS, 0))
    metrics = {"scene.build_s": metric(sum(setup.get(n, {}).get("total_s", 0.0)
                                           for n in SCENE_SPANS), "s")}
    for name, (span, field, unit) in SPAN_METRICS.items():
        metrics[name] = metric(steps.get(span, {}).get(field, 0.0), unit)
    flops = cost_model.flop_estimate(wl.config, wl.flat.m_bev)
    forward_s = metrics["pipeline.forward_s"]["value"]
    metrics.update({
        "autodiff.forward_peak_mb": metric(forward_peak, "MiB"),
        "autodiff.backward_peak_mb": metric(backward_peak, "MiB"),
        "cost_model.flops": metric(flops, "flop"),
        "pipeline.gflops": metric(flops / forward_s / 1e9 if forward_s else 0.0, "GFLOP/s"),
        "trace.overhead_s": metric(step_time(traced) - step_time(untraced), "s"),
    })
    details = {"steps_untraced": len(untraced), "steps_traced": len(traced),
               "step_s_untraced": step_time(untraced), "step_s_traced": step_time(traced),
               "absent": tracer.absent, "spans_per_step": steps, "spans_per_setup": setup,
               "knn_pairs": "computed as the sum of n^2 over kNN calls"}
    write_json(OUT_DIR / f"{cls.name}-seed{seed}-spans.json",
               {"fields": ["name", "start", "end", "parent", "step", "work"],
                "absent": tracer.absent, "spans": tracer.spans})
    n = len(untraced) + len(traced)
    return result(warm_ok, n, failed_untraced + failed_traced, metrics), details


def result(warm_ok: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": bool(warm_ok and failed == 0), "attempted": attempted,
            "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------------
# reporting


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": min(BLAS_THREADS, nproc), "pipeline_threads": 1,
            "machine": platform.machine(), "seed": seed}


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")


def print_span_table(details: dict) -> None:
    steps = details["spans_per_step"]
    step_s = steps.get("bench.step", {}).get("total_s", 0.0)
    print(f"self time per step (mean over {details['steps_traced']} traced steps, "
          f"{step_s:.6g} s per step):")
    print(f"  {'span':24} {'calls':>8} {'total_s':>12} {'self_s':>12} {'self%':>7}")
    for name, s in sorted(steps.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100 * s["self_s"] / step_s if step_s else 0.0
        print(f"  {name:24} {s['calls']:8.1f} {s['total_s']:12.6g} {s['self_s']:12.6g} "
              f"{share:6.1f}%")
    covered = sum(s["self_s"] for s in steps.values())
    print(f"  self times sum to {covered:.6g} s of {step_s:.6g} s per step")
    if details["absent"]:
        print(f"  absent (function not found, reported as 0): {', '.join(details['absent'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    reference = None
    if args.seed == 0:
        reference = json.loads(REFERENCE_PATH.read_text())[args.workload]
    cls = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    res, details = run(cls, args.seed, args.seconds, reference)
    env = environment(args.seed)
    write_json(OUT_DIR / f"{cls.name}-seed{args.seed}-trace{args.trace}.json",
               {"workload": cls.name, "seconds": args.seconds, "trace": args.trace,
                "environment": env, "result": res, "details": details})

    print(f"gqn benchmark: workload={cls.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env))
    if args.trace:
        print_span_table(details)
        print(f"tracing overhead: {details['step_s_traced']:.6g} s traced - "
              f"{details['step_s_untraced']:.6g} s untraced, mean of the fastest steps")
    else:
        print(f"steps: {details['steps']}, median {details['step_s_median']:.6g} s, "
              f"mean throughput {details['cells_per_s_mean']:.6g} cells/s")
        print("setup times: " + ", ".join(f"{t:.6g}" for t in details["setup_times_s"]))
        p_tail = details["step_s_tail"]
        print("step_s_tail: " + (f"p{p_tail[0]:g} = {p_tail[1]:.6g} s" if p_tail
                                 else "omitted, fewer than 10 samples beyond any percentile"))
    for name, m in res["metrics"].items():
        print(f"  {name:28} {m['value']:16.6g} {m['unit']}")
    print(f"failed_ratio: {res['failed']}/{res['attempted']}")
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
