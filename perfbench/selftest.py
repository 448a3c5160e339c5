"""Self-test of the benchmark, running every workload at a tiny length.

    python3 perfbench/selftest.py

Asserts that every metric named in BENCHMARK.json is emitted, with its unit,
by both the untraced and the traced run; that a corrupted reference makes
every step count as failed; that the traced run puts back every function it
wrapped; and that without the library's sources the benchmark exits non-zero
and prints no result. Takes a few minutes and about 2 GB of memory.
"""

import importlib
import json
import shutil
import subprocess
import sys

import run
import tracing

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
TINY = 0.01  # seconds: every run still makes at least one step per phase


def result_line(stdout: str) -> dict:
    res = json.loads(stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    return res


def check_emitted(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", str(TINY), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    res = result_line(proc.stdout)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == units, f"{workload} trace={trace}: emitted {got}, expected {units}"


def corrupt(x):
    if isinstance(x, dict):
        return {k: corrupt(v) for k, v in x.items()}
    if isinstance(x, list):
        return [corrupt(v) for v in x]
    return x * (1 + 1e-6)


def bound_objects() -> dict[tuple[str, str], object]:
    """What every patch point of the tracer is bound to right now."""
    found = {(module, attr): getattr(importlib.import_module(module), attr, None)
             for module, attr, _, _ in tracing.LAYER_FUNCTIONS}
    found[("gqn.autodiff", "Tensor.__init__")] = run.autodiff.Tensor.__dict__["__init__"]
    return found


def check_corrupted_reference_and_restore(workload: str) -> None:
    reference = json.loads(run.REFERENCE_PATH.read_text())[workload]
    before = bound_objects()
    res, _ = run.traced_run(run.WORKLOADS[workload], 0, TINY, corrupt(reference))
    assert not res["correct"] and res["failed"] == res["attempted"] >= 1, res
    assert bound_objects() == before, f"{workload}: traced run left wrappers installed"


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train_toy", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> None:
    run.SETUP_REPS = 1  # in-process runs only; the subprocesses keep the real count
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_emitted(workload, trace)
        check_corrupted_reference_and_restore(workload)
        print(f"selftest {workload}: ok", flush=True)
    check_bare_directory()
    print("selftest bare directory: ok")


if __name__ == "__main__":
    main()
