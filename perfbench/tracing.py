"""Span tracing for the benchmark's traced run.

Each layer function below is replaced, in the module that calls it, by a
wrapper that records a span: name, start, end, parent span, step id and,
for a few spans, a computed work count. Spans stay in memory until the run
ends. A span's self time is its duration minus the durations of its child
spans; the program is single-threaded, so children never overlap.

``Tensor.__init__`` is wrapped too, to count the tensors built per step.
A function that no longer exists is reported as absent and left alone.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _knn_pairs(features, *args, **kwargs):
    return int(np.shape(features)[0]) ** 2


def _edges(query, *args, **kwargs):
    return query.n_nodes * query.k


# (module that calls the function, attribute, span name, work count or None)
LAYER_FUNCTIONS = (
    ("gqn.scene", "generate_scene", "scene.generate", None),
    ("gqn.scene", "sinusoidal_encoding", "scene.encoding", None),
    ("gqn.scene", "flatten_grid", "scene.flatten", None),
    ("gqn.pipeline", "run_gqn", "pipeline.forward", None),
    ("gqn.pipeline", "init_graph_query", "query_init.total", None),
    ("gqn.query_init", "attention_scores", "query_init.score", None),
    ("gqn.query_init", "select_nodes", "query_init.select", None),
    ("gqn.query_init", "build_knn_edges", "query_init.knn", _knn_pairs),
    ("gqn.pipeline", "edge_focus_update", "edge_focus.total", None),
    ("gqn.edge_focus", "edge_features", "edge_focus.features", _edges),
    ("gqn.edge_focus", "edge_attention", "edge_focus.attention", None),
    ("gqn.edge_focus", "update_nodes", "edge_focus.update", None),
    ("gqn.pipeline", "pool_query", "deep_context.pool", None),
    ("gqn.pipeline", "context_exchange", "deep_context.exchange", None),
    ("gqn.pipeline", "infuse_context", "deep_context.infuse", None),
    ("gqn.pipeline", "project_to_bev", "pipeline.project", None),
    ("gqn.pipeline", "skip_fuse", "pipeline.skip", None),
    ("gqn.pipeline", "soft_fusion", "pipeline.gate", None),
    ("gqn.autodiff", "backward", "autodiff.backward", None),
)

NAME, START, END, PARENT, STEP, WORK = range(6)


class Tracer:
    """Records spans while installed; ``step`` tags every span opened meanwhile."""

    def __init__(self):
        self.spans: list[list] = []
        self.step: int | None = None
        self.tensors = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, work: int | None) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.step, work]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, step: int):
        """A top-level span tagging ``step``; its work is the tensors built inside it.

        Spans opened outside any root, such as those of output checks, get no step.
        """
        self.step, before = step, self.tensors
        record = self._open(name, None)
        try:
            yield
        finally:
            self._close(record)
            record[WORK] = self.tensors - before
            self.step = None

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name, work(*args, **kwargs) if work else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return traced

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, work in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, work))
        tensor = importlib.import_module("gqn.autodiff").Tensor
        original_init = tensor.__dict__["__init__"]

        @functools.wraps(original_init)
        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            original_init(obj, *args, **kwargs)

        self._saved.append((tensor, "__init__", original_init))
        tensor.__init__ = counting_init

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans: list[list], steps: list[int]) -> dict[str, dict[str, float]]:
    """Per span name, means per step over ``steps``: calls, total and self seconds, work."""
    wanted = set(steps)
    own = self_times(spans)
    sums: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
    for s, self_s in zip(spans, own):
        if s[STEP] not in wanted:
            continue
        entry = sums[s[NAME]]
        entry["calls"] += 1
        entry["total_s"] += s[END] - s[START]
        entry["self_s"] += self_s
        entry["work"] += s[WORK] or 0
    n = max(1, len(wanted))
    return {name: {k: v / n for k, v in entry.items()} for name, entry in sums.items()}
