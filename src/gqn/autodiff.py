"""Minimal reverse-mode autodiff over float64 numpy arrays.

The pipeline needs exact, reproducible gradients more than it needs raw
speed: everything is float64 and every reduction is deterministic.
Reproducibility comes from a fixed summation order, not from order-independent
summation. The edge aggregation ``_segment_mix`` and the attention mixing step
``attn_mix`` add their terms left to right from +0.0 in stored order: a
node's k edges in the order ``query_init.build_knn_edges`` gives them
(nearest first, ties to the lower slot), and the tau summaries in query
order. Both orders are functions of the pair set, so the pipeline's outputs
do not depend on how the grid was flattened. Softmax normalizers
(``row_softmax``) still sum in value-sorted order: the same helper normalizes
over grid cells, whose order is the caller's pair order. ``_scatter_add``,
every scatter of the library, adds each cell's rows in row order. Reductions
over feature axes keep numpy's fixed evaluation order, which is already
deterministic for a fixed operand layout.

A ``Tensor`` wraps an ndarray together with the closure that maps its output
gradient back onto its parents; graphs are built define-by-run. One MLP layer
is one tape node: ``linear`` fuses the product, the bias and the ReLU and
keeps only its output. The private array helpers (``_split_linear``, a first
layer split per node with its ReLU, ``_dense`` and their gradients, the ReLU
mask ``_zero_unless_positive``, ``_bilinear_scores`` and its gradients,
``_row_softmax``, ``_segment_mix``, ``_cell_scale``, ``_scatter_add``) are
forward and backward pieces with no tape of their own; the edge stage
(``edge_focus.edge_focus_update``) composes them into one node per query
chunk, and context infusion (``deep_context.infuse_context``) into one node
per query set. Both keep no hidden layer: their backward recomputes it with
the forward's calls (gradient checkpointing; Chen et al., "Training Deep
Nets with Sublinear Memory Cost", 2016). The fused nodes (``linear``, the
edge stage, context infusion) and their gradient helpers return the gradient
of every parent, a constant's too, and ``backward`` drops each
contribution to a parent that does not require grad; the small generic ops
(``mul``, ``matvec_rows``, ``scale_rows`` and the like) skip a constant
operand's product themselves. The ReLU runs in place as ``np.fmax(out,
0.0)`` followed by ``out += 0.0``, which gives the bits of a masked copy (NaN
and -0.0 become +0.0) in two plain passes; the split edge layer clears -0.0
per node before its gather and needs only the first. Inside ``no_grad()``
nothing is recorded. ``backward`` frees the graph as it goes: once a node has
propagated, its gradient, parents and closure are dropped, so a graph can be
swept once and only leaves keep a ``.grad``. A parent's first contribution
enters its gradient as ``contribution + 0.0``, a fresh array, and later ones
are added to it in the order the sweep reaches them, so no other node holds
the gradient a closure gets. Each ReLU's backward therefore masks in place,
with ``_zero_unless_positive`` (the bytes of ``np.where(out > 0, g, 0.0)``),
before the gradient helpers: ``linear`` and infusion mask the gradient they
get, and the fused nodes' other masks act on arrays they have just made
(``gh``, ``g @ W1ᵀ``, ``g_mean[cells]``). A change that skips that copy must
keep each node's gradient unshared. Ops take exact shapes and never
broadcast: ``add``, ``sub`` and ``mul`` need two equal shapes, and any shape
that does not fit raises ``ShapeError``. Tensors are treated as immutable once
created; the sanctioned exceptions are leaf parameters, whose ``data`` may be
updated *between* forward passes (SGD steps, finite-difference probes).
Independent forward passes may run concurrently; a backward pass owns its
graph.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ContractError, InvalidInputError, ShapeError

Array = np.ndarray
BackpropFn = Callable[[Array], tuple]


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 array plus its place in the gradient graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backprop: BackpropFn | None = None

    def item(self) -> float:
        if self.data.size != 1:
            raise InvalidInputError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Reverse sweep from a scalar; accumulates into ``.grad`` of the reachable leaves.

        Each interior node is released once it has propagated: its ``grad``
        becomes None and it drops its parents and closure, so the sweep frees
        the graph as it runs.
        """
        if self.data.size != 1:
            raise InvalidInputError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        self.grad = np.ones_like(self.data)
        pending = _toposort(self)
        pending.reverse()  # pop() yields the root first and drops the list's reference
        while pending:
            node = pending.pop()
            if node._backprop is None:
                continue
            for parent, contrib in zip(node._parents, node._backprop(node.grad)):
                if contrib is None or not parent.requires_grad:
                    continue
                # contrib may be node.grad or a view of it, so the first one is copied and no
                # two nodes share a gradient (adding 0.0 also maps -0.0 to +0.0)
                parent.grad = contrib + 0.0 if parent.grad is None else parent.grad + contrib
            node.grad, node._parents, node._backprop = None, (), None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __mul__(self, c) -> "Tensor":
        if not isinstance(c, (int, float)):
            raise TypeError(f"a Tensor scales only by a number, got {type(c).__name__}; use mul()")
        c = float(c)
        return _make(self.data * c, (self,), lambda g: (g * c,))

    __rmul__ = __mul__


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through unchanged."""
    return x if isinstance(x, Tensor) else Tensor(x)


_recording: ContextVar[bool] = ContextVar("gqn_autodiff_recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Record nothing inside: every op returns a constant tensor and keeps no parents.

    Forward values are unchanged; leaves keep their ``requires_grad``. The flag
    is per thread (a context variable), so a forward pass elsewhere still records.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _make(data: Array, parents: tuple[Tensor, ...], backprop: BackpropFn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents) and _recording.get():
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
    return out


def _toposort(root: Tensor) -> list[Tensor]:
    """Graph nodes ordered root-first, every node after all of its consumers."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    order.reverse()
    return order


# ----------------------------------------------------------------------------
# elementwise / linear ops


def _equal_shapes(op: str, a, b) -> tuple[Tensor, Tensor]:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op} needs equal shapes, got {a.data.shape} and {b.data.shape}")
    return a, b


def add(a, b) -> Tensor:
    a, b = _equal_shapes("add", a, b)
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _equal_shapes("sub", a, b)
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _equal_shapes("mul", a, b)

    def backprop(g):
        ga = g * b.data if a.requires_grad else None
        gb = g * a.data if b.requires_grad else None
        return ga, gb

    return _make(a.data * b.data, (a, b), backprop)


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b.T`` for two (r, d) matrices."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(f"matmul_nt mismatch {a.data.shape} x {b.data.shape}")

    def backprop(g):
        ga = g @ b.data if a.requires_grad else None
        gb = g.T @ a.data if b.requires_grad else None
        return ga, gb

    return _make(a.data @ b.data.T, (a, b), backprop)


def matvec_rows(a: Tensor, xs: Tensor) -> Tensor:
    """Row q of the (Q, m) result is ``a @ xs[q]`` for an (m, d) matrix and (Q, d) rows.

    Each row is its own matrix-vector product, so it carries the bits of
    ``a @ xs[q]`` for that vector alone; one GEMM would round differently.
    """
    if a.data.ndim != 2 or xs.data.ndim != 2 or a.data.shape[1] != xs.data.shape[1]:
        raise ShapeError(f"matvec_rows mismatch {a.data.shape} @ {xs.data.shape}^T")
    out = np.empty((xs.data.shape[0], a.data.shape[0]))
    for q, x in enumerate(xs.data):
        out[q] = a.data @ x

    def backprop(g):
        ga = g.T @ xs.data if a.requires_grad else None
        gx = g @ a.data if xs.requires_grad else None
        return ga, gx

    return _make(out, (a, xs), backprop)


def _relu_inplace(out: Array) -> None:
    """Map every entry of ``out`` that is not > 0 (-0.0 and NaN included) to +0.0, in place.

    ``fmax`` returns the other operand for NaN; it may keep -0.0 against 0.0,
    and adding 0.0 turns that -0.0 into +0.0 and leaves every other value as it is.
    The second pass is needed only where -0.0 can occur: the edge form of
    ``_split_linear`` clears it per node, before the gather, and takes ``fmax`` alone.
    """
    np.fmax(out, 0.0, out=out)
    out += 0.0


def _dense(x: Array, w: Array, b: Array) -> Array:
    """``x @ w``, plus ``b`` in place."""
    out = x @ w
    out += b
    return out


def _zero_unless_positive(g: Array, x: Array) -> Array:
    """Zero ``g`` in place where ``x`` (g's shape, or a (rows, 1) column) is not > 0; return it.

    The bytes of ``np.where(x > 0, g, 0.0)``, NaN, ±inf and -0.0 included: ``x > 0`` as
    int8, negated, is 0 or -1 (all bits set), and ANDed with g's int64 bits it keeps an
    entry or clears it to +0.0. No float array is made; ``g`` must be the caller's own.
    """
    keep = np.greater(x, 0.0).view(np.int8)
    np.negative(keep, out=keep)
    np.bitwise_and(g.view(np.int64), keep, out=g.view(np.int64))
    return g


def _dense_grads(g: Array, x: Array, w: Array) -> tuple:
    """Gradients of ``_dense`` for ``x``, ``w`` and ``b``; a ReLU's mask is the caller's."""
    return g @ w.T, x.T @ g, g.sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One MLP layer as one tape node: ``x @ w``, plus ``b``, then ReLU if asked.

    The bias and the ReLU act in place on the product, so the layer keeps only
    its output. ReLU maps every entry that is not > 0 (-0.0 and NaN included)
    to +0.0; its backward zeroes the gradient where ``out`` is not > 0.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear mismatch {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear bias {b.data.shape} vs {w.data.shape[1]} outputs")
    out = _dense(x.data, w.data, b.data)
    if relu:
        _relu_inplace(out)
    return _make(out, (x, w, b), lambda g: _dense_grads(
        _zero_unless_positive(g, out) if relu else g, x.data, w.data))


def _split_linear(a: Array, b: Array, w: Array, bias: Array, rows: Array | None, k: int) -> Array:
    """A first MLP layer over the halves ``[a || b[rows]]``, with its ReLU, without the concat.

    W_a, the top rows of ``w`` (as many as ``a`` has columns), multiplies ``a``;
    W_b, the rest, multiplies ``b``. Both products are per row of their operand,
    and only the sums are gathered:

    - ``k == 0``: ``a W_a + (b W_b)[rows] + bias``. ``rows`` None means b's own
      rows, one per row of ``a``.
    - ``k > 0``: the edge form ``[a[rows] - a[src] || b[rows]]`` for edges
      grouped by source, k per row of ``a`` (src = i // k), as
      ``(a W_a + b W_b + bias)[rows] - (a W_a)[src]``: the bias is added per
      node, before the gather.

    The bias and the ReLU act in place, as in ``_dense``. In the edge form the
    ReLU is one pass over the (n*k, d) output: ``0.0`` is added to the per-node
    sum before the gather, so no gathered difference is -0.0 and ``np.fmax``
    alone gives the bits of ``_relu_inplace``.
    """
    d_a = a.shape[1]
    h = a @ w[:d_a]
    c = b @ w[d_a:]
    if k:
        c += h
        c += bias
        c += 0.0  # clears -0.0; a rounded difference is -0.0 only if its minuend is
        out = c[rows]
        by_source = out.reshape(a.shape[0], k, w.shape[1])
        by_source -= h[:, None, :]
        np.fmax(out, 0.0, out=out)
        return out
    out = h
    out += c if rows is None else c[rows]
    out += bias
    _relu_inplace(out)
    return out


def _split_linear_grads(g: Array, a: Array, b: Array, w: Array, rows: Array | None,
                        k: int) -> tuple:
    """Gradients of ``_split_linear`` for ``a``, ``b``, ``w`` and ``bias``, from a masked ``g``.

    The gathered rows scatter back with one weighted ``np.bincount`` over the
    flat index ``rows * d_out + column``: each entry adds its terms left to
    right from +0.0 in row order, the bits of ``np.add.at`` into zeros.
    """
    (n, d_a), (m, d_out) = a.shape, (b.shape[0], w.shape[1])
    if rows is None:
        gc = g
    else:
        flat = (rows[:, None] * d_out + np.arange(d_out)).ravel()
        gc = np.bincount(flat, g.ravel(), m * d_out).reshape(m, d_out)
    gh = gc - g.reshape(n, k, d_out).sum(axis=1) if k else g
    gw = np.empty_like(w)
    gw[:d_a] = a.T @ gh
    gw[d_a:] = b.T @ gc
    return gh @ w[:d_a].T, gc @ w[d_a:].T, gw, g.sum(axis=0)


def _bilinear_scores(x: Array, wq: Array, bq: Array, wk: Array, bk: Array) -> Array:
    """Row-wise dot products of ``x @ wq + bq`` and ``x @ wk + bk``, as one bilinear form.

    ``(x Wq + bq)·(x Wk + bk) = x A xᵀ + x·c + bq·bk`` with ``A = Wq Wkᵀ`` and
    ``c = Wq bk + Wk bq``, the key-query matrix of Cordonnier, Loukas & Jaggi
    ("Multi-Head Attention: Collaborate Instead of Concatenate", 2020): one
    (rows, d) x (d, d) product instead of two projections. The tail is two
    passes, ``y = x A + c`` in place and ``np.einsum("ij,ij->i", y, x)``; every
    row's bits are the same inside any slice of rows, so a chunk scores each
    query as it would alone. (``x·c`` as its own matrix-vector product would
    not be: OpenBLAS rounds a slice's rows differently from the whole.)
    """
    c = wq @ bk
    c += wk @ bq
    y = x @ (wq @ wk.T)
    y += c
    out = np.einsum("ij,ij->i", y, x)
    out += bq @ bk
    return out


def _bilinear_score_grads(g: Array, x: Array, wq: Array, bq: Array, wk: Array,
                          bk: Array) -> tuple:
    """Gradients of ``_bilinear_scores`` for ``x``, ``wq``, ``bq``, ``wk`` and ``bk``.

    Two row-sized products: ``x (A + Aᵀ)`` for ``x`` and ``G = xᵀ diag(g) x``
    for the weights, from which ``gWq = G Wk + s bkᵀ`` and ``gWk = Gᵀ Wq + s bqᵀ``
    with ``s = xᵀ g``. ``A`` and ``c`` are formed again from the weights.
    """
    a = wq @ wk.T
    c = wq @ bk
    c += wk @ bq
    gx = x @ (a + a.T)
    gx += c
    gx *= g[:, None]
    s = x.T @ g
    gram = (x * g[:, None]).T @ x
    total = g.sum()
    return (gx, gram @ wk + np.outer(s, bk), wk.T @ s + total * bk,
            gram.T @ wq + np.outer(s, bq), wq.T @ s + total * bq)


# ----------------------------------------------------------------------------
# reductions and structural ops


def sum_all(t: Tensor) -> Tensor:
    return _make(t.data.sum(), (t,), lambda g: (np.broadcast_to(g, t.data.shape).copy(),))


def mean_all(t: Tensor) -> Tensor:
    n = t.data.size
    return _make(t.data.mean(), (t,), lambda g: (np.broadcast_to(g / n, t.data.shape).copy(),))


def row_softmax(t: Tensor) -> Tensor:
    """Per-row stable softmax of a matrix, with value-sorted row normalizers.

    The sort keeps each normalizer independent of the order of the row's
    entries: query scoring normalizes over grid cells, which arrive in the
    caller's pair order.
    """
    if t.data.ndim != 2 or t.data.shape[1] == 0:
        raise ShapeError(f"row_softmax needs a non-empty matrix, got shape {t.data.shape}")
    p = _row_softmax(t.data)
    return _make(p, (t,), lambda g: (_row_softmax_grad(g, p),))


def _row_softmax(x: Array) -> Array:
    if not np.isfinite(x).all():
        raise InvalidInputError("row_softmax input contains non-finite entries")
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / np.sort(e, axis=1).sum(axis=1, keepdims=True)


def _row_softmax_grad(g: Array, p: Array) -> Array:
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def scale_rows(t: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of a (rows, cols) tensor by s[i]."""
    if t.data.ndim != 2 or s.data.shape != (t.data.shape[0],):
        raise ShapeError(f"scale_rows mismatch {t.data.shape} x {s.data.shape}")

    def backprop(g):
        gt = g * s.data[:, None] if t.requires_grad else None
        gs = (g * t.data).sum(axis=1) if s.requires_grad else None
        return gt, gs

    return _make(t.data * s.data[:, None], (t, s), backprop)


def gather_rows(t: Tensor, idx) -> Tensor:
    """Select rows (or entries of a vector) by integer index; duplicates allowed."""
    idx = np.asarray(idx, dtype=np.intp)

    def backprop(g):
        if not t.requires_grad:
            return (None,)
        z = np.zeros(t.data.shape)
        _scatter_add(z, idx, g)
        return (z,)

    return _make(t.data[idx], (t,), backprop)


def column(t: Tensor, j: int) -> Tensor:
    """Column j of a matrix as a vector."""
    j = int(j)

    def backprop(g):
        z = np.zeros_like(t.data)
        z[:, j] = g
        return (z,)

    return _make(t.data[:, j].copy(), (t,), backprop)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate equal-row matrices along channels; only parts needing a gradient are parents."""
    parts = [as_tensor(p) for p in parts]
    rows = {p.data.shape[0] for p in parts}
    if len(rows) != 1 or any(p.data.ndim != 2 for p in parts):
        raise ShapeError(f"concat_cols needs matrices with equal rows, got {[p.data.shape for p in parts]}")
    bounds = np.cumsum([0] + [p.data.shape[1] for p in parts])
    live = [i for i, p in enumerate(parts) if p.requires_grad]

    def backprop(g):
        return tuple(g[:, bounds[i]:bounds[i + 1]] for i in live)

    return _make(np.concatenate([p.data for p in parts], axis=1),
                 tuple(parts[i] for i in live), backprop)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = t.data.shape
    return _make(t.data.reshape(shape), (t,), lambda g: (g.reshape(orig),))


def _segment_mix(t: Array, w: Array, k: int) -> Array:
    """Weighted sum over consecutive groups of k rows: (n*k, c), (n*k,) -> (n, c).

    Each group adds its k weighted rows left to right from +0.0, in stored
    order, one (n, c) lane at a time. So the bits of a group's sum follow its
    row order; the edge stage stores each node's edges in the canonical order
    ``query_init.build_knn_edges`` gives them. One lane at a time keeps that
    order for one channel too, where numpy's reductions over a contiguous
    axis would sum pairwise.
    """
    if t.ndim != 2 or t.shape[0] % k != 0:
        raise ShapeError(f"segment_mix: {t.shape} not divisible into groups of {k}")
    if w.shape != (t.shape[0],):
        raise ShapeError(f"segment_mix weights {w.shape} vs rows {t.shape[0]}")
    n, c = t.shape[0] // k, t.shape[1]
    rows, weights = t.reshape(n, k, c), w.reshape(n, k, 1)
    out = np.zeros((n, c))
    for i in range(k):
        out += rows[:, i] * weights[:, i]
    return out


def _segment_mix_grads(g: Array, t: Array, w: Array, k: int) -> tuple[Array, Array]:
    """Gradients of ``_segment_mix`` for ``t`` and ``w``."""
    expanded = np.repeat(g, k, axis=0)
    return expanded * w[:, None], (expanded * t).sum(axis=1)


def max_rows(t: Tensor, groups: int = 1) -> Tensor:
    """Columnwise maximum of each of ``groups`` equal blocks of consecutive rows.

    A (groups * r, c) matrix gives (groups, c); within a block the gradient
    routes to the first argmax.
    """
    if t.data.ndim != 2 or groups < 1 or t.data.shape[0] == 0 or t.data.shape[0] % groups:
        raise ContractError(f"max_rows needs {groups} non-empty equal row blocks, "
                            f"got shape {t.data.shape}")
    blocks = t.data.reshape(groups, -1, t.data.shape[1])
    idx = blocks.argmax(axis=1)[:, None, :]

    def backprop(g):
        z = np.zeros_like(blocks)
        np.put_along_axis(z, idx, g[:, None, :], axis=1)
        return (z.reshape(t.data.shape),)

    return _make(blocks.max(axis=1), (t,), backprop)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate matrices along rows, in order; a vector counts as one row."""
    parts = [as_tensor(p) for p in parts]
    if not parts or any(p.data.ndim not in (1, 2) for p in parts):
        raise ShapeError("concat_rows needs a non-empty list of vectors or matrices")
    blocks = [p.data.reshape(-1, p.data.shape[-1]) for p in parts]
    if len({b.shape[1] for b in blocks}) != 1:
        raise ShapeError(f"concat_rows needs equal widths, got {[p.data.shape for p in parts]}")
    splits = np.cumsum([len(b) for b in blocks])[:-1]

    def backprop(g):
        pieces = np.split(g, splits, axis=0)
        return tuple(piece.reshape(p.data.shape) if p.requires_grad else None
                     for piece, p in zip(pieces, parts))

    return _make(np.concatenate(blocks, axis=0), tuple(parts), backprop)


def attn_mix(weights: Tensor, values: Tensor) -> Tensor:
    """Attention mixing ``weights @ values``, each output row summed in row order of ``values``.

    Row i adds ``weights[i, j] * values[j]`` for j = 0, 1, ... left to right
    from +0.0, one (rows, d) term at a time, so its bits are a fixed function
    of the stored order of the set (for one channel too, where a matrix
    product or numpy's contiguous reductions would sum in another order).
    """
    if weights.data.ndim != 2 or weights.data.shape[1] != values.data.shape[0]:
        raise ShapeError(f"attn_mix mismatch {weights.data.shape} @ {values.data.shape}")
    out = np.zeros((weights.data.shape[0], values.data.shape[1]))
    for w_j, v_j in zip(weights.data.T[:, :, None], values.data):
        out += w_j * v_j

    def backprop(g):
        gw = g @ values.data.T if weights.requires_grad else None
        gv = weights.data.T @ g if values.requires_grad else None
        return gw, gv

    return _make(out, (weights, values), backprop)


def _cell_scale(cells: Array, num_cells: int) -> Array:
    """Per cell, 1 / the number of entries of ``cells`` naming it, or 0 where none does.

    Raises ``InvalidInputError`` for a cell outside [0, num_cells).
    """
    if len(cells) and not 0 <= cells.min() <= cells.max() < num_cells:
        raise InvalidInputError(f"cell indices outside [0, {num_cells})")
    counts = np.bincount(cells, minlength=num_cells)
    return np.divide(1.0, counts, out=np.zeros(num_cells), where=counts > 0)


def _scatter_add(acc: Array, cells: Array, rows: Array) -> None:
    """``np.add.at(acc, cells, rows)`` for an (m, c) or (m,) ``acc``: row i adds into ``cells[i]``.

    Each entry of ``acc`` adds its terms left to right in row order. The adds
    run as one 1-D ``np.add.at`` over the flat index ``cells * c + channel``
    (c = 1 for a vector): the bits of the 2-D call in a fraction of its time.
    ``acc`` must be C-contiguous, so that the flat view writes into it, and
    ``cells`` must lie in [0, m).
    """
    width = math.prod(acc.shape[1:])
    np.add.at(acc.reshape(-1), (cells[:, None] * width + np.arange(width)).ravel(), rows.ravel())


# ----------------------------------------------------------------------------
# parameters, MLPs, attention


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, input first. Every layer has a bias; every hidden layer applies ReLU."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ConfigError(f"bad MLP widths {self.widths}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


def _param_rng(seed: int, name: str) -> np.random.Generator:
    # Name-keyed counter-based streams: init is independent of registration order.
    digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


class ParamStore:
    """Named parameter tensors with seeded, name-keyed initialization.

    Weights are uniform in [-a, a] with a = sqrt(6 / (fan_in + fan_out)). The
    fans are a matrix's shape, and (d, d) for a (d,) vector, so a vector's
    bound is sqrt(6 / (2d)). Biases start at zero. Names are grouped by their
    prefix before '/'.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, shape: Sequence[int], init: str = "uniform") -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        shape = tuple(int(s) for s in shape)
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "uniform":
            fans = shape if len(shape) == 2 else (shape[0], shape[0])
            a = math.sqrt(6.0 / (fans[0] + fans[1]))
            data = _param_rng(self.seed, name).uniform(-a, a, size=shape)
        else:
            raise ConfigError(f"unknown init scheme {init!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def register_mlp(self, name: str, spec: MlpSpec) -> None:
        for i in range(spec.n_layers):
            w_in, w_out = spec.widths[i], spec.widths[i + 1]
            self.register(f"{name}/W{i}", (w_in, w_out))
            self.register(f"{name}/b{i}", (w_out,), init="zeros")

    def layers(self, name: str) -> list[tuple[Tensor, Tensor]]:
        """The ``(W{i}, b{i})`` pairs ``register_mlp`` made under ``name``, in layer order;
        empty for a name it did not register."""
        out = []
        while (w := self._params.get(f"{name}/W{len(out)}")) is not None:
            out.append((w, self._params[f"{name}/b{len(out)}"]))
        return out

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(sorted(self._params.items()))

    def groups(self) -> list[str]:
        return sorted({name.split("/", 1)[0] for name in self._params})

    def group_items(self, group: str) -> list[tuple[str, Tensor]]:
        prefix = group + "/"
        return [(n, t) for n, t in sorted(self._params.items()) if n.startswith(prefix)]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


def mlp_forward(spec: MlpSpec, params: ParamStore, name: str, x: Tensor) -> Tensor:
    """Apply the named MLP to a (rows, w_in) matrix, one ``linear`` node per layer.

    The stored layers (``ParamStore.layers``) must be exactly the spec's:
    ``spec.n_layers`` of them, of its widths; anything else raises ``ShapeError``.
    """
    layers = params.layers(name)
    stored = [(w.data.shape, b.data.shape) for w, b in layers]
    widths = spec.widths
    if stored != [((w_in, w_out), (w_out,)) for w_in, w_out in zip(widths, widths[1:])]:
        raise ShapeError(f"MLP {name!r} of widths {widths} stores layers {stored}")
    if x.data.ndim != 2 or x.data.shape[1] != widths[0]:
        raise ShapeError(f"MLP {name!r} expects width {widths[0]}, got input shape {x.data.shape}")
    for i, (w, b) in enumerate(layers):
        x = linear(x, w, b, relu=i < len(layers) - 1)
    return x


def _check_split_mlp(name: str, a: Array, b: Array, layers: list[tuple[Array, Array]],
                     rows: Array | None, k: int) -> None:
    """Raise ``ShapeError`` unless a split MLP can run these shapes.

    A split MLP has exactly two layers, ``[(W0, b0), (W1, b1)]``: the first
    runs as ``_split_linear(a, b, W0, b0, rows, k)``, the second as ``_dense``
    without a ReLU. W0's rows are the widths of ``a`` and ``b`` together.
    """
    if len(layers) != 2:
        raise ShapeError(f"split MLP {name!r} needs exactly two layers, got {len(layers)}")
    (w0, b0), (w1, b1) = layers
    if a.ndim != 2 or b.ndim != 2 or w0.ndim != 2 or w1.ndim != 2:
        raise ShapeError(f"split MLP {name!r} needs matrices, got {a.shape}, {b.shape}, "
                         f"{w0.shape}, {w1.shape}")
    (n, d_a), (m, d_b) = a.shape, b.shape
    if not 0 < d_a < w0.shape[0] or d_b != w0.shape[0] - d_a or b0.shape != (w0.shape[1],):
        raise ShapeError(f"split MLP {name!r} mismatch [{a.shape} || {b.shape}] @ "
                         f"{w0.shape} + {b0.shape}")
    if k and (m != n or rows is None):
        raise ShapeError("a split MLP's edge form needs halves of equal rows and edge targets")
    if (rows is None and m != n) or (rows is not None and rows.shape != (n * max(k, 1),)):
        raise ShapeError(f"split MLP {name!r}: rows {None if rows is None else rows.shape} for "
                         f"{n} rows of a, {m} of b, k={k}")
    if w1.shape[0] != w0.shape[1] or b1.shape != (w1.shape[1],):
        raise ShapeError(f"split MLP {name!r} layers {w0.shape} then {w1.shape} + {b1.shape}")


def register_attention(params: ParamStore, name: str, d: int) -> None:
    """Register query/key/value projections for one shared attention layer."""
    for proj in ("Wq", "Wk", "Wv"):
        params.register(f"{name}/{proj}", (d, d))
    for proj in ("bq", "bk", "bv"):
        params.register(f"{name}/{proj}", (d,), init="zeros")


def self_attention_layer(x: Tensor, params: ParamStore, name: str) -> Tensor:
    """Single-head scaled dot-product self-attention with a residual add.

    Operates on a (tau, d) set of vectors, in their stored order. Permuting
    the rows permutes the output up to rounding: ``attn_mix`` sums each row's
    tau terms in the stored order, which the pipeline fixes as query order.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"self_attention_layer needs (tau, d), got {x.data.shape}")
    d = x.data.shape[1]
    if params[f"{name}/Wq"].data.shape != (d, d):
        raise ShapeError(f"attention projections of {name!r} do not match input width {d}")
    q = linear(x, params[f"{name}/Wq"], params[f"{name}/bq"])
    k = linear(x, params[f"{name}/Wk"], params[f"{name}/bk"])
    v = linear(x, params[f"{name}/Wv"], params[f"{name}/bv"])
    scores = matmul_nt(q, k) * (1.0 / math.sqrt(d))
    return add(x, attn_mix(row_softmax(scores), v))


# ----------------------------------------------------------------------------
# gradients: full backward + finite-difference verification


def backward(loss: Tensor, params: ParamStore) -> dict[str, Array]:
    """Backprop from a scalar loss; returns a name -> gradient map.

    Parameters unreachable from the loss get (and keep) zero gradients.
    """
    params.zero_grad()
    loss.backward()
    grads: dict[str, Array] = {}
    for name, t in params.items():
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        grads[name] = t.grad.copy()
    return grads


def _eval_scalar(fn, params: ParamStore) -> float:
    r = fn(params)
    return r.item() if isinstance(r, Tensor) else float(r)


def grad_check_groups(fn, params: ParamStore, eps: float = 1e-5,
                      max_coords_per_param: int | None = None, seed: int = 0) -> dict[str, float]:
    """Max relative error between backprop and central differences, per group.

    Relative error is |analytic - numeric| / max(1, |analytic|, |numeric|),
    maximized over sampled coordinates. ``fn`` must be a deterministic map
    from the parameter store to a scalar.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise InvalidInputError(f"eps={eps} outside [1e-7, 1e-3]")
    if _eval_scalar(fn, params) != _eval_scalar(fn, params):
        raise ContractError("fn is not deterministic: two evaluations differ")
    analytic = backward(fn(params), params)
    rng = np.random.Generator(np.random.Philox(key=seed))
    errs = {g: 0.0 for g in params.groups()}
    for name, t in params.items():
        group = name.split("/", 1)[0]
        size = t.data.size
        if max_coords_per_param is None or size <= max_coords_per_param:
            coords = np.arange(size)
        else:
            coords = np.sort(rng.choice(size, size=max_coords_per_param, replace=False))
        flat = t.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            fp = _eval_scalar(fn, params)
            flat[c] = orig - eps
            fm = _eval_scalar(fn, params)
            flat[c] = orig
            numeric = (fp - fm) / (2.0 * eps)
            ana = float(analytic[name].reshape(-1)[c])
            err = abs(ana - numeric) / max(1.0, abs(ana), abs(numeric))
            if err > errs[group]:
                errs[group] = err
    return errs


def grad_check(fn, params: ParamStore, eps: float = 1e-5,
               max_coords_per_param: int | None = None, seed: int = 0) -> float:
    """Max relative error over all sampled coordinates of all parameters."""
    errs = grad_check_groups(fn, params, eps=eps, max_coords_per_param=max_coords_per_param, seed=seed)
    return max(errs.values()) if errs else 0.0
