"""Minimal reverse-mode autodiff over float64 numpy arrays.

The pipeline needs exact, reproducible gradients more than it needs raw
speed: everything is float64 and every reduction is deterministic. The few
reductions that range over *set-valued* axes (softmax normalizers, the
attention mixing step) sum their terms in value-sorted order, so results are
bit-identical under any permutation of the set being reduced. Reductions over
feature axes keep numpy's fixed evaluation order, which is already
deterministic for a fixed operand layout.

A ``Tensor`` wraps an ndarray together with the closure that maps its output
gradient back onto its parents; graphs are built define-by-run. One MLP layer
is one tape node: ``linear`` fuses the product, the bias and the ReLU and keeps
only its output. ``backward`` frees the graph as it goes: once a node has
propagated, its gradient, parents and closure are dropped, so a graph can be
swept once and only leaves keep a ``.grad``. Tensors are treated as immutable
once created; the sanctioned exceptions are leaf parameters, whose ``data``
may be updated *between* forward passes (SGD steps, finite-difference
probes). Independent forward passes may run concurrently; a backward pass
owns its graph.
"""

from __future__ import annotations

import hashlib
import math
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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad = parent.grad + contrib
            node.grad, node._parents, node._backprop = None, (), None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; everything routes through the module-level ops.
    def __add__(self, other) -> "Tensor":
        return add(self, other)

    def __sub__(self, other) -> "Tensor":
        return sub(self, other)

    def __neg__(self) -> "Tensor":
        return _make(-self.data, (self,), lambda g: (-g,))

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            c = float(other)
            return _make(self.data * c, (self,), lambda g: (g * c,))
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        if self.data.ndim == 2 and other.data.ndim == 2:
            return matmul(self, other)
        if self.data.ndim == 2 and other.data.ndim == 1:
            return matvec(self, other)
        if self.data.ndim == 1 and other.data.ndim == 1:
            return dot(self, other)
        raise ShapeError(f"unsupported matmul ranks {self.data.ndim} @ {other.data.ndim}")


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through unchanged."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: Array, parents: tuple[Tensor, ...], backprop: BackpropFn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
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


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape`` (numpy trailing rules)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ----------------------------------------------------------------------------
# elementwise / linear ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backprop(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), backprop)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch {a.data.shape} @ {b.data.shape}")

    def backprop(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _make(a.data @ b.data, (a, b), backprop)


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b.T`` for two (r, d) matrices."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(f"matmul_nt mismatch {a.data.shape} x {b.data.shape}")

    def backprop(g):
        ga = g @ b.data if a.requires_grad else None
        gb = g.T @ a.data if b.requires_grad else None
        return ga, gb

    return _make(a.data @ b.data.T, (a, b), backprop)


def matvec(a: Tensor, x: Tensor) -> Tensor:
    if a.data.ndim != 2 or x.data.ndim != 1 or a.data.shape[1] != x.data.shape[0]:
        raise ShapeError(f"matvec mismatch {a.data.shape} @ {x.data.shape}")

    def backprop(g):
        ga = np.outer(g, x.data) if a.requires_grad else None
        gx = a.data.T @ g if x.requires_grad else None
        return ga, gx

    return _make(a.data @ x.data, (a, x), backprop)


def matvec_rows(a: Tensor, xs: Tensor) -> Tensor:
    """Row q of the (Q, m) result is ``a @ xs[q]`` for an (m, d) matrix and (Q, d) rows.

    Each row is its own matrix-vector product, so it carries the bits ``matvec``
    gives for that vector alone; one GEMM would round differently.
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


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape or a.data.ndim != 1:
        raise ShapeError(f"dot mismatch {a.data.shape} . {b.data.shape}")
    return _make(a.data @ b.data, (a, b), lambda g: (g * b.data, g * a.data))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False) -> Tensor:
    """One MLP layer as one tape node: ``x @ w``, plus ``b``, then ReLU if asked.

    The bias and the ReLU act in place on the product, so the layer keeps only
    its output. ReLU maps every entry that is not > 0 (-0.0 and NaN included)
    to 0.0; its backward rebuilds the mask from ``out > 0``.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear mismatch {x.data.shape} @ {w.data.shape}")
    if b is not None and b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear bias {b.data.shape} vs {w.data.shape[1]} outputs")
    out = x.data @ w.data
    if b is not None:
        out += b.data
    if relu:
        np.copyto(out, 0.0, where=~(out > 0.0))

    def backprop(g):
        if relu:
            g = np.where(out > 0.0, g, 0.0)
        gx = g @ w.data.T if x.requires_grad else None
        gw = x.data.T @ g if w.requires_grad else None
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=0) if b.requires_grad else None

    return _make(out, (x, w) if b is None else (x, w, b), backprop)


# ----------------------------------------------------------------------------
# reductions and structural ops


def sum_all(t: Tensor) -> Tensor:
    return _make(t.data.sum(), (t,), lambda g: (np.broadcast_to(g, t.data.shape).copy(),))


def mean_all(t: Tensor) -> Tensor:
    n = t.data.size
    return _make(t.data.mean(), (t,), lambda g: (np.broadcast_to(g / n, t.data.shape).copy(),))


def rowdot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise dot products of two (rows, cols) tensors -> (rows,), as one tape node."""
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise ShapeError(f"rowdot needs equal-shape matrices, got {a.data.shape} . {b.data.shape}")

    def backprop(g):
        ga = g[:, None] * b.data if a.requires_grad else None
        gb = g[:, None] * a.data if b.requires_grad else None
        return ga, gb

    return _make((a.data * b.data).sum(axis=1), (a, b), backprop)


def softmax(scores) -> Tensor:
    """Stable softmax of a non-empty finite vector.

    The normalizer sums exp-terms in value-sorted order, so the output is
    bit-identical under any permutation of the input entries.
    """
    t = as_tensor(scores)
    v = t.data
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError(f"softmax needs a non-empty vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidInputError("softmax input contains non-finite entries")
    e = np.exp(v - v.max())
    p = e / np.sort(e).sum()

    def backprop(g):
        return (p * (g - (g * p).sum()),)

    return _make(p, (t,), backprop)


def row_softmax(t: Tensor) -> Tensor:
    """Per-row stable softmax of a matrix, with value-sorted row normalizers."""
    if t.data.ndim != 2 or t.data.shape[1] == 0:
        raise ShapeError(f"row_softmax needs a non-empty matrix, got shape {t.data.shape}")
    if not np.isfinite(t.data).all():
        raise InvalidInputError("row_softmax input contains non-finite entries")
    e = np.exp(t.data - t.data.max(axis=1, keepdims=True))
    p = e / np.sort(e, axis=1).sum(axis=1, keepdims=True)

    def backprop(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _make(p, (t,), backprop)


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
        z = np.zeros_like(t.data)
        np.add.at(z, idx, g)
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
    """Concatenate matrices with equal row counts along the channel axis."""
    parts = [as_tensor(p) for p in parts]
    rows = {p.data.shape[0] for p in parts}
    if len(rows) != 1 or any(p.data.ndim != 2 for p in parts):
        raise ShapeError(f"concat_cols needs matrices with equal rows, got {[p.data.shape for p in parts]}")
    widths = [p.data.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def backprop(g):
        pieces = np.split(g, splits, axis=1)
        return tuple(piece if p.requires_grad else None for piece, p in zip(pieces, parts))

    return _make(np.concatenate([p.data for p in parts], axis=1), tuple(parts), backprop)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = t.data.shape
    return _make(t.data.reshape(shape), (t,), lambda g: (g.reshape(orig),))


def segment_mix(t: Tensor, w: Tensor, k: int) -> Tensor:
    """Weighted sum over consecutive groups of k rows: (n*k, c), (n*k,) -> (n, c).

    Group addends are summed in value-sorted order, so the result is
    bit-identical under any reordering of a group's rows (with their weights).
    """
    if t.data.ndim != 2 or t.data.shape[0] % k != 0:
        raise ShapeError(f"segment_mix: {t.data.shape} not divisible into groups of {k}")
    if w.data.shape != (t.data.shape[0],):
        raise ShapeError(f"segment_mix weights {w.data.shape} vs rows {t.data.shape[0]}")
    n, c = t.data.shape[0] // k, t.data.shape[1]
    terms = (t.data * w.data[:, None]).reshape(n, k, c)
    out = np.sort(terms, axis=1).sum(axis=1)

    def backprop(g):
        expanded = np.repeat(g, k, axis=0)
        gt = expanded * w.data[:, None] if t.requires_grad else None
        gw = (expanded * t.data).sum(axis=1) if w.requires_grad else None
        return gt, gw

    return _make(out, (t, w), backprop)


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
    """Attention mixing ``weights @ values`` with permutation-stable summation.

    Each output element sums its tau addends in value-sorted order, making the
    result bit-identical when rows of the set are permuted consistently.
    """
    if weights.data.ndim != 2 or weights.data.shape[1] != values.data.shape[0]:
        raise ShapeError(f"attn_mix mismatch {weights.data.shape} @ {values.data.shape}")
    terms = weights.data[:, :, None] * values.data[None, :, :]
    out = np.sort(terms, axis=1).sum(axis=1)

    def backprop(g):
        gw = g @ values.data.T if weights.requires_grad else None
        gv = weights.data.T @ g if values.requires_grad else None
        return gw, gv

    return _make(out, (weights, values), backprop)


def scatter_mean(contributions: Sequence[tuple[Array, Tensor]], num_cells: int) -> Tensor:
    """Average row contributions into cells: out[c] = sum(rows hitting c) / count.

    Cells touched by no contribution stay zero. Contribution order is the
    caller's; accumulation follows it deterministically.
    """
    if not contributions:
        raise ContractError("scatter_mean needs at least one contribution")
    idxs = [np.asarray(ix, dtype=np.intp) for ix, _ in contributions]
    tensors = [t for _, t in contributions]
    width = tensors[0].data.shape[1]
    acc = np.zeros((num_cells, width))
    cnt = np.zeros(num_cells)
    for ix, t in zip(idxs, tensors):
        if t.data.ndim != 2 or t.data.shape != (len(ix), width):
            raise ShapeError(f"scatter_mean contribution mismatch {t.data.shape} vs {len(ix)} indices")
        np.add.at(acc, ix, t.data)
        np.add.at(cnt, ix, 1.0)
    scale = 1.0 / np.maximum(cnt, 1.0)
    out = acc * scale[:, None]

    def backprop(g):
        gs = g * scale[:, None]
        return tuple(gs[ix] if t.requires_grad else None for ix, t in zip(idxs, tensors))

    return _make(out, tuple(tensors), backprop)


# ----------------------------------------------------------------------------
# parameters, MLPs, attention


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input first), per-layer activation, per-layer bias flag."""

    widths: tuple[int, ...]
    activations: tuple[str, ...]
    biases: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.widths) - 1
        if n < 1 or any(w < 1 for w in self.widths):
            raise ConfigError(f"bad MLP widths {self.widths}")
        if len(self.activations) != n or len(self.biases) != n:
            raise ConfigError("activations/biases must have one entry per layer")
        if any(a not in ("relu", "none") for a in self.activations):
            raise ConfigError(f"unknown activation in {self.activations}")
        if self.activations[-1] != "none":
            raise ConfigError("final layer activation must be 'none'")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @classmethod
    def relu_stack(cls, widths: Sequence[int]) -> "MlpSpec":
        """ReLU on hidden layers, linear output, biases everywhere."""
        n = len(widths) - 1
        return cls(tuple(widths), ("relu",) * (n - 1) + ("none",), (True,) * n)

    @classmethod
    def linear(cls, w_in: int, w_out: int, bias: bool = True) -> "MlpSpec":
        return cls((w_in, w_out), ("none",), (bias,))


def _param_rng(seed: int, name: str) -> np.random.Generator:
    # Name-keyed counter-based streams: init is independent of registration order.
    digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


class ParamStore:
    """Named parameter tensors with seeded, name-keyed initialization.

    Weights are uniform in [-a, a] with a = sqrt(6 / (fan_in + fan_out));
    biases start at zero. Names are grouped by their prefix before '/'.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, shape: Sequence[int], fans: tuple[int, int] | None = None,
                 init: str = "uniform") -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        shape = tuple(int(s) for s in shape)
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "uniform":
            if fans is None:
                if len(shape) == 2:
                    fans = (shape[0], shape[1])
                else:
                    fans = (shape[0], shape[0])
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
            self.register(f"{name}/W{i}", (w_in, w_out), fans=(w_in, w_out))
            if spec.biases[i]:
                self.register(f"{name}/b{i}", (w_out,), init="zeros")

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

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
    """Apply the named MLP to (rows, w_in) or a single (w_in,) vector."""
    if x.data.ndim == 1:
        out = mlp_forward(spec, params, name, reshape(x, (1, x.data.shape[0])))
        return reshape(out, (out.data.shape[1],))
    if x.data.ndim != 2 or x.data.shape[1] != spec.widths[0]:
        raise ShapeError(f"MLP {name!r} expects width {spec.widths[0]}, got input shape {x.data.shape}")
    h = x
    for i in range(spec.n_layers):
        b = params[f"{name}/b{i}"] if spec.biases[i] else None
        h = linear(h, params[f"{name}/W{i}"], b, relu=spec.activations[i] == "relu")
    return h


def register_attention(params: ParamStore, name: str, d: int) -> None:
    """Register query/key/value projections for one shared attention layer."""
    for proj in ("Wq", "Wk", "Wv"):
        params.register(f"{name}/{proj}", (d, d), fans=(d, d))
    for proj in ("bq", "bk", "bv"):
        params.register(f"{name}/{proj}", (d,), init="zeros")


def self_attention_layer(x: Tensor, params: ParamStore, name: str) -> Tensor:
    """Single-head scaled dot-product self-attention with a residual add.

    Operates on a (tau, d) set of vectors; permutation-equivariant bit-exactly
    thanks to the sorted reductions in ``row_softmax`` and ``attn_mix``.
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
