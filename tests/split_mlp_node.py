"""A two-layer split MLP as one tape node, built from the library's array helpers.

The library runs its split MLPs only inside fused nodes: the edge stage runs
the node MLP, context infusion the context MLP. Tests that hold those nodes
against a chain of one node per stage, or hold the split layers against a
layer-by-layer chain, use this node for the MLP.
"""

import numpy as np

from gqn.autodiff import (ParamStore, Tensor, _dense, _dense_grads, _make, _split_linear,
                          _split_linear_grads, _zero_unless_positive)


def split_mlp_node(params: ParamStore, name: str, a: Tensor, b: Tensor, rows=None,
                   k: int = 0) -> Tensor:
    """The stored two-layer MLP ``name`` over ``[a || b[rows]]`` as one node over
    ``(a, b, W0, b0, W1, b1)``; ``k > 0`` is ``_split_linear``'s edge form.

    The first layer runs as ``_split_linear`` (with its ReLU), the output layer
    as ``_dense``. The backward recomputes the hidden layer with the forward's
    call, as the fused nodes do, then composes ``_dense_grads``, the ReLU's
    mask (``_zero_unless_positive``) and ``_split_linear_grads``; the hidden
    gradient goes on without adding 0.0.
    """
    rows = None if rows is None else np.asarray(rows, dtype=np.intp)
    (w0, b0), (w1, b1) = params.layers(name)

    def hidden():
        return _split_linear(a.data, b.data, w0.data, b0.data, rows, k)

    def backprop(g):
        h = hidden()
        g, gw1, gb1 = _dense_grads(g, h, w1.data)
        return (_split_linear_grads(_zero_unless_positive(g, h), a.data, b.data, w0.data, rows, k)
                + (gw1, gb1))

    return _make(_dense(hidden(), w1.data, b1.data), (a, b, w0, b0, w1, b1),
                 backprop)
