"""The scaled node states of a graph-query chunk, as tape nodes over its members.

A chunk (``query_init.GraphQuery``) keeps no states: the edge stage's node
gathers the grid's features at the chunk's rows and scales them by
m_bev * alpha itself. Tests that hold that node against a chain of per-stage
nodes, or that need the states as a tensor, build them here.
"""

from gqn.autodiff import Tensor, gather_rows, scale_rows


def node_states(query) -> Tensor:
    """(Q*n, d) the chunk's node states: ``gather_rows`` of its rows from the grid's features,
    then ``scale_rows`` by m_bev * ``query.alpha``, so a loss on them backprops into the
    grid's features and alpha."""
    scale = query.alpha * float(query.grid_states.data.shape[0])
    return scale_rows(gather_rows(query.grid_states, query.pair_rows), scale)
