"""How a graph query builds itself over a scene.

One query owns a learnable global vector. It scores every cell by dot product
with the cell's state features, keeps the top-N scorers as nodes, and wires
each node to its k nearest neighbors in feature space. Selected states are
weighted by m_bev * alpha so the discrete choice still passes gradients back
to the global vector. The query keeps alpha, not the weighted states: the
edge stage forms m_bev * alpha and the states itself, and so does this demo.
"""

import numpy as np

from gqn import QuerySetSpec, SceneSpec, demo_boxes, flatten_grid, generate_scene
from gqn import attention_scores, init_graph_query, sinusoidal_encoding
from gqn.autodiff import Tensor, gather_rows, scale_rows, sum_all

spec = SceneSpec(10, 10, 8, boxes=demo_boxes(10, 10, 8, 2, seed=1),
                 clutter_density=0.1, noise_amplitude=0.05, seed=1)
grid, truth = generate_scene(spec)
flat = flatten_grid(grid, sinusoidal_encoding(10, 10, 8))
states = Tensor(flat.states)

# A zero global vector is indifferent: every cell scores the same.
uniform = attention_scores(Tensor(np.zeros(8)), states)
print(f"zero global vector -> uniform attention, alpha[0] = {uniform.data[0]:.6f} = 1/{flat.m_bev}")

# A random global vector prefers cells whose features align with it.
u = Tensor(np.random.default_rng(3).standard_normal(8) * 0.8, requires_grad=True)
alpha = attention_scores(u, states)
print(f"random global vector -> alpha in [{alpha.data.min():.2e}, {alpha.data.max():.2e}], "
      f"sum = {alpha.data.sum():.12f}")

# Sample 20% of the grid and wire each node to its 3 nearest feature-space
# neighbors. Watch how many sampled nodes land on actual objects.
query = init_graph_query(u, states, flat, set_index=0, query_index=0,
                         spec=QuerySetSpec(queries=1, ratio=0.2, k=3))
cells = flat.bev_indices[query.pair_rows]  # each node's BEV cell
on_object = truth.mask[cells].sum()
print(f"query sampled {query.n_nodes} nodes, {int(on_object)} on objects, "
      f"{len(query.edge_src)} directed edges (out-degree {query.k})")

degrees = np.bincount(query.edge_src, minlength=query.n_nodes)
print("out-degree exactly k for every node:", bool(np.all(degrees == query.k)),
      "| self-edges:", int(np.sum(query.edge_src == query.edge_dst)))

# Edges live in feature space: an edge's endpoints can be far apart on the
# grid if their features (e.g. the Doppler-like channel) agree.
rr, cc = np.divmod(cells, flat.width)
hops = np.abs(rr[query.edge_src] - rr[query.edge_dst]) + np.abs(cc[query.edge_src] - cc[query.edge_dst])
print(f"grid distance along edges: median {np.median(hops):.0f} cells, max {hops.max()} "
      "(feature-space neighbors need not be spatial neighbors)")

# The selection weighting keeps the global vector trainable: a loss on the
# selected states, gathered from the grid and scaled by m_bev * alpha,
# produces a nonzero gradient on u.
scale = query.alpha * float(flat.m_bev)
sum_all(scale_rows(gather_rows(states, query.pair_rows), scale)).backward()
print(f"|d loss / d u| = {np.linalg.norm(u.grad):.4f}  (nonzero -> node selection is learnable)")
