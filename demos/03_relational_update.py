"""Inside one refinement round: edge attention, node updates, context pooling.

Stage by stage over two small queries, run together as one stacked chunk:
  1. every directed edge gets a feature from (relative position || neighbor state),
  2. the K edges leaving a node compete through a softmax over edge scores,
  3. each node absorbs its attention-weighted edge sum through an MLP
     (the fused stage folds the edge MLP's linear output layer into 2 and 3),
  4. each query max-pools to a summary, summaries talk via self-attention,
  5. the exchanged summary is mixed back into every node of its query.
"""

import numpy as np

from gqn import GqnConfig, QuerySetSpec, SceneSpec, demo_boxes, flatten_grid, generate_scene
from gqn import init_graph_query, init_params, sinusoidal_encoding
from gqn.autodiff import Tensor, concat_rows
from gqn.deep_context import context_exchange, infuse_context, pool_query
from gqn.edge_focus import edge_attention, edge_features, edge_focus_update, update_nodes

cfg = GqnConfig(d=8, context_steps=2,
                sets=(QuerySetSpec(2, 0.15, 2),), seed=5)
spec = SceneSpec(10, 10, 8, boxes=demo_boxes(10, 10, 8, 2, seed=5),
                 clutter_density=0.1, noise_amplitude=0.05, seed=5)
grid, _ = generate_scene(spec)
flat = flatten_grid(grid, sinusoidal_encoding(10, 10, 8))
params = init_params(cfg, flat.m_bev)
states = Tensor(flat.states)

# Both queries run as one chunk: their nodes stack query-major, and each
# query's edges stay inside its own rows.
u = concat_rows([params[f"query_global/{q}"] for q in range(2)])
chunk = init_graph_query(u, states, flat, 0, 0, cfg.sets[0])
n = chunk.n_nodes // chunk.queries
print(f"{chunk.queries} queries, {n} nodes each, k={chunk.k}, stacked into {chunk.n_nodes} rows")

# 1) edge features: one vector per directed edge. Every stage reads its layers
#    from params, as init_params registered them. edge_features stops at the
#    edge MLP's hidden layer h; its last layer is linear, f = h W + b.
hidden = edge_features(chunk, params)
out_w, out_b = params["edge_mlp/W1"].data, params["edge_mlp/b1"].data
feats = Tensor(hidden.data @ out_w + out_b)
print(f"edge features: {feats.data.shape} (Q*n*k rows, d columns), from hidden {hidden.data.shape}")

# 2) attention over each node's edges; the K weights of a node sum to one
beta = edge_attention(feats, chunk.n_nodes, chunk.k, params)
per_node = beta.data.reshape(chunk.n_nodes, chunk.k)
print(f"edge attention row sums: min {per_node.sum(1).min():.12f}, max {per_node.sum(1).max():.12f}")
print(f"sharpest node weighting: {per_node.max(1).max():.3f} on one edge "
      f"(uniform would be {1 / chunk.k})")

# 3) node update from the weighted edge sum plus the node's own state
message = Tensor((beta.data[:, None] * feats.data).reshape(chunk.n_nodes, chunk.k, -1).sum(1))
updated = update_nodes(chunk, message, params)
print(f"updated node states: {updated.data.shape}")
# The fused stage never builds f: it scores h under q and key composed with
# (W, b), and takes the message as (sum of beta * h) W + b, per node.
fused = edge_focus_update(chunk, params)
print(f"fused stage vs the steps above: max |diff| {np.abs(fused.data - updated.data).max():.1e}")

# 4) pool each query and let the summaries exchange context
pooled = pool_query(updated, chunk.queries)
print(f"summaries before exchange, first two dims: {pooled.data[:, :2].round(3).tolist()}")
mixed = context_exchange(pooled, cfg.context_steps, params)
print(f"summaries after  exchange, first two dims: {mixed.data[:, :2].round(3).tolist()}")
print("zero steps is the exact identity:", context_exchange(pooled, 0, params) is pooled)

# 5) infuse each exchanged summary back into the nodes of its query
final = infuse_context(updated, mixed, params,
                       rows=range(chunk.query_index, chunk.query_index + chunk.queries))
print(f"context-aware nodes: {final.data.shape}, "
      f"mean |shift| of query 0 vs pre-context: "
      f"{np.abs(final.data[:n] - updated.data[:n]).mean():.3f}")
