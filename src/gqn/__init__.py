"""Graph-query reasoning over radar-style BEV feature grids.

Learnable graph queries attend over a bird's-eye-view feature grid, sample
their nodes from the top attention scores, wire them with feature-space kNN
edges, refine them with edge-attention message passing and inter-query
context pooling, and project the results back onto the grid. An analytic
cost model quantifies the savings of per-query graphs against a full-scene
graph, and a desk-scale training demo shows the whole pathway is
differentiable end to end.
"""

from .autodiff import (MlpSpec, ParamStore, Tensor, backward, grad_check, grad_check_groups,
                       mlp_forward, self_attention_layer)
from .cost_model import (CostReport, compare_full_vs_queries, construction_cost, flop_estimate,
                         processing_cost, run_benchmark)
from .deep_context import context_exchange, infuse_context, pool_query
from .edge_focus import edge_attention, edge_features, edge_focus_update, update_nodes
from .errors import ConfigError, ContractError, GqnError, InvalidInputError, ShapeError
from .pipeline import (GqnConfig, GqnOutput, TrainResult, init_params, run_gqn, skip_fuse,
                       soft_fusion, toy_train)
from .query_init import (GraphQuery, QuerySetSpec, attention_scores, build_knn_edges,
                         init_graph_query, select_nodes)
from .scene import (BevGrid, FlatPairs, ObjectBox, PosEncoding, SceneSpec, SceneTruth,
                    demo_boxes, flatten_grid, generate_scene, grid_to_csv, sinusoidal_encoding,
                    unflatten)

__version__ = "0.1.0"
