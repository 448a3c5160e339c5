from gqn.cost_model import _flop_stages, flop_estimate
from gqn.pipeline import GqnConfig
from gqn.query_init import QuerySetSpec

# Two queries of n = 3 nodes (ratio 0.5 of 6 cells) with k = 2 edges each, d = 2:
# every MLP is 4 -> 2 -> 2, so one half of a first-layer weight is 2 x 2, and the
# edge MLP's hidden width h is 2.
SMALL = GqnConfig(d=2, context_steps=1, sets=(QuerySetSpec(2, 0.5, 2),))
M_BEV = 6


def test_split_edge_and_context_layers_match_a_hand_count():
    stages = _flop_stages(SMALL, M_BEV)
    n, edges, h = 3, 6, 2
    half_product = 2 * 2 * h                      # a row times a 2 x 2 half, 2 per multiply-add
    second_layer = 2 * 2 * h + h                  # 2 -> 2 product plus bias, per row
    edge = (2 * n * half_product                  # P W_a and S W_b, per node
            + n * h + n * h                       # their sum and the bias, per node
            + edges * h                           # minus the source's P W_a, per edge
            + edges * h)                          # ReLU, per edge; the output layer is folded
    assert edge == 84
    assert stages["edge_focus.features"] == 2 * edge

    d = 2
    per_edge = (2 * h * h                         # h A, a row times the h x h key-query matrix
                + h                               # plus c = Wq bk + Wk bq
                + 2 * h                           # the row dot with h
                + 1                               # plus bq·bk
                + 4)                              # the per-node softmax, per edge
    fold = 2 * (2 * h * d * d                     # W Wq and W Wk: q and key read through the
                + 2 * d * d + d)                  # output layer h W + b; b Wq + bq and b Wk + bk
    once = (2 * h * h * d                         # A = Wq Wk^T, from the composed weights
            + 2 * (2 * h * d) + h                 # c: two matrix-vector products and their sum
            + 2 * d)                              # bq·bk
    assert (per_edge, fold, once) == (19, 52, 38)
    assert stages["edge_focus.attention"] == 2 * edges * per_edge + fold + once  # once per pass

    aggregation = 2 * edges * h                   # the weighted sum of h over each node's edges
    message = n * (2 * h * d + d)                 # (sum of beta h) W + b, per node
    node = 2 * n * half_product + n * h + n * h + n * h + n * second_layer
    assert (aggregation, message, node) == (24, 30, 96)
    assert stages["edge_focus.update"] == 2 * (aggregation + message + node)

    context = (n * half_product                   # N W_a, per node
               + n * h                            # plus the gathered row of U W_b
               + n * h + n * h)                   # bias and ReLU
    projection = 2 * half_product                 # U W_b for both summaries, in one chunk
    output = M_BEV * second_layer                 # the output layer after the mean, per cell
    assert (context, projection, output) == (42, 16, 60)
    assert stages["deep_context.infuse"] == 2 * context + projection + output


def test_flop_estimate_is_the_sum_of_the_stages():
    for config, m_bev in ((SMALL, M_BEV), (GqnConfig(), 1024)):
        assert flop_estimate(config, m_bev) == sum(_flop_stages(config, m_bev).values())
