"""Why per-query graphs beat one full-scene graph on paper (and in counts).

The reference setup runs 96 query graphs over 10/20/30% of the scene with
k = 4/8/12. A conventional full-scene graph connects every cell with k = 20.
Peak cost is the single most expensive graph either way, so the comparison is
(largest query graph) vs (the full graph) under a unit-cost model.
"""

from gqn import GqnConfig, QuerySetSpec, compare_full_vs_queries, flop_estimate, run_benchmark

reference = GqnConfig()  # 3 sets x 32 queries, ratios .1/.2/.3, k=4/8/12, d=64

print("peak reductions vs a full-scene k=20 graph")
print(f"{'m_bev':>8} {'processing':>11} {'constr naive':>13} {'constr indexed':>15}")
for m_bev in (1024, 4096, 16384, 65536, 262144):
    r = compare_full_vs_queries(reference, m_bev)
    print(f"{m_bev:>8} {r.processing_reduction_pct:>10.1f}% "
          f"{r.construction_naive_reduction_pct:>12.1f}% "
          f"{r.construction_indexed_reduction_pct:>14.1f}%")
print("processing reduction is exactly 1 - (0.30*12)/20 = 82.0% at any grid size;")
print("the naive pairwise ratio tends to 1 - 0.3^2 = 91%;")
print("the n*log2(n) + n*k counting lands a few points lower and is reported as-is.\n")

# FLOPs respond to the two knobs the sensitivity studies vary: neighbor count
# at fixed sampling (affine, by construction: only edge terms scale with k)
# and sampling density with proportionally scaled k.
m_bev = 4096
print("FLOPs at fixed 20% sampling (affine in k):")
for k in (2, 4, 8, 12, 16, 20):
    cfg = GqnConfig(d=64, context_steps=6, sets=(QuerySetSpec(96, 0.2, k),))
    print(f"  k={k:>2}: {flop_estimate(cfg, m_bev) / 1e9:7.2f} GFLOP")

print("FLOPs vs sampling ratio (k scaled with density):")
for ratio, k in zip((0.1, 0.2, 0.3, 0.4, 0.5), (4, 8, 12, 16, 20)):
    cfg = GqnConfig(d=64, context_steps=6, sets=(QuerySetSpec(96, ratio, k),))
    print(f"  {int(ratio * 100):>2}% sampling, k={k:>2}: {flop_estimate(cfg, m_bev) / 1e9:7.2f} GFLOP")

# The benchmark rows also time the actual exact-pairwise kNN build where the
# graph is small enough to run comfortably.
print("\nmeasured kNN build wall time (naive mode):")
fmt = lambda t: "skipped (too large)" if t is None else f"{t:.3f}s"
_, rows = run_benchmark(reference, [1024, 4096], modes=["naive"])
for row in rows:
    print(f"  m_bev={row['m_bev']:>5}: full graph {fmt(row['wall_full_s'])}, "
          f"peak query graph {fmt(row['wall_peak_s'])}")
