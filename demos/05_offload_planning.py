"""Latency-budgeted model assignment and the parallel server schedule.

Builds image blocks from a clustering, sweeps the latency budget to show
the precision/latency trade-off the knapsack solver navigates, and lays the
chosen plan out on four server lanes.
"""

from sceneplan.clustering import (
    BandwidthSpec,
    ClusterGeometry,
    TransformParams,
    initial_clusters,
)
from sceneplan.offload import (
    InfeasiblePlanError,
    assign_servers,
    default_profiles,
    dp_plan,
    partitions_from_config,
    simulate,
)
from sceneplan.scene import SceneSpec, Stratum, generate_scene

spec = SceneSpec(
    width_px=3840, height_px=2160, count_min=24, count_max=24,
    strata=(Stratum(0.05, 0.45, 0.012, 0.03, 0.65),
            Stratum(0.55, 0.95, 0.06, 0.12, 0.35)),
    seed=21,
)
frame = generate_scene(spec)
config = initial_clusters(ClusterGeometry(frame.detections, TransformParams(0.5)),
                          BandwidthSpec("fixed", 0.2))
parts = partitions_from_config(config, frame)
profiles = default_profiles()

print(f"{len(parts)} blocks from {len(frame.detections)} detections")
print("model table:", ", ".join(f"{p.name}({p.input_size}px, {p.latency_ms}ms)"
                                for p in profiles))

print("\nbudget sweep (latency constraint binds the summed model latencies):")
print("  D_max    total precision   sum latency   models chosen")
for d_max in (200, 400, 700, 1200, 2400, 100_000):
    try:
        plan = dp_plan(parts, profiles, d_max)
    except InfeasiblePlanError as e:
        print(f"  {d_max:6d}   infeasible ({e})")
        continue
    kinds = ",".join(sorted({m for _, m, _, _ in plan.assignments}))
    print(f"  {d_max:6d}   {plan.total_precision:15.4f}   "
          f"{plan.total_latency_ms:8d} ms   {kinds}")

plan = dp_plan(parts, profiles, 1200)
schedule = assign_servers(plan, e=4)
metrics = simulate(schedule)
print(f"\nplan under a 1200 ms budget, laid out on 4 servers "
      f"(makespan {metrics.makespan_ms} ms):")
for lane_id, lane in enumerate(schedule.lanes):
    tasks = " | ".join(f"p{t.partition_id}:{t.model}@{t.start_ms}-{t.end_ms}ms"
                       for t in lane)
    util = metrics.utilization[lane_id]
    print(f"  server {lane_id} (util {util:4.0%}): {tasks or 'idle'}")
print(f"latency sum {metrics.sum_latency_ms} ms vs parallel makespan "
      f"{metrics.makespan_ms} ms")
