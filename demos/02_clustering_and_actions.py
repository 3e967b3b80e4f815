"""Initial clustering and the keep/merge/split action primitives.

Shows the y-transform stretching the crowded top of the frame, MeanShift
forming the starting clusters, and how merge/split reshape them.
"""

import numpy as np

from sceneplan.clustering import (
    BandwidthSpec,
    ClusterGeometry,
    TransformParams,
    initial_clusters,
    merge_clusters,
    select_merge_pair,
    split_cluster,
    transform_y,
)
from sceneplan.scene import SceneSpec, Stratum, generate_scene

spec = SceneSpec(
    width_px=1280, height_px=1280, count_min=18, count_max=18,
    strata=(Stratum(0.05, 0.45, 0.012, 0.03, 0.65),
            Stratum(0.55, 0.95, 0.06, 0.12, 0.35)),
    seed=11,
)
frame = generate_scene(spec)
transform = TransformParams(alpha=0.5)
geometry = ClusterGeometry(frame.detections, transform)  # the frame's clustering space

pts = np.array([[d.cx, d.cy] for d in frame.detections])
pts_t = transform_y(pts, transform)
top = pts[:, 1] < 0.5
print("y-transform stretches the crowded top band:")
print(f"  raw y span (top strata):         {np.ptp(pts[top, 1]):.3f}")
print(f"  transformed y span (top strata): {np.ptp(pts_t[top, 1]):.3f}")

config = initial_clusters(geometry, BandwidthSpec("fixed", 0.16))
print(f"\nMeanShift initial clustering: {config.count} clusters, "
      f"sizes {[len(c) for c in config.clusters]}")

i, j = select_merge_pair(config, geometry)
(xi, yi, *_), (xj, yj, *_) = (geometry.means(config.clusters[k]) for k in (i, j))
d = np.hypot(xi - xj, yi - yj)
print(f"\nclosest centroid pair: clusters {i} and {j} "
      f"(raw centroid distance {d:.3f})")

merged = merge_clusters(config, i, j)
print(f"after merge: {merged.count} clusters, sizes {[len(c) for c in merged.clusters]}")

# split the biggest cluster back apart
big = max(range(merged.count), key=lambda k: len(merged.clusters[k]))
split = split_cluster(merged, big, geometry)
a, b = split.clusters[big], split.clusters[-1]
print(f"\nsplit cluster {big} (size {len(merged.clusters[big])}) along its "
      f"wider-variance dimension:")
(ax, ay, *_), (bx, by, *_) = geometry.means(a), geometry.means(b)
print(f"  -> sizes {len(a)} + {len(b)}, centroids "
      f"({ax:.2f}, {ay:.2f}) and ({bx:.2f}, {by:.2f})")
