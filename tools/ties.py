"""Tie outcomes of merge, R4 and mode collapse as JSON: ``tools/ties.py OUT``.
Swapped offsets (0.5 + dx, 0.5 + dy) and (0.5 + dy, 0.5 + dx) tie in the one
rounding of a pair distance; d_m and bandwidth/2 sit exactly on it. CI checks
that the bytes are the same under ``OPENBLAS_CORETYPE=Prescott``."""

import json
import math
import sys

import numpy as np

from sceneplan.clustering import ClusterGeometry, meanshift, select_merge_pair
from sceneplan.core import ClusterConfig, DetectionBox, make_cluster
from sceneplan.rl_env import RewardWeights, reward

rng = np.random.default_rng(0)
out = []
for _ in range(2000):
    p, q = (float(v) for v in rng.uniform(0.3, 0.7, size=2))
    centers = [(0.5, 0.5), (p, q), (q, p)]
    boxes = tuple(DetectionBox(x, y, 0.05, 0.05) for x, y in centers)
    cfg = ClusterConfig(tuple(make_cluster([i], boxes) for i in range(3)), boxes)
    dx, dy = p - 0.5, q - 0.5
    d = math.sqrt(dx * dx + dy * dy)
    out.append([select_merge_pair(cfg, ClusterGeometry(cfg.detections, None)),
                reward(cfg, RewardWeights(d_m=d))[3],
                meanshift(np.array(centers), 2.0 * d, max_iter=0).tolist()])
with open(sys.argv[1], "w") as f:
    print(json.dumps(out), file=f)
