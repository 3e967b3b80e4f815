"""Tie outcomes of merge, R4 and mode collapse as JSON: ``tools/ties.py OUT``.
Swapped offsets (0.5 + dx, 0.5 + dy) and (0.5 + dy, 0.5 + dx) tie in the one
rounding of a pair distance; d_m and bandwidth/2 sit exactly on it. The merge
pair is taken on the three clusters, where its pair loop decides, and again
with ten distant singletons added: from 13 clusters on (``PAIR_LOOP_BELOW``),
its distance array does. CI checks that the bytes are the same under
``OPENBLAS_CORETYPE=Prescott``."""

import json
import math
import sys

import numpy as np

from sceneplan.clustering import ClusterGeometry, meanshift, select_merge_pair
from sceneplan.core import ClusterConfig, DetectionBox, make_cluster
from sceneplan.rl_env import RewardWeights, reward

# at least 1/3 from each other and 0.3 from [0.3, 0.7]^2, farther than any tie
FAR = [(0.0, 0.0), (1 / 3, 0.0), (2 / 3, 0.0), (1.0, 0.0), (0.0, 1.0), (1 / 3, 1.0),
       (2 / 3, 1.0), (1.0, 1.0), (0.0, 0.5), (1.0, 0.5)]


def singletons(centers):
    boxes = tuple(DetectionBox(x, y, 0.05, 0.05) for x, y in centers)
    return ClusterConfig(tuple(make_cluster([i], boxes) for i in range(len(boxes))), boxes)


def merge_pair(cfg):
    return select_merge_pair(cfg, ClusterGeometry(cfg.detections, None))


rng = np.random.default_rng(0)
out = []
for _ in range(2000):
    p, q = (float(v) for v in rng.uniform(0.3, 0.7, size=2))
    centers = [(0.5, 0.5), (p, q), (q, p)]
    cfg = singletons(centers)
    dx, dy = p - 0.5, q - 0.5
    d = math.sqrt(dx * dx + dy * dy)
    out.append([merge_pair(cfg),
                reward(cfg, RewardWeights(d_m=d))[3],
                meanshift(np.array(centers), 2.0 * d, max_iter=0).tolist(),
                merge_pair(singletons(centers + FAR))])
with open(sys.argv[1], "w") as f:
    print(json.dumps(out), file=f)
