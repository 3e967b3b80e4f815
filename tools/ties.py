"""Tie outcomes of merge, R4 and mode collapse as JSON: ``tools/ties.py OUT``.
Swapped offsets (0.5 + dx, 0.5 + dy) and (0.5 + dy, 0.5 + dx) tie in the one
rounding of a pair distance; d_m and bandwidth/2 sit exactly on it. The merge
pair is taken on the three clusters, where its pair loop decides, and again
with ten distant singletons added: from 13 clusters on (``PAIR_LOOP_BELOW``),
its distance array does. The mode collapse is taken on each frame alone
(``meanshift``), and again with the frames 16 to a ``meanshift_frames`` call,
which collapses them in one pass. ``tools/outputs.py`` runs it as its ``ties``
case, so CI's step "Only training bytes of tools/outputs.py depend on the
OpenBLAS kernel" checks that the bytes are the same under
``OPENBLAS_CORETYPE=Prescott``."""

import json
import math
import sys

import numpy as np

from sceneplan.clustering import ClusterGeometry, meanshift, meanshift_frames, select_merge_pair
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
out, frames, bandwidths = [], [], []
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
    frames.append(np.array(centers))
    bandwidths.append(2.0 * d)
for start in range(0, len(frames), 16):
    labelled = meanshift_frames(frames[start:start + 16], bandwidths[start:start + 16],
                                max_iter=0)
    for row, labels in zip(out[start:], labelled):
        row.append(labels.tolist())
with open(sys.argv[1], "w") as f:
    print(json.dumps(out), file=f)
