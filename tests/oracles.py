"""Independent reference implementations used only as test oracles.

Everything here is written straight from first principles (plain loops,
exhaustive enumeration, rasterization, finite differences) and must stay
independent of the library code paths it checks. ``iou_exact`` is the
rectangle IoU whose operations ``nms_rows`` repeats in array form, and
``precision_lookup_reference`` the per-box mAP lookup that
``precision_table`` does for all boxes at once; the library keeps no
scalar copy of either. The ``*_reference`` copies of ``meanshift``,
``estimate_bandwidth``, ``observe_tiles`` and ``aggregate_tiles`` are the
per-element loops the library used before it switched to array code
(``aggregate_tiles_reference`` ends in ``nms_reference``); the array
versions must return exactly what these return. Likewise
``reward_per_cluster_reference``, ``select_merge_pair_reference`` and
``split_cluster_reference`` are the per-cluster loops that rebuilt every
cluster's centres on every call, before the reward, merge and split read
memoised per-frame geometry; the split scores its cuts with
``kmeans_1d_reference``, the split scan over numpy scalars before it went
to Python floats. ``bounding_block_reference`` is one cluster's block by
a loop over its members' extents, before ``bounding_blocks`` computed the
extents once per frame, and ``partitions_from_blocks_reference`` reads
each member box's fields, before the partitions read the frame's
columns. ``partition_precision_reference`` (one scalar lookup per box,
rebuilding the curve each time) and ``dp_plan_reference`` (a full-width
table with an int choice array) are the planner before it went to one
precision pass per plan and a value-only table filled only over each row's
reachable band; ``generate_scene_reference`` draws each stratum with
``Generator.choice`` and each uniform with ``Generator.uniform``.
``geometry_stats_reference`` (numpy reductions over the gathered
members, also the centroid that ``ClusterGeometry.means`` memoises),
``policy_sample_reference`` (``Generator.choice``),
``encode_state_reference`` and ``action_mask_reference`` (slot writes
into zero arrays) are the training step before it went to Python floats;
``policy_sample_rows_reference`` draws a batch row by row on one stream,
as sampling went before the episodes of an iteration stepped together.
``make_cluster_reference`` sorts and checks the members, and
``cluster_means_reference`` walks each member box's fields, before cluster
means read the lists that every frame's ``ClusterGeometry`` lays out once.
The library must return exactly what these return.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from sceneplan import clustering
from sceneplan.clustering import BANDWIDTH_FLOOR, ClusterGeometry, transform_y
from sceneplan.core import ClusterConfig, DetectionBox, Frame, make_cluster
from sceneplan.offload import InfeasiblePlanError, OffloadPlan, PartitionDescriptor, scale_area
from sceneplan.ppo import masked_log_softmax
from sceneplan.rl_env import (
    FEATURES_PER_CLUSTER,
    KEEP,
    MERGE,
    SPLIT_BASE,
    n_actions,
    state_dim,
)
from sceneplan.scene import TileRows


def iou_raster(a: DetectionBox, b: DetectionBox, cells: int = 10_000) -> float:
    """IoU by counting unit-frame raster cells whose centers fall in each box.

    Cell (i, j) has center ((i + 0.5) / cells, (j + 0.5) / cells); the count
    of centers inside an interval [lo, hi) reduces to an index range, so no
    giant grid is materialized.
    """

    def index_range(lo: float, hi: float) -> tuple[int, int]:
        first = math.ceil(lo * cells - 0.5)
        last = math.floor(hi * cells - 0.5)
        return max(first, 0), min(last, cells - 1)

    def cell_box(box: DetectionBox):
        x0, y0, x1, y1 = box.extent()
        return index_range(x0, x1), index_range(y0, y1)

    (ax, ay), (bx, by) = cell_box(a), cell_box(b)

    def count(xr, yr) -> int:
        nx = xr[1] - xr[0] + 1
        ny = yr[1] - yr[0] + 1
        return max(nx, 0) * max(ny, 0)

    inter_x = (max(ax[0], bx[0]), min(ax[1], bx[1]))
    inter_y = (max(ay[0], by[0]), min(ay[1], by[1]))
    inter = count(inter_x, inter_y)
    union = count(ax, ay) + count(bx, by) - inter
    return inter / union if union else 0.0


def iou_exact(a: DetectionBox, b: DetectionBox) -> float:
    """Closed-form rectangle IoU, written independently of the library."""
    ax0, ay0, ax1, ay1 = a.extent()
    bx0, by0, bx1, by1 = b.extent()
    w = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    h = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = w * h
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    return inter / (area_a + area_b - inter) if inter > 0 else 0.0


# ``nms_rows`` sorts the boxes' extents, computed as arrays with the
# operations of ``DetectionBox.extent``, by ``x0``. Each box is paired with
# the boxes after it in that order whose ``x0`` lies below its ``x1``, so
# every unordered pair is built once and no n x n array is. Those are all the
# pairs that can overlap: for the later box of a pair ``max(x0)`` is its own
# ``x0``, and ``fl(a - b) > 0`` holds iff ``a > b``, so ``iw > 0`` needs
# ``x0[later] < x1[earlier]``. Pairs with ``ih > 0`` (tested first, as most
# pairs that overlap in x lie apart in y), ``iw > 0`` and the same class get
# their IoU with the operations of ``iou_exact``, in its order. The greedy
# pass then walks only the suppressing pairs, ordered by the earlier box p in
# visit order, and clears q whenever p is still alive: by the time p's pairs
# come up, every box before p in visit order has been settled, as in the loop
# below.
def nms_reference(boxes, threshold: float):
    """O(n^2) suppression by explicit pairwise checks."""
    idx = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept: list[int] = []
    for i in idx:
        ok = True
        for j in kept:
            if boxes[j].class_id == boxes[i].class_id and \
                    iou_exact(boxes[i], boxes[j]) >= threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return [boxes[i] for i in kept]


# ``meanshift``'s candidate pairs come from y-bands. The frame is cut into
# horizontal bands of height ``pad`` (slightly above the bandwidth) from the
# lowest point, taller where more bands than points would be needed, and
# ``row(v)`` counts the band edges at or below ``v``. Each iteration
# stable-sorts the active modes by the key ``row(y) + off(x)``, where ``off``
# scales ``x`` minus the lowest x by a power of two and clips it to
# [0, 1/2], so the bands' keys are disjoint and increase with x inside a
# band. Every point asks, once per call, for the bands from
# ``row(fl(py - pad))`` to ``row(fl(py + pad))``, and in each for the keys
# from ``off(fl(px - pad))`` to ``off(fl(px + pad))``; two ``searchsorted``
# calls with the queries sorted once per call give every query's range of
# modes. Only these (point, mode) pairs get a distance, with the operations
# of ``_distances``; no (points, modes) array is built.
#
# The queries miss no mode within the bandwidth: such a mode has
# ``|px - mx| <= bandwidth * (1 + 5 eps) < pad`` and likewise in y (the
# distance rounds at most a few ulp below the exact ``|dx|``; an ``|dx|`` too
# small for ``dx*dx`` to stay normal is below the ``2**-500`` in ``pad``).
# Rounding is monotone, so ``px - pad <= mx`` implies ``fl(px - pad) <= mx``;
# ``row``, ``off`` and ``fl(r + .)`` are monotone too, so the mode's key lies
# in the query range of its own band. No mode is paired twice with a point,
# as each lies in one band and the bands' keys do not overlap. No inf or NaN
# reaches a key, whatever the coordinates and bandwidth: the extents are
# taken in halves, which cannot overflow, the band edges are ordered, and an
# infinite query bound only lands on the first or last band or clips to an
# offset's end.
#
# A pair is in its window when its squared distance ``d`` (the sum below, before
# its ``sqrt``) is at most ``within``, the largest double whose square root is
# at most the bandwidth, found by ``nextafter`` steps from ``bandwidth**2``. The
# correctly rounded square root is monotone, so ``d <= within`` exactly when
# ``sqrt(d) <= bandwidth``: if ``d <= within`` then ``sqrt(d) <= sqrt(within)``,
# and a larger ``d`` has a root past the bandwidth, or ``within`` was not the
# largest. Where ``bandwidth**2`` overflows the steps start from inf and stop at
# the largest finite double; where it underflows they stay at 0.0 or a
# subnormal, and an infinite ``d`` is never within.
#
# The queries are point-major, bands ascending within a point, so the pairs
# are too. (The dense loop pairs each mode with every point of its frame,
# mode-major, so a mode's points also come in input order.) The counts and
# window sums come from ``np.bincount`` over the in-window pairs, which adds
# each mode's points one at a time in array order, that is input order,
# starting from 0.0. The per-mode sequential sum
# below over all points adds the same values in the same order plus one
# ``0.0 * p`` term per point outside the window, and adding a zero changes a
# sum at most in the sign of a zero, which no distance sees. So a mode's next
# position depends on its current one alone, which is what lets
# ``meanshift`` share the trajectories of modes that meet.
def meanshift_reference(points, bandwidth: float, tol: float = 1e-4,
                        max_iter: int = 300):
    """Flat-kernel MeanShift with broadcast (m, n, 2) distances and a
    per-pair mode collapse."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 1:
        raise ValueError("points must be a non-empty (n, 2) array")
    if bandwidth <= 0.0:
        raise ValueError(f"bandwidth {bandwidth} must be positive")
    modes = pts.copy()
    active = np.ones(len(pts), dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        sub = modes[active]
        dist = np.sqrt(((sub[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        within = dist <= bandwidth
        counts = within.sum(axis=1)
        new = (within[:, :, None] * pts[None, :, :]).sum(axis=1) / counts[:, None]
        shift = np.sqrt(((new - sub) ** 2).sum(axis=1))
        modes[active] = new
        still = shift >= tol
        active[np.flatnonzero(active)[~still]] = False

    # collapse near-duplicate modes, first-seen representative wins
    reps: list[np.ndarray] = []
    for m in modes:
        if not any(pair_distance(m, r) <= bandwidth / 2.0 for r in reps):
            reps.append(m)
    rep_arr = np.array(reps)
    d = np.sqrt(((pts[:, None, :] - rep_arr[None, :, :]) ** 2).sum(axis=2))
    labels = d.argmin(axis=1)
    # drop representatives that attracted no points, keep label order stable
    used = sorted(set(int(l) for l in labels))
    remap = {old: new for new, old in enumerate(used)}
    return np.array([remap[int(l)] for l in labels], dtype=int)


def estimate_bandwidth_reference(points, quantile: float) -> float:
    """Nearest-neighbour distance quantile over a broadcast (n, n, 2)
    difference array."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least 2 points to estimate a bandwidth")
    if not (0.0 < quantile < 1.0):
        raise ValueError(f"quantile {quantile} outside (0, 1)")
    if len(pts) > 1000:
        idx = np.linspace(0, len(pts) - 1, 1000).astype(int)
        pts = pts[idx]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    nn = dist.min(axis=1)
    return max(float(np.quantile(nn, quantile)), BANDWIDTH_FLOOR)


# ``observe_tiles`` computes the box extents as ``core.extents``' columns,
# with the operations of ``DetectionBox.extent``. Where ``np.maximum`` keeps
# the sign of a ``-0.0`` corner, the box's area and its intersections come
# out equal all the same (``x - -0.0 == x - 0.0`` bit for bit for every
# x > 0 and for 0.0, and a box's upper corners are never ``-0.0``). A chunk
# of tiles takes the visibility test and the tile-local coordinates below
# as (tiles x boxes) array expressions, each tile's corners entering as
# floats, which hold their ints exactly, so every pair gets this loop's
# operations. ``np.nonzero`` lists the visible pairs tile by tile and, within
# a tile, in box order, and chunks go in tile order: the noisy loop visits
# the observations in this loop's order and draws from the generator as it
# does (drop draw, then four jitter draws), so a seed gives the observations
# of the loop below.
def observe_tiles_reference(frame, grid, min_visible: float = 0.25,
                            drop_prob: float = 0.0, jitter_sigma: float = 0.0,
                            seed: int | None = None):
    """Per-tile observation by a loop over every (tile, box) pair."""
    rng = np.random.default_rng(seed)
    w_px, h_px = frame.width_px, frame.height_px
    per_tile = []
    for (tx0, ty0, tx1, ty1) in grid.tiles:
        tw, th = tx1 - tx0, ty1 - ty0
        rows = []
        for d in frame.detections:
            bx0, by0, bx1, by1 = d.extent()
            bx0, bx1 = bx0 * w_px, bx1 * w_px
            by0, by1 = by0 * h_px, by1 * h_px
            inter = max(0.0, min(bx1, tx1) - max(bx0, tx0)) * \
                max(0.0, min(by1, ty1) - max(by0, ty0))
            box_area = (bx1 - bx0) * (by1 - by0)
            if box_area <= 0.0 or inter / box_area < min_visible:
                continue
            if drop_prob > 0.0 and rng.random() < drop_prob:
                continue
            cx = (d.cx * w_px - tx0) / tw
            cy = (d.cy * h_px - ty0) / th
            w = d.w * w_px / tw
            h = d.h * h_px / th
            if jitter_sigma > 0.0:
                cx += float(rng.normal(0.0, jitter_sigma))
                cy += float(rng.normal(0.0, jitter_sigma))
                w = max(1e-4, w + float(rng.normal(0.0, jitter_sigma)))
                h = max(1e-4, h + float(rng.normal(0.0, jitter_sigma)))
            rows.append((cx, cy, w, h, d.score, d.class_id))
        per_tile.append(rows)
    return per_tile


def tile_rows(rows) -> TileRows:
    """One tile's plain (cx, cy, w, h, score, class_id) rows, as the
    ``TileRows`` that ``aggregate_tiles`` takes."""
    return TileRows(np.array([row[:5] for row in rows], dtype=float).reshape(-1, 5).T,
                    [row[5] for row in rows])


def aggregate_tiles_reference(per_tile, grid, iou_threshold: float = 0.5):
    """Per-observation remap to frame coordinates with Python clamps, then
    ``nms_reference``."""
    if len(per_tile) != len(grid.tiles):
        raise ValueError(f"{len(per_tile)} tile lists for {len(grid.tiles)} tiles")
    w_px, h_px = grid.width_px, grid.height_px
    remapped = []
    for rows, (tx0, ty0, tx1, ty1) in zip(per_tile, grid.tiles):
        tw, th = tx1 - tx0, ty1 - ty0
        for (cx, cy, w, h, score, cid) in rows:
            gx = (tx0 + cx * tw) / w_px
            gy = (ty0 + cy * th) / h_px
            gw = w * tw / w_px
            gh = h * th / h_px
            # jittered straddlers can poke out of frame; clamp back in
            gw = min(max(gw, 1e-6), 1.0)
            gh = min(max(gh, 1e-6), 1.0)
            gx = min(max(gx, 0.0), 1.0)
            gy = min(max(gy, 0.0), 1.0)
            score = min(max(score, 0.0), 1.0)
            remapped.append(DetectionBox(gx, gy, gw, gh, score, int(cid)))
    return nms_reference(remapped, iou_threshold)


def reward_reference(config: ClusterConfig, weights, alpha_t: float | None):
    """The four reward terms recomputed term by term from their formulas.

    alpha_t is the y-exponent when distances live in transformed space,
    or None for raw coordinates.
    """
    n = config.count
    dets = config.detections

    def pt(i):
        x, y = dets[i].cx, dets[i].cy
        return (x, y ** alpha_t) if alpha_t is not None else (x, y)

    # R1: mean over clusters of mean member distance to the cluster centroid
    r1_terms = []
    cents = []
    for c in config.clusters:
        pts = [pt(i) for i in c]
        mx = sum(p[0] for p in pts) / len(pts)
        my = sum(p[1] for p in pts) / len(pts)
        cents.append((mx, my))
        dists = [math.hypot(p[0] - mx, p[1] - my) for p in pts]
        r1_terms.append(sum(dists) / len(dists))
    r1 = -sum(r1_terms) / n

    # R2: mean over clusters of population variance of member areas
    r2_terms = []
    for c in config.clusters:
        areas = [dets[i].w * dets[i].h for i in c]
        mu = sum(areas) / len(areas)
        r2_terms.append(sum((a - mu) ** 2 for a in areas) / len(areas))
    r2 = -sum(r2_terms) / n

    # R3: piecewise distance of N to the allowed band
    if n < weights.n_min:
        r3 = -(weights.n_min - n)
    elif n > weights.n_max:
        r3 = -(n - weights.n_max)
    else:
        r3 = 0.0

    # R4: -(1/2) sum over ordered pairs of the closeness indicator
    violations = 0
    for i in range(n):
        for j in range(n):
            if i != j and math.hypot(cents[i][0] - cents[j][0],
                                     cents[i][1] - cents[j][1]) < weights.d_m:
                violations += 1
    r4 = -violations / 2

    total = weights.alpha * r1 + weights.beta * r2 + \
        weights.gamma * r3 + weights.delta * r4
    return r1, r2, float(r3), float(r4), total


# A pair distance has one rounding: ``sqrt(dx * dx + dy * dy)``, each
# operation correctly rounded, which is what ``_distances`` computes in
# arrays. The oracles take it from ``pair_distance`` in their own per-pair
# loops, never from ``np.linalg.norm``: a 2-vector norm goes through a BLAS
# dot kernel chosen for the CPU at run time, which may round the last bit
# differently (fused multiply-add), so a tie or a cut at a distance would
# fall on either side depending on the machine.
def pair_distance(a, b) -> float:
    """The distance between 2-D points ``a`` and ``b``, in Python floats."""
    dx, dy = float(a[0]) - float(b[0]), float(a[1]) - float(b[1])
    return math.sqrt(dx * dx + dy * dy)


def reward_centroids(config: ClusterConfig, transform=None) -> list:
    """Each cluster's centroid as ``reward_per_cluster_reference`` computes it."""
    cents = []
    for c in config.clusters:
        pts = np.array([[config.detections[i].cx, config.detections[i].cy] for i in c])
        cents.append((pts if transform is None else transform_y(pts, transform)).mean(axis=0))
    return cents


def reward_per_cluster_reference(config: ClusterConfig, weights, transform=None):
    """(R1, R2, R3, R4, R_total) with every cluster's centres rebuilt and
    transformed on each call, and a per-pair centroid-distance loop."""
    dets = config.detections
    spreads = []
    area_vars = []
    centroids = []
    for c in config.clusters:
        pts = np.array([[dets[i].cx, dets[i].cy] for i in c])
        if transform is not None:
            pts = transform_y(pts, transform)
        centroid = pts.mean(axis=0)
        centroids.append(centroid)
        spreads.append(float(np.linalg.norm(pts - centroid, axis=1).mean()))
        areas = np.array([dets[i].area for i in c])
        area_vars.append(float(areas.var()))
    # fsum keeps the cross-cluster means insensitive to cluster order, so
    # reversing a split restores the reward bit for bit
    r1 = -math.fsum(spreads) / config.count
    r2 = -math.fsum(area_vars) / config.count
    n = config.count
    if n < weights.n_min:
        r3 = -float(weights.n_min - n)
    elif n > weights.n_max:
        r3 = -float(n - weights.n_max)
    else:
        r3 = 0.0
    close = 0
    for i in range(n):
        for j in range(i + 1, n):
            if pair_distance(centroids[i], centroids[j]) < weights.d_m:
                close += 1
    r4 = float(-close)
    total = weights.alpha * r1 + weights.beta * r2 + weights.gamma * r3 + weights.delta * r4
    return r1, r2, r3, r4, total


def centroids_reference(config: ClusterConfig, transform=None):
    """Cluster centroids, in raw space or as means of transformed centers."""
    if transform is None:
        return np.array([cluster_means_reference(c, config.detections)[:2]
                         for c in config.clusters])
    cents = []
    for c in config.clusters:
        pts = np.array([[config.detections[i].cx, config.detections[i].cy] for i in c])
        cents.append(transform_y(pts, transform).mean(axis=0))
    return np.array(cents)


def select_merge_pair_reference(config: ClusterConfig, transform=None):
    """Closest centroid pair by a loop over every pair; ties break toward
    the lexicographically smallest (i, j)."""
    if config.count < 2:
        raise ValueError("merge unavailable: fewer than 2 clusters")
    cents = centroids_reference(config, transform)
    best = (0, 1)
    best_d = np.inf
    for i in range(config.count):
        for j in range(i + 1, config.count):
            d = pair_distance(cents[i], cents[j])
            if d < best_d:
                best, best_d = (i, j), d
    return best


def split_cluster_reference(config: ClusterConfig, i: int, transform=None):
    """Split cluster i along its higher-variance centre dimension, from
    centres rebuilt and transformed for this cluster alone."""
    if not (0 <= i < config.count):
        raise ValueError(f"cluster index {i} out of range")
    cluster = config.clusters[i]
    if len(cluster) < 2:
        raise ValueError("split unavailable: cluster has fewer than 2 members")
    pts = np.array([[config.detections[m].cx, config.detections[m].cy] for m in cluster])
    if transform is not None:
        pts = transform_y(pts, transform)
    var_x, var_y = pts.var(axis=0)
    coord = pts[:, 0] if var_x > var_y else pts[:, 1]
    labels = kmeans_1d_reference(coord)
    members = np.array(cluster)
    low = make_cluster(members[labels == 0].tolist(), config.detections)
    high = make_cluster(members[labels == 1].tolist(), config.detections)
    clusters = list(config.clusters)
    clusters[i] = low
    clusters.append(high)
    return ClusterConfig(tuple(clusters), config.detections)


# ``kmeans_1d`` and ``split_cluster`` (``clustering._best_split``) sort,
# sum and scan in Python floats: running sums of the sorted values and of
# their squares add in ``cumsum``'s order, the rest's t and q are the
# totals minus the first m's, and each operation rounds as the numpy
# float64 scalars below do.
def kmeans_1d_reference(values):
    """Best 2-way split of the sorted values, every split's cost from
    float64 prefix sums by a nested ``sse(lo, hi)`` over numpy scalars."""
    vals = np.asarray(values, dtype=float)
    n = len(vals)
    if n < 2:
        raise ValueError("need at least 2 values to split")
    order = np.argsort(vals, kind="stable")
    s = vals[order]
    prefix = np.concatenate([[0.0], np.cumsum(s)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(s ** 2)])

    def sse(lo, hi):  # half-open [lo, hi)
        cnt = hi - lo
        tot = prefix[hi] - prefix[lo]
        return (prefix_sq[hi] - prefix_sq[lo]) - tot * tot / cnt

    costs = np.array([sse(0, m) + sse(m, n) for m in range(1, n)])
    split = int(np.argmin(costs)) + 1
    labels = np.empty(n, dtype=int)
    labels[order[:split]] = 0
    labels[order[split:]] = 1
    return labels


def make_cluster_reference(members, detections) -> tuple[int, ...]:
    """A cluster from detection indices: the sorted members, each checked
    against the number of detections."""
    members = tuple(sorted(members))
    if not members:
        raise ValueError("empty cluster")
    if len(set(members)) != len(members):
        raise ValueError("duplicate member indices")
    n = len(detections)
    if not all(0 <= i < n for i in members):
        raise ValueError(f"member indices {members[0]}..{members[-1]} outside [0, {n})")
    return members


def cluster_means_reference(members, detections) -> tuple[float, float, float, float]:
    """The raw (cx, cy, w, h) means of a cluster by a walk over its member
    boxes, each field added in member order from 0.0."""
    sx = sy = sw = sh = 0.0
    for i in members:
        d = detections[i]
        sx += d.cx
        sy += d.cy
        sw += d.w
        sh += d.h
    n = len(members)
    return sx / n, sy / n, sw / n, sh / n


# ``bounding_blocks`` computes the extents of all detections once, as
# arrays, with the operations of ``DetectionBox.extent``; each cluster then
# takes builtin ``min`` and ``max`` over its members' Python floats. The
# values are the loop's below: every extent lies in [0, 1], so its start
# values 1.0 and 0.0 never win, and where a tie picks the other sign of a
# zero, the pixel coordinate rounds to the same integer.
def bounding_block_reference(cluster, detections, margin: float, frame):
    """One cluster's pixel block from a per-member loop over
    ``DetectionBox.extent``."""
    if not margin >= 0.0:
        raise ValueError(f"margin must be >= 0, got {margin!r}")
    if len(cluster) < 1:
        raise ValueError("empty cluster")
    x0 = y0 = 1.0
    x1 = y1 = 0.0
    for i in cluster:
        bx0, by0, bx1, by1 = detections[i].extent()
        x0, y0 = min(x0, bx0), min(y0, by0)
        x1, y1 = max(x1, bx1), max(y1, by1)
    pad = margin * max(x1 - x0, y1 - y0)
    x0, y0 = max(0.0, x0 - pad), max(0.0, y0 - pad)
    x1, y1 = min(1.0, x1 + pad), min(1.0, y1 + pad)
    px0 = int(round(x0 * frame.width_px))
    py0 = int(round(y0 * frame.height_px))
    px1 = int(round(x1 * frame.width_px))
    py1 = int(round(y1 * frame.height_px))
    # degenerate guard: a block is never thinner than one pixel
    px0 = min(px0, frame.width_px - 1)
    py0 = min(py0, frame.height_px - 1)
    px1 = max(px1, px0 + 1)
    py1 = max(py1, py0 + 1)
    return px0, py0, px1, py1


def partitions_from_blocks_reference(config: ClusterConfig, frame: Frame,
                                     blocks) -> list[PartitionDescriptor]:
    """Each cluster's partition, cut as its pixel block in ``blocks``."""
    parts = []
    for pid, (cluster, (x0, y0, x1, y1)) in enumerate(zip(config.clusters, blocks)):
        areas = tuple(
            config.detections[i].w * frame.width_px *
            config.detections[i].h * frame.height_px
            for i in cluster
        )
        parts.append(PartitionDescriptor(pid, x1 - x0, y1 - y0, areas))
    return parts


# ``ClusterGeometry.means``' loop, which fills the ``centroid`` memo, adds
# the member centres in Python floats one at a time from 0.0 and divides by
# the member count, at every size: the axis-0 ``mean`` below adds the
# gathered C-order (k, 2) rows one row at a time at every length.
# ``ClusterGeometry.stats`` takes the spread, the mean of
# ``math.sqrt(dx*dx + dy*dy)``, and the two-pass population variance (mean
# first, then the mean of the squared deviations) in Python floats at every
# member count, each sum added by ``clustering._pairwise_sum`` in the order
# of numpy's 1-D ``add.reduce``: one at a time below 8 values, eight running
# sums up to 128, halves beyond. So they equal ``linalg.norm(axis=1).mean()``
# and ``var`` below, which reduce a contiguous 1-D array.
def geometry_stats_reference(geometry, members):
    """A ``ClusterGeometry``'s (centroid, mean member distance, area
    variance) by numpy reductions over the gathered member arrays."""
    idx = list(members)
    pts = geometry.points[idx]
    centroid = pts.mean(axis=0)
    _, _, w, h, _ = geometry.detections.columns
    return (
        centroid,
        float(np.linalg.norm(pts - centroid, axis=1).mean()),
        float((w * h)[idx].var()),
    )


def encode_state_reference(config: ClusterConfig, n_pad: int, total_detections: int) -> np.ndarray:
    """The state vector written slot by slot into a zero array."""
    if n_pad < 1:
        raise ValueError("n_pad must be >= 1")
    s = np.zeros(state_dim(n_pad))
    for slot, c in enumerate(config.clusters[:n_pad]):
        base = slot * FEATURES_PER_CLUSTER
        s[base:base + FEATURES_PER_CLUSTER] = (
            *cluster_means_reference(c, config.detections),
            len(c) / total_detections if total_detections else 0.0,
        )
    s[-1] = min(config.count / n_pad, 1.0)
    return s


def action_mask_reference(config: ClusterConfig, n_pad: int) -> np.ndarray:
    """The action mask written entry by entry into a zero array."""
    mask = np.zeros(n_actions(n_pad), dtype=bool)
    mask[KEEP] = True
    mask[MERGE] = config.count >= 2
    for i, c in enumerate(config.clusters[:n_pad]):
        mask[SPLIT_BASE + i] = len(c) >= 2
    return mask


def policy_sample_reference(logits, mask, rng):
    """A masked-softmax action drawn by ``rng.choice(len(p), p=p)``."""
    logp = masked_log_softmax(logits, mask)
    p = np.exp(logp)
    p = p / p.sum()
    action = int(rng.choice(len(p), p=p))
    return action, float(logp[action])


def policy_sample_rows_reference(logits, masks, rng):
    """``policy_sample_reference`` on each row in order, from one stream;
    the actions and log-probabilities as arrays."""
    draws = [policy_sample_reference(row, mask, rng) for row, mask in zip(logits, masks)]
    return np.array([a for a, _ in draws]), np.array([lp for _, lp in draws])


def precision_lookup_reference(profile, area_px2: float) -> float:
    """Piecewise-linear mAP over bin centers, clamped at both ends; the
    centres and the mAP array are rebuilt on every call."""
    if area_px2 <= 0:
        raise ValueError("area must be positive")
    edges = np.array([0.0] + [e for e, _ in profile.curve])
    centers = (edges[:-1] + edges[1:]) / 2.0
    maps = np.array([m for _, m in profile.curve])
    return float(np.interp(area_px2, centers, maps))


# ``precision_table`` makes one pass per profile. Every member area of every
# block is scaled by the operations of ``scale_area`` in their order (each
# block's pixel count enters as a float, as Python's division converts it),
# and one ``np.interp`` looks them all up. Member k of block b goes to row
# 1 + k of a (members x blocks x profiles) grid whose other cells hold 0.0,
# and one ``np.add.accumulate`` down the rows adds each block's values one
# by one in member order, starting from row 0's 0.0, as the loop below does.
# An accumulate runs in order at every shape; ``np.sum``, or an axis sum
# that numpy lays out as one contiguous run (a single block), adds 8 or more
# values pairwise, and builtin ``sum`` compensates from Python 3.12. The
# table reads the grid's last row: a sum from 0.0 is never -0.0, so each
# padding ``+ 0.0`` keeps every bit, and the division by the count as a
# float is Python's ``total / count``. No NaN precision reaches the table:
# ``ModelProfile`` admits only finite increasing bin edges and mAP values
# in [0, 1], and a scaled area is positive (an underflow to 0 raises first,
# naming the first block that has one and that block's first such model, as
# the row-major loop below does) and at most +inf, which ``np.interp``
# clamps to the last mAP. So every cell equals the loop below bit for bit.
def partition_precision_reference(part, profile) -> float:
    """Mean per-box precision of the block under one model, one scalar
    lookup per box."""
    total = 0.0
    for a in part.areas_px2:
        scaled = scale_area(a, part.width_px, part.height_px, profile.input_size)
        try:
            total += precision_lookup_reference(profile, scaled)
        except ValueError as e:  # the scaled area underflowed to 0
            raise ValueError(f"partition {part.id}: model {profile.name} scales a box "
                             f"area to 0 ({e})") from None
    return total / part.count


def precision_table_reference(partitions, profiles) -> np.ndarray:
    """The (partitions x profiles) table, one reference call per cell."""
    return np.array([[partition_precision_reference(part, profile) for profile in profiles]
                     for part in partitions])


# ``dp_plan``'s table keeps values only. With lo and hi the smallest and
# largest latency within the budget, a plan of the first i blocks costs
# between i * lo and i * hi, so row i is -inf below i * lo and flat from
# i * hi on (every plan fits there); and a cell past d_max - (n - i) * lo
# leaves the other n - i blocks no room. Row i is therefore stored from
# column i * lo and filled only over its band [i * lo, min(i * hi,
# d_max - (n - i) * lo)], which is never empty once n * lo <= d_max. Row
# i + 1 reads row i at t - d for t in its own band and d >= lo: each model's
# slice starts at row i's first cell, so no read falls below it; no read
# passes d_max - (n - i) * lo; and a read past i * hi lands in the cells
# that the copy of the value at i * hi fills. The budget is infeasible
# exactly when no model fits or n * lo > d_max: every precision is finite,
# so those are the budgets where the full table's last row has no finite
# cell. The cheapest model writes each band cell (``np.fmax`` against -inf
# returns it), and each other model folds in by ``np.maximum``, which gives
# what ``np.fmax`` and the strict ``>`` below give, as no NaN precision
# reaches the table (see ``precision_table_reference``) and no cell is
# -0.0 (each is a sum from row 0's 0.0). The first t attaining the maximum
# lies in row n's band, below which the row is -inf. Backtracking
# recomputes the choice at the one column t of each row with the same
# strict ``>`` over the canonical model order, in Python floats (the
# additions of numpy's float64 scalars): t at row i + 1 is at most d_max
# less the latencies picked after it, so its reads of row i stay within
# d_max - (n - i) * lo, and a read past i * hi takes the band's last
# (flat) cell. So every tie settles as in the full choice table below.
def dp_plan_reference(partitions, profiles, d_max: int) -> OffloadPlan:
    """Multiple-choice knapsack over a full (d_max + 1)-column table with a
    per-cell choice array; ties prefer smaller latency, then smaller model
    input, and the optimal column is the first t attaining the maximum."""
    if not d_max >= 0:
        raise ValueError(f"d_max must be an integer number of ms >= 0, got {d_max!r}")
    if not partitions:
        raise ValueError("no partitions to plan")
    if not profiles:
        raise ValueError("no model profiles")
    n = len(partitions)
    # canonical model order realizes the tie-break under strict improvement
    order = sorted(range(len(profiles)),
                   key=lambda j: (profiles[j].latency_ms, profiles[j].input_size))
    prec = np.array([[partition_precision_reference(p, prof) for prof in profiles]
                     for p in partitions])
    width = d_max + 1
    prev = np.zeros(width)
    choice = np.full((n, width), -1, dtype=int)
    for i in range(n):
        best = np.full(width, -np.inf)
        for j in order:
            d = profiles[j].latency_ms
            if d > d_max:
                continue
            cand = np.full(width, -np.inf)
            cand[d:] = prev[:width - d] + prec[i, j]
            better = cand > best
            best[better] = cand[better]
            choice[i][better] = j
        prev = best
    if not np.isfinite(prev).any():
        cheapest = sum(min(p.latency_ms for p in profiles) for _ in partitions)
        raise InfeasiblePlanError(
            f"budget {d_max} ms infeasible: cheapest assignment needs "
            f"{cheapest} ms (short by {cheapest - d_max} ms)")
    opt_t = int(np.argmax(prev))
    total_precision = float(prev[opt_t])
    t = opt_t
    picks = []
    for i in range(n - 1, -1, -1):
        j = int(choice[i][t])
        picks.append(j)
        t -= profiles[j].latency_ms
    picks.reverse()
    assignments = tuple(
        (part.id, profiles[j].name, profiles[j].latency_ms, float(prec[i, j]))
        for i, (part, j) in enumerate(zip(partitions, picks))
    )
    total_latency = sum(lat for _, _, lat, _ in assignments)
    # invariants asserted on every solve
    assert len(assignments) == n, "plan must assign exactly one model per partition"
    assert total_latency <= d_max, "plan exceeds the latency budget"
    return OffloadPlan(assignments, total_precision, total_latency, opt_t)


# ``generate_scene`` makes one batched ``rng.random`` call per scene, which
# gives each object's six uniforms in the per-call order below (a batched
# draw yields the same doubles as single calls). The stratum draw is
# ``Generator.choice``'s own method: the first uniform is searched in the
# normalised cdf of the weights, built once per scene. The other five become
# ``rng.uniform(low, high)``'s value ``low + (high - low) * u``, elementwise
# over the scene's columns with ``high - low`` taken as written and the
# clamps as ``np.where``, so frames equal this one draw for draw.
def generate_scene_reference(spec) -> Frame:
    """Synthetic frame with each object's stratum drawn by
    ``rng.choice(len(strata), p=weights)``."""
    rng = np.random.default_rng(spec.seed)
    count = int(rng.integers(spec.count_min, spec.count_max + 1))
    weights = np.array([s.density for s in spec.strata], dtype=float)
    weights /= weights.sum()
    boxes = []
    for _ in range(count):
        s = spec.strata[int(rng.choice(len(spec.strata), p=weights))]
        cy = float(rng.uniform(s.y0, s.y1))
        rel = (cy - s.y0) / (s.y1 - s.y0) if s.y1 > s.y0 else 0.5
        t = min(1.0, max(0.0, rel + rng.uniform(-0.25, 0.25)))
        h = s.size_min + (s.size_max - s.size_min) * t
        w = min(1.0, h * float(rng.uniform(0.6, 1.1)))
        cx = float(rng.uniform(w / 2.0, 1.0 - w / 2.0))
        cy = min(max(cy, h / 2.0), 1.0 - h / 2.0)
        score = float(rng.uniform(0.3, 1.0))
        boxes.append(DetectionBox(cx, cy, w, h, score, 0))
    return Frame(spec.width_px, spec.height_px, tuple(boxes))


def returns_reference(rewards, gamma: float):
    """G_t as the literal forward sum over remaining rewards."""
    n = len(rewards)
    return [sum(gamma ** k * rewards[t + k] for k in range(n - t))
            for t in range(n)]


def mlp_reference(params, x):
    """Triple-loop forward pass over one input vector."""
    a = list(x)
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for j in range(w.shape[1]):
            z = b[j]
            for i in range(w.shape[0]):
                z += a[i] * w[i, j]
            out.append(z if layer == last else max(z, 0.0))
        a = out
    return np.array(a)


def hidden_preactivations(params, x) -> list[np.ndarray]:
    """Each hidden layer's product before its rectifier, over a (B, fan_in)
    batch, rounded as ``mlp_forward`` rounds it (``z = a @ w; z += b``), for
    tests that keep their inputs off the rectifier's kink."""
    pre, a = [], x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w
        z += b
        pre.append(z)
        a = np.maximum(z, 0.0)
    return pre


def kmeans_1d_best_cost(values) -> float:
    """Minimum 2-way within-cluster SSE over contiguous sorted splits."""
    s = sorted(values)
    n = len(s)

    def sse(chunk):
        mu = sum(chunk) / len(chunk)
        return sum((v - mu) ** 2 for v in chunk)

    return min(sse(s[:m]) + sse(s[m:]) for m in range(1, n))


def labels_cost(values, labels) -> float:
    """Within-cluster SSE of an arbitrary 0/1 labeling."""
    total = 0.0
    for lbl in (0, 1):
        chunk = [v for v, l in zip(values, labels) if l == lbl]
        if chunk:
            mu = sum(chunk) / len(chunk)
            total += sum((v - mu) ** 2 for v in chunk)
    return total


def mckp_enumerate(precisions, latencies, d_max: int):
    """Exhaustive best over every model combination within the budget.

    precisions[i][j]: precision of partition i under model j. Sums are
    accumulated left to right over partitions (same order as any sane DP)
    so optimal values compare exactly. Returns (best value, best combo) or
    (None, None) if nothing fits.
    """
    n = len(precisions)
    k = len(latencies)
    best_val, best_combo = None, None
    for combo in itertools.product(range(k), repeat=n):
        if sum(latencies[j] for j in combo) > d_max:
            continue
        val = 0.0
        for i, j in enumerate(combo):
            val = val + precisions[i][j]
        if best_val is None or val > best_val:
            best_val, best_combo = val, combo
    return best_val, best_combo


def optimal_makespan(latencies, servers: int) -> int:
    """Exhaustive minimum makespan over every block-to-server assignment."""
    n = len(latencies)
    best = sum(latencies)
    for combo in itertools.product(range(servers), repeat=n):
        loads = [0] * servers
        for lat, s in zip(latencies, combo):
            loads[s] += lat
        best = min(best, max(loads))
    return best


def optimal_makespan_fast(latencies, servers: int) -> int:
    """Same exhaustive search, vectorized: assignments as base-`servers`
    digit rows of a (servers^n, n) matrix."""
    n = len(latencies)
    total = servers ** n
    lat = np.asarray(latencies, dtype=np.int64)
    digits = np.arange(total)
    loads = np.zeros((total, servers), dtype=np.int64)
    rows = np.arange(total)
    for k in range(n):
        loads[rows, digits % servers] += lat[k]
        digits = digits // servers
    return int(loads.max(axis=1).min())


def finite_diff_grads(params, loss_fn, h: float = 1e-5):
    """Central finite differences of loss_fn over every entry of params."""
    dws, dbs = [], []
    for w in params.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = w[ix]
            w[ix] = old + h
            up = loss_fn(params)
            w[ix] = old - h
            down = loss_fn(params)
            w[ix] = old
            g[ix] = (up - down) / (2 * h)
        dws.append(g)
    for b in params.biases:
        g = np.zeros_like(b)
        for i in range(len(b)):
            old = b[i]
            b[i] = old + h
            up = loss_fn(params)
            b[i] = old - h
            down = loss_fn(params)
            b[i] = old
            g[i] = (up - down) / (2 * h)
        dbs.append(g)
    return dws, dbs


def random_boxes(rng, n: int, classes: int = 1):
    boxes = []
    for _ in range(n):
        w = float(rng.uniform(0.02, 0.3))
        h = float(rng.uniform(0.02, 0.3))
        boxes.append(DetectionBox(
            cx=float(rng.uniform(w / 2, 1 - w / 2)),
            cy=float(rng.uniform(h / 2, 1 - h / 2)),
            w=w, h=h,
            score=float(rng.uniform(0.0, 1.0)),
            class_id=int(rng.integers(0, classes)),
        ))
    return boxes


def random_config(rng, n_clusters: int, min_size: int = 1,
                  max_size: int = 6) -> ClusterConfig:
    """A valid random configuration: random boxes partitioned into clusters."""
    sizes = [int(rng.integers(min_size, max_size + 1)) for _ in range(n_clusters)]
    boxes = random_boxes(rng, sum(sizes))
    order = rng.permutation(len(boxes))
    clusters = []
    at = 0
    for s in sizes:
        members = order[at:at + s].tolist()
        clusters.append(make_cluster(members, boxes))
        at += s
    return ClusterConfig(tuple(clusters), tuple(boxes))


def geometry_of(config: ClusterConfig, transform=None) -> ClusterGeometry:
    """The clustering space of ``config``'s frame; raw (x, y) by default."""
    return ClusterGeometry(config.detections, transform)


def tied_config(rng, sizes, grid: int | None = None, copies=()) -> ClusterConfig:
    """A random configuration with clusters of the given sizes, members in
    box order.

    With ``grid``, centres and box sides are multiples of 1/grid, so
    distances and areas tie exactly. Each cluster index in ``copies``
    (other than 0) repeats the boxes of the cluster before it instead, so
    the two centroids coincide bit for bit.
    """
    boxes: list[DetectionBox] = []
    clusters = []
    for k, size in enumerate(sizes):
        if k in copies and k > 0:
            new = [boxes[i] for i in clusters[-1]]
        else:
            new = []
            for _ in range(size):
                w, h = rng.uniform(0.01, 0.2, size=2)
                cx = rng.uniform(w / 2, 1 - w / 2)
                cy = rng.uniform(h / 2, 1 - h / 2)
                if grid is not None:
                    cx, cy = round(cx * grid) / grid, round(cy * grid) / grid
                    w, h = max(1, round(w * grid)) / grid, max(1, round(h * grid)) / grid
                new.append(DetectionBox(float(cx), float(cy), float(w), float(h)))
        clusters.append(make_cluster(range(len(boxes), len(boxes) + len(new)),
                                     boxes + new))
        boxes += new
    return ClusterConfig(tuple(clusters), tuple(boxes))


def meanshift_both_loops(points, bandwidth: float, tol: float = 1e-4,
                         max_iter: int = 300) -> list:
    """MeanShift's labels of one frame on the y-band loop (``meanshift``),
    then on the dense loop: a one-frame ``meanshift_frames`` under a
    ``clustering.DENSE_MAX`` that sends a frame of any size there."""
    saved = clustering.DENSE_MAX
    clustering.DENSE_MAX = sys.maxsize
    try:
        dense = clustering.meanshift_frames([points], [bandwidth], tol, max_iter)[0]
    finally:
        clustering.DENSE_MAX = saved
    return [clustering.meanshift(points, bandwidth, tol, max_iter), dense]
