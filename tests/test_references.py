"""One registry of (function, reference, strategy, examples) entries: each
library function must return exactly what its reference in ``oracles.py``
returns (``==`` on plain values) on every drawn input."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan.clustering import (
    DENSE_MAX,
    ClusterGeometry,
    TransformParams,
    estimate_bandwidth,
    kmeans_1d,
    meanshift_frames,
    select_merge_pair,
    split_cluster,
)
from sceneplan.core import (
    Boxes,
    ClusterConfig,
    DetectionBox,
    Frame,
    bounding_blocks,
    make_cluster,
    nms,
)
from sceneplan.offload import (
    InfeasiblePlanError,
    ModelProfile,
    PartitionDescriptor,
    default_profiles,
    dp_plan,
    partitions_from_blocks,
    precision_table,
)
from sceneplan.ppo import masked_log_softmax, policy_sample
from sceneplan.rl_env import RewardWeights, action_mask, encode_state, reward, rewards
from sceneplan.scene import (
    SceneSpec,
    Stratum,
    TileRows,
    aggregate_tiles,
    coarse_detect,
    generate_scene,
    observe_tiles,
    tile_frame,
)

from oracles import (
    action_mask_reference,
    aggregate_tiles_reference,
    bounding_block_reference,
    centroids_reference,
    cluster_means_reference,
    dp_plan_reference,
    encode_state_reference,
    estimate_bandwidth_reference,
    generate_scene_reference,
    geometry_stats_reference,
    kmeans_1d_reference,
    make_cluster_reference,
    meanshift_both_loops,
    meanshift_reference,
    nms_reference,
    observe_tiles_reference,
    pair_distance,
    partitions_from_blocks_reference,
    policy_sample_rows_reference,
    precision_table_reference,
    random_boxes,
    random_config,
    reward_centroids,
    reward_per_cluster_reference,
    select_merge_pair_reference,
    split_cluster_reference,
    tied_config,
    tile_rows,
)


def plain(value):
    """Arrays, dataclasses, tuples, lists and the library's row sequences
    (``Boxes``, ``TileRows``) as nested lists of Python scalars, each float
    beside its sign (so -0.0 differs from 0.0); an array keeps its dtype
    and shape beside its values."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, plain(value.tolist()))
    if dataclasses.is_dataclass(value):
        return plain(dataclasses.astuple(value))
    if isinstance(value, (tuple, list, Boxes, TileRows)):
        return [plain(v) for v in value]
    if isinstance(value, float):
        return (value, math.copysign(1.0, value))
    return value


# --- ClusterGeometry.stats ---------------------------------------------------

COORD = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]),
                  st.floats(0.0, 1.0))
SIDE = st.one_of(st.just(1.0), st.floats(1e-3, 1.0))
BOX = st.builds(DetectionBox, COORD, COORD, SIDE, SIDE)
TRANSFORM = st.sampled_from([None, TransformParams(0.5), TransformParams(0.3)])


# numpy's 1-D sums go pairwise from 8 values, in blocks of 128
MEMBERS = st.one_of(st.sampled_from([7, 8, 127, 128, 129]), st.integers(1, 64),
                    st.integers(1, 1000))


@st.composite
def geometry_args(draw):
    """Frames whose boxes repeat a small pool (duplicated centres, zero
    coordinates), and a cluster of a ``MEMBERS`` count of members; a drawn
    seed lays the pool's boxes out and picks the members, so a frame of
    1,000 boxes stays a few draws."""
    k = draw(MEMBERS)
    pool = draw(st.lists(BOX, min_size=1, max_size=min(k, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dets = tuple(pool[i] for i in rng.integers(len(pool), size=k + draw(st.integers(0, 3))))
    members = tuple(sorted(rng.permutation(len(dets))[:k].tolist()))
    return dets, draw(TRANSFORM), members


def stats_new(dets, transform, members):
    return ClusterGeometry(dets, transform).stats(members)


def stats_reference(dets, transform, members):
    # the reference's centroid is a numpy pair; stats gives a float pair
    centroid, spread, area_var = geometry_stats_reference(
        ClusterGeometry(dets, transform), members)
    return (float(centroid[0]), float(centroid[1])), spread, area_var


def centroid_new(dets, transform, members):
    # the row memo first, then the statistics that read its centroid
    geometry = ClusterGeometry(dets, transform)
    return geometry.centroid(members), geometry.stats(members)[0]


def centroid_reference(dets, transform, members):
    centroid = stats_reference(dets, transform, members)[0]
    return centroid, centroid


# --- select_merge_pair and split_cluster -------------------------------------

def tied_configs_of(clusters: int, members: int):
    """Tied configurations of 1 to ``clusters`` clusters of 1 to ``members``
    members: a seed, cluster sizes, an optional grid that makes distances
    tie exactly, and clusters that repeat their predecessor's boxes."""
    return st.builds(
        lambda seed, sizes, grid, copies: tied_config(np.random.default_rng(seed),
                                                      sizes, grid, copies),
        st.integers(0, 2 ** 32 - 1),
        st.lists(st.integers(1, members), min_size=1, max_size=clusters),
        st.sampled_from([None, 4, 16, 64]), st.sets(st.integers(1, 7), max_size=3))


tied_configs = tied_configs_of(8, 100)
# the merge pair's pair loop runs below 13 clusters, its distance array from 13 on
merge_configs = tied_configs_of(20, 12)
transforms = st.sampled_from([None, TransformParams(0.5)])


def geometries(config, transform):
    """A fresh geometry of ``config``'s frame, and one whose memo already
    holds every cluster's statistics."""
    fresh, filled = (ClusterGeometry(config.detections, transform) for _ in range(2))
    for c in config.clusters:
        filled.stats(c)
    return fresh, filled


def merge_pair_new(config, transform):
    return [select_merge_pair(config, g) for g in geometries(config, transform)]


def merge_pair_reference(config, transform):
    return [select_merge_pair_reference(config, transform)] * 2


def splittable(config):
    return [i for i, c in enumerate(config.clusters) if len(c) >= 2]


def split_clusters(config, split):
    """Each split's clusters, and whether it keeps ``config``'s detections:
    the boxes are the same object, so comparing them adds nothing but time
    at 100-member clusters."""
    return [(out.clusters, out.detections is config.detections)
            for out in (split(i) for i in splittable(config))]


def splits_new(config, transform):
    return [split_clusters(config, lambda i: split_cluster(config, i, g))
            for g in geometries(config, transform)]


def splits_reference(config, transform):
    return [split_clusters(config, lambda i: split_cluster_reference(config, i, transform))] * 2


@st.composite
def swapped_axis_args(draw):
    """One cluster of 2-100 members whose y centres are its x centres in
    another order, in raw space: exact arithmetic ties the two variances,
    so the order of each sum picks the split axis; on a grid the sums are
    exact, the variances tie and y must win."""
    grid = draw(st.sampled_from([None, 64]))
    xs = draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=100))
    if grid is not None:
        xs = [round(x * grid) / grid for x in xs]
    ys = draw(st.permutations(xs))
    boxes = tuple(DetectionBox(x, y, 0.02, 0.02) for x, y in zip(xs, ys))
    return ClusterConfig((make_cluster(range(len(boxes)), boxes),), boxes), None


# --- rewards -----------------------------------------------------------------------

@st.composite
def scored_args(draw):
    """1-6 tied configurations, each of its own frame and under its own
    transform, with a fresh geometry or one whose memo holds every
    cluster, sometimes scored twice in one batch; all weighted with a d_m
    at, or an ulp either side of, a centroid distance of one of them, or 0.2."""
    scored, distances = [], []
    for _ in range(draw(st.integers(1, 6))):
        config, transform = draw(tied_configs), draw(transforms)
        cents = centroids_reference(config, transform)
        if config.count >= 2:
            i, j = draw(st.permutations(range(config.count)))[:2]
            distances.append(pair_distance(cents[i], cents[j]))
        item = (config, geometries(config, transform)[draw(st.integers(0, 1))])
        scored += [item] * draw(st.integers(1, 2))
    d_m, d = 0.2, draw(st.sampled_from(distances)) if distances else 0.0
    step = draw(st.sampled_from([-1, 0, 1]))
    if d > 0.0:
        d_m = d if step == 0 else math.nextafter(d, step * math.inf)
    return scored, RewardWeights(alpha=3.0, beta=7.0, gamma=11.0, delta=2.0,
                                 n_min=2, n_max=4, d_m=d_m)


def rewards_reference(scored, weights):
    return [reward_per_cluster_reference(config, weights, geometry.transform)
            for config, geometry in scored]


@st.composite
def reward_args(draw):
    """A tied configuration of 1-8 clusters of 1-40 members, in raw space
    or transformed, weighted with a d_m at, or one ulp either side of, one
    pair's centroid distance, or 0.2."""
    config = tied_config(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                         draw(st.lists(st.integers(1, 40), min_size=1, max_size=8)),
                         draw(st.sampled_from([None, 4, 16, 64])),
                         draw(st.sets(st.integers(1, 7), max_size=3)))
    alpha, pair, ulps = (draw(st.sampled_from([None, 0.5])), draw(st.integers(0, 63)),
                         draw(st.sampled_from([-1, 0, 1])))
    transform = None if alpha is None else TransformParams(alpha)
    d_m = 0.2
    if config.count >= 2:
        i, j = pair % config.count, (pair // 8) % config.count
        cents = reward_centroids(config, transform)
        d = pair_distance(cents[i], cents[j])
        if d > 0.0:
            d_m = d if ulps == 0 else math.nextafter(d, ulps * math.inf)
    weights = RewardWeights(alpha=3.0, beta=7.0, gamma=11.0, delta=2.0,
                            n_min=2, n_max=4, d_m=d_m)
    return config, weights, transform


def reward_three_ways(config, weights, transform):
    """``reward``, then ``rewards`` twice on one geometry: memo filled, then read."""
    geometry = ClusterGeometry(config.detections, transform)
    return [reward(config, weights, transform),
            *(rewards([(config, geometry)], weights)[0].tolist() for _ in range(2))]


def reward_reference_three_ways(config, weights, transform):
    return [reward_per_cluster_reference(config, weights, transform)] * 3


# --- kmeans_1d ----------------------------------------------------------------------

VALUE = (st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, math.inf, -math.inf,
                          1e154, 1e200, -1e300, sys.float_info.max])
         | st.floats(-10.0, 10.0) | st.floats(allow_nan=False))


def quiet(function):
    """``function`` with numpy's overflow and invalid warnings off: infinite
    and huge values give inf and NaN costs on purpose."""
    def run(*args):
        with np.errstate(over="ignore", invalid="ignore"):
            return function(*args)
    return run


@st.composite
def mirrored_values(draw):
    """Three groups mirrored about a centre c: the splits that cut off the
    lower or the upper group cost the same in exact arithmetic, so the
    rounding of each operation picks the winner."""
    c, d = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.5, 3.0))
    half = ([c - d + e for e in draw(st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=6))]
            + [c + e for e in draw(st.lists(st.floats(0.0, 0.3), max_size=3))])
    return half + [2.0 * c - v for v in half] + draw(st.sampled_from([[], [c]]))


@st.composite
def kmeans_args(draw):
    """2-80 values drawn from a small pool (ties), signed zeros, infinities
    and values whose squares or sums overflow; or mirrored groups."""
    pool = draw(st.lists(VALUE, min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool) | VALUE, min_size=2, max_size=80)
                  | mirrored_values())
    return (values,)


# --- bounding_blocks ------------------------------------------------------------------

@st.composite
def block_args(draw):
    """Boxes on and past the frame's edges (centres at 0 or 1, full-frame
    sides) cut into 0-6 clusters, a margin of 0, above 0 or below 0, and a
    frame as small as one pixel."""
    boxes = draw(st.lists(BOX, min_size=1, max_size=20))
    order = draw(st.permutations(range(len(boxes))))
    cuts = sorted(draw(st.sets(st.integers(1, len(boxes)), max_size=5)) | {len(boxes)})
    clusters = tuple(make_cluster(order[a:b], boxes) for a, b in zip([0] + cuts, cuts))
    config = ClusterConfig(clusters[:draw(st.integers(0, len(clusters)))], tuple(boxes))
    margin = draw(st.sampled_from([0.0, -0.0, 0.1, 0.5, -0.25]) | st.floats(0.0, 3.0))
    frame = Frame(*draw(st.sampled_from([(1, 1), (2, 3), (1000, 1000), (1001, 799),
                                         (3840, 2160)])))
    return config, margin, frame


def blocks_reference(config, margin, frame):
    if not margin >= 0.0:  # the reference checks the margin per cluster
        raise ValueError(f"margin must be >= 0, got {margin!r}")
    return [bounding_block_reference(c, config.detections, margin, frame)
            for c in config.clusters]


@st.composite
def partition_args(draw):
    """``block_args``' clusters and frames, cut at their blocks for a
    margin of 0 or above."""
    config, margin, frame = draw(block_args())
    return config, frame, bounding_blocks(config, abs(margin), frame)


# --- encode_state and action_mask ----------------------------------------------

@st.composite
def config_args(draw):
    """Random configurations (singleton-only ones leave keep as the only
    valid action), padded or truncated to n_pad slots."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    max_size = draw(st.sampled_from([1, 3, 8]))
    config = random_config(rng, draw(st.integers(1, 12)), 1, max_size)
    return config, draw(st.integers(1, 15))


def state_new(config, n_pad):
    """The state in a raw and in a transformed geometry: both read the raw
    means."""
    return [encode_state(config, ClusterGeometry(config.detections, transform), n_pad)
            for transform in (None, TransformParams(0.5))]


def state_reference(config, n_pad):
    return [encode_state_reference(config, n_pad, len(config.detections))] * 2


# --- policy_sample --------------------------------------------------------------

LOGIT = st.one_of(st.sampled_from([0.0, 700.0, -700.0, 800.0]), st.floats(-50.0, 50.0))


@st.composite
def sample_args(draw):
    """One to six rows of logits up to 1,500 apart (zero probabilities),
    masks with one or more valid actions per row, and a generator seed."""
    n, rows = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    logits = np.array([draw(st.lists(LOGIT, min_size=n, max_size=n)) for _ in range(rows)])
    masks = np.array([draw(st.lists(st.booleans(), min_size=n, max_size=n))
                      for _ in range(rows)])
    for mask in masks:
        mask[draw(st.integers(0, n - 1))] = True
        if draw(st.booleans()):  # a single valid action
            mask[:] = False
            mask[draw(st.integers(0, n - 1))] = True
    return logits, masks, draw(st.integers(0, 2 ** 32 - 1))


def seeded(sample):
    """The draw and the generator's next double, from a fresh generator."""
    def run(logits, mask, seed):
        rng = np.random.default_rng(seed)
        return sample(logits, mask, rng), rng.random()
    return run


# --- meanshift --------------------------------------------------------------------

# grid points give coincident points, exact distance ties and modes that
# sit exactly at bandwidth or bandwidth/2 from each other; signed zeros
# give modes that are equal as floats but differ in sign
GRID = st.sampled_from([k / 8 for k in range(9)])
POINT = (st.tuples(GRID, GRID) | st.tuples(st.floats(0, 1), st.floats(0, 1))
         | st.tuples(st.sampled_from([0.0, -0.0, 1.0]), st.sampled_from([0.0, -0.0, 0.5])))


SIGNED_ZERO = st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
# caps that stop modes mid-path, where a follower's stop can overrun the cap,
# and tolerances that stop them off a fixed point
MAX_ITER = st.integers(1, 8) | st.sampled_from([0, 300])
TOL = st.sampled_from([0.01, 0.03, 1e-4])


@st.composite
def shared_path_points(draw):
    """5-60 points whose modes move onto positions other modes moved on
    from, often iterations later, and onto followers' paths: a density ramp
    (uniform ** 2 or ** 3) along the line y = 0 or in the plane, along which
    modes drift far, or normal blobs. Free or snapped to a grid, plus up to
    4 signed zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, layout = int(rng.integers(5, 61)), draw(st.sampled_from(["line", "plane", "blobs"]))
    if layout == "blobs":
        centres = rng.uniform(0.0, 1.0, (int(rng.integers(1, 5)), 2))
        points = centres[rng.integers(0, len(centres), n)] + \
            rng.normal(0.0, rng.choice([0.02, 0.06, 0.15]), (n, 2))
    else:
        points = rng.uniform(0.0, 1.0, (n, 2)) ** rng.choice([2, 3])
        points[:, 1] *= layout == "plane"
    step = draw(st.sampled_from([0.0, 1 / 64, 1 / 16]))
    if step:
        points = np.round(points / step) * step
    return points.tolist() + draw(st.lists(SIGNED_ZERO, max_size=4))


@st.composite
def meanshift_args(draw, points=st.lists(POINT, min_size=1, max_size=60) | shared_path_points(),
                   bandwidth=st.sampled_from([0.05, 0.125, 0.2, 0.25, 0.5, 1.0])
                   | st.sampled_from([1e-300, 1e308, sys.float_info.max])):
    """Points plus up to 20 repeats, a bandwidth, a tolerance and an
    iteration cap."""
    points = draw(points)
    repeats = draw(st.lists(st.integers(0, 59), max_size=20))
    points = points + [points[i % len(points)] for i in repeats]
    return np.array(points), draw(bandwidth), draw(TOL), draw(MAX_ITER)


def twice(reference):
    return lambda *args: [reference(*args)] * 2


BANDWIDTH = (st.sampled_from([0.05, 0.125, 0.2, 0.25, 0.5, 1.0])
             | st.sampled_from([1e-300, 1e308, sys.float_info.max]))


@st.composite
def frame_points(draw):
    """One frame's points: ``meanshift_args``' sets of at most 80 points,
    5 to 2 * DENSE_MAX uniform points (free or on a 1/16 grid, often
    crowded towards a corner), or up to DENSE_MAX + 40 points at
    coordinates up to 1e300 with a few near the origin."""
    kind = draw(st.sampled_from(["drawn", "uniform", "uniform", "huge"]))
    if kind == "drawn":
        return draw(meanshift_args())[0]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "huge":
        n = int(rng.integers(1, DENSE_MAX + 41))
        return np.concatenate([rng.uniform(-1e300, 1e300, (n, 2)),
                               rng.uniform(0.0, 1.0, (int(rng.integers(0, 4)), 2))])
    n = int(rng.choice([int(rng.integers(5, 2 * DENSE_MAX + 1)), DENSE_MAX, DENSE_MAX + 1]))
    points = rng.uniform(0.0, 1.0, (n, 2)) ** rng.choice([1, 2])
    return np.round(points * 16) / 16 if draw(st.booleans()) else points


@st.composite
def frames_args(draw):
    """1-5 frames on both sides of DENSE_MAX, each with its own bandwidth,
    and a tolerance and iteration cap shared by all."""
    frames = draw(st.lists(frame_points(), min_size=1, max_size=5))
    bandwidths = draw(st.lists(BANDWIDTH, min_size=len(frames), max_size=len(frames)))
    return frames, bandwidths, draw(TOL), draw(MAX_ITER)


def warning_free(function):
    """``function`` with numpy's float warnings raised as errors."""
    def run(*args):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return function(*args)
    return run


def frames_reference(frames, bandwidths, tol, max_iter):
    return [meanshift_reference(points, bandwidth, tol, max_iter)
            for points, bandwidth in zip(frames, bandwidths)]


# --- observe_tiles and aggregate_tiles ------------------------------------------

FRAMES = st.builds(
    lambda size, seed, n: Frame(*size, tuple(random_boxes(np.random.default_rng(seed), n, 2))),
    st.sampled_from([(1000, 1000), (1001, 799), (3840, 2160)]),
    st.integers(0, 2 ** 32 - 1), st.integers(0, 40))
TILES = st.sampled_from([(1, 1), (1, 4), (2, 3), (3, 4)])


# the observation settings: min_visible, drop_prob and jitter_sigma (noise
# off or on) and a seed
OBSERVING = (st.floats(0.01, 1.0), st.just(0.0) | st.floats(0.01, 0.9),
             st.just(0.0) | st.floats(1e-4, 0.05), st.integers(0, 2 ** 32 - 1))


@st.composite
def observe_args(draw):
    """Frames of 0-40 boxes of two classes, a grid, and the observation
    settings."""
    frame = draw(FRAMES)
    return (frame, tile_frame(frame, *draw(TILES)), *draw(st.tuples(*OBSERVING)))


# tile-local rows past the frame's edges, sides to clamp, signed zeros
EDGE_COORD = st.sampled_from([-0.0, 0.0, 1.0, -0.25, 1.5]) | st.floats(-0.5, 1.5)
EDGE_SIDE = st.sampled_from([1e-9, 1.0, 4.0]) | st.floats(1e-4, 2.0)
EDGE_SCORE = st.sampled_from([-0.0, 0.0, 1.0, -0.3, 1.7]) | st.floats(-0.5, 1.5)
EDGE_ROW = st.tuples(EDGE_COORD, EDGE_COORD, EDGE_SIDE, EDGE_SIDE, EDGE_SCORE,
                     st.integers(0, 1))


@st.composite
def aggregate_args(draw):
    """A grid's observations (noisy, so jittered boxes poke out of the
    frame) plus up to 3 edge rows per tile, and an IoU threshold."""
    frame, grid, *settings_ = draw(observe_args())
    per_tile = observe_tiles_reference(frame, grid, *settings_)
    for rows in per_tile:
        rows.extend(draw(st.lists(EDGE_ROW, max_size=3)))
    return per_tile, grid, draw(st.sampled_from([0.3, 0.5]) | st.floats(0.05, 0.95))


def aggregate_new(per_tile, grid, iou_threshold):
    return aggregate_tiles([tile_rows(rows) for rows in per_tile], grid, iou_threshold)


def coarse_new(frame, tiles, iou_threshold, *settings_):
    return coarse_detect(frame, *tiles, iou_threshold, *settings_).detections


def coarse_reference(frame, tiles, iou_threshold, *settings_):
    grid = tile_frame(frame, *tiles)
    return aggregate_tiles_reference(observe_tiles_reference(frame, grid, *settings_), grid,
                                     iou_threshold)


coarse_args = st.tuples(FRAMES, TILES, st.sampled_from([0.3, 0.5]) | st.floats(0.05, 0.95),
                        *OBSERVING)


# --- make_cluster -------------------------------------------------------------------

@st.composite
def cluster_args(draw):
    """Members of a coarse frame (noisy, so some boxes clamp onto the
    frame's edges) or of the same boxes as a plain tuple: in any order,
    sometimes with duplicates, or none."""
    detections = coarse_new(*draw(coarse_args))
    if draw(st.booleans()):
        detections = tuple(detections)
    n = len(detections)
    members = draw(st.lists(st.integers(0, n - 1), unique=draw(st.booleans()),
                            max_size=n + 2)) if n else []
    return members, detections


def cluster_new(members, detections):
    """The cluster and its raw means in a raw and in a transformed geometry."""
    cluster = make_cluster(members, detections)
    return cluster, [ClusterGeometry(detections, transform).means(cluster)
                     for transform in (None, TransformParams(0.5))]


def cluster_reference(members, detections):
    cluster = make_cluster_reference(members, detections)
    return cluster, [cluster_means_reference(cluster, detections)] * 2


# --- estimate_bandwidth -------------------------------------------------------------

@st.composite
def bandwidth_points(draw):
    """2 to 2,000 uniform points in the unit square (1,000 is the most that
    is not subsampled; 1,001 and 2,000 take the 1,000-point subsample), or
    their copies on a 1/8 grid, which add coincident points and exact
    distance ties."""
    n = draw(st.sampled_from([2, 3, 17, 250, 999, 1000, 1001, 2000]))
    pts = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(size=(n, 2))
    return (np.round(pts * 8) / 8 if draw(st.booleans()) else pts,)


def at_quantiles(estimate):
    return lambda points: [estimate(points, q) for q in (0.05, 0.2, 0.9)]


# --- nms ---------------------------------------------------------------------------

def kept_ids(suppress):
    """``suppress``'s kept boxes by identity, so that equal boxes at
    different positions count as different boxes."""
    return lambda boxes, threshold: [id(b) for b in suppress(boxes, threshold)]


RANDOM_BOXES = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_boxes(np.random.default_rng(seed), 10, classes=2))

# Centres and sizes on a 1/8 grid put box edges on exact binary fractions,
# so edges that touch give iw == 0 exactly and IoUs such as 1/2 or 1/3 land
# on the thresholds; four score levels force ties that position must break.
GRID = [k / 8 for k in range(1, 8)]
SIZES = [k / 8 for k in range(1, 5)]
THRESHOLDS = [0.1, 1 / 3, 0.5, 0.7, 0.9]


@st.composite
def crowded_boxes(draw):
    classes = draw(st.integers(1, 3))
    box = st.builds(
        DetectionBox,
        cx=st.sampled_from(GRID), cy=st.sampled_from(GRID),
        w=st.sampled_from(SIZES), h=st.sampled_from(SIZES),
        score=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        class_id=st.integers(0, classes - 1))
    distinct = draw(st.lists(box, min_size=1, max_size=100))
    repeats = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=100))
    # exact duplicates as new objects, so only their position tells them apart
    boxes = distinct + [dataclasses.replace(distinct[i]) for i in repeats]
    return draw(st.permutations(boxes))


# Edges on a 1/16 grid touch exactly; a coordinate moved one ulp down or up
# makes touching edges overlap or miss by about an ulp. Centres at 0 and 1
# clamp extents to the frame, a size of 2**-60 rounds away against most
# centres (x0 == x1), and a shared column gives many equal x0.
EDGE_GRID = [k / 16 for k in range(17)]
EDGE_SIZES = [2.0 ** -60] + [k / 16 for k in range(1, 9)] + [1.0]


def ulp_nudged(values, lo, hi):
    """A grid value, or the float one ulp below or above it, kept in [lo, hi]."""
    def nudge(drawn):
        value, step = drawn
        return min(hi, max(lo, float(np.nextafter(value, step * np.inf)))) if step else value
    return st.tuples(st.sampled_from(values), st.sampled_from([-1, 0, 0, 1])).map(nudge)


@st.composite
def swept_boxes(draw):
    classes = draw(st.integers(1, 3))
    centre = ulp_nudged(EDGE_GRID, 0.0, 1.0)
    size = ulp_nudged(EDGE_SIZES, 5e-324, 1.0)
    score = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    cls = st.integers(0, classes - 1)
    boxes = draw(st.lists(st.builds(DetectionBox, centre, centre, size, size, score, cls),
                          min_size=1, max_size=60))
    column_cx, column_w = draw(centre), draw(size)
    boxes += draw(st.lists(st.builds(DetectionBox, st.just(column_cx), centre,
                                     st.just(column_w), size, score, cls), max_size=20))
    return draw(st.permutations(boxes))


def crowd_with_duplicates(seed):
    """640 boxes of two classes, then near-duplicates of the first 160 at
    half their score, as overlapping tiles report them."""
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(640):
        w, h = (float(v) for v in rng.uniform(0.005, 0.06, size=2))
        cx, cy = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
        boxes.append(DetectionBox(cx, cy, w, h, float(rng.uniform()), int(rng.integers(2))))
    for b in boxes[:160]:
        boxes.append(dataclasses.replace(b, cx=min(1.0, b.cx + 0.1 * b.w), score=b.score / 2))
    return boxes


# --- precision_table and dp_plan ---------------------------------------------------

def caught(function):
    """The call's result, or its exception's type and text."""
    def run(*args):
        try:
            return function(*args)
        except (ValueError, InfeasiblePlanError) as e:
            return type(e), str(e)
    return run


@st.composite
def curves(draw):
    edges = sorted(draw(st.sets(st.sampled_from([4.0, 16.0, 40.0, 64.0, 160.0,
                                                 640.0, 4096.0, 65536.0]),
                                min_size=1, max_size=6)))
    maps = draw(st.lists(st.sampled_from([k / 8 for k in range(9)])
                         | st.floats(0, 1), min_size=len(edges), max_size=len(edges)))
    return tuple(zip(edges, maps))


@st.composite
def plan_parts(draw):
    """1-5 profiles, often sharing a curve, and 1-6 blocks of 1-12 boxes
    whose scaled areas fall past both ends of the curves."""
    k = draw(st.integers(1, 5))
    shared = draw(curves())
    profiles = []
    for j in range(k):
        same = draw(st.booleans())
        profiles.append(ModelProfile(
            f"m{j}",
            draw(st.sampled_from([320, 640, 640, 1280])),
            draw(st.sampled_from([7, 7, 12, 30]) | st.integers(1, 90)),
            shared if same else draw(curves())))
    n = draw(st.integers(1, 6))
    areas = st.sampled_from([1.0, 25.0, 400.0, 2500.0]) | st.floats(1e-3, 1e7)
    parts = [PartitionDescriptor(i, draw(st.integers(1, 4000)), draw(st.integers(1, 4000)),
                                 tuple(draw(st.lists(areas, min_size=1, max_size=12))))
             for i in range(n)]
    return parts, profiles


@st.composite
def table_args(draw):
    """Planning blocks, half the time with one more block holding a
    5e-324 px² box, which scales to a subnormal or, in a 4000 x 4000
    block, underflows to 0 (a ValueError)."""
    parts, profiles = draw(plan_parts())
    side = draw(st.sampled_from([None, None, None, 1, 400, 4000]))
    if side is not None:
        parts.append(PartitionDescriptor(len(parts), side, side, (400.0, 5e-324)))
    return parts, profiles


@st.composite
def many_member_args(draw):
    """1-3 blocks of 8-80 boxes, where pairwise summation would first
    differ from adding in order, under the default profiles."""
    parts = [PartitionDescriptor(i, draw(st.integers(50, 4000)), draw(st.integers(50, 4000)),
                                 tuple(draw(st.lists(st.floats(10, 5e4), min_size=8,
                                                     max_size=80))))
             for i in range(draw(st.integers(1, 3)))]
    return parts, default_profiles()


@st.composite
def plan_args(draw):
    """Planning blocks and a budget around the cheapest and the widest plan."""
    parts, profiles = draw(plan_parts())
    n = len(parts)
    cheapest = n * min(p.latency_ms for p in profiles)
    widest = n * max(p.latency_ms for p in profiles)
    d_max = draw(st.sampled_from([-1, 0, cheapest - 1, cheapest, widest + 13,
                                  min(p.latency_ms for p in profiles) - 1])
                 | st.integers(0, widest + 20))
    return parts, profiles, d_max


# --- generate_scene ----------------------------------------------------------

DENSITY_SETS = {
    1: [(1.0,), (0.3,)],
    2: [(0.65, 0.35), (1.0, 1.0), (1e-6, 5.0)],
    3: [(0.2, 0.5, 0.3), (3.0, 1e-9, 3.0), (1.0, 2.0, 4.0)],
    4: [(1.0, 1.0, 1.0, 1.0), (0.1, 0.2, 0.3, 0.4), (7.0, 1e-3, 0.5, 100.0)],
}


def density_specs(n_strata):
    """25 seeds of each density set of ``n_strata`` strata over equal y bands."""
    bands = np.linspace(0.0, 1.0, n_strata + 1)
    specs = []
    for densities in DENSITY_SETS[n_strata]:
        strata = tuple(Stratum(float(bands[k]), float(bands[k + 1]), 0.005 * (k + 1),
                               0.02 * (k + 1), d) for k, d in enumerate(densities))
        specs += [SceneSpec(1280, 1280, 1, 60, strata, seed) for seed in range(25)]
    return specs


def bench_specs(count):
    """10 seeds of the benchmark's desk strata at ``count`` objects."""
    strata = (Stratum(0.05, 0.45, 0.012, 0.03, 0.65),
              Stratum(0.55, 0.95, 0.06, 0.12, 0.35))
    return [SceneSpec(3840, 2160, count, count, strata, seed) for seed in range(10)]


def each(generate):
    """``generate`` over a list of specs: a fixed list is one example."""
    return lambda specs: [generate(spec) for spec in specs]


UNIT = st.floats(0.0, 1.0)
SIZE = st.floats(5e-324, 1.0)


@st.composite
def any_stratum(draw):
    """A stratum with a y band from one ulp wide to [0, 1], sizes from the
    smallest subnormal to 1, and a density from 1e-9 to 1e3."""
    y0, y1 = sorted((draw(UNIT), draw(UNIT)))
    if y0 == y1:  # one ulp wide
        y0, y1 = (y0, math.nextafter(y0, 2.0)) if y0 < 1.0 else (math.nextafter(1.0, 0.0), 1.0)
    size_min, size_max = sorted((draw(SIZE), draw(SIZE)))
    return Stratum(y0, y1, size_min, size_max, draw(st.floats(1e-9, 1e3)))


def fixed_count_spec(strata, count, seed):
    return SceneSpec(1280, 720, count, count, tuple(strata), seed)


any_spec = st.builds(fixed_count_spec, st.lists(any_stratum(), min_size=1, max_size=4),
                     st.integers(1, 2000), st.integers(0, 2 ** 32))


REGISTRY = [
    ("geometry_stats", stats_new, stats_reference, geometry_args(), 200),
    ("geometry_centroid", centroid_new, centroid_reference, geometry_args(), 200),
    ("select_merge_pair", caught(merge_pair_new), caught(merge_pair_reference),
     st.tuples(tied_configs, transforms), 150),
    ("select_merge_pair_both_sides_of_the_loop", caught(merge_pair_new),
     caught(merge_pair_reference),
     st.tuples(merge_configs, transforms), 150),
    ("split_cluster", splits_new, splits_reference, st.tuples(tied_configs, transforms), 100),
    ("split_cluster_swapped_axes", splits_new, splits_reference, swapped_axis_args(), 100),
    ("kmeans_1d", quiet(kmeans_1d), quiet(kmeans_1d_reference), kmeans_args(), 300),
    ("bounding_blocks", caught(bounding_blocks), caught(blocks_reference), block_args(), 200),
    ("partitions_from_blocks", caught(partitions_from_blocks),
     caught(partitions_from_blocks_reference), partition_args(), 200),
    ("encode_state", state_new, state_reference, config_args(), 200),
    ("action_mask", action_mask, action_mask_reference, config_args(), 200),
    ("policy_sample", seeded(policy_sample), seeded(policy_sample_rows_reference),
     sample_args(), 200),
    ("meanshift", meanshift_both_loops, twice(meanshift_reference), meanshift_args(), 150),
    ("meanshift_shared_paths", meanshift_both_loops, twice(meanshift_reference),
     meanshift_args(shared_path_points(), st.sampled_from([0.2, 0.125, 0.25, 0.05])), 300),
    ("meanshift_frames", warning_free(meanshift_frames), quiet(frames_reference),
     frames_args(), 60),
    ("rewards", lambda *args: rewards(*args).tolist(), rewards_reference, scored_args(), 150),
    ("reward", reward_three_ways, reward_reference_three_ways, reward_args(), 200),
    *((f"generate_scene_density_sets_{n}", each(generate_scene), each(generate_scene_reference),
       st.just((density_specs(n),)), 1) for n in DENSITY_SETS),
    *((f"generate_scene_bench_strata_{count}", each(generate_scene),
       each(generate_scene_reference), st.just((bench_specs(count),)), 1) for count in (1, 700)),
    ("generate_scene_any_spec", generate_scene, generate_scene_reference,
     st.tuples(any_spec), 40),
    ("observe_tiles", observe_tiles, observe_tiles_reference, observe_args(), 100),
    ("aggregate_tiles", aggregate_new, aggregate_tiles_reference, aggregate_args(), 100),
    ("coarse_detect", coarse_new, coarse_reference, coarse_args, 100),
    ("make_cluster", caught(cluster_new), caught(cluster_reference), cluster_args(), 200),
    ("estimate_bandwidth", at_quantiles(estimate_bandwidth),
     at_quantiles(estimate_bandwidth_reference), bandwidth_points(), 24),
    ("nms_random_boxes", kept_ids(nms), kept_ids(nms_reference),
     st.tuples(RANDOM_BOXES, st.just(0.5)), 30),
    ("nms_ties_duplicates_and_touching_edges", kept_ids(nms), kept_ids(nms_reference),
     st.tuples(crowded_boxes(), st.sampled_from(THRESHOLDS)), 150),
    ("nms_sweep_touching_and_ulp_edges", kept_ids(nms), kept_ids(nms_reference),
     st.tuples(swept_boxes(), st.sampled_from([1e-9, 1e-6, 0.1, 1 / 3, 0.5, 0.9])
               | st.floats(1e-9, 0.999)), 120),
    ("nms_600_boxes_in_two_classes", kept_ids(nms), kept_ids(nms_reference),
     st.tuples(st.just(7).map(crowd_with_duplicates), st.just(0.3)), 1),
    ("precision_table", caught(precision_table), caught(precision_table_reference),
     table_args(), 150),
    ("precision_table_many_members", precision_table, precision_table_reference,
     many_member_args(), 60),
    ("dp_plan", caught(dp_plan), caught(dp_plan_reference), plan_args(), 150),
]


@pytest.mark.parametrize("function, reference, strategy, examples",
                         [entry[1:] for entry in REGISTRY],
                         ids=[entry[0] for entry in REGISTRY])
def test_function_equals_reference(function, reference, strategy, examples):
    @settings(max_examples=examples, deadline=None)
    @given(strategy)
    def check(args):
        assert plain(function(*args)) == plain(reference(*args))

    check()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_batch_of_uniforms_equals_successive_draws(seed):
    # policy_sample draws a batch's uniforms at once, the reference row by row
    rng = np.random.default_rng(seed)
    batch = np.random.default_rng(seed).random(7)
    assert batch.tolist() == [rng.random() for _ in range(7)]


@pytest.mark.parametrize("sample", [policy_sample, policy_sample_rows_reference],
                         ids=["policy_sample", "policy_sample_reference"])
def test_policy_sample_nan_logit_raises(sample):
    logits = np.array([[0.0, 1.0, 2.0], [0.0, float("nan"), 1.0]])
    masks = np.array([[True, True, True], [True, True, False]])
    with pytest.raises(ValueError):
        sample(logits, masks, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_policy_sample_draw_on_cdf_boundary_matches_reference(seed):
    # rows of logits (0, l) whose normalised cdf starts exactly at the
    # generator's next double for that row; choice's searchsorted(side="right")
    # then picks action 1
    mask = np.array([True, True])

    def first_cdf(l):
        p = np.exp(masked_log_softmax(np.array([0.0, l]), mask))
        cdf = (p / p.sum()).cumsum()
        return cdf[0] / cdf[-1]

    rows = []
    for u in np.random.default_rng(seed).random(3):
        lo = hi = math.log((1.0 - u) / u)
        while first_cdf(lo) != u and first_cdf(hi) != u:
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        rows.append([0.0, lo if first_cdf(lo) == u else hi])
    logits, masks = np.array(rows), np.tile(mask, (3, 1))
    got = policy_sample(logits, masks, np.random.default_rng(seed))
    want = policy_sample_rows_reference(logits, masks, np.random.default_rng(seed))
    assert plain(got) == plain(want)
    assert got[0].tolist() == [1, 1, 1]


def test_precision_table_underflow_raises_like_reference():
    # a 5e-324 px² box scales to 0 in a 4000 x 4000 block at input 1
    prof = ModelProfile("tiny", 1, 10, ((100.0, 0.5), (10_000.0, 0.5)))
    parts = [PartitionDescriptor(0, 4000, 4000, (400.0, 5e-324))]
    got = caught(precision_table)(parts, [prof])
    assert got == caught(precision_table_reference)(parts, [prof])
    assert got[0] is ValueError
