import itertools
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan import clustering
from sceneplan.clustering import (
    BANDWIDTH_FLOOR,
    BandwidthSpec,
    ClusterGeometry,
    TransformParams,
    estimate_bandwidth,
    initial_clusters,
    kmeans_1d,
    meanshift,
    meanshift_frames,
    merge_clusters,
    select_merge_pair,
    split_cluster,
    transform_y,
)
from sceneplan.core import (
    ClusterConfig,
    DetectionBox,
    make_cluster,
    validate_partition,
)
from sceneplan.rl_env import (
    KEEP,
    MERGE,
    SPLIT_BASE,
    RewardWeights,
    apply_action,
    encode_state,
    reward,
    step,
)
from sceneplan.scene import SceneSpec, Stratum, coarse_detect, generate_scene

from oracles import (
    cluster_means_reference,
    geometry_of,
    geometry_stats_reference,
    kmeans_1d_best_cost,
    kmeans_1d_reference,
    labels_cost,
    meanshift_both_loops,
    meanshift_reference,
    pair_distance,
    random_config,
    reward_per_cluster_reference,
    select_merge_pair_reference,
    tied_config,
)


def planted_blobs(rng, centers, sigma=0.01, per_blob=20):
    pts, labels = [], []
    for k, (cx, cy) in enumerate(centers):
        for _ in range(per_blob):
            pts.append([
                min(max(cx + rng.normal(0, sigma), 0.0), 1.0),
                min(max(cy + rng.normal(0, sigma), 0.0), 1.0),
            ])
            labels.append(k)
    return np.array(pts), np.array(labels)


def same_partition(a, b) -> bool:
    """Label agreement up to permutation."""
    groups_a = {}
    for i, l in enumerate(a):
        groups_a.setdefault(int(l), set()).add(i)
    groups_b = {}
    for i, l in enumerate(b):
        groups_b.setdefault(int(l), set()).add(i)
    return sorted(map(frozenset, groups_a.values())) == \
        sorted(map(frozenset, groups_b.values()))


# ---------------------------------------------------------------------------
# y transform
# ---------------------------------------------------------------------------

def test_transform_fixed_points():
    for alpha in (0.3, 0.5, 0.9):
        out = transform_y([(0.2, 0.0), (0.7, 1.0)], TransformParams(alpha))
        assert out[0, 1] == 0.0 and out[1, 1] == 1.0


def test_transform_direct_value():
    out = transform_y([(0.1, 0.25)], TransformParams(0.5))
    assert out[0] == pytest.approx([0.1, 0.5], abs=1e-12)


def test_transform_preserves_order(rng):
    y = rng.uniform(0, 1, 100)
    pts = np.stack([np.zeros(100), y], axis=1)
    yt = transform_y(pts, TransformParams(0.5))[:, 1]
    assert (np.argsort(y, kind="stable") == np.argsort(yt, kind="stable")).all()


def test_transform_invertible(rng):
    params = TransformParams(0.5)
    pts = np.stack([rng.uniform(0, 1, 1000), rng.uniform(0, 1, 1000)], axis=1)
    back = transform_y(pts, params)
    back[:, 1] **= 1.0 / params.alpha
    assert np.abs(back - pts).max() < 1e-9


def test_transform_rejects_out_of_range():
    with pytest.raises(ValueError):
        transform_y([(0.5, 1.2)])


def test_transform_rejects_nan():
    with pytest.raises(ValueError, match=re.escape("y coordinates outside [0, 1]")):
        transform_y([(0.5, 0.5), (0.5, float("nan"))])


def test_transform_params_validated():
    with pytest.raises(ValueError):
        TransformParams(1.0)


# ---------------------------------------------------------------------------
# bandwidth
# ---------------------------------------------------------------------------

def test_bandwidth_two_points():
    assert estimate_bandwidth([(0.1, 0.5), (0.3, 0.5)], 0.5) == pytest.approx(0.2)


def test_bandwidth_unit_grid_vs_oracle():
    pts = np.array([[x, y] for x in np.arange(0.1, 1.0, 0.1)
                    for y in np.arange(0.1, 1.0, 0.1)])
    # oracle: brute-force nearest-neighbor distances, then the same quantile
    nn = []
    for i in range(len(pts)):
        best = min(np.hypot(*(pts[i] - pts[j])) for j in range(len(pts)) if j != i)
        nn.append(best)
    expected = float(np.quantile(nn, 0.5))
    assert expected == pytest.approx(0.1, abs=1e-9)
    assert estimate_bandwidth(pts, 0.5) == pytest.approx(expected, abs=1e-12)


def test_bandwidth_identical_points_floor():
    pts = [(0.5, 0.5)] * 10
    assert estimate_bandwidth(pts, 0.5) == 1e-3


@pytest.mark.parametrize("call, message", [
    (lambda: estimate_bandwidth([(0.5, 0.5)], 0.5),
     "need at least 2 points to estimate a bandwidth"),
    (lambda: meanshift(np.empty((0, 2)), 0.1), r"points must be a non-empty \(n, 2\) array"),
    (lambda: meanshift(np.array([0.2, 0.3]), 0.1), r"points must be a non-empty \(n, 2\) array"),
], ids=["bandwidth-one-point", "meanshift-no-points", "meanshift-flat-points"])
def test_too_few_points_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_bandwidth_spec_validation():
    with pytest.raises(ValueError):
        BandwidthSpec("quantile", 1.5)
    with pytest.raises(ValueError):
        BandwidthSpec("nope", 0.5)


# ---------------------------------------------------------------------------
# meanshift
# ---------------------------------------------------------------------------

def test_meanshift_single_point():
    labels = meanshift(np.array([[0.4, 0.6]]), 0.1)
    assert labels.tolist() == [0]


def test_meanshift_identical_points():
    labels = meanshift(np.full((7, 2), 0.3), 0.1)
    assert labels.tolist() == [0] * 7


def test_meanshift_planted_blobs(rng):
    centers = [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)]
    pts, truth = planted_blobs(rng, centers)
    labels = meanshift(pts, 0.1)
    assert labels.max() + 1 == 3
    assert same_partition(labels, truth)


def test_meanshift_planted_recovery_many_seeds():
    centers = [(0.15, 0.2), (0.85, 0.25), (0.5, 0.85)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts, truth = planted_blobs(rng, centers, sigma=0.01, per_blob=15)
        labels = meanshift(pts, 0.1)
        assert same_partition(labels, truth), f"seed {seed}"


def test_meanshift_collapses_modes_exactly_half_bandwidth_apart():
    # the modes converge to x = 0.25, 0.5, 0.75: the middle one sits exactly
    # bandwidth/2 from the first and collapses onto it
    pts = np.array([(0.0, 0.5), (0.5, 0.5), (1.0, 0.5)])
    assert meanshift(pts, 0.5).tolist() == [0, 0, 1]


def test_meanshift_collapse_near_half_bandwidth_matches_reference(rng):
    # with no iterations the modes are the points. (p, q) sits exactly
    # bandwidth/2 from (0.5, 0.5), and (q, p) ties with it exactly under the
    # one rounding of a pair distance, so both are covered
    for _ in range(300):
        p, q = (float(v) for v in rng.uniform(0.3, 0.7, size=2))
        pts = np.array([(0.5, 0.5), (p, q), (q, p)])
        bandwidth = 2.0 * pair_distance(pts[1], pts[0])
        assert meanshift(pts, bandwidth, max_iter=0).tolist() == \
            meanshift_reference(pts, bandwidth, max_iter=0).tolist()


@pytest.mark.parametrize("bandwidth", [BANDWIDTH_FLOOR, 1e-9, 0.125, 0.1])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_meanshift_window_edges_match_reference(bandwidth, axis, ulps):
    # a row of points one bandwidth apart along one axis, the second moved
    # by an ulp: its distance to the first (and, exactly, to the third) lands
    # on, inside or outside the window's edge, and on the x axis the
    # searchsorted bounds do too
    row = [k * bandwidth for k in range(6)]
    row[1] = float(np.nextafter(row[1], ulps * np.inf)) if ulps else row[1]
    pts = np.full((6, 2), 0.4)
    pts[:, axis] = row
    meanshift_equals_reference(pts, bandwidth)


def test_meanshift_window_edge_between_rounded_square_and_last_root_within(rng):
    # two points whose squared distance d rounds above bandwidth**2 while
    # sqrt(d) still rounds to at most the bandwidth (or, ulps later, past it):
    # one iteration merges them exactly when the reference's root is within
    cases = {True: 0, False: 0}
    while min(cases.values()) < 10:
        bandwidth = float(rng.uniform(0.01, 0.5))
        x = float(rng.uniform(0.0, bandwidth))
        y = math.sqrt(max(bandwidth * bandwidth - x * x, 0.0))
        for _ in range(int(rng.integers(0, 4))):
            y = math.nextafter(y, math.inf)
        d = x * x + y * y
        if d <= bandwidth * bandwidth:
            continue
        inside = math.sqrt(d) <= bandwidth
        cases[inside] += 1
        labels = meanshift_equals_reference(np.array([(0.0, 0.0), (x, y)]), bandwidth, (1,))
        assert labels.tolist() == ([0, 0] if inside else [0, 1])


def meanshift_equals_reference(pts, bandwidth, max_iters=(0, 1, 300), tol=1e-4):
    """Labels of the y-band loop and of the dense loop, each equal to the
    reference's; the last ones."""
    for max_iter in max_iters:
        # squared differences of far-apart coordinates overflow to inf in the
        # reference; meanshift raises no warning for them
        with np.errstate(over="ignore", invalid="ignore"):
            want = meanshift_reference(pts, bandwidth, tol, max_iter).tolist()
        for labels in meanshift_both_loops(pts, bandwidth, tol, max_iter):
            assert labels.tolist() == want
    return labels


@pytest.mark.parametrize("bandwidth", [1e-300, 1e308, sys.float_info.max])
def test_meanshift_extreme_bandwidths_match_reference(rng, bandwidth):
    pts = np.concatenate([rng.uniform(0.0, 1.0, (30, 2)), np.full((4, 2), 0.25)])
    labels = meanshift_equals_reference(pts, bandwidth)
    assert labels.max() + 1 == (1 if bandwidth > 1.0 else 31)


@pytest.mark.parametrize("bandwidth", [1e-300, 0.1, 1e299, 1e308, sys.float_info.max])
def test_meanshift_coordinates_near_1e300_match_reference(rng, bandwidth):
    # extents of 2e300 in both axes, points at the extremes and near zero
    pts = np.concatenate([rng.uniform(-1e300, 1e300, (12, 2)), rng.uniform(0.0, 1.0, (6, 2)),
                          [(-1e300, -1e300), (1e300, 1e300), (-1e300, 1e300), (0.5, 0.5)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        meanshift_equals_reference(pts, bandwidth)


@pytest.mark.parametrize("bandwidth", [BANDWIDTH_FLOOR, 0.05, 0.125, 0.3])
def test_meanshift_points_on_band_edges_match_reference(bandwidth):
    # y = y_lo + k * pad puts points on (or an ulp from) the bands' edges,
    # with x steps of pad / 2 along each band
    pad = bandwidth * (1.0 + 1e-9) + 2.0 ** -500
    y_lo = 0.2
    pts = [(0.1 + j * pad / 2.0, y_lo + k * pad) for k in range(6) for j in range(3)]
    pts += [(0.1, float(np.nextafter(y_lo + k * pad, s * np.inf))) for k in range(1, 5)
            for s in (-1, 1)]
    meanshift_equals_reference(np.array(pts), bandwidth)
    # a column far narrower than the window: x queries clip at both ends
    column = [(0.1 + j * pad / 8.0, y_lo + k * pad / 2.0) for k in range(9) for j in range(2)]
    meanshift_equals_reference(np.array(column), bandwidth)


@pytest.mark.parametrize("points, bandwidth", [
    ([(0.0, 0.0), (1e-310, 0.0)], 0.1),        # window ends far beyond a tiny x extent
    ([(0.2, 0.3), (0.4, 0.5)], 1e308),
    ([(0.2, 0.3), (0.4, 0.5)], sys.float_info.max),
    ([(0.3, -1e308)], 1e308),                   # a y window end past -max
])
def test_meanshift_far_window_ends_raise_no_float_warning(points, bandwidth):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for labels in meanshift_both_loops(np.array(points), bandwidth):
            assert labels.tolist() == [0] * len(points)


def test_meanshift_duplicated_modes_and_signed_zeros_match_reference(rng):
    # copies converge to bit-identical modes; -0.0 and 0.0 are one mode
    base = np.array([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.05, 0.0),
                     (0.5, 0.5), (0.52, 0.5), (1.0, -0.0)])
    pts = np.concatenate([base, base[rng.integers(0, len(base), 20)]])
    for bandwidth in (0.01, 0.05, 0.1, 0.5):
        meanshift_equals_reference(pts, bandwidth)
    assert meanshift(pts, 0.05).max() + 1 == 3


@pytest.mark.parametrize("seed", range(12))
def test_meanshift_shared_paths_on_a_density_ramp_match_reference(seed):
    # modes drift along a ramp of 40 points (x = u**2 on y = 0) and move onto
    # positions other modes moved on from iterations earlier, often onto
    # followers' paths; caps of 0-8 iterations stop them mid-path, where a
    # follower's stop overruns the cap, and tol 0.03 stops modes off a fixed
    # point
    pts = np.zeros((40, 2))
    pts[:, 0] = np.random.default_rng(seed).uniform(0.0, 1.0, 40) ** 2
    for tol in (1e-4, 0.03):
        meanshift_equals_reference(pts, 0.25, [*range(9), 300], tol)


@pytest.mark.parametrize("seed", range(8))
def test_meanshift_mode_moving_exactly_tol_moves_on(seed):
    # tol is exactly some modes' first shift, with the reference's operations:
    # those modes move on (a shift at least tol), on both loops
    rng = np.random.default_rng(seed)
    pts = np.round(rng.uniform(0.0, 1.0, (12, 2)) ** 2 * 16) / 16
    bandwidth = 0.25
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    within = dist <= bandwidth
    new = (within[:, :, None] * pts[None, :, :]).sum(axis=1) / within.sum(axis=1)[:, None]
    shifts = np.sqrt(((new - pts) ** 2).sum(axis=1))
    for tol in sorted(set(shifts[shifts > 0.0].tolist()))[:4]:
        meanshift_equals_reference(pts, bandwidth, (1, 2, 300), tol)


def test_meanshift_frames_sends_only_large_frames_through_the_band_loop(rng, monkeypatch):
    # a batch mixing 20- and 300-point frames: the 300-point ones, and only
    # they, take the y-band loop, one call each, in batch order
    assert 20 <= clustering.DENSE_MAX < 300
    sizes = [20, 300, 20, 20, 300, 20]
    frames = [rng.uniform(0.0, 1.0, (n, 2)) for n in sizes]
    bandwidths = [0.1, 0.05, 0.2, 0.1, 0.08, 0.3]
    calls, band_modes = [], clustering._band_modes
    monkeypatch.setattr(clustering, "_band_modes",
                        lambda pts, *args: calls.append(pts) or band_modes(pts, *args))
    labels = meanshift_frames(frames, bandwidths)
    assert [len(pts) for pts in calls] == [300, 300]
    assert calls[0] is not calls[1] and np.array_equal(calls[1], frames[4])
    want = [meanshift_reference(f, b).tolist() for f, b in zip(frames, bandwidths)]
    assert [l.tolist() for l in labels] == want


def test_meanshift_memory_stays_within_seven_doubles_per_pair(monkeypatch):
    # a 600-detection crowd frame of the benchmark's strata: the y-band step
    # computes its pair distances inside its own gathers and expands its
    # ranges in place, so a call peaks near six doubles a pair of its
    # largest step
    strata = (Stratum(0.05, 0.45, 0.012, 0.03, 0.65), Stratum(0.55, 0.95, 0.06, 0.12, 0.35))
    frame = generate_scene(SceneSpec(3840, 2160, 600, 600, strata, seed=1))
    pts = ClusterGeometry(frame.detections, TransformParams(0.5)).points
    pairs, shift = [], clustering._shift
    monkeypatch.setattr(clustering, "_shift",
                        lambda x, y, pos, *rest: pairs.append(len(pos)) or shift(x, y, pos, *rest))
    meanshift(pts, 0.12)  # numpy's lazy set-up happens outside the trace
    tracemalloc.start()
    try:
        meanshift(pts, 0.12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(pairs) > 10_000
    assert peak <= 7 * 8 * max(pairs)


def test_meanshift_frames_checks_each_frame():
    assert meanshift_frames([], []) == []
    with pytest.raises(ValueError):
        meanshift_frames([np.zeros((3, 2))], [0.1, 0.2])
    with pytest.raises(ValueError, match="bandwidth"):
        meanshift_frames([np.zeros((3, 2)), np.zeros((400, 2))], [0.1, 0.0])
    with pytest.raises(ValueError, match="finite"):
        meanshift_frames([np.zeros((3, 2)), np.full((2, 2), np.nan)], [0.1, 0.1])


# converged modes near (0.625, 0.69), (0.34, 0.625) and (0.06, 0.56) at
# bandwidth 0.5: more than bandwidth/2 apart, and the middle one is no
# point's nearest
UNUSED_REP_FRAME = np.array([(0.625, 0.875), (0.625, 0.5), (0.125, 0.5), (0.0, 0.625)])


def representatives(points, bandwidth, max_iter: int = 300) -> list:
    """The first-seen cover of one frame's converged dense-loop modes."""
    (mode_x, mode_y), = clustering._dense_modes([points], [bandwidth], 1e-4, max_iter)
    reps = []
    for mode in zip(mode_x.tolist(), mode_y.tolist()):
        if not any(pair_distance(mode, r) <= bandwidth / 2.0 for r in reps):
            reps.append(mode)
    return reps


def tie_frame(rng):
    """As in ``tools/ties.py``: (0.5, 0.5), (p, q) and (q, p), whose pairs with
    the first tie at distance d; with bandwidth 2d and no iterations, two
    modes sit exactly bandwidth/2 from the first."""
    p, q = (float(v) for v in rng.uniform(0.3, 0.7, size=2))
    points = [(0.5, 0.5), (p, q), (q, p)]
    return points, 2.0 * pair_distance(points[1], points[0])


def dense_frame(rng, kind: str):
    """One frame of at most DENSE_MAX points and its bandwidth."""
    if kind == "ties":
        points, bandwidth = tie_frame(rng)
    elif kind == "unused":
        points, bandwidth = UNUSED_REP_FRAME.tolist(), 0.5
    elif kind == "one-mode":  # every mode within bandwidth/2 of the first
        n = int(rng.integers(1, 20))
        points, bandwidth = (0.4 + rng.uniform(0.0, 0.01, (n, 2))).tolist(), 0.5
    else:  # grid points with copies and signed zeros
        n = int(rng.integers(1, clustering.DENSE_MAX - 7))
        points = (np.round(rng.uniform(-0.5, 0.5, (n, 2)) * 8) / 8).tolist()
        bandwidth = float(rng.choice([0.125, 0.25, 0.375, 1.0]))
    points += [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)][:int(rng.integers(0, 5))]
    points += [points[i] for i in rng.integers(0, len(points), int(rng.integers(0, 4)))]
    return np.array(points[:clustering.DENSE_MAX]), bandwidth


@pytest.mark.parametrize("max_iter", [0, 1, 300])
@pytest.mark.parametrize("seed", range(6))
def test_meanshift_frames_collapses_a_batch_as_frame_by_frame(seed, max_iter):
    # 2-20 dense frames in one call: the one-pass collapse gives each frame
    # the labels of a one-frame call, of the y-band loop and of the reference
    rng = np.random.default_rng(seed)
    kinds = ["ties", "unused", "one-mode", "grid"]
    frames, bandwidths = zip(*[dense_frame(rng, kinds[k % 4] if k < 4 else str(rng.choice(kinds)))
                               for k in range(int(rng.integers(2, 21)))])
    labels = meanshift_frames(frames, bandwidths, max_iter=max_iter)
    assert len(labels) == len(frames)
    for points, bandwidth, got in zip(frames, bandwidths, labels):
        with np.errstate(over="ignore", invalid="ignore"):
            want = meanshift_reference(points, bandwidth, max_iter=max_iter).tolist()
        assert got.tolist() == want
        assert meanshift_frames([points], [bandwidth], max_iter=max_iter)[0].tolist() == want
        assert meanshift(points, bandwidth, max_iter=max_iter).tolist() == want


def test_meanshift_frames_batch_covers_pairs_exactly_half_bandwidth_apart(rng):
    # each tie frame under its own bandwidth: both tied modes sit exactly at
    # their frame's bandwidth/2 from the first, so each frame is one cluster
    frames, bandwidths = zip(*[tie_frame(rng) for _ in range(20)])
    for points, bandwidth in zip(frames, bandwidths):
        assert pair_distance(points[1], points[0]) == pair_distance(points[2], points[0]) \
            == bandwidth / 2.0
    labels = meanshift_frames([np.array(p) for p in frames], bandwidths, max_iter=0)
    assert [l.tolist() for l in labels] == [[0, 0, 0]] * 20


def test_meanshift_frames_batch_drops_a_representative_that_attracts_no_point():
    assert len(representatives(UNUSED_REP_FRAME, 0.5)) == 3
    frames = [UNUSED_REP_FRAME, np.full((5, 2), 0.3), UNUSED_REP_FRAME]
    labels = meanshift_frames(frames, [0.5, 0.1, 0.5])
    assert [l.tolist() for l in labels] == [[0, 0, 1, 1], [0] * 5, [0, 0, 1, 1]]
    assert meanshift_reference(UNUSED_REP_FRAME, 0.5).tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.1, "0.2", True])
def test_bandwidth_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match=r"^value must be in \(0, inf\), got "):
        BandwidthSpec("fixed", bad)
    with pytest.raises(ValueError, match="bandwidth"):
        meanshift(np.array([[0.2, 0.3], [0.4, 0.5]]), bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_meanshift_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        meanshift(np.array([[0.2, 0.3], [bad, 0.5]]), 0.1)


# ---------------------------------------------------------------------------
# 1D k-means
# ---------------------------------------------------------------------------

def test_kmeans_two_groups():
    labels = kmeans_1d([0.0, 0.1, 0.9, 1.0])
    assert labels.tolist() == [0, 0, 1, 1]


def test_kmeans_forced_pair():
    assert kmeans_1d([0.0, 1.0]).tolist() == [0, 1]


def test_kmeans_matches_exhaustive_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 60))
        vals = rng.uniform(0, 1, n).tolist()
        labels = kmeans_1d(vals)
        assert labels_cost(vals, labels) == pytest.approx(
            kmeans_1d_best_cost(vals), abs=1e-9)


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=40))
@settings(max_examples=150, deadline=None)
def test_kmeans_optimal_property(vals):
    labels = kmeans_1d(vals)
    assert set(labels.tolist()) <= {0, 1}
    assert 0 in labels and 1 in labels
    assert labels_cost(vals, labels) <= kmeans_1d_best_cost(vals) + 1e-9


def test_kmeans_needs_two_values():
    with pytest.raises(ValueError):
        kmeans_1d([0.5])


@pytest.mark.parametrize("values, labels", [
    # squares overflow: the split costs start inf, NaN; the NaN beats the inf
    ([-1e154, -1e154, 1e154, 1e154], [0, 0, 1, 1]),
    ([1e154, -1e154, 0.0, -1e154, 1e154], [1, 0, 1, 0, 1]),
])
def test_kmeans_first_nan_cost_wins(values, labels):
    assert kmeans_1d(values).tolist() == labels
    with np.errstate(over="ignore", invalid="ignore"):
        assert kmeans_1d_reference(values).tolist() == labels


@pytest.mark.parametrize("values", [[0.2, float("nan")], [float("nan")] * 3,
                                    [0.1, 0.9, float("nan"), 0.5]])
def test_kmeans_rejects_nan_values(values):
    with pytest.raises(ValueError, match="NaN"):
        kmeans_1d(values)


# ---------------------------------------------------------------------------
# merge / split
# ---------------------------------------------------------------------------

def config_from_centers(centers, detections=None):
    boxes = detections or [DetectionBox(x, y, 0.05, 0.05) for x, y in centers]
    clusters = tuple(make_cluster([i], boxes) for i in range(len(boxes)))
    return ClusterConfig(clusters, tuple(boxes))


def test_select_merge_pair_unique_minimum():
    cfg = config_from_centers([(0.0, 0.0), (0.1, 0.0), (1.0, 1.0)])
    assert select_merge_pair(cfg, geometry_of(cfg)) == (0, 1)


def test_select_merge_pair_tie_break():
    # pairwise-tied distances (0,1) and (0,2); lexicographic winner
    cfg = config_from_centers([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert select_merge_pair(cfg, geometry_of(cfg)) == (0, 1)


def test_select_merge_pair_matches_bruteforce(rng):
    for _ in range(20):
        centers = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                   for _ in range(10)]
        cfg = config_from_centers(centers)
        best, best_d = None, np.inf
        for i in range(10):
            for j in range(i + 1, 10):
                d = pair_distance(centers[i], centers[j])
                if d < best_d:
                    best, best_d = (i, j), d
        assert select_merge_pair(cfg, geometry_of(cfg)) == best


@pytest.mark.parametrize("transform", [None, TransformParams(0.5)])
def test_select_merge_pair_swapped_offsets_match_reference(rng, transform):
    # (0.5, 0.5) + (dx, dy) and + (dy, dx) tie exactly under the one
    # rounding of a pair distance; when theirs is the smallest, (0, 1) wins
    for _ in range(300):
        p, q = (float(v) for v in rng.uniform(0.3, 0.7, size=2))
        cfg = config_from_centers([(0.5, 0.5), (p, q), (q, p)])
        assert select_merge_pair(cfg, geometry_of(cfg, transform)) == \
            select_merge_pair_reference(cfg, transform)


@pytest.mark.parametrize("ulps", [-1, 0, 1, 4, 5])
def test_select_merge_pair_breaks_an_exact_tie_toward_the_smallest_pair(ulps):
    # pair (0, 1) lies 0.25 apart, pair (0, 2) ``ulps`` ulp of 0.25 further
    # (closer at -1); at 0 the two tie exactly and the smaller (i, j) wins
    cfg = config_from_centers([(0.5, 0.5), (0.75, 0.5), (0.25 - ulps * math.ulp(0.25), 0.5)])
    want = (0, 2) if ulps < 0 else (0, 1)
    assert select_merge_pair(cfg, geometry_of(cfg)) == want == select_merge_pair_reference(cfg)


def test_no_pair_distance_goes_through_the_dot_kernel(monkeypatch, rng):
    # np.linalg.norm of a 2-vector runs in the BLAS dot kernel picked for the
    # CPU, which may round a tie apart; the per-member spreads' axis=1 norms
    # are not pair distances and pass
    norm = np.linalg.norm

    def guarded(x, ord=None, axis=None, keepdims=False):
        if np.ndim(x) == 1 and axis is None:
            raise AssertionError("a pair distance went through np.linalg.norm")
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", guarded)
    for _ in range(300):
        p, q = (float(v) for v in rng.uniform(0.3, 0.7, size=2))
        pts = np.array([(0.5, 0.5), (p, q), (q, p)])
        cfg = config_from_centers(pts.tolist())
        assert select_merge_pair(cfg, geometry_of(cfg)) == select_merge_pair_reference(cfg)
        d = pair_distance(pts[0], pts[1])
        w = RewardWeights(d_m=d)
        assert reward(cfg, w) == reward_per_cluster_reference(cfg, w)
        assert meanshift(pts, 2.0 * d, max_iter=0).tolist() == \
            meanshift_reference(pts, 2.0 * d, max_iter=0).tolist()


# singleton clusters at least 1/3 from each other and 0.3 from [0.3, 0.7]^2,
# farther than any swapped-offset tie there (at most 0.2 * sqrt(2))
FAR = [(0.0, 0.0), (1 / 3, 0.0), (2 / 3, 0.0), (1.0, 0.0), (0.0, 1.0), (1 / 3, 1.0),
       (2 / 3, 1.0), (1.0, 1.0), (0.0, 0.5), (1.0, 0.5)]


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("tie_first", [True, False])
def test_select_merge_pair_breaks_a_swapped_offset_tie_on_both_sides_of_the_loop(
        rng, n, tie_first):
    # below 13 clusters the pair loop decides, from 13 on the distance array
    assert (n < clustering.PAIR_LOOP_BELOW) == (n == 12)
    far = FAR[:n - 3]
    for _ in range(100):
        p, q = (float(v) for v in rng.uniform(0.3, 0.7, size=2))
        tied = [(0.5, 0.5), (p, q), (q, p)]
        centers = tied + far if tie_first else far + tied
        cfg = config_from_centers(centers)
        got = select_merge_pair(cfg, geometry_of(cfg))
        assert got == select_merge_pair_reference(cfg)
        at = centers.index((0.5, 0.5))
        if pair_distance((p, q), (q, p)) > pair_distance((0.5, 0.5), (p, q)):
            assert got == (at, at + 1)  # the smaller of the two tied pairs


def test_select_merge_pair_needs_two():
    cfg = config_from_centers([(0.5, 0.5)])
    with pytest.raises(ValueError, match="merge unavailable"):
        select_merge_pair(cfg, geometry_of(cfg))


def test_merge_two_singletons():
    cfg = config_from_centers([(0.0, 0.0), (1.0, 1.0)])
    merged = merge_clusters(cfg, 0, 1, geometry_of(cfg))
    assert merged.count == 1
    c = merged.clusters[0]
    assert (*geometry_of(merged).means(c)[:2], len(c)) == (0.5, 0.5, 2)


def test_merge_conserves_members(rng):
    cfg = random_config(rng, 5)
    merged = merge_clusters(cfg, 1, 3, geometry_of(cfg))
    assert sum(len(c) for c in merged.clusters) == len(cfg.detections)
    validate_partition(merged)


def test_merge_centroid_weighted_mean(rng):
    for _ in range(10):
        cfg = random_config(rng, 4)
        i, j = 0, 2
        a, b = cfg.clusters[i], cfg.clusters[j]
        merged = merge_clusters(cfg, i, j, geometry_of(cfg))
        c = merged.clusters[-1]
        means = geometry_of(cfg).means
        # oracle: recompute from the raw member boxes
        members = sorted(a + b)
        xs = [cfg.detections[m].cx for m in members]
        ys = [cfg.detections[m].cy for m in members]
        assert means(c)[0] == pytest.approx(sum(xs) / len(xs), abs=1e-12)
        assert means(c)[1] == pytest.approx(sum(ys) / len(ys), abs=1e-12)
        ws = len(a) + len(b)
        assert means(c)[0] == pytest.approx(
            (means(a)[0] * len(a) + means(b)[0] * len(b)) / ws, abs=1e-9)


def test_merge_clusters_either_order_keeps_the_others_in_order(rng):
    cfg = random_config(rng, 5)
    geometry = geometry_of(cfg)
    for i, j in itertools.combinations(range(cfg.count), 2):
        merged = merge_clusters(cfg, i, j, geometry)
        assert merge_clusters(cfg, j, i, geometry) == merged
        assert merged.detections is cfg.detections
        assert merged.clusters == tuple(c for k, c in enumerate(cfg.clusters) if k not in (i, j)) \
            + (make_cluster(cfg.clusters[i] + cfg.clusters[j], cfg.detections),)


def test_merge_rejects_bad_indices(rng):
    cfg = random_config(rng, 3)
    with pytest.raises(ValueError):
        merge_clusters(cfg, 1, 1, geometry_of(cfg))
    with pytest.raises(ValueError):
        merge_clusters(cfg, 0, 7, geometry_of(cfg))


def test_raw_geometry_centroid_is_the_clusters_mean(rng):
    # the centroid's sums are the raw means' in raw space, at every cluster size
    frame = generate_scene(SceneSpec(3840, 2160, 600, 600, (
        Stratum(0.05, 0.45, 0.012, 0.03, 0.65), Stratum(0.55, 0.95, 0.06, 0.12, 0.35)), seed=5))
    boxes = coarse_detect(frame, 2, 4).detections
    order = rng.permutation(len(boxes)).tolist()
    ends = [1, 8, 16, 143, 271, 400, len(boxes)]  # 1, 7, 8, 127, 128, 129 and the rest
    coarse = [make_cluster(order[a:b], boxes) for a, b in zip([0] + ends, ends)]
    configs = [tied_config(rng, rng.integers(1, 301, size=6).tolist(), grid)
               for grid in (None, 4, 16, 64) for _ in range(3)]
    for detections, clusters in [(boxes, coarse)] + [(c.detections, c.clusters) for c in configs]:
        geometry = ClusterGeometry(detections, None)
        for c in clusters:
            assert geometry.centroid(c) == geometry.means(c)[:2] \
                == cluster_means_reference(c, detections)[:2]
            # one memoised record per cluster, of which means and centroid are views
            assert geometry.row(c) is geometry.row(c)
            assert geometry.row(c) == (*geometry.means(c), len(c) / len(detections),
                                       *geometry.centroid(c))


def test_pairwise_sum_is_numpys_1d_sum(rng):
    # a numpy release that changes its 1-D sum order fails here by name
    for n in [*range(1, 301), 511, 1000, 1025, 4099]:
        for _ in range(5):
            vals = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
            assert clustering._pairwise_sum(vals.tolist()).hex() == \
                float(np.add.reduce(vals)).hex(), f"{n} values"


@pytest.mark.parametrize("transform", [None, TransformParams(0.5)])
def test_stats_equal_numpys_reductions_at_every_sum_order(rng, transform):
    frame = generate_scene(SceneSpec(3840, 2160, 300, 300, (
        Stratum(0.05, 0.45, 0.012, 0.03, 0.65), Stratum(0.55, 0.95, 0.06, 0.12, 0.35)), seed=3))
    geometry = ClusterGeometry(frame.detections, transform)
    for k in (1, 7, 8, 9, 128, 129, 300):
        members = tuple(sorted(rng.permutation(300)[:k].tolist()))
        centroid, spread, area_var = geometry_stats_reference(geometry, members)
        assert geometry.stats(members) == ((float(centroid[0]), float(centroid[1])),
                                           spread, area_var)


def test_split_along_x():
    boxes = [DetectionBox(x, 0.5, 0.05, 0.05) for x in (0.0, 0.05, 0.9, 0.95)]
    cfg = ClusterConfig((make_cluster([0, 1, 2, 3], boxes),), tuple(boxes))
    out = split_cluster(cfg, 0, geometry_of(cfg))
    assert out.count == 2
    assert out.clusters[0] == (0, 1)
    assert out.clusters[1] == (2, 3)


def test_split_forced_pair():
    boxes = [DetectionBox(0.2, 0.5, 0.05, 0.05), DetectionBox(0.8, 0.5, 0.05, 0.05)]
    cfg = ClusterConfig((make_cluster([0, 1], boxes),), tuple(boxes))
    out = split_cluster(cfg, 0, geometry_of(cfg))
    assert [len(c) for c in out.clusters] == [1, 1]


def test_split_conserves_partition(rng):
    for _ in range(10):
        cfg = random_config(rng, 3, min_size=2, max_size=8)
        out = split_cluster(cfg, 1, geometry_of(cfg))
        assert out.count == cfg.count + 1
        assert sum(len(c) for c in out.clusters) == len(cfg.detections)
        validate_partition(out)


def test_split_then_merge_restores_members(rng):
    cfg = random_config(rng, 2, min_size=3, max_size=8)
    geometry = geometry_of(cfg)
    out = split_cluster(cfg, 0, geometry)
    restored = merge_clusters(out, 0, out.count - 1, geometry)
    restored_sets = sorted(restored.clusters)
    original_sets = sorted(cfg.clusters)
    assert restored_sets == original_sets


def test_geometry_for_another_frame_rejected(rng):
    cfg = random_config(rng, 3, min_size=2)
    other = geometry_of(random_config(rng, 3, min_size=2))
    with pytest.raises(ValueError, match="another frame"):
        select_merge_pair(cfg, other)
    with pytest.raises(ValueError, match="another frame"):
        split_cluster(cfg, 0, other)
    with pytest.raises(ValueError, match="another frame"):
        encode_state(cfg, other, 4)
    for action in (KEEP, MERGE, SPLIT_BASE):
        with pytest.raises(ValueError, match="another frame"):
            apply_action(cfg, action, other)
        with pytest.raises(ValueError, match="another frame"):
            step(cfg, action, 4, other)


def test_split_singleton_rejected(rng):
    cfg = config_from_centers([(0.5, 0.5), (0.2, 0.2)])
    with pytest.raises(ValueError, match="split unavailable"):
        split_cluster(cfg, 0, geometry_of(cfg))


@pytest.mark.parametrize("i", [-1, 2])
def test_split_index_out_of_range_rejected(i):
    cfg = config_from_centers([(0.5, 0.5), (0.2, 0.2)])
    with pytest.raises(ValueError, match=f"^cluster index {i} out of range$"):
        split_cluster(cfg, i, geometry_of(cfg))


def test_split_ties_go_to_y():
    # four points on a perfect square: var x == var y, split must use y
    boxes = [DetectionBox(c, r, 0.05, 0.05) for r in (0.2, 0.8) for c in (0.2, 0.8)]
    cfg = ClusterConfig((make_cluster([0, 1, 2, 3], boxes),), tuple(boxes))
    out = split_cluster(cfg, 0, geometry_of(cfg))
    assert out.clusters[0] == (0, 1)
    assert out.clusters[1] == (2, 3)


# ---------------------------------------------------------------------------
# initial clustering
# ---------------------------------------------------------------------------

def test_initial_clusters_planted_scene(rng):
    centers = [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)]
    pts, _ = planted_blobs(rng, centers, sigma=0.005, per_blob=10)
    boxes = tuple(DetectionBox(float(x), float(y), 0.02, 0.02) for x, y in pts)
    cfg = initial_clusters(ClusterGeometry(boxes, TransformParams(0.5)),
                           BandwidthSpec("fixed", 0.1))
    assert cfg.count == 3
    validate_partition(cfg)


def test_initial_clusters_empty_scene():
    with pytest.raises(ValueError, match="empty scene"):
        initial_clusters(ClusterGeometry((), TransformParams()))
