import dataclasses
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan.clustering import ClusterGeometry, TransformParams
from sceneplan.core import (
    ClusterConfig,
    DetectionBox,
    Frame,
    Boxes,
    bounding_blocks,
    expand_ranges,
    make_cluster,
    nms,
    validate_partition,
    write_file,
)

from sceneplan.offload import (ModelProfile, OffloadPlan, PartitionDescriptor, assign_servers,
                               scale_area)
from sceneplan.ppo import keep_policy, rollout
from sceneplan.rl_env import EnvConfig
from sceneplan.scene import SceneSpec, Stratum, tile_frame

from oracles import cluster_means_reference, iou_exact, iou_raster, random_boxes


def test_box_validation():
    DetectionBox(0.5, 0.5, 0.1, 0.1, 0.9, 1)
    with pytest.raises(ValueError):
        DetectionBox(1.5, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        DetectionBox(0.5, 0.5, 0.0, 0.1)
    with pytest.raises(ValueError):
        DetectionBox(0.5, 0.5, 0.1, 0.1, score=1.2)


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(0, 100)


def test_iou_identity():
    a = DetectionBox(0.5, 0.5, 0.2, 0.3)
    assert iou_exact(a, a) == 1.0


def test_iou_disjoint():
    a = DetectionBox(0.2, 0.2, 0.1, 0.1)
    b = DetectionBox(0.8, 0.8, 0.1, 0.1)
    assert iou_exact(a, b) == 0.0


def test_iou_overlap_vs_raster_oracle():
    # expected value frozen from the 1e4-cell rasterization oracle
    a = DetectionBox(0.5, 0.5, 0.2, 0.2)
    b = DetectionBox(0.55, 0.5, 0.2, 0.2)
    expected = iou_raster(a, b)
    assert expected == pytest.approx(0.6, abs=2e-4)
    assert iou_exact(a, b) == pytest.approx(expected, abs=1e-3)


def test_iou_random_vs_raster_oracle(rng):
    for _ in range(50):
        a, b = random_boxes(rng, 2)
        assert iou_exact(a, b) == pytest.approx(iou_raster(a, b), abs=1e-3)


@given(
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0.01, 1), st.floats(0.01, 1)),
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0.01, 1), st.floats(0.01, 1)),
)
@settings(max_examples=200, deadline=None)
def test_iou_symmetric(t1, t2):
    a = DetectionBox(*t1)
    b = DetectionBox(*t2)
    assert iou_exact(a, b) == iou_exact(b, a)
    assert 0.0 <= iou_exact(a, b) <= 1.0


def test_nms_suppresses_duplicate():
    a = DetectionBox(0.5, 0.5, 0.2, 0.2, score=0.9)
    b = DetectionBox(0.5, 0.5, 0.2, 0.2, score=0.8)
    kept = nms([b, a], 0.5)
    assert kept == [a]


def test_nms_keeps_disjoint():
    a = DetectionBox(0.2, 0.2, 0.1, 0.1, score=0.9)
    b = DetectionBox(0.8, 0.8, 0.1, 0.1, score=0.8)
    assert nms([a, b], 0.5) == [a, b]


def test_nms_classwise():
    a = DetectionBox(0.5, 0.5, 0.2, 0.2, score=0.9, class_id=0)
    b = DetectionBox(0.5, 0.5, 0.2, 0.2, score=0.8, class_id=1)
    assert nms([a, b], 0.5) == [a, b]


# rows as aggregate_tiles keeps them: clamped into range, zeros of both signs
KEPT_COORD = st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0)
KEPT_SIDE = st.sampled_from([1e-6, 1.0]) | st.floats(1e-6, 1.0)
KEPT_ROW = st.tuples(KEPT_COORD, KEPT_COORD, KEPT_SIDE, KEPT_SIDE,
                     st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0), st.integers(0, 3))


@given(st.lists(KEPT_ROW, max_size=12), st.data())
@settings(max_examples=200, deadline=None)
def test_kept_boxes_equal_validated_boxes(rows, data):
    columns = np.array([row[:5] for row in rows]).reshape(-1, 5).T.copy()
    kept = Boxes(columns, [row[5] for row in rows])
    boxes = tuple(DetectionBox(*row) for row in rows)
    assert len(kept) == len(rows)
    for k, want in enumerate(boxes):
        # read by index (negative too) and by iteration, each a new box
        for box in (kept[k], kept[k - len(rows)], list(kept)[k]):
            assert type(box) is DetectionBox
            assert box == want and hash(box) == hash(want)
            # repr tells -0.0 from 0.0, and each field's type apart
            assert repr(box) == repr(want)
            assert [type(v) for v in dataclasses.astuple(box)] == \
                [type(v) for v in dataclasses.astuple(want)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.cx = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del box.score
    for k in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            kept[k]
    cut = slice(*data.draw(st.tuples(*[st.none() | st.integers(-14, 14)] * 2)),
                data.draw(st.sampled_from([None, 1, 2, -1, -3])))
    assert repr(kept[cut]) == repr(boxes[cut])
    assert kept == boxes and boxes == kept and hash(kept) == hash(boxes)
    assert kept == Boxes(np.array([row[:5] for row in rows]).reshape(-1, 5).T,
                         [row[5] for row in rows])
    assert kept != list(boxes) and (not rows or kept != boxes[1:])
    # the (5, n) array it was built from, now read-only; an F-ordered one is copied to C order
    assert kept.columns is columns and columns.shape == (5, len(rows))
    assert columns.flags.c_contiguous and not columns.flags.writeable
    # the columns are the boxes' one store: each row holds its box's bits, -0.0 included
    assert Boxes.__slots__ == ("columns", "class_ids")
    assert [tuple(map(repr, row)) for row in columns.T.tolist()] == \
        [tuple(map(repr, dataclasses.astuple(b)[:5])) for b in boxes]
    transposed = Boxes(columns.T.copy().T, kept.class_ids).columns
    assert transposed.flags.c_contiguous and transposed.tobytes() == columns.tobytes()


def test_nms_suppresses_at_exact_threshold():
    a = DetectionBox(0.5, 0.5, 0.25, 0.125, score=0.9)
    b = DetectionBox(0.4375, 0.5, 0.125, 0.125, score=0.8)  # half of a
    assert iou_exact(a, b) == 0.5
    assert nms([a, b], 0.5) == [a]


def test_nms_touching_edges_never_suppress():
    a = DetectionBox(0.25, 0.5, 0.25, 0.25, score=0.9)
    b = DetectionBox(0.5, 0.5, 0.25, 0.25, score=0.8)  # shares a's right edge
    assert iou_exact(a, b) == 0.0
    assert nms([a, b], 0.01) == [a, b]


def test_nms_idempotent(rng):
    for _ in range(20):
        boxes = random_boxes(rng, 15)
        once = nms(boxes, 0.4)
        assert nms(once, 0.4) == once


def test_nms_output_sorted(rng):
    kept = nms(random_boxes(rng, 20), 0.5)
    scores = [b.score for b in kept]
    assert scores == sorted(scores, reverse=True)


def test_nms_empty():
    assert nms([], 0.5) == []


def test_nms_threshold_validation():
    with pytest.raises(ValueError):
        nms([], 1.0)


@pytest.mark.parametrize("lo, hi", [
    ([4, 0, 7], [4, 3, 9]),
    ([0, 5, 2], [2, 5, 6]),
    ([1, 6, 3], [4, 9, 3]),
    ([2, 0, 5], [2, 0, 5]),
    ([], []),
], ids=["empty-first", "empty-middle", "empty-last", "all-empty", "no-ranges"])
def test_expand_ranges_lists_every_position_in_turn(lo, hi):
    pos, counts = expand_ranges(np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp))
    assert pos.dtype == np.intp
    assert pos.tolist() == [p for a, b in zip(lo, hi) for p in range(a, b)]
    assert counts.tolist() == [b - a for a, b in zip(lo, hi)]


def stats_of(members, boxes):
    """The cluster of ``members``: its raw means in a transformed geometry
    of ``boxes``, which must equal the reference's, and its size."""
    c = make_cluster(members, boxes)
    means = ClusterGeometry(boxes, TransformParams(0.5)).means(c)
    assert means == cluster_means_reference(c, boxes)
    return (*means, len(c))


def test_cluster_stats_singleton():
    box = DetectionBox(0.3, 0.4, 0.1, 0.2)
    assert stats_of([0], [box]) == (0.3, 0.4, 0.1, 0.2, 1)


def test_cluster_stats_symmetry():
    boxes = [DetectionBox(0.0, 0.0, 0.1, 0.1), DetectionBox(1.0, 1.0, 0.1, 0.1)]
    assert stats_of([0, 1], boxes) == (0.5, 0.5, 0.1, 0.1, 2)


def test_cluster_stats_matches_naive_mean(rng):
    boxes = random_boxes(rng, 20)
    mx, my, mw, mh, n = stats_of(range(20), boxes)
    assert n == 20
    assert mx == pytest.approx(math.fsum(b.cx for b in boxes) / 20, abs=1e-12)
    assert my == pytest.approx(math.fsum(b.cy for b in boxes) / 20, abs=1e-12)
    assert mw == pytest.approx(math.fsum(b.w for b in boxes) / 20, abs=1e-12)
    assert mh == pytest.approx(math.fsum(b.h for b in boxes) / 20, abs=1e-12)


def test_cluster_stats_empty_rejected():
    with pytest.raises(ValueError, match="empty cluster"):
        make_cluster([], [])


def test_make_cluster_recomputable(rng):
    boxes = random_boxes(rng, 8)
    c = make_cluster([5, 1, 3], boxes)
    assert c == (1, 3, 5)
    got = stats_of([5, 1, 3], boxes)[:4]
    assert stats_of([3, 5, 1], boxes)[:4] == got  # bitwise: any order, one sum
    for mean, attr in zip(got, ("cx", "cy", "w", "h")):
        assert abs(mean - math.fsum(getattr(boxes[i], attr) for i in c) / 3) < 1e-9


def test_make_cluster_rejects_duplicates(rng):
    with pytest.raises(ValueError):
        make_cluster([1, 1], random_boxes(rng, 3))


@pytest.mark.parametrize("outside", [-1, 5])
def test_make_cluster_rejects_members_outside_the_frame(rng, outside):
    boxes = random_boxes(rng, 5)
    with pytest.raises(ValueError, match=r"outside \[0, 5\)"):
        make_cluster([0, outside], boxes)


def test_validate_partition(rng):
    boxes = random_boxes(rng, 6)
    good = ClusterConfig(
        (make_cluster([0, 1], boxes), make_cluster([2, 3, 4], boxes),
         make_cluster([5], boxes)),
        tuple(boxes))
    validate_partition(good)
    overlapping = ClusterConfig(
        (make_cluster([0, 1], boxes), make_cluster([1, 2, 3, 4, 5], boxes)),
        tuple(boxes))
    with pytest.raises(ValueError):
        validate_partition(overlapping)
    missing = ClusterConfig((make_cluster([0, 1], boxes),), tuple(boxes))
    with pytest.raises(ValueError):
        validate_partition(missing)


@pytest.mark.parametrize("clusters, message", [
    ((), "configuration has no clusters"),
    (((0, 1, 2, 3, 4, 5), ()), "empty cluster"),
], ids=["no-clusters", "empty-cluster"])
def test_validate_partition_names_the_fault(rng, clusters, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_partition(ClusterConfig(clusters, tuple(random_boxes(rng, 6))))


def bounding_block(cluster, boxes, margin, frame):
    """The block of a one-cluster configuration."""
    [block] = bounding_blocks(ClusterConfig((cluster,), tuple(boxes)), margin, frame)
    return block


def test_bounding_block_direct():
    frame = Frame(1000, 1000)
    boxes = [DetectionBox(0.5, 0.5, 0.2, 0.2)]
    c = make_cluster([0], boxes)
    assert bounding_block(c, boxes, 0.0, frame) == (400, 400, 600, 600)
    assert bounding_block(c, boxes, 0.1, frame) == (380, 380, 620, 620)


def test_bounding_block_clipped():
    frame = Frame(800, 600)
    boxes = [DetectionBox(0.05, 0.95, 0.1, 0.1), DetectionBox(0.95, 0.05, 0.1, 0.1)]
    c = make_cluster([0, 1], boxes)
    assert bounding_block(c, boxes, 0.5, frame) == (0, 0, 800, 600)


def test_bounding_block_contains_members(rng):
    frame = Frame(1920, 1080)
    for _ in range(20):
        boxes = random_boxes(rng, 5)
        c = make_cluster(range(5), boxes)
        x0, y0, x1, y1 = bounding_block(c, boxes, 0.0, frame)
        for b in boxes:
            bx0, by0, bx1, by1 = b.extent()
            assert x0 <= round(bx0 * frame.width_px)
            assert y0 <= round(by0 * frame.height_px)
            assert x1 >= round(bx1 * frame.width_px)
            assert y1 >= round(by1 * frame.height_px)


def test_bounding_block_empty_cluster_rejected():
    frame = Frame(100, 100)
    c = ()
    with pytest.raises(ValueError):
        bounding_block(c, [], 0.0, frame)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_write_file_honours_the_umask(tmp_path, umask, mode):
    # a new file and a replaced one both get 0o666 & ~umask, as open() gives
    path = tmp_path / "sub" / "out.txt"
    saved = os.umask(umask)
    try:
        write_file(path, "first")
        first = stat.S_IMODE(os.stat(path).st_mode)
        write_file(path, b"second")
        assert os.umask(umask) == umask  # the umask is left as it was
    finally:
        os.umask(saved)
    assert first == stat.S_IMODE(os.stat(path).st_mode) == mode
    assert path.read_bytes() == b"second"
    assert os.listdir(path.parent) == ["out.txt"]


NAN = float("nan")
FRAME = Frame(100, 100, (DetectionBox(0.5, 0.5, 0.1, 0.1),))
STRATA = (Stratum(0.1, 0.9, 0.01, 0.02),)
CURVE = ((64.0, 0.5),)
PLAN = OffloadPlan(((0, "m", 10, 0.5),), 0.5, 10, 10)
# each (type or function, field) of the package API that takes a number,
# given NaN there
NAN_CALLS = {
    "Frame.width_px": lambda: Frame(NAN, 5),
    "Frame.height_px": lambda: Frame(5, NAN),
    "SceneSpec.width_px": lambda: SceneSpec(width_px=NAN, strata=STRATA),
    "SceneSpec.height_px": lambda: SceneSpec(height_px=NAN, strata=STRATA),
    "SceneSpec.seed": lambda: SceneSpec(strata=STRATA, seed=NAN),
    "ModelProfile.input_size": lambda: ModelProfile("m", NAN, 10, CURVE),
    "ModelProfile.latency_ms": lambda: ModelProfile("m", 640, NAN, CURVE),
    "PartitionDescriptor.width_px": lambda: PartitionDescriptor(3, NAN, 10, (4.0,)),
    "PartitionDescriptor.height_px": lambda: PartitionDescriptor(3, 10, NAN, (4.0,)),
    "bounding_blocks.margin": lambda: bounding_blocks(
        ClusterConfig(((0,),), FRAME.detections), NAN, FRAME),
    "scale_area.area_px2": lambda: scale_area(NAN, 1, 1, 1),
    "scale_area.width_px": lambda: scale_area(1, NAN, 1, 1),
    "scale_area.height_px": lambda: scale_area(1, 1, NAN, 1),
    "scale_area.input_size": lambda: scale_area(1, 1, 1, NAN),
    "tile_frame.n": lambda: tile_frame(FRAME, NAN, 1),
    "tile_frame.e": lambda: tile_frame(FRAME, 1, NAN),
    "assign_servers.e": lambda: assign_servers(PLAN, NAN),
    "rollout.t_max": lambda: rollout([FRAME], EnvConfig(), NAN, keep_policy),
}


@pytest.mark.parametrize("where", NAN_CALLS)
def test_nan_is_refused_naming_the_field(where):
    # a profile's or a partition's error starts with its name, then the field
    field = where.split(".")[1]
    with pytest.raises(ValueError, match=rf"(^|: ){field} must be [^,]*, got nan$"):
        NAN_CALLS[where]()
