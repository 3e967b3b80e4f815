import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from sceneplan import scene
from sceneplan.clustering import (
    BandwidthSpec,
    ClusterGeometry,
    TransformParams,
    initial_clusters,
    transform_y,
)
from sceneplan.core import Boxes, ClusterConfig, DetectionBox, Frame, make_cluster
from sceneplan.scene import (
    SceneSpec,
    Stratum,
    aggregate_tiles,
    coarse_detect,
    generate_scene,
    load_detections,
    observe_tiles,
    save_detections,
    scene_spec_from_dict,
    tile_frame,
)

from oracles import (
    aggregate_tiles_reference,
    estimate_bandwidth_reference,
    meanshift_reference,
    generate_scene_reference,
    observe_tiles_reference,
    random_boxes,
    tile_rows,
)


def two_strata_spec(count=1000, seed=0):
    return SceneSpec(
        width_px=3840, height_px=2160, count_min=count, count_max=count,
        strata=(Stratum(0.0, 0.5, 0.005, 0.01), Stratum(0.5, 1.0, 0.05, 0.1)),
        seed=seed)


# ---------------------------------------------------------------------------
# detection files
# ---------------------------------------------------------------------------

def test_json_roundtrip_three_boxes(tmp_path):
    frame = Frame(1920, 1080, tuple(random_boxes(np.random.default_rng(1), 3)))
    path = tmp_path / "dets.json"
    save_detections(frame, path)
    back = load_detections(path)
    assert back.width_px == 1920 and back.height_px == 1080
    assert len(back.detections) == 3


def test_json_roundtrip_bitwise(tmp_path, rng):
    frame = Frame(3840, 2160, tuple(random_boxes(rng, 100)))
    path = tmp_path / "dets.json"
    save_detections(frame, path)
    back = load_detections(path)
    assert back.detections == frame.detections


def test_csv_roundtrip_bitwise(tmp_path, rng):
    frame = Frame(3840, 2160, tuple(random_boxes(rng, 100)))
    path = tmp_path / "dets.csv"
    save_detections(frame, path)
    back = load_detections(path)
    assert back.detections == frame.detections


@pytest.mark.parametrize("size", [(1280, 1280), (2160, 3840), (3840, 2161)])
def test_csv_refuses_a_frame_it_would_not_read_back(tmp_path, size):
    # the CSV format carries no frame size: its file reads back as CSV_FRAME_PX
    path = tmp_path / "dets.csv"
    frame = Frame(*size, tuple(random_boxes(np.random.default_rng(3), 4)))
    named = (f"{path}: a CSV detection file reads back as a 3840x2160 frame, "
             f"not {size[0]}x{size[1]}; save this frame as JSON")
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        save_detections(frame, path)
    assert list(tmp_path.iterdir()) == []
    save_detections(frame, tmp_path / "dets.json")
    assert load_detections(tmp_path / "dets.json") == frame


def test_save_detections_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "dets.json"
    save_detections(Frame(640, 480, tuple(random_boxes(np.random.default_rng(2), 3))),
                    path)
    old = path.read_bytes()

    def broken_rename(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_rename)  # the rename that ends every write
    with pytest.raises(OSError, match="disk full"):
        save_detections(Frame(640, 480, ()), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["dets.json"]


def test_csv_bad_value_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("cx,cy,w,h,score,class_id\n0.5,0.5,0.1,0.1,0.9,0\n1.5,0.5,0.1,0.1,0.9,0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_detections(path)


def test_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("cx,cy,w,h,conf,class_id\n")
    with pytest.raises(ValueError, match="header"):
        load_detections(path)


def test_json_bad_coordinate_names_entry(tmp_path):
    payload = {"width_px": 100, "height_px": 100,
               "detections": [{"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1,
                               "score": 0.9, "class_id": 0},
                              {"cx": 2.0, "cy": 0.5, "w": 0.1, "h": 0.1,
                               "score": 0.9, "class_id": 0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="detection 1"):
        load_detections(path)


@pytest.mark.parametrize("field, value", [
    ("cx", "0.5"), ("score", True), ("class_id", "3"), ("class_id", 1.9),
    ("class_id", 2 ** 70)], ids=["cx-text", "score-bool", "class-text", "class-fraction",
                                  "class-past-int64"])
def test_json_detection_values_are_not_coerced(tmp_path, field, value):
    row = {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1, "score": 0.9, "class_id": 0, field: value}
    path = tmp_path / "dets.json"
    path.write_text(json.dumps({"width_px": 100, "height_px": 100, "detections": [row]}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: detection 0: {field} must be a ")):
        load_detections(path)


ROW = {"cx": 0.5, "cy": 0.5, "w": 0.1, "h": 0.1, "score": 0.9, "class_id": 0}


@pytest.mark.parametrize("name, content, named", [
    ("dets.json", {"width_px": 100, "detections": [ROW]},
     "missing or malformed field ('height_px')"),
    ("dets.json", {"width_px": 100, "height_px": 100,
                   "detections": [{k: v for k, v in ROW.items() if k != "cy"}]},
     "detection 0: malformed detection row ('cy')"),
    ("dets.csv", "cx,cy,w,h,score,class_id\n0.5,0.5\n",
     "row 2: malformed detection row (float() argument must be"),
], ids=["json-without-height", "json-row-without-cy", "csv-short-row"])
def test_detection_file_faults_name_the_file(tmp_path, name, content, named):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {named}')}"):
        load_detections(path)


def test_csv_class_id_past_int64_is_refused(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text(f"cx,cy,w,h,score,class_id\n0.5,0.5,0.1,0.1,0.9,{2 ** 70}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: row 2: class_id must be a ")):
        load_detections(path)


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------

def test_generate_deterministic():
    a = generate_scene(two_strata_spec(seed=42))
    b = generate_scene(two_strata_spec(seed=42))
    assert a == b


def test_generate_single_stratum_count():
    spec = SceneSpec(count_min=10, count_max=10,
                     strata=(Stratum(0.2, 0.6, 0.02, 0.05),), seed=7)
    frame = generate_scene(spec)
    assert len(frame.detections) == 10
    for d in frame.detections:
        assert 0.2 <= d.cy <= 0.6


def test_generate_size_correlates_with_y():
    frame = generate_scene(two_strata_spec(count=1000, seed=5))
    cy = np.array([d.cy for d in frame.detections])
    h = np.array([d.h for d in frame.detections])
    corr = float(np.corrcoef(cy, h)[0, 1])
    assert corr > 0.8


def test_generate_zero_strata_rejected():
    with pytest.raises(ValueError):
        SceneSpec(strata=())


def test_generate_draw_on_cdf_boundary_matches_reference():
    # densities (u, 1 - u) put the cdf's first entry exactly on the first
    # object's uniform draw u; choice's searchsorted(side="right") then
    # picks the second stratum
    for seed in range(5):
        rng = np.random.default_rng(seed)
        rng.integers(3, 6)
        u = float(rng.random())
        strata = (Stratum(0.0, 0.5, 0.01, 0.02, u), Stratum(0.5, 1.0, 0.05, 0.1, 1.0 - u))
        spec = SceneSpec(1280, 1280, 3, 5, strata, seed)
        frame = generate_scene(spec)
        assert frame == generate_scene_reference(spec)
        assert frame.detections[0].cy >= 0.5


def test_stratum_rejects_inverted_size_range():
    with pytest.raises(ValueError, match=r"^size range \[0.02, 0.01\] invalid$"):
        Stratum(0.0, 1.0, 0.02, 0.01)


@pytest.mark.parametrize("density", [float("nan"), float("inf"), -float("inf"),
                                     0.0, -1.0])
def test_stratum_rejects_bad_density(density):
    with pytest.raises(ValueError, match="density"):
        Stratum(0.0, 1.0, 0.01, 0.02, density)


def test_spec_rejects_density_sum_overflow():
    big = Stratum(0.0, 1.0, 0.01, 0.02, 1e308)
    with pytest.raises(ValueError, match="density"):
        SceneSpec(strata=(big, big))


def test_spec_from_dict():
    spec = scene_spec_from_dict({
        "width_px": 1000, "height_px": 500, "count_range": [5, 9],
        "strata": [{"y_band": [0.1, 0.9], "size_range": [0.01, 0.02]}],
        "seed": 3})
    assert spec.width_px == 1000 and spec.count_max == 9
    assert spec.strata[0].y1 == 0.9


def test_spec_from_dict_reads_the_dataclass_defaults():
    # every key but the strata and a stratum's bands may be left out
    spec = scene_spec_from_dict({"strata": [{"y_band": [0.1, 0.9], "size_range": [0.01, 0.02]}]})
    assert spec == SceneSpec(strata=(Stratum(0.1, 0.9, 0.01, 0.02),))
    assert (spec.width_px, spec.height_px, spec.count_min, spec.count_max, spec.seed,
            spec.strata[0].density) == (3840, 2160, 20, 40, 0, 1.0)


STRATUM = {"y_band": [0.1, 0.9], "size_range": [0.01, 0.02]}


@pytest.mark.parametrize("d, message", [
    ([STRATUM], "scene_spec must be an object, got [{'y_band': [0.1, 0.9], "
                "'size_range': [0.01, 0.02]}]"),
    ({"strata": STRATUM}, "scene_spec.strata must be a list, got {'y_band': [0.1, 0.9], "
                          "'size_range': [0.01, 0.02]}"),
    ({"width_px": 1000}, "scene_spec.strata is missing"),
    ({"strata": [{"y_band": [0.1, 0.9]}]}, "scene_spec.strata[0].size_range is missing"),
    # a misspelt key used to leave its field at the default
    ({"strata": [STRATUM], "count_rnage": [5, 9]}, "scene_spec.count_rnage is not a field"),
    ({"strata": [{**STRATUM, "densty": 5}]}, "scene_spec.strata[0].densty is not a field"),
], ids=["spec-list", "strata-object", "no-strata", "no-size-range", "count_rnage", "densty"])
def test_spec_from_dict_names_the_fault(d, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scene_spec_from_dict(d)


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------

def test_tile_frame_quadrants():
    grid = tile_frame(Frame(1000, 800), n=1, e=4)
    assert (grid.rows, grid.cols) == (2, 2)
    assert grid.tiles == ((0, 0, 500, 400), (500, 0, 1000, 400),
                          (0, 400, 500, 800), (500, 400, 1000, 800))


def test_tile_frame_identity():
    grid = tile_frame(Frame(640, 480), n=1, e=1)
    assert grid.tiles == ((0, 0, 640, 480),)


def test_tile_frame_2x4():
    grid = tile_frame(Frame(1000, 800), n=2, e=4)
    assert (grid.rows, grid.cols) == (2, 4)
    assert len(grid.tiles) == 8


def test_tiles_cover_frame_exactly():
    for n, e, w, h in [(1, 4, 1001, 799), (3, 4, 1920, 1080), (2, 3, 777, 333)]:
        frame = Frame(w, h)
        grid = tile_frame(frame, n, e)
        assert len(grid.tiles) == n * e
        area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in grid.tiles)
        assert area == w * h
        for i, a in enumerate(grid.tiles):
            for b in grid.tiles[i + 1:]:
                ix = min(a[2], b[2]) - max(a[0], b[0])
                iy = min(a[3], b[3]) - max(a[1], b[1])
                assert ix <= 0 or iy <= 0


def test_tile_frame_validation():
    with pytest.raises(ValueError):
        tile_frame(Frame(100, 100), 0, 4)


@pytest.mark.parametrize("size, n, e, named", [
    # 7,919 is prime: one row of 7,919 columns, 4,079 of them zero-area
    ((3840, 2160), 7919, 1, "a grid of at most 2160 rows and 3840 columns (1x7919 here), got 7919"),
    ((2, 4), 8, 1, "a grid of at most 4 rows and 2 columns (2x4 here), got 8"),
    ((3840, 2160), 2 ** 40, 4, "at most 8294400, the 3840x2160 frame's pixels, got 4398046511104"),
    ((4, 2), 9, 1, "at most 8, the 4x2 frame's pixels, got 9"),
], ids=["prime-row", "columns", "2**42", "pixels"])
def test_tile_frame_refuses_a_grid_finer_than_the_pixels(monkeypatch, size, n, e, named):
    if "pixels" in named:  # refused before the divisor scan
        monkeypatch.setattr(scene, "grid_shape", lambda total: pytest.fail("scanned"))
    with pytest.raises(ValueError, match=f"^{re.escape(f'n * e must be {named}')}$"):
        tile_frame(Frame(*size), n, e)


def test_tile_frame_takes_a_grid_of_one_pixel_tiles():
    grid = tile_frame(Frame(4, 2), 8, 1)
    assert (grid.rows, grid.cols) == (2, 4)
    assert {(x1 - x0, y1 - y0) for x0, y0, x1, y1 in grid.tiles} == {(1, 1)}


# ---------------------------------------------------------------------------
# observation + aggregation
# ---------------------------------------------------------------------------

def test_aggregate_disjoint_boxes_remapped():
    frame = Frame(1000, 1000, (
        DetectionBox(0.25, 0.25, 0.1, 0.1, 0.9),
        DetectionBox(0.75, 0.75, 0.1, 0.1, 0.8),
    ))
    grid = tile_frame(frame, 1, 4)
    per_tile = observe_tiles(frame, grid)
    merged = aggregate_tiles(per_tile, grid)
    assert sorted((b.cx, b.cy) for b in merged) == [(0.25, 0.25), (0.75, 0.75)]
    assert all(b.w == pytest.approx(0.1) for b in merged)


def test_aggregate_straddler_deduplicated():
    # box across the vertical tile boundary is observed by both tiles
    frame = Frame(1000, 1000, (DetectionBox(0.5, 0.25, 0.2, 0.2, 0.9),))
    grid = tile_frame(frame, 1, 4)
    per_tile = observe_tiles(frame, grid)
    seen = sum(len(rows) for rows in per_tile)
    assert seen == 2
    merged = aggregate_tiles(per_tile, grid)
    assert len(merged) == 1


def test_aggregate_output_in_unit_square(rng):
    frame = Frame(800, 800, tuple(random_boxes(rng, 20)))
    out = coarse_detect(frame, 2, 4, drop_prob=0.1, jitter_sigma=0.01, seed=9)
    for d in out.detections:
        assert 0.0 <= d.cx <= 1.0 and 0.0 <= d.cy <= 1.0
        assert 0.0 < d.w <= 1.0 and 0.0 < d.h <= 1.0


def test_noisy_mode_drops_and_jitters(rng):
    frame = Frame(1000, 1000, tuple(random_boxes(rng, 50)))
    grid = tile_frame(frame, 1, 1)
    clean = observe_tiles(frame, grid, seed=1)
    noisy = observe_tiles(frame, grid, drop_prob=0.5, seed=1)
    assert len(noisy[0]) < len(clean[0])
    jittered = observe_tiles(frame, grid, jitter_sigma=0.01, seed=1)
    assert len(jittered[0]) == len(clean[0])
    assert jittered[0] != clean[0]


def test_observe_deterministic(rng):
    frame = Frame(1000, 1000, tuple(random_boxes(rng, 30)))
    grid = tile_frame(frame, 1, 4)
    a = observe_tiles(frame, grid, drop_prob=0.3, jitter_sigma=0.02, seed=5)
    b = observe_tiles(frame, grid, drop_prob=0.3, jitter_sigma=0.02, seed=5)
    assert a == b


@pytest.mark.parametrize("kwargs, key", [
    ({"min_visible": 0.0}, "min_visible"),
    ({"min_visible": 1.5}, "min_visible"),
    ({"min_visible": float("nan")}, "min_visible"),
    ({"drop_prob": -0.1}, "drop_prob"),
    ({"drop_prob": 1.0}, "drop_prob"),
    ({"drop_prob": 1.5}, "drop_prob"),
    ({"jitter_sigma": -0.1}, "jitter_sigma"),
    ({"jitter_sigma": float("nan")}, "jitter_sigma"),
])
def test_observe_rejects_out_of_range_inputs(rng, kwargs, key):
    frame = Frame(1000, 1000, tuple(random_boxes(rng, 5)))
    with pytest.raises(ValueError, match=key):
        observe_tiles(frame, tile_frame(frame, 1, 4), **kwargs)
    with pytest.raises(ValueError, match=key):
        coarse_detect(frame, 1, 4, **kwargs)


def test_observe_accepts_range_edges(rng):
    frame = Frame(1000, 1000, tuple(random_boxes(rng, 5)))
    grid = tile_frame(frame, 1, 1)
    assert len(observe_tiles(frame, grid, min_visible=1.0, drop_prob=0.0)[0]) == 5


def test_noisy_observation_equals_reference_draw_for_draw(rng):
    # drops and jitter spread over twelve tiles, many boxes seen by several
    frame = Frame(1200, 900, tuple(random_boxes(rng, 60, 3)))
    grid = tile_frame(frame, 3, 4)
    got = observe_tiles(frame, grid, 0.1, drop_prob=0.3, jitter_sigma=0.02, seed=11)
    want = observe_tiles_reference(frame, grid, 0.1, drop_prob=0.3, jitter_sigma=0.02, seed=11)
    assert list(map(box_bits, got)) == [box_bits(tile_rows(rows)) for rows in want]
    clean = observe_tiles(frame, grid, 0.1)
    assert sum(len(t) > 0 for t in got) == 12
    assert sum(1 for t, c in zip(got, clean) if len(t) < len(c)) >= 6


def test_tiles_that_see_no_box_keep_empty_rows():
    # boxes only in the top-left tile of a 4 x 4 grid
    frame = Frame(1000, 1000, (DetectionBox(0.1, 0.1, 0.05, 0.05, 0.9),
                               DetectionBox(0.15, 0.12, 0.04, 0.06, 0.7, 1)))
    grid = tile_frame(frame, 4, 4)
    for noise in ({}, {"drop_prob": 0.1, "jitter_sigma": 0.01, "seed": 2}):
        got = observe_tiles(frame, grid, **noise)
        assert got == observe_tiles_reference(frame, grid, **noise)
        assert [len(t) for t in got] == [2] + [0] * 15
        assert all(t.columns.shape == (5, 0) and t.class_ids == [] for t in got[1:])


def test_observation_memory_stays_linear_in_boxes_and_observations():
    # 1,024 tiles over 2,000 boxes: one (tiles x boxes) float array of the
    # whole grid would hold 16 MB
    frame = generate_scene(two_strata_spec(2000, seed=3))
    grid = tile_frame(frame, 256, 4)
    observe_tiles(frame, grid)  # numpy's lazy set-up happens outside the trace
    tracemalloc.start()
    try:
        per_tile = observe_tiles(frame, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(per_tile) == 1024 and sum(map(len, per_tile)) > 1000
    assert peak < 2 * 1024 * 1024


def test_aggregate_signed_zeros_and_clamps_match_reference():
    # a -0.0 score stays -0.0 (Python's max keeps its first argument on
    # ties); centres, sides and scores past 0 and 1 clamp to the frame
    frame = Frame(1000, 800)
    grid = tile_frame(frame, 1, 4)
    edge_rows = [(-0.0, -0.0, 0.1, 0.1, -0.0, 0), (0.0, 1.0, 1.0, 1.0, 0.0, 1),
                 (-0.4, 1.3, 1e-9, 5.0, 1.4, 0), (1.0, 0.0, 4.0, 1e-9, -0.2, 1),
                 (0.5, 0.5, 0.2, 0.2, 1.0, 2)]
    per_tile = [list(edge_rows) for _ in grid.tiles]
    got = aggregate_rows(per_tile, grid)
    want = aggregate_tiles_reference(per_tile, grid)
    assert [tuple(map(repr, astuple(b))) for b in got] == \
        [tuple(map(repr, astuple(b))) for b in want]
    assert any(math.copysign(1.0, b.score) < 0.0 for b in got)
    assert {b.score for b in got} <= {0.0, 1.0}
    assert any(b.w == 1e-6 for b in got) and any(b.h == 1.0 for b in got)


def test_aggregate_overflowing_rows_clamp_to_the_frame_without_warnings():
    # a jitter of 1e308 overflows the remap to +-inf; the clamps send it to
    # the frame's edges, as the reference's Python floats do
    grid = tile_frame(Frame(3840, 2160), 1, 4)
    huge_rows = [(1e308, -1e308, 1e308, 0.2, 0.9, 0), (-1e308, 1e308, 0.1, 1e308, 0.8, 1),
                 (0.5, 0.5, 1e308, 1e308, 1e308, 2)]
    per_tile = [list(huge_rows) for _ in grid.tiles]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = aggregate_rows(per_tile, grid)
    want = aggregate_tiles_reference(per_tile, grid)
    assert [tuple(map(repr, astuple(b))) for b in got] == \
        [tuple(map(repr, astuple(b))) for b in want]
    assert {b.cx for b in got} >= {0.0, 1.0} and any(b.w == 1.0 for b in got)


def aggregate_rows(per_tile, grid):
    """``aggregate_tiles`` on each tile's plain rows."""
    return aggregate_tiles([tile_rows(rows) for rows in per_tile], grid)


def aggregate_error(aggregate, per_tile, grid):
    with pytest.raises(ValueError) as info:
        aggregate(per_tile, grid)
    return str(info.value)


NAN = float("nan")
BOX = (0.5, 0.5, 0.2, 0.2, 0.9, 0)


def test_aggregate_nan_row_raises_even_where_nms_would_drop_it():
    # the second row repeats the first's box at a NaN score: NMS visits it
    # last and the first box suppresses it, but it must fail as a box would
    per_tile = [[BOX, (0.5, 0.5, 0.2, 0.2, NAN, 0)]]
    grid = tile_frame(Frame(1000, 1000), 1, 1)
    message = aggregate_error(aggregate_rows, per_tile, grid)
    assert message == "score nan outside [0, 1]"
    assert message == aggregate_error(aggregate_tiles_reference, per_tile, grid)


@pytest.mark.parametrize("per_tile, message", [
    # tile-major order: tile 0's NaN score comes before tile 1's NaN centre
    ([[BOX, (0.5, 0.5, 0.2, 0.2, NAN, 0)], [(NAN, 0.5, 0.2, 0.2, 0.9, 0), BOX]],
     "score nan outside [0, 1]"),
    ([[BOX, (NAN, 0.5, 0.2, 0.2, 0.9, 0)], [(0.5, 0.5, 0.2, 0.2, NAN, 0)]],
     "center (nan, 0.5) outside [0, 1]"),
    # a class id goes through int() before its row's values are checked
    ([[(0.5, 0.5, NAN, 0.2, 0.9, NAN), (0.5, 0.5, 0.2, NAN, 0.9, 0)], []],
     "cannot convert float NaN to integer"),
    ([[(0.5, 0.5, 0.2, NAN, 0.9, 0), (0.5, 0.5, 0.2, 0.2, 0.9, NAN)], []],
     "size (0.1, nan) outside (0, 1]"),
])
def test_aggregate_reports_the_first_bad_row(per_tile, message):
    grid = tile_frame(Frame(1000, 1000), 1, 2)
    assert aggregate_error(aggregate_rows, per_tile, grid) == message
    assert aggregate_error(aggregate_tiles_reference, per_tile, grid) == message


def test_aggregate_needs_one_list_per_tile():
    grid = tile_frame(Frame(1000, 1000), 1, 2)
    assert aggregate_error(aggregate_rows, [[BOX]], grid) == "1 tile lists for 2 tiles"


def test_aggregate_kept_boxes_carry_int_class_ids():
    # the third row repeats the first's box in class int(True) == 1
    per_tile = [[(0.5, 0.5, 0.2, 0.2, 0.9, 1.0), (0.2, 0.2, 0.1, 0.1, 0.8, np.int64(2)),
                 (0.5, 0.5, 0.2, 0.2, 0.7, True)]]
    kept = aggregate_rows(per_tile, tile_frame(Frame(1000, 1000), 1, 1))
    assert [(b.class_id, type(b.class_id)) for b in kept] == [(1, int), (2, int)]


def reference_coarse_detect(frame, grid, iou_threshold=0.5):
    """observe_tiles_reference, then aggregate_tiles_reference."""
    return aggregate_tiles_reference(observe_tiles_reference(frame, grid), grid,
                                     iou_threshold)


@pytest.mark.parametrize("bandwidth", [BandwidthSpec("fixed", 0.12),
                                       BandwidthSpec("quantile", 0.2)])
def test_crowd_frame_matches_reference_path(bandwidth):
    spec = SceneSpec(3840, 2160, 300, 300, (
        Stratum(0.05, 0.45, 0.012, 0.03, 0.65),
        Stratum(0.55, 0.95, 0.06, 0.12, 0.35)), seed=11)
    frame = generate_scene(spec)
    coarse = coarse_detect(frame, 1, 4)
    config = initial_clusters(ClusterGeometry(coarse.detections, TransformParams(0.5)), bandwidth)

    boxes = reference_coarse_detect(frame, tile_frame(frame, 1, 4))
    assert len(boxes) > 250
    assert coarse.detections == tuple(boxes)
    pts = transform_y([[b.cx, b.cy] for b in boxes], TransformParams(0.5))
    bw = bandwidth.value if bandwidth.mode == "fixed" else \
        estimate_bandwidth_reference(pts, bandwidth.value)
    labels = meanshift_reference(pts, bw)
    assert list(config.clusters) == \
        [tuple(np.flatnonzero(labels == k).tolist()) for k in range(labels.max() + 1)]


def test_crowd_frame_of_500_detections_matches_reference_clustering():
    spec = SceneSpec(3840, 2160, 520, 520, (
        Stratum(0.05, 0.45, 0.012, 0.03, 0.65),
        Stratum(0.55, 0.95, 0.06, 0.12, 0.35)), seed=5)
    frame = generate_scene(spec)
    config = initial_clusters(ClusterGeometry(frame.detections, TransformParams(0.5)),
                              BandwidthSpec("fixed", 0.12))
    pts = transform_y([[b.cx, b.cy] for b in frame.detections], TransformParams(0.5))
    labels = meanshift_reference(pts, 0.12)
    assert config.count > 10
    assert list(config.clusters) == \
        [tuple(np.flatnonzero(labels == k).tolist()) for k in range(labels.max() + 1)]


# ---------------------------------------------------------------------------
# box columns
# ---------------------------------------------------------------------------

CROWD_STRATA = (Stratum(0.05, 0.45, 0.012, 0.03, 0.65), Stratum(0.55, 0.95, 0.06, 0.12, 0.35))


def field_bits(boxes):
    """Each box's (cx, cy, w, h, score) as reprs, which tell -0.0 from 0.0."""
    return [tuple(repr(v) for v in (b.cx, b.cy, b.w, b.h, b.score)) for b in boxes]


def column_bits(columns):
    """A frame's (5, n) columns as each box's reprs, checking their layout
    first."""
    assert columns.dtype == np.float64 and columns.shape == (5, columns.shape[1])
    assert columns.flags.c_contiguous and not columns.flags.writeable
    return [tuple(repr(v) for v in box) for box in columns.T.tolist()]


@pytest.mark.parametrize("noise", [{}, {"drop_prob": 0.2, "jitter_sigma": 0.03, "seed": 4}])
def test_coarse_frame_columns_are_its_boxes(noise):
    # jittered straddlers clamp onto the frame's edges
    frame = generate_scene(SceneSpec(3840, 2160, 600, 600, CROWD_STRATA, seed=3))
    coarse = coarse_detect(frame, 2, 4, **noise)
    assert len(coarse.detections) > 400
    assert column_bits(coarse.detections.columns) == field_bits(coarse.detections)
    # each box is built from its row on reading, as a validated DetectionBox
    boxes = coarse.detections
    want = tuple(DetectionBox(*box, cid) for box, cid in
                 zip(boxes.columns.T.tolist(), boxes.class_ids))
    assert [(type(b), repr(b)) for b in boxes] == [(type(b), repr(b)) for b in want]
    assert boxes == want and hash(boxes) == hash(want) and len(boxes) == len(want)
    assert boxes[5:-3:7] == want[5:-3:7] and boxes[-1] == want[-1]


def test_generated_frame_columns_are_its_boxes():
    boxes = generate_scene(SceneSpec(seed=2, strata=CROWD_STRATA)).detections
    assert type(boxes) is Boxes and boxes.class_ids == [0] * len(boxes)
    assert column_bits(boxes.columns) == [tuple(map(repr, astuple(b)[:5])) for b in boxes]


def box_bits(boxes):
    """Every column of a ``Boxes`` or ``TileRows`` as reprs, with its class ids."""
    return [list(map(repr, f)) for f in boxes.columns.tolist()], boxes.class_ids


@pytest.mark.parametrize("noise", [{}, {"drop_prob": 0.2, "jitter_sigma": 0.03, "seed": 4}])
def test_generated_frame_observes_as_its_plain_boxes(noise):
    frame = generate_scene(SceneSpec(3840, 2160, 600, 600, CROWD_STRATA, seed=6))
    plain = Frame(frame.width_px, frame.height_px, tuple(frame.detections))
    assert type(plain.detections) is Boxes and plain.detections is not frame.detections
    grid = tile_frame(frame, 2, 4)
    got, want = observe_tiles(frame, grid, **noise), observe_tiles(plain, grid, **noise)
    assert list(map(box_bits, got)) == list(map(box_bits, want))
    got, want = coarse_detect(frame, 2, 4, **noise), coarse_detect(plain, 2, 4, **noise)
    assert len(got.detections) > 400
    assert box_bits(got.detections) == box_bits(want.detections)


@pytest.mark.parametrize("name", ["dets.json", "dets.csv"])
def test_generated_frame_saves_as_its_plain_boxes(tmp_path, name):
    frame = generate_scene(SceneSpec(3840, 2160, 600, 600, CROWD_STRATA, seed=6))
    save_detections(frame, tmp_path / "columns" / name)
    save_detections(Frame(frame.width_px, frame.height_px, tuple(frame.detections)),
                    tmp_path / "boxes" / name)
    assert (tmp_path / "columns" / name).read_bytes() == (tmp_path / "boxes" / name).read_bytes()


def test_noiseless_observation_builds_no_generator(monkeypatch):
    frame = generate_scene(SceneSpec(3840, 2160, 300, 300, CROWD_STRATA, seed=1))
    want = reference_coarse_detect(frame, tile_frame(frame, 2, 4))

    def refuse(seed=None):
        raise AssertionError("a noiseless observation built a generator")

    monkeypatch.setattr(scene.np.random, "default_rng", refuse)
    assert coarse_detect(frame, 2, 4).detections == tuple(want)


BOXES_TO_SAVE = (DetectionBox(-0.0, 0.0, 1.0, 0.5, 0.9), DetectionBox(1.0, -0.0, 1e-6, 1.0, -0.0),
                 DetectionBox(0.25, 0.75, 0.125, 0.5, 0.5, 2))


def assert_boxes_as_columns(dets, boxes):
    assert type(dets) is Boxes and dets == boxes and dets.class_ids == [0, 0, 2]
    assert column_bits(dets.columns) == field_bits(boxes)
    assert field_bits(dets) == field_bits(boxes)


@pytest.mark.parametrize("name", ["dets.json", "dets.csv"])
def test_other_frames_lay_out_their_columns_per_call(tmp_path, name):
    # a loaded frame lays its boxes out as columns once, when it is built
    save_detections(Frame(3840, 2160, BOXES_TO_SAVE), tmp_path / name)
    loaded = load_detections(tmp_path / name)
    assert_boxes_as_columns(loaded.detections, BOXES_TO_SAVE)
    assert loaded.detections.columns is loaded.detections.columns  # and keeps them


def test_every_frame_carries_its_boxes_as_columns():
    boxes = BOXES_TO_SAVE
    assert_boxes_as_columns(Frame(3840, 2160, boxes).detections, boxes)
    # a configuration lays its plain boxes out once; a geometry of it shares them
    config = ClusterConfig(tuple(make_cluster([i], boxes) for i in range(3)), boxes)
    geometry = ClusterGeometry(config.detections, None)
    assert type(config.detections) is Boxes and geometry.detections is config.detections
    geometry.check(config)
    geometry = ClusterGeometry(list(boxes), None)
    start = initial_clusters(geometry, BandwidthSpec("fixed", 0.1))
    assert start.detections is geometry.detections and start.detections == boxes


@pytest.mark.parametrize("transform", [None, TransformParams(0.5)])
def test_geometry_of_a_coarse_frame_equals_one_of_its_plain_boxes(transform):
    frame = generate_scene(SceneSpec(3840, 2160, 600, 600, CROWD_STRATA, seed=8))
    coarse = coarse_detect(frame, 1, 4, drop_prob=0.1, jitter_sigma=0.02, seed=1)
    laid_out = ClusterGeometry(coarse.detections, transform)
    walked = ClusterGeometry(tuple(coarse.detections), transform)
    got, want = laid_out.points, walked.points
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert repr(laid_out._area) == repr(walked._area)
    config = initial_clusters(laid_out, BandwidthSpec("fixed", 0.12))
    assert config.count > 10
    assert config.clusters == initial_clusters(walked, BandwidthSpec("fixed", 0.12)).clusters
    members = list(config.clusters) + [tuple(range(k)) for k in (1, 7, 8, 64)]
    for m in members:
        assert repr(laid_out.stats(m)) == repr(walked.stats(m))
        assert repr(laid_out.means(m)) == repr(walked.means(m))
