"""Detection ingestion, synthetic scene generation, and the tiled
coarse-detection emulation (tiling + per-tile observation + NMS aggregation).

Real detector inference is out of scope: scenes come either from detection
files (JSON/CSV) or from a stratified synthetic generator, and the per-tile
"detector" simply observes ground-truth boxes, optionally dropping and
jittering them to mimic a low-confidence, high-recall first pass.
Every frame, generated, loaded or coarse, carries its detections as
``Boxes`` columns, and tile observations stay arrays in ``TileRows``: a
row's tuple or box is built only when it is read.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (Boxes, DetectionBox, Frame, check_fields, check_keys, check_number, extents,
                   nms_rows, read_json, write_csv, write_json)

CSV_HEADER = ["cx", "cy", "w", "h", "score", "class_id"]
CSV_FRAME_PX = (3840, 2160)  # width, height of a frame read from CSV
OBSERVE_CELLS = 8192  # (tile, box) cells that observe_tiles scores at once


@dataclass(frozen=True)
class Stratum:
    """A horizontal band of the frame with its own object size range.

    Lower bands should carry larger size ranges to reproduce the usual
    stratified layout (small dense objects high in the frame, large sparse
    ones low).
    """

    y0: float
    y1: float
    size_min: float
    size_max: float
    density: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.y0 < self.y1 <= 1.0):
            raise ValueError(f"y band [{self.y0}, {self.y1}] invalid")
        if not (0.0 < self.size_min <= self.size_max <= 1.0):
            raise ValueError(f"size range [{self.size_min}, {self.size_max}] invalid")
        if not (math.isfinite(self.density) and self.density > 0.0):
            raise ValueError(
                f"stratum density must be positive and finite, got {self.density!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Parameters for one synthetic scene distribution (seed included).
    Each error message starts with the JSON field at fault."""

    width_px: int = 3840
    height_px: int = 2160
    count_min: int = 20
    count_max: int = 40
    strata: tuple[Stratum, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, [*((k, check_number(getattr(self, k), k, True) > 0, "> 0")
                              for k in ("width_px", "height_px")),
                            ("seed", check_number(self.seed, "seed", True) >= 0, ">= 0")])
        if not (1 <= check_number(self.count_min, "count_min", True)
                <= check_number(self.count_max, "count_max", True)):
            raise ValueError(f"count_range [{self.count_min}, {self.count_max}] invalid")
        if len(self.strata) == 0:
            raise ValueError("strata must hold at least one stratum")
        if not math.isfinite(sum(s.density for s in self.strata)):
            raise ValueError("strata density values must have a finite sum")
        object.__setattr__(self, "strata", tuple(self.strata))

    def with_seed(self, seed: int) -> "SceneSpec":
        return SceneSpec(self.width_px, self.height_px, self.count_min,
                         self.count_max, self.strata, seed)


def _spec_pair(value, where: str, integer: bool):
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{where} must be a pair of numbers, got {value!r}")
    return [check_number(v, where, integer) for v in value]


def scene_spec_from_dict(d: dict) -> SceneSpec:
    """The SceneSpec of a JSON scene spec object.

    Frame size, count range and seed must be non-bool ints, and stratum
    bounds and densities finite non-bool reals; anything else, any value
    out of range, a missing stratum list or band, and any key not read
    here raises a ValueError naming the field, e.g.
    ``scene_spec.strata[0].y_band`` or ``scene_spec.count_range``.
    """
    check_keys(d, "scene_spec", ("width_px", "height_px", "count_range", "strata", "seed"),
               optional=("width_px", "height_px", "count_range", "seed"))
    strata = d["strata"]
    if not isinstance(strata, list):
        raise ValueError(f"scene_spec.strata must be a list, got {strata!r}")
    parsed = []
    for k, s in enumerate(strata):
        where = f"scene_spec.strata[{k}]"
        check_keys(s, where, ("y_band", "size_range", "density"), optional=("density",))
        y0, y1 = _spec_pair(s["y_band"], where + ".y_band", False)
        size_min, size_max = _spec_pair(s["size_range"], where + ".size_range", False)
        density = check_number(s.get("density", Stratum.density), where + ".density", False)
        try:
            parsed.append(Stratum(y0, y1, size_min, size_max, density))
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
    count_range = _spec_pair(d.get("count_range", [SceneSpec.count_min, SceneSpec.count_max]),
                             "scene_spec.count_range", True)
    try:
        return SceneSpec(*(d.get(k, getattr(SceneSpec, k)) for k in ("width_px", "height_px")),
                         *count_range, tuple(parsed), d.get("seed", SceneSpec.seed))
    except ValueError as e:  # its message starts with the field's name
        raise ValueError(f"scene_spec.{e}") from None


def load_scene_spec(path) -> SceneSpec:
    """The SceneSpec of a JSON scene spec file; errors name the file."""
    data = read_json(path)  # its own errors name the file already
    try:
        return scene_spec_from_dict(data)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _uniform(low, high, u):
    """``Generator.uniform(low, high)``'s value for the double ``u``, or
    elementwise for arrays."""
    return low + (high - low) * u


def generate_scene(spec: SceneSpec) -> Frame:
    """Draw a synthetic frame from the spec; deterministic per seed.

    Each object picks a stratum by density weight, a vertical position
    uniform in the band, and a height that grows with the position inside
    the band (plus jitter), so box size correlates with cy across and
    within strata.

    Array method: the 6 * count doubles of one ``rng.random`` call go
    through each object's formulas as whole-array operations, each
    ``_uniform``'s ``high - low`` taken as written (``1.1 - 0.6`` is not
    0.5), with Python's clamps written out: ``max(0.0, v)`` keeps ``v`` only
    if ``v > 0.0``, ``min(v, hi)`` keeps ``v`` unless ``hi < v``. The frame's
    detections are a ``Boxes``, which trusts its rows; under ``Stratum``'s
    bounds every row passes ``DetectionBox``'s checks. A step ``lo + (hi -
    lo) * u`` with ``0 <= lo < hi <= 1`` and ``u`` in [0, 1) rounds to a
    value in [lo, hi] (``cy``, ``cx`` and score). ``h >= size_min > 0`` and
    rounds to at most ``size_max <= 1``; ``w`` is ``h`` times at least 0.6,
    which rounds to no less than the smallest subnormal, and is clamped to
    1. ``cy`` ends between ``max(cy, h / 2) >= 0`` and ``1 - h / 2 <= 1``.

    Frames equal ``generate_scene_reference`` in ``tests/oracles.py`` draw
    for draw, beside which the argument sits.
    """
    rng = np.random.default_rng(spec.seed)
    count = int(rng.integers(spec.count_min, spec.count_max + 1))
    weights = np.array([s.density for s in spec.strata], dtype=float)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    # the 6 * count doubles of 6 draws per object, one column per draw
    try:
        draws = rng.random((count, 6))
    except (MemoryError, ValueError) as e:  # numpy's "array is too big" is a ValueError
        raise ValueError(f"count_range: cannot draw {count} objects: {e}") from None
    u_pick, u_y, u_t, u_w, u_x, u_score = draws.T
    bounds = np.array([(s.y0, s.y1, s.size_min, s.size_max) for s in spec.strata], dtype=float)
    y0, y1, size_min, size_max = bounds[cdf.searchsorted(u_pick, side="right")].T
    cy = _uniform(y0, y1, u_y)
    t = (cy - y0) / (y1 - y0) + _uniform(-0.25, 0.25, u_t)
    t = np.where(t > 0.0, t, 0.0)  # min(1.0, max(0.0, t))
    t = np.where(t < 1.0, t, 1.0)
    h = size_min + (size_max - size_min) * t
    w = h * _uniform(0.6, 1.1, u_w)
    w = np.where(w < 1.0, w, 1.0)  # min(1.0, w)
    half = h / 2.0
    cx = _uniform(w / 2.0, 1.0 - w / 2.0, u_x)
    cy = np.where(half > cy, half, cy)  # min(max(cy, half), 1.0 - half)
    cy = np.where(1.0 - half < cy, 1.0 - half, cy)
    rows = np.stack([cx, cy, w, h, _uniform(0.3, 1.0, u_score)])
    return Frame(spec.width_px, spec.height_px, Boxes(rows, [0] * count))


# ---------------------------------------------------------------------------
# detection files
# ---------------------------------------------------------------------------

def _box_from_row(row: dict, where: str) -> DetectionBox:
    """The box of a row of numbers: finite reals, and an int class_id."""
    try:
        return DetectionBox(*(check_number(row[k], k, k == "class_id") for k in CSV_HEADER))
    except (KeyError, TypeError) as e:
        raise ValueError(f"{where}: malformed detection row ({e})") from None
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _box_from_text(row: dict, where: str) -> DetectionBox:
    """``_box_from_row`` of a CSV row, its text read as floats and an int class_id."""
    try:
        row = {k: int(row[k]) if k == "class_id" else float(row[k]) for k in CSV_HEADER}
    except (TypeError, ValueError) as e:
        raise ValueError(f"{where}: malformed detection row ({e})") from None
    return _box_from_row(row, where)


def load_detections(path) -> Frame:
    """Read a detection file into a validated Frame: CSV when the path ends
    in ``.csv``, JSON otherwise.

    Invalid rows are rejected with their position in the file; the valid
    ones are laid out once as the frame's ``Boxes``. JSON files embed their
    frame size; the CSV format carries none, so a CSV file is read as a
    ``CSV_FRAME_PX`` frame.
    """
    path = str(path)
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8", newline="") as f:
            try:
                reader = csv.DictReader(f)
                if reader.fieldnames != CSV_HEADER:
                    raise ValueError(f"CSV header must be exactly {','.join(CSV_HEADER)}")
                boxes = [_box_from_text(r, f"row {i}") for i, r in enumerate(reader, start=2)]
            except (ValueError, csv.Error) as e:  # a bad row, header or encoding
                raise ValueError(f"{path}: {e}") from None
        return Frame(*CSV_FRAME_PX, boxes)
    data = read_json(path)
    try:
        width, height, rows = (data[k] for k in ("width_px", "height_px", "detections"))
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: missing or malformed field ({e})") from None
    if not isinstance(rows, list):
        raise ValueError(f"{path}: \"detections\" must be a list, got {rows!r}")
    boxes = [_box_from_row(r, f"{path}: detection {i}") for i, r in enumerate(rows)]
    try:
        return Frame(width, height, boxes)
    except ValueError as e:  # a size that is not a positive 64-bit integer
        raise ValueError(f"{path}: {e}") from None


def save_detections(frame: Frame, path) -> None:
    """Write a Frame's ``Boxes`` atomically, one row per box read from its
    columns (no box is built), in the CSV detection format when the path
    ends in ``.csv``, in the JSON one otherwise. A CSV file carries no frame
    size and reads back as ``CSV_FRAME_PX``, so any other frame is refused
    there before anything is written."""
    csv_file = str(path).endswith(".csv")
    if csv_file and (frame.width_px, frame.height_px) != CSV_FRAME_PX:
        raise ValueError(f"{path}: a CSV detection file reads back as a "
                         f"{CSV_FRAME_PX[0]}x{CSV_FRAME_PX[1]} frame, not "
                         f"{frame.width_px}x{frame.height_px}; save this frame as JSON")
    dets = frame.detections
    rows = [dict(zip(CSV_HEADER, v)) for v in zip(*dets.columns.tolist(), dets.class_ids)]
    if csv_file:
        write_csv(path, CSV_HEADER, rows)
    else:
        write_json(path, {"width_px": frame.width_px, "height_px": frame.height_px,
                          "detections": rows})


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TileGrid:
    """n*E equal tiles covering the frame, arranged near-square."""

    rows: int
    cols: int
    width_px: int
    height_px: int
    tiles: tuple[tuple[int, int, int, int], ...]


def grid_shape(total: int) -> tuple[int, int]:
    """rows x cols with rows the largest divisor of total <= sqrt(total)."""
    rows = 1
    for d in range(1, int(math.isqrt(total)) + 1):
        if total % d == 0:
            rows = d
    return rows, total // rows


def tile_frame(frame: Frame, n: int, e: int) -> TileGrid:
    """Split the frame into n*E equal tiles (no gaps, no overlap).

    A grid finer than the frame's pixels is refused, naming ``n * e``,
    before its shape is sought and before any tile is built."""
    check_fields({"n": n, "e": e}, [("n", n >= 1, ">= 1"), ("e", e >= 1, ">= 1")])
    total, width, height = n * e, frame.width_px, frame.height_px
    check_fields({"n * e": total}, [("n * e", total <= width * height,
                                     f"at most {width * height}, the {width}x{height} frame's pixels")])
    rows, cols = grid_shape(total)
    check_fields({"n * e": total}, [("n * e", rows <= height and cols <= width,
                                     f"a grid of at most {height} rows and {width} columns "
                                     f"({rows}x{cols} here)")])
    xs = [round(k * width / cols) for k in range(cols + 1)]
    ys = [round(k * height / rows) for k in range(rows + 1)]
    tiles = tuple(
        (xs[c], ys[r], xs[c + 1], ys[r + 1])
        for r in range(rows)
        for c in range(cols)
    )
    return TileGrid(rows, cols, width, height, tiles)


class TileRows(Sequence):
    """One tile's observations, read-only: its k boxes' tile-local cx, cy, w,
    h and score as (5, k) ``columns``, and their ``class_ids``. A row's tuple
    is built only when read; ``==`` is that of the list of its tuples."""

    def __init__(self, columns: np.ndarray, class_ids: list):
        self.columns, self.class_ids = columns, class_ids

    def __len__(self) -> int:
        return len(self.class_ids)

    def __getitem__(self, k: int):
        return (*self.columns[:, k].tolist(), self.class_ids[k])

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, TileRows) else other)


def observe_tiles(
    frame: Frame,
    grid: TileGrid,
    min_visible: float = 0.25,
    drop_prob: float = 0.0,
    jitter_sigma: float = 0.0,
    seed: int | None = None,
) -> list[TileRows]:
    """Emulate per-tile coarse detection against ground-truth boxes.

    Every tile reports each box of the frame's ``Boxes`` whose intersection
    with the tile covers at least ``min_visible`` of the box area, as a raw
    (cx, cy, w, h, score, class_id) row of its ``TileRows``, in tile-local
    normalized coordinates. Boxes straddling a boundary are reported by
    several tiles; NMS aggregation resolves the duplicates. In noisy mode
    each observation is dropped with ``drop_prob`` and its coordinates
    jittered with Gaussian sigma.

    Array method: tiles go in chunks of at most ``OBSERVE_CELLS`` (tile,
    box) cells (one tile at least), so memory stays O(boxes +
    observations). A chunk scores visibility as one (tiles x boxes) array
    and lays its observations out in (tile, box) order, the order in which
    noisy mode draws; each tile's ``TileRows`` is a slice of them. The box
    extents are ``core.extents``', scaled to pixels; a ``-0.0`` corner may
    keep its sign there, which no area or intersection it enters shows.
    A seed gives the same observations as ``observe_tiles_reference`` in
    ``tests/oracles.py``, beside which the argument sits.
    """
    check_fields({"min_visible": min_visible, "drop_prob": drop_prob,
                  "jitter_sigma": jitter_sigma},
                 [("min_visible", 0.0 < min_visible <= 1.0, "in (0, 1]"),
                  ("drop_prob", 0.0 <= drop_prob < 1.0, "in [0, 1)"),
                  ("jitter_sigma", jitter_sigma >= 0.0, ">= 0")])
    noisy = drop_prob > 0.0 or jitter_sigma > 0.0
    rng = np.random.default_rng(seed) if noisy else None
    w_px, h_px = frame.width_px, frame.height_px
    cx, cy, w, h, score = frame.detections.columns
    class_ids = frame.detections.class_ids
    bx0, by0, bx1, by1 = extents(cx, cy, w, h)
    bx0, by0, bx1, by1 = bx0 * w_px, by0 * h_px, bx1 * w_px, by1 * h_px
    box_area = (bx1 - bx0) * (by1 - by0)
    cx_px, cy_px, bw_px, bh_px = cx * w_px, cy * h_px, w * w_px, h * h_px
    tiles = np.array(grid.tiles, dtype=float)
    step = max(1, OBSERVE_CELLS // max(len(class_ids), 1))
    per_tile = []
    for c in range(0, len(tiles), step):
        chunk = tiles[c:c + step]
        tx0, ty0, tx1, ty1 = chunk.T[:, :, None]  # (tiles, 1) columns
        inter = np.maximum(0.0, np.minimum(bx1, tx1) - np.maximum(bx0, tx0)) * \
            np.maximum(0.0, np.minimum(by1, ty1) - np.maximum(by0, ty0))
        share = np.divide(inter, box_area, out=np.zeros(inter.shape), where=box_area > 0.0)
        tile, box = np.nonzero(share >= min_visible)  # (tile, box) order
        noise = []
        if noisy:  # draws in observation order
            kept = []
            for k in range(len(box)):
                if drop_prob > 0.0 and rng.random() < drop_prob:
                    continue
                kept.append(k)
                if jitter_sigma > 0.0:
                    noise.append([float(rng.normal(0.0, jitter_sigma)) for _ in range(4)])
            tile, box = tile[kept], box[kept]
        tx0, ty0, tx1, ty1 = chunk[tile].T  # each observation's tile
        tw, th = tx1 - tx0, ty1 - ty0
        # full boxes in tile-local units; they may poke outside [0, 1] locally
        rows = np.stack([(cx_px[box] - tx0) / tw, (cy_px[box] - ty0) / th,
                         bw_px[box] / tw, bh_px[box] / th, score[box]])
        if noise:  # max(1e-4, v) gives 1e-4 unless v > 1e-4
            rows[:4] += np.array(noise).T
            rows[2:4] = np.where(rows[2:4] > 1e-4, rows[2:4], 1e-4)
        cids = [class_ids[i] for i in box.tolist()]
        ends = np.searchsorted(tile, np.arange(1, len(chunk) + 1)).tolist()
        for s, e in zip([0] + ends, ends):
            per_tile.append(TileRows(rows[:, s:e], cids[s:e]))
    return per_tile


def aggregate_tiles(per_tile, grid: TileGrid, iou_threshold: float = 0.5) -> Boxes:
    """Map each tile's ``TileRows`` to frame coordinates and run global NMS.

    Array method: all observations are remapped as arrays, with Python's
    clamps written out (``max(v, lo)`` keeps ``v`` unless ``v < lo``, so a
    ``-0.0`` score stays ``-0.0``), and suppressed by ``nms_rows``. Every
    row is first checked in observation order as its box would be: its
    class id goes through ``int``, and after the clamps it fails
    ``DetectionBox``'s checks iff it holds a NaN. The kept rows become a
    ``Boxes``, which builds a box only when one is read.
    Results equal ``aggregate_tiles_reference`` in ``tests/oracles.py``.
    """
    if len(per_tile) != len(grid.tiles):
        raise ValueError(f"{len(per_tile)} tile lists for {len(grid.tiles)} tiles")
    cx, cy, w, h, score = np.concatenate([t.columns for t in per_tile], axis=1)
    cids = [cid for t in per_tile for cid in t.class_ids]
    counts = [len(t) for t in per_tile]
    tx0, ty0, tx1, ty1 = (np.repeat(col, counts) for col in zip(*grid.tiles))
    tw, th = tx1 - tx0, ty1 - ty0
    w_px, h_px = grid.width_px, grid.height_px

    def clamp(v, lo, hi):  # min(max(v, lo), hi)
        v = np.where(v < lo, lo, v)
        return np.where(v > hi, hi, v)

    # jittered straddlers can poke out of frame; clamp back in. A huge
    # jitter overflows to +-inf, which the clamps send to the frame's
    # edges as Python floats do, so the overflow is no fault
    with np.errstate(over="ignore"):
        boxes = np.stack([clamp((tx0 + cx * tw) / w_px, 0.0, 1.0),
                          clamp((ty0 + cy * th) / h_px, 0.0, 1.0),
                          clamp(w * tw / w_px, 1e-6, 1.0), clamp(h * th / h_px, 1e-6, 1.0),
                          clamp(score, 0.0, 1.0)])
    bad = np.flatnonzero(np.isnan(boxes).any(axis=0)).tolist()
    class_ids = [int(cid) for cid in cids[:bad[0] + 1 if bad else len(cids)]]
    if bad:  # raises the box's own error for the first bad row
        DetectionBox(*boxes[:, bad[0]].tolist(), class_ids[-1])
    keep = nms_rows(*boxes, class_ids, iou_threshold)
    # take keeps the rows C-ordered, so Boxes copies nothing; boxes[:, keep] would not
    return Boxes(boxes.take(keep, axis=1), [class_ids[k] for k in keep])


def coarse_detect(
    frame: Frame,
    n: int,
    e: int,
    iou_threshold: float = 0.5,
    min_visible: float = 0.25,
    drop_prob: float = 0.0,
    jitter_sigma: float = 0.0,
    seed: int | None = None,
) -> Frame:
    """Full coarse-detection emulation: tile, observe per tile, aggregate."""
    grid = tile_frame(frame, n, e)
    per_tile = observe_tiles(frame, grid, min_visible, drop_prob, jitter_sigma, seed)
    return Frame(frame.width_px, frame.height_px, aggregate_tiles(per_tile, grid, iou_threshold))
