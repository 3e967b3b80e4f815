"""Geometry primitives, detection-box operations, clusters, and the file
layer every input JSON and every output goes through.

Coordinates are stored normalized to [0, 1] relative to the frame; pixel
conversion happens only when a cluster is turned into an image block.
Every frame and configuration carries its detections as ``Boxes``: one
read-only (5, n) array of columns, the one store of each coordinate, which
builds no box until one is read. ``as_boxes`` lays any other sequence of
boxes out once, where it enters. All operations here but the file layer's
are pure functions over immutable values.

A value is checked one way across the package, by the type that takes it:
each ``check_fields`` entry types its field with ``check_number`` and ranges
it, written as the condition that must hold, so that NaN fails it. A reader
of a file or of the CLI checks only what no type takes (keys, with
``check_keys``; shapes such as pairs; units such as a latency rounded up to
whole ms) and puts where the value came from before a type's error.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


def check_number(value, where: str, integer: bool = False):
    """``value`` when it is a non-bool 64-bit int, or (unless ``integer``)
    a finite non-bool real; otherwise a ValueError naming ``where``."""
    if integer:
        ok, want = isinstance(value, int) and -2 ** 63 <= value < 2 ** 63, "a 64-bit integer"
    else:
        # an int past the float range overflows float(), so it is not finite here
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        want = "a finite number"
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{where} must be {want}, got {value!r}")
    return value


def check_fields(values, checks) -> None:
    """Raise ``ValueError("<field> must be <want>, got <value>")`` at the
    first ``(field, ok, want)`` not ok; write ``ok`` as ``x > 0``, so NaN
    fails it. The value is ``values[field]`` of a dict, else the attribute
    of an object: ``vars`` would leave a dataclass instance a dict it keeps."""
    for field, ok, want in checks:
        if not ok:
            value = values[field] if isinstance(values, dict) else getattr(values, field)
            raise ValueError(f"{field} must be {want}, got {value!r}")


def check_keys(block, name: str, keys, optional=()) -> dict:
    """``block`` when it is a dict of ``keys``, each present unless it is
    ``optional``; else a ValueError naming ``name``, or its first missing
    or extra key as ``<name>.<key>``."""
    if not isinstance(block, dict):
        raise ValueError(f"{name} must be an object, got {block!r}")
    odd = sorted((block.keys() ^ set(keys)) - set(optional))
    if odd:
        raise ValueError(f"{name}.{odd[0]} is {'missing' if odd[0] in keys else 'not a field'}")
    return block


def write_file(path, data) -> None:
    """Replace ``path`` with ``data``, a str written as UTF-8 or bytes.

    The directory is made, ``data`` goes to a temp file beside ``path``,
    which is renamed over it; on any failure the temp file is removed and
    ``path`` keeps its old content. The file gets the mode ``open`` would
    give a new one under the process's umask (``mkstemp`` makes it 0600).
    """
    folder = os.path.dirname(str(path)) or "."
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        umask = os.umask(0)  # reading the umask sets it: put it back at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, value) -> None:
    """``value`` as JSON, indented, keys sorted, with a final newline."""
    write_file(path, json.dumps(value, indent=2, sort_keys=True) + "\n")


def write_csv(path, fieldnames, rows) -> None:
    """A header line of ``fieldnames``, then one line per dict in ``rows``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    write_file(path, buf.getvalue())


def read_json(path):
    """The JSON value in the file at ``path``; a file that is not UTF-8
    JSON, or nests deeper than json's recursion allows, raises a ValueError
    naming it."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        # UnicodeDecodeError and JSONDecodeError are ValueErrors
        except (ValueError, RecursionError) as e:
            raise ValueError(f"{path}: not a UTF-8 JSON file ({e})") from None


@dataclass(frozen=True, slots=True)
class DetectionBox:
    """One detected object: normalized center/size, confidence, class."""

    cx: float
    cy: float
    w: float
    h: float
    score: float = 1.0
    class_id: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise ValueError(f"center ({self.cx}, {self.cy}) outside [0, 1]")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ValueError(f"size ({self.w}, {self.h}) outside (0, 1]")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")

    @property
    def area(self) -> float:
        return self.w * self.h

    def extent(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) corners, clamped to the unit frame."""
        return (
            max(0.0, self.cx - self.w / 2.0),
            max(0.0, self.cy - self.h / 2.0),
            min(1.0, self.cx + self.w / 2.0),
            min(1.0, self.cy + self.h / 2.0),
        )


class Boxes(Sequence):
    """A frame's detections, read-only: the (5, n) cx, cy, w, h and score
    rows they are built from as ``columns`` (C-ordered, so copied only if
    they are not), each coordinate's one store, and their int ``class_ids``.
    Each row passes ``DetectionBox``'s checks (trusted, not checked here).
    A box is built from its column only when read; ``len``, indexing,
    iteration, ``==`` and ``hash`` are the box tuple's."""

    __slots__ = ("columns", "class_ids")

    def __init__(self, rows: np.ndarray, class_ids: list[int]):
        self.columns = np.ascontiguousarray(rows)
        self.columns.setflags(write=False)
        self.class_ids = class_ids

    def __len__(self) -> int:
        return len(self.class_ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        return DetectionBox(*self.columns[:, k].tolist(), self.class_ids[k])

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, Boxes) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def as_boxes(detections) -> Boxes:
    """``detections`` if a ``Boxes``, else its boxes laid out as one."""
    if isinstance(detections, Boxes):
        return detections
    boxes = tuple(detections)
    rows = np.array([(b.cx, b.cy, b.w, b.h, b.score) for b in boxes], dtype=float)
    return Boxes(rows.reshape(-1, 5).T, [b.class_id for b in boxes])


@dataclass(frozen=True)
class Frame:
    """A frame's pixel size plus its detections, as ``Boxes``."""

    width_px: int
    height_px: int
    detections: Boxes = ()

    def __post_init__(self) -> None:
        check_fields(self, [(k, check_number(getattr(self, k), k, True) > 0, "> 0")
                            for k in ("width_px", "height_px")])
        object.__setattr__(self, "detections", as_boxes(self.detections))


@dataclass(frozen=True)
class ClusterConfig:
    """A set of clusters partitioning the indices of a frame's ``Boxes``.

    A cluster is the sorted tuple of its member indices (``make_cluster``);
    its statistics are its frame's ``clustering.ClusterGeometry``'s.
    Cluster order is creation order: merges append the new cluster, splits
    replace in place and append, so downstream state encodings are stable.
    """

    clusters: tuple[tuple[int, ...], ...]
    detections: Boxes

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", as_boxes(self.detections))

    @property
    def count(self) -> int:
        return len(self.clusters)


def make_cluster(members, detections) -> tuple[int, ...]:
    """A cluster of ``detections``: its member indices, sorted, so equal
    member sets give equal clusters however the set was assembled. Raises
    unless they are distinct indices in ``[0, len(detections))``."""
    members = tuple(sorted(members))
    if not members:
        raise ValueError("empty cluster")
    if len(set(members)) != len(members):
        raise ValueError("duplicate member indices")
    if members[0] < 0 or members[-1] >= len(detections):
        raise ValueError(f"member indices {members[0]}..{members[-1]} outside "
                         f"[0, {len(detections)})")
    return members


def validate_partition(config: ClusterConfig) -> None:
    """Raise if the clusters do not partition the detection indices exactly."""
    if config.count < 1:
        raise ValueError("configuration has no clusters")
    seen: list[int] = []
    for c in config.clusters:
        if not c:
            raise ValueError("empty cluster")
        seen.extend(c)
    if len(seen) != len(set(seen)):
        raise ValueError("clusters overlap")
    if set(seen) != set(range(len(config.detections))):
        raise ValueError("clusters do not cover all detections")


def expand_ranges(lo, hi):
    """``(positions, counts)``: the positions ``lo[k] .. hi[k] - 1`` of
    every range k in turn, and each range's length, so that
    ``np.repeat(v, counts)`` lines a per-range value up with the positions.
    Needs ``hi >= lo`` elementwise. The positions are ``intp``, each range's
    start repeated and ``arange`` added into that array in place."""
    counts = hi - lo
    pos = np.repeat(hi - counts.cumsum(), counts)
    pos += np.arange(len(pos))
    return pos, counts


def extents(cx, cy, w, h):
    """``DetectionBox.extent`` of box columns: the (x0, y0, x1, y1) corner
    columns, clamped to the unit frame."""
    return (np.maximum(0.0, cx - w / 2.0), np.maximum(0.0, cy - h / 2.0),
            np.minimum(1.0, cx + w / 2.0), np.minimum(1.0, cy + h / 2.0))


def nms(boxes, iou_threshold: float = 0.5) -> list[DetectionBox]:
    """Greedy class-wise non-maximum suppression: the boxes that
    ``nms_rows`` keeps, in its order, laid out from the boxes' fields."""
    columns = np.array([(b.cx, b.cy, b.w, b.h, b.score) for b in boxes]).reshape(-1, 5).T
    return [boxes[k] for k in nms_rows(*columns, [b.class_id for b in boxes], iou_threshold)]


def nms_rows(cx, cy, w, h, score, class_ids, iou_threshold: float = 0.5) -> list[int]:
    """Greedy class-wise non-maximum suppression over box columns: the
    indices of the kept rows, in visit order (descending score, ties by
    position). A box survives iff its IoU with every already-kept box of
    the same class stays below the threshold. Candidate pairs come from a
    sweep over the boxes sorted by ``x0``, so no n x n array is built;
    results equal ``nms_reference`` in ``tests/oracles.py``, beside which
    the sweep's argument sits. The pairs' y-overlaps are computed inside
    their own ``y1[i]`` and ``y0[i]`` gathers, and the candidate positions
    are freed once ``j`` is gathered.
    """
    check_fields({"iou_threshold": iou_threshold},
                 [("iou_threshold", 0.0 < iou_threshold < 1.0, "in (0, 1)")])
    n = len(score)
    if n == 0:
        return []
    # stable: ties keep their positions; 0.0 - score sorts as -score (peak RSS)
    order = (0.0 - score).argsort(kind="stable")
    cx, cy, w, h = cx[order], cy[order], w[order], h[order]
    x0, y0, x1, y1 = extents(cx, cy, w, h)
    area = (x1 - x0) * (y1 - y0)
    cls = np.array(class_ids)[order]

    by_x = x0.argsort(kind="stable")  # the score order's sort (peak RSS)
    x0_sorted = x0[by_x]
    after = np.arange(1, n + 1)
    # a box whose width rounds to 0 (x0 == x1) may end its range before it
    pos, counts = expand_ranges(after, np.maximum(x0_sorted.searchsorted(x1[by_x]), after))
    i, j = np.repeat(by_x, counts), by_x[pos]
    del pos
    ih, bottom = y1[i], y0[i]
    np.minimum(ih, y1[j], out=ih)
    ih -= np.maximum(bottom, y0[j], out=bottom)
    del bottom
    near = np.flatnonzero(ih > 0.0)  # most pairs that overlap in x lie apart in y
    i, j, ih = i[near], j[near], ih[near]
    iw = np.minimum(x1[i], x1[j]) - np.maximum(x0[i], x0[j])
    hit = (iw > 0.0) & (cls[i] == cls[j])
    i, j, inter = i[hit], j[hit], iw[hit] * ih[hit]
    hit = inter / (area[i] + area[j] - inter) >= iou_threshold
    i, j = i[hit], j[hit]
    alive = [True] * n
    for p, q in sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist())):
        if alive[p]:
            alive[q] = False
    return [k for k, keep in zip(order.tolist(), alive) if keep]


def bounding_blocks(config: ClusterConfig, margin: float,
                    frame: Frame) -> list[tuple[int, int, int, int]]:
    """Each cluster's pixel rectangle (x0, y0, x1, y1) covering its member
    boxes, in cluster order.

    The tight normalized rectangle over member extents is padded by
    margin * max(rect width, rect height) on every side, clipped to the
    frame, and converted to integer pixels.

    Results equal ``bounding_block_reference`` in ``tests/oracles.py`` for
    every cluster; the argument sits beside it.
    """
    check_fields({"margin": margin}, [("margin", margin >= 0.0, ">= 0")])
    sizes = [len(c) for c in config.clusters]
    if 0 in sizes:
        raise ValueError("empty cluster")
    corners = np.stack(extents(*config.detections.columns[:4]))
    corners = corners[:, [i for c in config.clusters for i in c]]
    starts = np.cumsum([0] + sizes)[:-1]
    lows = np.minimum.reduceat(corners[:2], starts, axis=1).T.tolist()
    highs = np.maximum.reduceat(corners[2:], starts, axis=1).T.tolist()
    blocks = []
    for (x0, y0), (x1, y1) in zip(lows, highs):
        pad = margin * max(x1 - x0, y1 - y0)
        x0, y0 = max(0.0, x0 - pad), max(0.0, y0 - pad)
        x1, y1 = min(1.0, x1 + pad), min(1.0, y1 + pad)
        # degenerate guard: a block is never thinner than one pixel
        px0 = min(int(round(x0 * frame.width_px)), frame.width_px - 1)
        py0 = min(int(round(y0 * frame.height_px)), frame.height_px - 1)
        px1 = max(int(round(x1 * frame.width_px)), px0 + 1)
        py1 = max(int(round(y1 * frame.height_px)), py0 + 1)
        blocks.append((px0, py0, px1, py1))
    return blocks
