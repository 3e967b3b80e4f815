"""Latency-budgeted model assignment (multi-choice knapsack by dynamic
programming with backtracking) and parallel edge-server schedule simulation.

The budget constrains the SUM of per-block model latencies even though the
blocks execute in parallel; both that sum and the parallel makespan are
reported so either budget can be inspected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .core import (ClusterConfig, Frame, bounding_blocks, check_fields, check_keys, check_number,
                   read_json)


class InfeasiblePlanError(Exception):
    """No model assignment fits the latency budget."""


@dataclass(frozen=True)
class ModelProfile:
    """One detector model: square input side, latency, and an area-binned
    precision curve of (bin upper edge in resized px^2, mAP) points.

    ``centers`` and ``maps`` are the curve as read-only interpolation
    nodes (bin centres, mAP), built once when the profile is made.
    """

    name: str
    input_size: int
    latency_ms: int
    curve: tuple[tuple[float, float], ...]
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    maps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            check_fields(self, [("input_size", self.input_size > 0, "> 0"),
                                ("latency_ms", self.latency_ms > 0, "> 0")])
        except ValueError as e:
            raise ValueError(f"{self.name}: {e}") from None
        if len(self.curve) == 0:
            raise ValueError(f"{self.name}: empty precision curve")
        edges = [e for e, _ in self.curve]
        if (not all(map(math.isfinite, edges)) or edges[0] <= 0
                or any(b <= a for a, b in zip(edges, edges[1:]))):
            raise ValueError(
                f"{self.name}: bin edges must be finite, positive and increasing")
        if any(not (0.0 <= m <= 1.0) for _, m in self.curve):
            raise ValueError(f"{self.name}: mAP values must lie in [0, 1]")
        edges = np.array([0.0] + edges)
        centers = (edges[:-1] + edges[1:]) / 2.0
        maps = np.array([m for _, m in self.curve])
        for name, arr in (("centers", centers), ("maps", maps)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def profile_from_dict(d: dict) -> ModelProfile:
    """Build a profile from its JSON form, an object of four keys: the name,
    the input size a 64-bit integer, the latency a finite number (fractions
    round up), and a precision curve of finite-number pairs that does not
    decrease with area."""
    name = check_keys(d, "model", ("name", "input_size", "latency_ms", "curve"))["name"]
    where = f"{name}: curve"
    curve = tuple((check_number(e, where), check_number(m, where)) for e, m in d["curve"])
    maps = [m for _, m in curve]
    if any(b < a for a, b in zip(maps, maps[1:])):
        raise ValueError(f"{name}: precision curve decreases with area")
    return ModelProfile(
        name=str(d["name"]),
        input_size=check_number(d["input_size"], f"{name}: input_size", integer=True),
        latency_ms=math.ceil(check_number(d["latency_ms"], f"{name}: latency_ms")),
        curve=curve,
    )


def load_profiles(path) -> list[ModelProfile]:
    """The models of a ``{"models": [...]}`` profile file; errors name the file."""
    data = read_json(path)
    if not isinstance(data, dict) or not data.get("models"):
        raise ValueError(f'{path}: a profile file must hold a non-empty "models" list')
    try:
        return [profile_from_dict(m) for m in data["models"]]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: malformed model entry ({e})") from None


def default_profiles() -> list[ModelProfile]:
    """The bundled five-model table (illustrative defaults, not measurements)."""
    return load_profiles(resources.files("sceneplan") / "data" / "default_profiles.json")


@dataclass(frozen=True)
class PartitionDescriptor:
    """One image block: pixel size plus its member boxes' original areas."""

    id: int
    width_px: int
    height_px: int
    areas_px2: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            check_fields(self, [("width_px", self.width_px > 0, "> 0"),
                                ("height_px", self.height_px > 0, "> 0")])
        except ValueError as e:
            raise ValueError(f"partition {self.id}: {e}") from None
        if len(self.areas_px2) == 0:
            raise ValueError(f"partition {self.id}: needs at least one box")
        if not all(math.isfinite(a) and a > 0 for a in self.areas_px2):
            raise ValueError(f"partition {self.id}: areas must be positive and finite")

    @property
    def count(self) -> int:
        return len(self.areas_px2)


def scale_area(area_px2: float, width_px: float, height_px: float,
               input_size: float) -> float:
    """Box area after the block is resized to the model's square input."""
    values = {"area_px2": area_px2, "width_px": width_px, "height_px": height_px,
              "input_size": input_size}
    check_fields(values, [(name, v > 0, "> 0") for name, v in values.items()])
    return area_px2 * input_size ** 2 / (width_px * height_px)


def precision_table(partitions, profiles) -> np.ndarray:
    """(partitions x profiles) mean per-box precision: each box's
    piecewise-linear mAP over the profile's bin centres, clamped at both
    ends, averaged over the block's boxes.

    One ``np.interp`` per profile looks up every member area of every
    block. Member k of block b lands at ``grid[1 + k, b]`` of a (members x
    blocks x profiles) grid of 0.0, and one ``np.add.accumulate`` down the
    members adds each block's values in member order, starting from the
    0.0 row. A scaled area that underflows to 0 raises a ValueError naming
    the first such block and its first such model. Every cell equals
    ``partition_precision_reference`` in ``tests/oracles.py`` bit for bit,
    beside which the argument sits.
    """
    counts = [part.count for part in partitions]
    areas = np.array([a for part in partitions for a in part.areas_px2], dtype=float)
    pixels = np.repeat(np.array([part.width_px * part.height_px for part in partitions],
                                dtype=float), counts)
    blocks = np.repeat(np.arange(len(counts)), counts)
    ranks = np.arange(1, len(areas) + 1) - np.repeat(np.cumsum([0] + counts)[:-1], counts)
    values = np.empty((len(areas), len(profiles)))
    underflow = None  # (block, profile) of the first underflow, row-major
    for j, profile in enumerate(profiles):
        scaled = areas * profile.input_size ** 2
        scaled /= pixels
        if not scaled.all():  # underflow to 0: the only way to lose positivity
            first = (int(blocks[scaled.argmin()]), j)  # the first 0 lies in the first block
            underflow = first if underflow is None else min(underflow, first)
        values[:, j] = np.interp(scaled, profile.centers, profile.maps)
    if underflow is not None:
        b, j = underflow
        raise ValueError(f"partition {partitions[b].id}: model {profiles[j].name} scales a "
                         "box area to 0 (area must be positive)")
    grid = np.zeros((max(counts, default=0) + 1, len(counts), len(profiles)))
    grid[ranks, blocks] = values
    np.add.accumulate(grid, axis=0, out=grid)
    return grid[-1] / np.array(counts, dtype=float)[:, None]


def partitions_from_config(config: ClusterConfig, frame: Frame) -> list[PartitionDescriptor]:
    """Wrap each cluster in its tight pixel block and collect member box areas."""
    return partitions_from_blocks(config, frame, bounding_blocks(config, 0.0, frame))


def partitions_from_blocks(config: ClusterConfig, frame: Frame,
                           blocks) -> list[PartitionDescriptor]:
    """Each cluster's partition, cut as its pixel block in ``blocks``."""
    _, _, w, h, _ = config.detections.columns
    areas = (w * frame.width_px * h * frame.height_px).tolist()
    return [PartitionDescriptor(pid, x1 - x0, y1 - y0, tuple([areas[i] for i in cluster]))
            for pid, (cluster, (x0, y0, x1, y1)) in enumerate(zip(config.clusters, blocks))]


@dataclass(frozen=True)
class OffloadPlan:
    """One model per partition, plus the achieved totals."""

    assignments: tuple[tuple[int, str, int, float], ...]  # (pid, model, latency, precision)
    total_precision: float
    total_latency_ms: int
    opt_t: int


def dp_plan(partitions, profiles, d_max: int) -> OffloadPlan:
    """Pick one model per partition maximizing summed precision under the
    latency-sum budget.

    Table semantics: dp[i][t] is the best precision over the first i
    partitions with latency sum within t (the zero row spreads 0 across
    every t, so each row folds the previous row shifted by each model's
    latency), and -inf where no plan fits within t. Ties prefer smaller
    latency, then smaller model input; the optimal column is the first t
    attaining the maximum.

    The table keeps values only. With lo and hi the smallest and largest
    latency within the budget, row i is stored from column i * lo and
    filled only over its band ``[i * lo, min(i * hi, d_max - (n - i) *
    lo)]``: the cheapest model writes it, each other model folds in by
    ``np.maximum``, and the row's value at i * hi, where every plan fits,
    is copied past the band into the cells row i + 1 reads. The backtrack
    reads the bands in Python floats. Plans equal ``dp_plan_reference`` in
    ``tests/oracles.py``; the argument sits there.
    """
    integer = isinstance(d_max, (int, np.integer)) and not isinstance(d_max, bool)
    check_fields({"d_max": d_max},
                 [("d_max", integer and d_max >= 0, "an integer number of ms >= 0")])
    if not partitions:
        raise ValueError("no partitions to plan")
    if not profiles:
        raise ValueError("no model profiles")
    n, d_max = len(partitions), int(d_max)
    # canonical model order realizes the tie-break under strict improvement
    order = sorted(range(len(profiles)),
                   key=lambda j: (profiles[j].latency_ms, profiles[j].input_size))
    lats = [p.latency_ms for p in profiles]
    fits = [j for j in order if lats[j] <= d_max]
    precs = precision_table(partitions, profiles).tolist()
    if not fits or n * lats[fits[0]] > d_max:
        cheapest = sum(min(p.latency_ms for p in profiles) for _ in partitions)
        raise InfeasiblePlanError(
            f"budget {d_max} ms infeasible: cheapest assignment needs "
            f"{cheapest} ms (short by {cheapest - d_max} ms)")
    lo, hi = lats[fits[0]], lats[fits[-1]]
    # row i holds t from i * lo: its band, then the copies row i + 1 reads
    bands = [min(i * hi, d_max - (n - i) * lo) + 1 - i * lo for i in range(n + 1)] + [0]
    sizes = [max(m, m_next) for m, m_next in zip(bands, bands[1:])] + [max(bands)]
    ends = list(itertools.accumulate(sizes))
    cells = np.empty(ends[-1])  # one block: rows of many sizes would fragment the heap
    *rows, tmp = [cells[e - k:e] for k, e in zip(sizes, ends)]
    rows[0][0] = 0.0
    for i in range(1, n + 1):
        prev, row, m = rows[i - 1], rows[i], bands[i]
        prev[bands[i - 1]:m] = prev[bands[i - 1] - 1]  # flat past (i - 1) * hi
        p = precs[i - 1]
        first, *rest = [j for j in fits if lats[j] - lo < m]
        np.add(prev[:m], p[first], out=row[:m])
        for j in rest:
            s = lats[j] - lo
            np.add(prev[:m - s], p[j], out=tmp[:m - s])
            np.maximum(row[s:m], tmp[:m - s], out=row[s:m])
    k = int(np.argmax(rows[n][:bands[n]]))
    opt_t, total_precision = n * lo + k, rows[n][k].item()
    t = opt_t
    picks = []
    for i in range(n - 1, -1, -1):
        row, m = rows[i], bands[i]
        best, pick = -math.inf, -1
        for j in fits:
            u = t - lats[j] - i * lo  # row i is flat past its band
            if u >= 0:
                cand = row[min(u, m - 1)].item() + precs[i][j]
                if cand > best:
                    best, pick = cand, j
        picks.append(pick)
        t -= lats[pick]
    picks.reverse()
    assignments = tuple(
        (part.id, profiles[j].name, profiles[j].latency_ms, precs[i][j])
        for i, (part, j) in enumerate(zip(partitions, picks))
    )
    total_latency = sum(lat for _, _, lat, _ in assignments)
    # invariants asserted on every solve
    assert len(assignments) == n, "plan must assign exactly one model per partition"
    assert total_latency <= d_max, "plan exceeds the latency budget"
    return OffloadPlan(assignments, total_precision, total_latency, opt_t)


@dataclass(frozen=True)
class ScheduledTask:
    partition_id: int
    model: str
    latency_ms: int
    start_ms: int
    end_ms: int


@dataclass(frozen=True)
class ServerSchedule:
    lanes: tuple[tuple[ScheduledTask, ...], ...]
    makespan_ms: int


def assign_servers(plan: OffloadPlan, e: int) -> ServerSchedule:
    """Longest-processing-time-first list scheduling onto e server lanes.

    Blocks are placed by descending latency (partition id breaks ties) onto
    the currently least-loaded lane (lowest index breaks ties). Lanes too
    many to allocate raise ``ValueError`` naming e.
    """
    check_fields({"e": e}, [("e", e >= 1, ">= 1")])
    tasks = sorted(plan.assignments, key=lambda a: (-a[2], a[0]))
    try:
        loads = [0] * e
        lanes: list[list[ScheduledTask]] = [[] for _ in range(e)]
    except MemoryError:
        raise ValueError(f"e={e} server lanes do not fit in memory") from None
    for pid, model, lat, _ in tasks:
        lane = loads.index(min(loads))
        lanes[lane].append(ScheduledTask(pid, model, lat, loads[lane], loads[lane] + lat))
        loads[lane] += lat
    return ServerSchedule(tuple(tuple(l) for l in lanes), max(loads) if loads else 0)


@dataclass(frozen=True)
class ScheduleMetrics:
    makespan_ms: int
    sum_latency_ms: int
    busy_ms: tuple[int, ...]
    utilization: tuple[float, ...]


def simulate(schedule: ServerSchedule) -> ScheduleMetrics:
    """Replay the schedule's time accounting.

    Conservation holds exactly: summed busy time equals summed latency.
    """
    busy = []
    total = 0
    makespan = 0
    for lane in schedule.lanes:
        t = 0
        lane_busy = 0
        for task in lane:
            if task.start_ms != t:
                raise ValueError(
                    f"lane gap/overlap at partition {task.partition_id}")
            if task.end_ms - task.start_ms != task.latency_ms:
                raise ValueError(
                    f"span != latency for partition {task.partition_id}")
            t = task.end_ms
            lane_busy += task.latency_ms
        busy.append(lane_busy)
        total += lane_busy
        makespan = max(makespan, t)
    if makespan != schedule.makespan_ms:
        raise ValueError("recorded makespan disagrees with replay")
    util = tuple(b / makespan if makespan > 0 else 0.0 for b in busy)
    return ScheduleMetrics(makespan, total, tuple(busy), util)
