"""Initial clustering and the merge/split primitives driving refinement.

Object centers are clustered in (x, y**alpha) space: raising the normalized
y-coordinate to a power below one stretches the top of the frame (small,
densely packed objects) and compresses the bottom (large, sparse objects),
so one bandwidth works across the whole frame. A frame's clustering space
is one ``ClusterGeometry``: MeanShift seeds the clusters in it, and every
merge and split of the refinement is judged in it.

MeanShift has two loops with equal labels, which differ only in how they
pair modes with points; both then take the same step, ``_shift``. The dense
loop pairs every active mode with every point of its frame and iterates the
modes of many frames together (``meanshift_frames``, which resets all of a
training iteration's episodes at once). The y-band loop, ``meanshift``,
pairs a mode only with the points in the bands near it, and lets modes that
meet share a trajectory; that pays off on large frames only. So
``meanshift_frames`` applies the size rule: a frame of at most
``DENSE_MAX`` points takes the dense loop, a larger one the y-band loop,
one ``meanshift`` call per frame.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (ClusterConfig, as_boxes, check_fields, check_number, expand_ranges,
                   make_cluster)


@dataclass(frozen=True)
class TransformParams:
    """Exponent of normalized y before clustering; an error starts with its field."""

    alpha: float = 0.5

    def __post_init__(self) -> None:
        check_fields(self, [("alpha", 0.0 < check_number(self.alpha, "alpha") < 1.0, "in (0, 1)")])


@dataclass(frozen=True)
class BandwidthSpec:
    """MeanShift bandwidth, fixed or a neighbor quantile; an error starts with its field."""

    mode: str = "quantile"
    value: float = 0.2

    def __post_init__(self) -> None:
        top = 1.0 if self.mode == "quantile" else math.inf
        # typed here, not by check_number: a value of any type reads "in (0, <top>)"
        real = isinstance(self.value, (int, float)) and not isinstance(self.value, bool)
        check_fields(self, [
            ("mode", self.mode in ("fixed", "quantile"), "'fixed' or 'quantile'"),
            ("value", real and 0.0 < self.value < top, f"in (0, {top:g})")])


def transform_y(points, params: TransformParams = TransformParams()):
    """Replace each point's y by y**alpha; x stays untouched."""
    pts = np.asarray(points, dtype=float)
    y = pts[..., 1]
    if not ((y >= 0.0) & (y <= 1.0)).all():  # NaN fails it
        raise ValueError("y coordinates outside [0, 1]")
    out = pts.copy()
    out[..., 1] = y ** params.alpha
    return out


BANDWIDTH_FLOOR = 1e-3


def squared_distances(ax, ay, bx, by, overwrite_b: bool = False):
    """``(ax - bx)**2 + (ay - by)**2``, broadcast: the one rounding of a pair
    distance. It is computed in two new arrays, or with ``overwrite_b`` in
    ``bx`` and ``by`` themselves, arrays of the result's shape that the
    caller gives up; the result is then ``bx``, and ``by`` is spoilt."""
    d = np.subtract(ax, bx, out=bx) if overwrite_b else ax - bx
    d *= d
    dy = np.subtract(ay, by, out=by) if overwrite_b else ay - by
    dy *= dy
    d += dy
    return d


def _distances(a, b):
    """Euclidean distances between the rows of ``a`` and of ``b``, (len(a),
    len(b)), as square roots of ``squared_distances``: the one rounding of a
    pair distance, which every cut and tie compares as it is."""
    d = squared_distances(a[:, :1], a[:, 1:2], b[:, 0], b[:, 1])
    return np.sqrt(d, out=d)


def estimate_bandwidth(points, quantile: float) -> float:
    """Quantile of the nearest-neighbor distance distribution.

    Subsampled to at most 1000 points (evenly spaced, deterministic).
    Degenerate inputs (all points coincident) fall back to a fixed floor.
    The points must be finite and the quantile in [0, 1]; the CLI's is
    ``BandwidthSpec.value``, which checks it is in (0, 1). Points so far
    apart that the quantile's distances overflow the float range are
    refused.

    The quantile is Hyndman & Fan's sample quantile type 7, numpy's
    ``"linear"`` method, taken in Python floats: the n sorted distances,
    the virtual index v = (n - 1) * quantile, its floor i and fraction g,
    then numpy's ``_lerp`` of the values a and b at i and i + 1 (capped at
    n - 1), which is a + (b - a) * g below g = 0.5 and
    b - (b - a) * (1 - g) from there on. The result equals numpy's
    ``quantile`` bit for bit; that is not called, as its call of numpy's
    ``unique`` imports ``numpy.ma`` (1.2 MB of a desk frame's peak RSS).
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least 2 points to estimate a bandwidth")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if not 0.0 <= quantile <= 1.0:  # NaN fails it
        raise ValueError(f"quantile {quantile} outside [0, 1]")
    if len(pts) > 1000:
        idx = np.linspace(0, len(pts) - 1, 1000).astype(int)
        pts = pts[idx]
    with np.errstate(over="ignore"):  # a squared distance past the float range is inf
        dist = _distances(pts, pts)
    np.fill_diagonal(dist, np.inf)
    nn = sorted(dist.min(axis=1).tolist())
    v = (len(nn) - 1) * quantile
    i = math.floor(v)
    g = v - i
    a, b = nn[i], nn[min(i + 1, len(nn) - 1)]
    d = b - a
    bandwidth = a + d * g if g < 0.5 else b - d * (1 - g)
    if not math.isfinite(bandwidth):
        raise ValueError(f"quantile {quantile} of the nearest-neighbor distances overflows")
    return max(bandwidth, BANDWIDTH_FLOOR)


def resolve_bandwidth(spec: BandwidthSpec, points) -> float:
    if spec.mode == "fixed":
        return spec.value
    if len(points) < 2:
        return BANDWIDTH_FLOOR
    return estimate_bandwidth(points, spec.value)


# Frames of at most this many points take the dense loop, each mode paired
# with every point of its frame; larger frames take the y-band loop, as on
# crowd frames the dense loop is the faster one up to about this size.
DENSE_MAX = 96


def _checked_points(points, bandwidth: float) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 1:
        raise ValueError("points must be a non-empty (n, 2) array")
    check_fields({"bandwidth": bandwidth},
                 [("bandwidth", check_number(bandwidth, "bandwidth") > 0.0, "> 0")])
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def _within(bandwidth: float) -> float:
    """The largest squared distance d with sqrt(d) <= bandwidth."""
    within = bandwidth * bandwidth
    while math.sqrt(within) > bandwidth:
        within = math.nextafter(within, 0.0)
    while math.sqrt(math.nextafter(within, math.inf)) <= bandwidth:
        within = math.nextafter(within, math.inf)
    return within


def meanshift(points, bandwidth: float, tol: float = 1e-4, max_iter: int = 300):
    """Flat-kernel MeanShift by the y-band loop: an integer cluster label per point.

    Each point seeds a mode that iterates to the mean of all points within
    the bandwidth until it moves less than ``tol`` (or ``max_iter`` caps).
    Converged modes closer than bandwidth/2 collapse onto the first-seen
    one, and every point joins its nearest surviving mode. Labels equal
    ``meanshift_reference`` in ``tests/oracles.py``; the notes beside it show
    why the y-band pairs, squared-distance windows and window sums keep them
    equal. ``meanshift_frames`` sends a frame here only when it is larger
    than ``DENSE_MAX`` points.
    """
    pts = _checked_points(points, bandwidth)
    with np.errstate(over="ignore"):  # an infinite squared distance is never within
        return _collapse_and_label(pts, *_band_modes(pts, bandwidth, tol, max_iter),
                                   bandwidth)


def meanshift_frames(point_sets, bandwidths, tol: float = 1e-4, max_iter: int = 300):
    """``meanshift`` of every frame, each with its own bandwidth; returns
    one label array per frame.

    The size rule: the frames of at most ``DENSE_MAX`` points iterate
    together in the dense loop, where each active mode is paired with every
    point of its own frame in input order and stepped by ``_shift``, as in
    the y-band loop, so each mode's window sums add the same values in the
    same order and the labels equal ``meanshift``'s. Their modes collapse in
    one ``_collapse_and_label_frames`` pass, or through
    ``_collapse_and_label`` when only one frame is dense, as a lone frame
    collapses faster there. Larger frames go through ``meanshift``, one call
    each.
    """
    frames = [_checked_points(p, b) for p, b in zip(point_sets, bandwidths, strict=True)]
    small = [k for k, pts in enumerate(frames) if len(pts) <= DENSE_MAX]
    labels = [None] * len(frames)
    if small:
        dense, widths = [frames[k] for k in small], [bandwidths[k] for k in small]
        with np.errstate(over="ignore"):
            modes = _dense_modes(dense, widths, tol, max_iter)
            labelled = (_collapse_and_label_frames(dense, modes, widths) if len(small) > 1
                        else [_collapse_and_label(dense[0], *modes[0], widths[0])])
        for k, got in zip(small, labelled):
            labels[k] = got
    return [meanshift(pts, bandwidth, tol, max_iter) if got is None else got
            for pts, bandwidth, got in zip(frames, bandwidths, labels)]


def _shift(x, y, pos, sub_x, sub_y, within, tol: float):
    """One MeanShift step of the k active modes (sub_x, sub_y): pair p joins
    point (x[p], y[p]) to mode pos[p], under the squared window ``within``
    (per pair, or one scalar). Returns the (k, 2) means of each mode's points
    within its window, and whether each mode moved by at least ``tol``.
    The pair distances are computed inside the step's own ``sub_x[pos]`` and
    ``sub_y[pos]`` gathers; ``x``, ``y`` and ``pos`` are only read."""
    # integer gathers: a boolean-mask gather costs about four times more
    inside = np.flatnonzero(
        squared_distances(x, y, sub_x[pos], sub_y[pos], overwrite_b=True) <= within)
    pos = pos[inside]
    k = len(sub_x)
    # one (modes, 2) division: a 1-D float/int division maps 64 KB of
    # numpy code that the desk paths load nowhere else (peak RSS)
    new = np.stack([np.bincount(pos, x[inside], k), np.bincount(pos, y[inside], k)],
                   axis=1) / np.bincount(pos, minlength=k)[:, None]
    return new, np.sqrt(squared_distances(new[:, 0], new[:, 1], sub_x, sub_y)) >= tol


def _dense_modes(frames, bandwidths, tol: float, max_iter: int):
    """Each frame's converged modes as (x, y) arrays, the frames iterated
    together: every active mode against every point of its own frame."""
    sizes = np.array([len(pts) for pts in frames])
    pts = np.concatenate(frames)
    px, py = pts[:, 0].copy(), pts[:, 1].copy()
    ends = sizes.cumsum()
    # each mode's frame: its points' index range and its squared window
    hi = ends.repeat(sizes)
    lo = hi - sizes.repeat(sizes)
    within = np.array([_within(b) for b in bandwidths]).repeat(sizes)
    mode_x, mode_y = px.copy(), py.copy()
    active = np.arange(len(pts))
    for _ in range(max_iter):
        if not len(active):
            break
        idx, counts = expand_ranges(lo[active], hi[active])
        pos = np.arange(len(active)).repeat(counts)
        new, moving = _shift(px[idx], py[idx], pos, mode_x[active], mode_y[active],
                             within[active][pos], tol)
        mode_x[active], mode_y[active] = new[:, 0], new[:, 1]
        active = active[moving]
    ends = ends.tolist()
    return list(zip(_pieces(mode_x, ends), _pieces(mode_y, ends)))


def _pieces(array, ends: list) -> list:
    """``array`` cut into views that end at each of ``ends``, the last of
    which is ``len(array)``: ``np.split``'s pieces in about a quarter of
    its time."""
    return [array[start:stop] for start, stop in zip([0, *ends], ends)]


def _band_modes(pts, bandwidth: float, tol: float, max_iter: int):
    """The converged modes of one frame, as (x, y) arrays, from the y-band
    loop.

    Modes share trajectories: a mode's next position, the mean of the points
    in its window, depends on its current position alone (a zero's sign
    reaches only squared differences). Each position a mode moves on from is
    recorded with the mode and iteration, keyed by its complex value, which
    equates -0.0 and 0.0; a mode moving onto a recorded position would walk
    the recorder's path ``lag`` iterations later, so it stops and follows.
    At the end a follower takes its chain root's final position and stops at
    the root's stop plus the chain's lags, both found for all followers at
    once by pointer jumping; past ``max_iter``, the loop runs
    again without sharing. Nothing is recorded on the last iteration, nor a
    converged mode's last position (its next step was never taken); a mode
    whose chain leads back to itself walks on.
    """
    pad = bandwidth * (1.0 + 1e-9) + 2.0 ** -500
    within = _within(bandwidth)
    px, py = pts[:, 0].copy(), pts[:, 1].copy()
    (x_lo, y_lo), (x_hi, y_hi) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    # halved extents cannot overflow; a band is pad high (capped to stay
    # finite), or taller where one band per point would not cover the extent
    half_span = y_hi * 0.5 - y_lo * 0.5
    half_height = max(min(pad, sys.float_info.max) * 0.5, half_span / len(pts))
    edges = (y_lo * 0.5 + half_height * np.arange(1, int(half_span / half_height) + 1)) * 2.0
    shift = -math.frexp(x_hi * 0.5 - x_lo * 0.5)[1] - 2  # 2**-shift > 2 * x extent

    def offset(x):
        off = np.ldexp(x - x_lo, shift)
        np.maximum(off, 0.0, out=off)
        return np.minimum(off, 0.5, out=off)

    # far window ends may reach +-inf (the caller ignores overflow), which clip
    rows, per_point = expand_ranges(edges.searchsorted(py - pad, "right"),
                                    edges.searchsorted(py + pad, "right") + 1)
    q_left = offset(px - pad).repeat(per_point) + rows
    q_right = offset(px + pad).repeat(per_point) + rows
    qx, qy = px.repeat(per_point), py.repeat(per_point)
    left_order = q_left.argsort(kind="stable")
    right_order = q_right.argsort(kind="stable")
    q_left, q_right = q_left[left_order], q_right[right_order]
    left, right = np.empty(len(rows), dtype=np.intp), np.empty(len(rows), dtype=np.intp)
    n = len(pts)

    for share in (True, False):
        mode_x, mode_y = px.copy(), py.copy()
        active, stop = np.arange(n), np.zeros(n, dtype=np.intp)
        lead, lag, seen = list(range(n)), [0] * n, {}
        for it in range(1, max_iter + 1):
            if not len(active):
                break
            stop[active] = it
            sub_x, sub_y = mode_x[active], mode_y[active]
            key = offset(sub_x) + edges.searchsorted(sub_y, "right")
            # stable: the sort nms_rows maps anyway, where the default maps
            # more code (peak RSS)
            order = key.argsort(kind="stable")
            active, sub_x, sub_y, key = active[order], sub_x[order], sub_y[order], key[order]
            left[left_order] = key.searchsorted(q_left)
            right[right_order] = key.searchsorted(q_right, "right")
            pos, counts = expand_ranges(left, right)
            # bound here, the pairs outlive the step: freed with its arrays, they let
            # malloc trim the heap top and fault it back in (2x the faults, crowd frames)
            x, y = qx.repeat(counts), qy.repeat(counts)
            new, moving = _shift(x, y, pos, sub_x, sub_y, within, tol)
            mode_x[active], mode_y[active] = new[:, 0], new[:, 1]
            active = active[moving]
            if share and it < max_iter:
                # record each new position as it * n + mode; a mode finding
                # another's record there follows it
                base = it * n
                keys = new.view(np.complex128).ravel()[moving].tolist()
                codes = (active + base).tolist()
                found = [k for k, at, code in zip(range(len(codes)), keys, codes)
                         if seen.setdefault(at, code) != code]
                if found:
                    keep = np.ones(len(active), dtype=bool)
                    for k in found:
                        i, (t, j) = codes[k] - base, divmod(seen[keys[k]], n)
                        end = j
                        while lead[end] != end:  # i at the end of j's chain: a cycle
                            end = lead[end]
                        if end != i:
                            lead[i], lag[i], keep[k] = j, it - t, False
                    active = active[keep]
        followers = [i for i in range(n) if lead[i] != i]
        if not followers:
            break
        lead, lag = np.array(lead), np.array(lag)
        jump = lead[lead]
        while (jump != lead).any():  # pointer jumping, summing the lags on the way
            lag += lag[lead]
            lead, jump = jump, jump[jump]
        roots = lead[followers]
        if (stop[roots] + lag[followers] <= max_iter).all():
            mode_x[followers], mode_y[followers] = mode_x[roots], mode_y[roots]
            break
    return mode_x, mode_y


def _collapse_and_label(pts, mode_x, mode_y, bandwidth: float):
    """Labels from one frame's converged modes.

    The mode collapse runs over the distinct converged modes only, taken
    in first-seen order: one ``_distances`` array between them, compared
    with bandwidth/2 as it rounds, then the first-seen loop over its rows.
    This is exact, as a copy of a mode lies at distance 0 (at most
    bandwidth/2) from it and at the same distance from every other mode,
    so it is covered exactly when the mode is. Every point then joins its
    nearest representative, as one array.
    """
    # distinct modes in first-seen order (the reversed dict keeps each
    # mode's first index); float keys, so -0.0 and 0.0 are one mode
    keys = list(zip(mode_x.tolist(), mode_y.tolist()))
    first = sorted(dict(zip(reversed(keys), range(len(keys) - 1, -1, -1))).values())
    modes = np.stack([mode_x[first], mode_y[first]], axis=1)
    # collapse near-duplicate modes, first-seen representative wins
    near = _distances(modes, modes) <= bandwidth / 2.0
    covered = np.zeros(len(modes), dtype=bool)
    reps = []
    for i in range(len(modes)):
        if not covered[i]:
            reps.append(i)
            covered |= near[i]
    labels = _distances(pts, modes[reps]).argmin(axis=1)
    # drop representatives that attracted no points, keep label order stable
    used = np.bincount(labels, minlength=len(reps)) > 0
    return (np.cumsum(used, dtype=int) - 1)[labels]


def _collapse_and_label_frames(frames, modes, bandwidths):
    """``_collapse_and_label`` of every frame, with its (x, y) modes and its
    bandwidth, in one pass over all frames; returns one label array per frame.

    Each frame's distinct modes keep their first-seen order, and the frames
    follow one another. One ``expand_ranges`` pass pairs each distinct mode
    with the later ones of its frame; a pair is near when its distance,
    rounded as in ``_distances``, is at most its frame's bandwidth/2. The
    first-seen cover needs only those pairs, walked once in order: a mode
    is a representative unless an earlier representative is near it, and
    every pair that could cover mode i comes before i's own pairs. Each
    point then takes the first nearest representative of its frame in one
    (points x widest frame's representatives) distance array, the columns
    past its frame's own set to inf; unused representatives are dropped
    per frame. Each frame's labels equal ``_collapse_and_label``'s.
    """
    sizes = [len(pts) for pts in frames]
    owner = np.arange(len(frames)).repeat(sizes)
    # + 0.0 turns -0.0 into 0.0, so the two are one mode, as float keys are;
    # no distance changes, as only squared differences see a zero's sign
    mode_x = np.concatenate([x for x, _ in modes]) + 0.0
    mode_y = np.concatenate([y for _, y in modes]) + 0.0
    # distinct modes in first-seen order: the stable sort puts a mode's
    # copies right after its first index; NaN != NaN keeps NaN modes apart,
    # as float keys do
    order = np.lexsort((mode_y, mode_x, owner))
    copy = np.arange(len(order)) > 0  # whether the mode sorted before is the same
    for column in (owner, mode_x, mode_y):
        column = column[order]
        copy[1:] &= column[1:] == column[:-1]
    # flagged, not sorted: np.sort of ints maps code no other desk path loads (peak RSS)
    first = np.zeros(len(order), dtype=bool)
    first[order[~copy]] = True
    first = np.flatnonzero(first)
    mx, my, frame = mode_x[first], mode_y[first], owner[first]
    # each distinct mode's pairs with the later ones of its frame
    per_frame = np.bincount(frame, minlength=len(frames))
    j, partners = expand_ranges(np.arange(1, len(first) + 1), per_frame.cumsum().repeat(per_frame))
    i = np.arange(len(first)).repeat(partners)
    d = squared_distances(mx[i], my[i], mx[j], my[j])
    near = np.flatnonzero(np.sqrt(d, out=d) <= np.array([b / 2.0 for b in bandwidths])[frame[i]])
    covered = set()
    for a, b in zip(i[near].tolist(), j[near].tolist()):
        if a not in covered:
            covered.add(b)
    reps = np.ones(len(first), dtype=bool)
    reps[list(covered)] = False
    reps = np.flatnonzero(reps)
    # each point against its frame's representatives, from column 0
    count = np.bincount(frame[reps], minlength=len(frames))
    lo = (count.cumsum() - count)[owner]
    column = np.arange(count.max())
    at = reps[np.minimum(lo[:, None] + column, len(reps) - 1)]
    pts = np.concatenate(frames)
    d = squared_distances(pts[:, :1], pts[:, 1:], mx[at], my[at])
    np.sqrt(d, out=d)[column >= count[owner][:, None]] = np.inf
    labels = lo + d.argmin(axis=1)
    # drop representatives that attracted no points, keep label order stable
    kept = np.zeros(len(reps) + 1, dtype=int)
    np.cumsum(np.bincount(labels, minlength=len(reps)) > 0, out=kept[1:])
    return _pieces(kept[labels] - kept[lo], np.cumsum(sizes).tolist())


def initial_clusters(geometry: ClusterGeometry,
                     bandwidth: BandwidthSpec = BandwidthSpec()) -> ClusterConfig:
    """MeanShift over the geometry's object centres; the starting
    configuration. The one-frame case of ``initial_clusters_frames``."""
    return initial_clusters_frames([geometry], bandwidth)[0]


def initial_clusters_frames(geometries, bandwidth: BandwidthSpec) -> list[ClusterConfig]:
    """The starting configuration of each geometry's frame under one
    bandwidth spec, every frame's MeanShift in one ``meanshift_frames``
    call."""
    if any(len(geometry.detections) == 0 for geometry in geometries):
        raise ValueError("empty scene")
    labelled = meanshift_frames(
        [geometry.points for geometry in geometries],
        [resolve_bandwidth(bandwidth, geometry.points) for geometry in geometries])
    configs = []
    for geometry, labels in zip(geometries, labelled):
        # stable: each label's members stay in index order (every label is used)
        order = labels.argsort(kind="stable").tolist()
        ends = np.bincount(labels).cumsum().tolist()
        configs.append(ClusterConfig(
            tuple(make_cluster(order[a:b], geometry.detections)
                  for a, b in zip([0] + ends, ends)), geometry.detections))
    return configs


def kmeans_1d(values):
    """Optimal 2-way 1D partition by within-cluster sum of squares.

    Optimal 1D clusters are contiguous in sorted order, so every one of the
    n-1 sorted split points is scored and the lowest cost wins, the first
    on ties; a NaN cost (from infinite values) wins over any number, as
    under ``np.argmin``. NaN values raise ``ValueError``. Returns a 0/1
    label per input value; 0 marks the lower group. The scan is
    ``_best_split``'s, shared with ``split_cluster``.
    """
    vals = np.asarray(values, dtype=float).tolist()
    if len(vals) < 2:
        raise ValueError("need at least 2 values to split")
    if any(v != v for v in vals):
        raise ValueError("cannot split NaN values")
    order, split = _best_split(vals)
    labels = np.ones(len(vals), dtype=int)
    labels[order[:split]] = 0
    return labels


def _best_split(vals: list[float]) -> tuple[list[int], int]:
    """(order, m): the stable sorted order of at least 2 non-NaN floats,
    and how many of them, in that order, the best 2-way split puts low.

    Split m costs ``sse(first m) + sse(rest)``, where a part of c values
    with sum t and sum of squares q has ``sse = q - t * t / c``, the rest's
    t and q being the totals minus the first m's. In Python floats, which
    round each operation as numpy's float64 does: ``sorted`` is stable as
    ``argsort(kind="stable")`` is on non-NaN values, the running sums of v
    and v * v add in ``cumsum``'s order (a start at 0.0 changes only a
    zero's sign, which reaches nothing but squares), and the scan keeps
    ``np.argmin``'s first minimum, or first NaN. So the costs and the
    split equal ``kmeans_1d_reference`` in ``tests/oracles.py`` bit for
    bit, without numpy's per-call set-up on the few values a split sees.
    """
    order = sorted(range(len(vals)), key=vals.__getitem__)
    prefix, prefix_sq = [], []
    t = q = 0.0
    for k in order:
        v = vals[k]
        t += v
        q += v * v
        prefix.append(t)
        prefix_sq.append(q)
    n, total, total_sq = len(vals), t, q
    best, split = math.inf, 1
    for m, t, q in zip(range(1, n), prefix, prefix_sq):
        cost = q - t * t / m + ((total_sq - q) - (total - t) * (total - t) / (n - m))
        if cost != cost:
            return order, m
        if cost < best:
            best, split = cost, m
    return order, split


def _pairwise_sum(vals: list[float]) -> float:
    """``np.add.reduce`` of a float64 1-D array of ``vals``, bit for bit, in
    numpy's pairwise order: one value at a time below 8 values; eight running
    sums up to 128, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the values past the last multiple of 8 one at a time; beyond 128, the
    sums of two halves split at n/2 rounded down to a multiple of 8."""
    n = len(vals)
    if n < 8:
        total = 0.0
        for v in vals:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(vals[:half]) + _pairwise_sum(vals[half:])
    end = n - n % 8
    r = vals[:8]
    for k in range(8, end, 8):
        r = [a + b for a, b in zip(r, vals[k:k + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in vals[end:]:
        total += v
    return total


def _variance(vals: list[float]) -> float:
    """Population variance of ``vals`` as ``np.var`` takes it over an axis-0
    column of C-order rows, or over fewer than 8 values in 1-D: the sum /
    k, then the sum of squared deviations / k, each added one value at a
    time in order (numpy adds an axis-0 reduction row by row, so at every
    length, and a 1-D one pairwise from 8 values on)."""
    k = len(vals)
    total = 0.0
    for v in vals:
        total += v
    mean = total / k
    dev = 0.0
    for v in vals:
        d = v - mean
        dev += d * d
    return dev / k


class ClusterGeometry:
    """One frame's clustering space, shared by the MeanShift start and the
    state, reward, merge and split of an episode.

    Every detection's centre in that space ((x, y**alpha) under a
    transform, raw (x, y) without one), its box area and its raw cy, w and
    h are laid out once from the frame's ``Boxes`` columns; every function
    reading the space takes it from here, and rejects a geometry built for
    another frame's ``Boxes``. Each cluster (its member tuple) has one
    memoised record, its ``row``: the raw (cx, cy, w, h) means, its share
    of the frame's detections and its centroid (x, y) in this space, from
    one member loop; ``means`` and ``centroid`` are views of it. ``stats``
    adds the mean member distance to the centroid and the variance of the
    member areas, in Python floats summed in numpy's order. A step creates
    at most two clusters, so it computes records for at most two. Build
    one per episode.

    From ``PAIR_LOOP_BELOW`` (13) clusters up, the state and the merge pair
    read a configuration's ``rows``, one float (N, 7) array of its
    clusters' records. The slot ``_held`` holds the live configuration
    with its rows, so a reused ``id`` never matches. ``rows`` builds them
    on a configuration's first read (an episode's start, a loaded
    configuration, one that climbs back to 13); a merge or split from the
    held configuration to 13 clusters or more holds the child's, sliced
    from the parent's, so only the one or two new clusters get a fresh
    ``row`` (``merge_clusters``, ``split_cluster``). Below 13 clusters
    nothing reads or fills the slot.
    """

    def __init__(self, detections, transform: TransformParams | None):
        self.detections = as_boxes(detections)
        self.transform = transform
        cx, cy, w, h, _ = self.detections.columns
        pts = np.stack([cx, cy], axis=1)  # C order: axis-0 means add row by row
        self.points = pts if transform is None else transform_y(pts, transform)
        self._x, self._y = self.points.T.tolist()
        self._cy, self._w, self._h = cy.tolist(), w.tolist(), h.tolist()
        self._area = (w * h).tolist()
        self._stats: dict = {}
        self._row: dict = {}
        self._held: tuple = (None, None)  # (configuration, its rows)

    def check(self, config: ClusterConfig) -> None:
        """Raise unless this geometry was built for ``config``'s frame."""
        if self.detections is not config.detections:
            raise ValueError("geometry was built for another frame")

    def row(self, members: tuple[int, ...]) -> tuple[float, ...]:
        """A cluster's record (cx, cy, w, h, share, x, y), memoised. Each
        sum is added in member order from 0.0 (no builtin sum, compensated
        from Python 3.12, nor math.fsum), then divided by the member count,
        so equal member tuples give bitwise equal rows. numpy's axis-0
        ``mean`` over the gathered C-order (k, 2) centres adds them row by
        row at every size, so the centroid (x, y) equals it bit for bit."""
        hit = self._row.get(members)
        if hit is None:
            xs, ys, cys, ws, hs = self._x, self._y, self._cy, self._w, self._h
            sx = sy = scy = sw = sh = 0.0
            for i in members:
                sx += xs[i]
                sy += ys[i]
                scy += cys[i]
                sw += ws[i]
                sh += hs[i]
            k = len(members)
            hit = self._row[members] = (sx / k, scy / k, sw / k, sh / k,
                                        k / len(self.detections), sx / k, sy / k)
        return hit

    def rows(self, config: ClusterConfig) -> np.ndarray:
        """The (N, 7) array of ``config``'s cluster rows, in cluster order:
        the held one if the slot holds ``config``, else built from ``row``
        and held. Callers only read it."""
        held, rows = self._held
        if held is not config:
            rows = np.array([self.row(c) for c in config.clusters])
            self._held = (config, rows)
        return rows

    def means(self, members: tuple[int, ...]) -> tuple[float, float, float, float]:
        """Raw (cx, cy, w, h) means of the members: ``row``'s first four."""
        return self.row(members)[:4]

    def centroid(self, members: tuple[int, ...]) -> tuple[float, float]:
        """(x, y) mean of the member centres in the geometry's space:
        ``row``'s last two."""
        return self.row(members)[5:]

    def stats(self, members: tuple[int, ...]) -> tuple[tuple[float, float], float, float]:
        """((centroid x, y), mean member distance to it, area variance).
        The centroid is ``centroid``'s; the spread and the two-pass area
        variance are numpy's 1-D means, taken in Python floats at every
        member count, their sums added in numpy's order by
        ``_pairwise_sum``. Results equal ``geometry_stats_reference`` in
        ``tests/oracles.py``, beside which the argument sits.
        """
        hit = self._stats.get(members)
        if hit is not None:
            return hit
        k = len(members)
        centroid = cx, cy = self.centroid(members)
        xs, ys, area = self._x, self._y, self._area
        spread = []
        for i in members:
            dx, dy = xs[i] - cx, ys[i] - cy
            spread.append(math.sqrt(dx * dx + dy * dy))
        areas = [area[i] for i in members]
        mean = _pairwise_sum(areas) / k
        hit = self._stats[members] = (
            centroid, _pairwise_sum(spread) / k,
            _pairwise_sum([(a - mean) * (a - mean) for a in areas]) / k)
        return hit


# Configurations below this many clusters take the merge pair from a loop
# over every pair in Python floats, larger ones from one distance array: on
# desk-training calls the loop is the faster of the two below 13 clusters.
PAIR_LOOP_BELOW = 13


def select_merge_pair(config: ClusterConfig, geometry: ClusterGeometry) -> tuple[int, int]:
    """Indices of the two clusters with minimum centroid distance in the
    geometry's space.

    Ties break toward the lexicographically smallest (i, j).

    The centroids come from the episode's ``ClusterGeometry``, and each
    pair's distance is the one rounding of ``_distances``,
    ``sqrt(dx * dx + dy * dy)``, compared as it rounds. Below
    ``PAIR_LOOP_BELOW`` clusters a loop over every i < j in Python floats
    keeps the first strict minimum over each cluster's ``centroid``; from
    there on, one ``_distances`` array over the centroid columns of the
    geometry's ``rows`` does, whose first minimum in row-major order is the
    smallest (i, j), the distances being symmetric. Both equal
    ``select_merge_pair_reference`` in ``tests/oracles.py``.
    """
    geometry.check(config)
    n = config.count
    if n < 2:
        raise ValueError("merge unavailable: fewer than 2 clusters")
    if n < PAIR_LOOP_BELOW:
        cents = [geometry.centroid(c) for c in config.clusters]
        best, pair = math.inf, (0, 1)
        for i, (xi, yi) in enumerate(cents):
            for j in range(i + 1, n):
                xj, yj = cents[j]
                dx, dy = xi - xj, yi - yj
                d = math.sqrt(dx * dx + dy * dy)
                if d < best:
                    best, pair = d, (i, j)
        return pair
    cents = geometry.rows(config)[:, 5:]
    dist = _distances(cents, cents)
    dist.flat[::n + 1] = np.inf  # the diagonal
    # argmin, not min: the first min call maps 64 KB of numpy code that desk
    # training loads nowhere else (peak RSS)
    return divmod(int(dist.argmin()), n)


def merge_clusters(config: ClusterConfig, i: int, j: int,
                   geometry: ClusterGeometry) -> ClusterConfig:
    """Replace clusters i and j with their union, appended at the end.
    A ``geometry`` holding ``config``'s rows holds the result's too, from
    ``PAIR_LOOP_BELOW`` clusters up (see ``ClusterGeometry``)."""
    if i == j:
        raise ValueError("cannot merge a cluster with itself")
    if not (0 <= i < config.count and 0 <= j < config.count):
        raise ValueError(f"cluster index out of range: ({i}, {j})")
    i, j = min(i, j), max(i, j)
    clusters = config.clusters
    merged = make_cluster(clusters[i] + clusters[j], config.detections)
    clusters = clusters[:i] + clusters[i + 1:j] + clusters[j + 1:] + (merged,)
    out = ClusterConfig(clusters, config.detections)
    if len(clusters) >= PAIR_LOOP_BELOW and geometry._held[0] is config:
        rows = geometry._held[1]
        geometry._held = (out, np.concatenate(
            (rows[:i], rows[i + 1:j], rows[j + 1:], [geometry.row(merged)])))
    return out


def split_cluster(config: ClusterConfig, i: int, geometry: ClusterGeometry) -> ClusterConfig:
    """Split cluster i in two along its higher-variance center dimension.

    Variance is population variance over the member centres in the
    geometry's space (ties go to y since vertical stratification
    dominates). The lower sub-cluster takes the split cluster's slot and
    the upper one is appended. A geometry holding ``config``'s rows holds
    the result's too, from ``PAIR_LOOP_BELOW`` clusters up (see
    ``ClusterGeometry``).

    The member centres are read from the geometry's lists, and each
    coordinate's variance is taken by ``_variance`` in member order, as
    ``np.var(axis=0)`` over the gathered (k, 2) centres takes it; the cut
    is ``_best_split``'s scan, so no numpy call is set up for the few
    members a split sees. Results equal ``split_cluster_reference`` in
    ``tests/oracles.py``.
    """
    geometry.check(config)
    if not (0 <= i < config.count):
        raise ValueError(f"cluster index {i} out of range")
    members = config.clusters[i]
    if len(members) < 2:
        raise ValueError("split unavailable: cluster has fewer than 2 members")
    xs = [geometry._x[m] for m in members]
    ys = [geometry._y[m] for m in members]
    order, split = _best_split(xs if _variance(xs) > _variance(ys) else ys)
    low = make_cluster([members[k] for k in order[:split]], config.detections)
    high = make_cluster([members[k] for k in order[split:]], config.detections)
    clusters = list(config.clusters)
    clusters[i] = low
    clusters.append(high)
    out = ClusterConfig(tuple(clusters), config.detections)
    if len(clusters) >= PAIR_LOOP_BELOW and geometry._held[0] is config:
        rows = np.concatenate((geometry._held[1], [geometry.row(high)]))
        rows[i] = geometry.row(low)
        geometry._held = (out, rows)
    return out
