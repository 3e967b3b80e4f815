"""Cluster-refinement environment: state encoding, keep/merge/split actions,
the composite clustering-quality reward, the one-transition ``step``, and
``EnvConfig``, everything an episode needs besides its frame and horizon.

A frame's clustering space is its ``ClusterGeometry``: ``encode_state``,
``apply_action`` and ``step`` take it. ``ppo.rollout`` owns the episode: it
builds each frame's geometry, starts from the MeanShift clustering in it,
and steps with these functions, so an episode's states, merges, splits and
rewards all use that one geometry.

Action ids are fixed-size regardless of the live cluster count N:
0 = keep, 1 = merge the closest centroid pair, 2 + i = split cluster i.
Invalid (masked) actions degrade to keep so episodes always run their full
length; sampling-time masking makes that a safety net rather than the rule.

A step does not score its configuration: it returns the plain record
``StepOutcome``. Scores are computed when asked, by ``rewards`` over any
number of (configuration, geometry) pairs at once under one set of
``RewardWeights``; ``ppo.Episodes.scores`` scores a whole rollout in one
such pass, and ``reward`` is its one-configuration case, in a fresh geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clustering import (
    PAIR_LOOP_BELOW,
    BandwidthSpec,
    ClusterGeometry,
    TransformParams,
    merge_clusters,
    select_merge_pair,
    split_cluster,
    squared_distances,
)
from .core import ClusterConfig, check_fields, check_number, expand_ranges

KEEP, MERGE = 0, 1
SPLIT_BASE = 2
FEATURES_PER_CLUSTER = 5
REWARD_TERMS = ("alpha", "beta", "gamma", "delta")  # the weights of R1-R4


@dataclass(frozen=True)
class RewardWeights:
    """Weights and bounds of the four reward components; an error starts with its field.

    alpha scales cluster tightness, beta the object-area variance, gamma
    the cluster-count band penalty, delta the close-centroid penalty.
    """

    alpha: float = 50.0
    beta: float = 1.0
    gamma: float = 1_000_000.0
    delta: float = 5.0
    n_min: int = 10
    n_max: int = 15
    d_m: float = 0.03

    def __post_init__(self) -> None:
        check_fields(self, [
            *((k, check_number(getattr(self, k), k) >= 0.0, ">= 0") for k in REWARD_TERMS),
            ("n_min", check_number(self.n_min, "n_min", True) >= 1, ">= 1"),
            ("n_max", check_number(self.n_max, "n_max", True) >= self.n_min, ">= n_min"),
            ("d_m", check_number(self.d_m, "d_m") > 0.0, "> 0")])


def state_dim(n_pad: int) -> int:
    return FEATURES_PER_CLUSTER * n_pad + 1


def n_actions(n_pad: int) -> int:
    return SPLIT_BASE + n_pad


def encode_state(config: ClusterConfig, geometry: ClusterGeometry, n_pad: int) -> np.ndarray:
    """Flatten the configuration into a fixed-length feature vector.

    One (cx, cy, w, h, S_i / total) slot per cluster in index order: the
    raw means of its members' boxes, then its share of the frame's
    detections (``geometry.row``'s first five); zero-padded (or truncated)
    to n_pad slots, then always the normalized cluster count N / n_pad
    clipped to 1. ``n_pad`` is ``EnvConfig.n_pad``, which checks it is >= 1.

    From ``PAIR_LOOP_BELOW`` clusters up the slots are the first n_pad of
    the geometry's ``rows``, copied into a zero array; below it the
    features are laid out in one Python list and converted by one
    ``np.array``. The vector equals ``encode_state_reference`` in
    ``tests/oracles.py``, which writes each slot into a zero array.
    """
    geometry.check(config)
    n = config.count
    if n >= PAIR_LOOP_BELOW:
        state = np.zeros(state_dim(n_pad))
        shown = geometry.rows(config)[:n_pad, :FEATURES_PER_CLUSTER]
        state[:shown.size].reshape(shown.shape)[...] = shown
    else:
        feats = []
        for c in config.clusters[:n_pad]:
            feats += geometry.row(c)[:FEATURES_PER_CLUSTER]
        feats += [0.0] * (state_dim(n_pad) - len(feats))
        state = np.array(feats, dtype=float)
    state[-1] = min(n / n_pad, 1.0)
    return state


def action_mask(config: ClusterConfig, n_pad: int) -> np.ndarray:
    """Validity per action id: keep always, merge iff N >= 2, split i iff
    cluster i exists and has at least 2 members.

    One Python list converted by one ``np.array``; the mask equals
    ``action_mask_reference`` in ``tests/oracles.py``.
    """
    shown = config.clusters[:n_pad]
    mask = [True, config.count >= 2]  # KEEP, MERGE; SPLIT_BASE + i follow
    mask += [len(c) >= 2 for c in shown]
    mask += [False] * (n_pad - len(shown))
    return np.array(mask, dtype=bool)


def reward(config: ClusterConfig, weights: RewardWeights,
           transform: TransformParams | None = None,
           ) -> tuple[float, float, float, float, float]:
    """(R1, R2, R3, R4, R_total) for a configuration: the one-configuration
    case of ``rewards``, in a fresh ``ClusterGeometry`` of its frame under
    ``transform``, as a tuple of floats. The package scores episodes through
    ``ppo.Episodes.scores``; this is kept for the benchmark, tools/ties.py
    and tests."""
    geometry = ClusterGeometry(config.detections, transform)
    return tuple(rewards([(config, geometry)], weights)[0].tolist())


def rewards(scored, weights: RewardWeights) -> np.ndarray:
    """(R1, R2, R3, R4, R_total) under ``weights`` of each (configuration,
    geometry) pair in ``scored``, every geometry built for its
    configuration's frame, as one float (len(scored), 5) array.

    R1: minus the mean over clusters of the mean member-center distance to
        the cluster centroid, in the geometry's space.
    R2: minus the mean over clusters of the population variance of member
        box areas (normalized w*h).
    R3: minus the distance of N to the [n_min, n_max] band (0 inside).
    R4: minus the number of unordered centroid pairs closer than d_m.
    R_total = ((alpha*R1 + beta*R2) + gamma*R3) + delta*R4, in that order.

    Per-cluster statistics come from each geometry's memo, so only
    clusters new since its last scoring are reduced. R4 counts, for every
    configuration at once, over one flat array of the centroid pairs
    (i, j), i < j, within each configuration: each distance rounds as in
    ``_distances`` and is compared with d_m as it is. Results equal
    ``reward_per_cluster_reference`` in ``tests/oracles.py``. A total that
    is not finite raises ``ValueError`` for the first such configuration,
    naming the weights whose terms overflowed, or all four when only their
    sum did.
    """
    out = np.empty((len(scored), 5))
    rows, cx, cy, sizes = [], [], [], []
    for config, geometry in scored:
        n = config.count
        if n == 0:
            raise ValueError("reward of an empty configuration: it has no clusters")
        geometry.check(config)
        stats = [geometry.stats(c) for c in config.clusters]
        # fsum keeps the cross-cluster means insensitive to cluster order, so
        # reversing a split restores the reward bit for bit; R3 is minus the
        # distance to the band, where at most one difference is negative
        rows.append((-math.fsum(s[1] for s in stats) / n, -math.fsum(s[2] for s in stats) / n,
                     float(min(n - weights.n_min, weights.n_max - n, 0))))
        # two flat lists: unpacking by zip(*map(...)) read +1 MB desk-train peak RSS
        for (x, y), _, _ in stats:
            cx.append(x)
            cy.append(y)
        sizes.append(n)
    if not rows:
        return out
    out[:, :3] = rows
    cx, cy, sizes = np.array(cx), np.array(cy), np.array(sizes)
    # each cluster's partners: the clusters after it in its configuration
    ends = sizes.cumsum().repeat(sizes)
    j, partners = expand_ranges(np.arange(1, len(cx) + 1), ends)
    i = np.arange(len(cx)).repeat(partners)
    owner = np.arange(len(rows)).repeat(sizes).repeat(partners)
    d = squared_distances(cx[i], cy[i], cx[j], cy[j])
    np.sqrt(d, out=d)
    # negated as ints, so no close pair reads 0.0, not -0.0; as 0 - count,
    # since int negation maps 64 KB of numpy code no desk path loads (peak RSS)
    out[:, 3] = 0 - np.bincount(owner[d < weights.d_m], minlength=len(rows))
    # an overflow, or an infinite weight's inf * 0.0, is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        out[:, 4] = ((weights.alpha * out[:, 0] + weights.beta * out[:, 1])
                     + weights.gamma * out[:, 2]) + weights.delta * out[:, 3]
    bad = np.flatnonzero(~np.isfinite(out[:, 4]))
    if len(bad):
        terms = [getattr(weights, name) * r
                 for name, r in zip(REWARD_TERMS, out[bad[0], :4].tolist())]
        over = [name for name, term in zip(REWARD_TERMS, terms) if not math.isfinite(term)]
        what = (("the term", "overflows") if len(over) == 1 else
                ("the terms", "overflow") if over else ("the sum of the terms", "overflows"))
        names = ", ".join(f"reward.{name}" for name in over or REWARD_TERMS)
        raise ValueError(f"reward is not finite: {what[0]} weighted by {names} {what[1]}")
    return out


class StepOutcome(NamedTuple):
    """One transition's result: the next configuration, whether the action
    was valid, and what ran ("keep", "merge" or "split")."""

    config: ClusterConfig
    valid: bool
    applied: str


def apply_action(config: ClusterConfig, action: int,
                 geometry: ClusterGeometry) -> StepOutcome:
    """Apply an action id in the geometry's space; invalid ones degrade to
    keep."""
    geometry.check(config)
    if action == KEEP:
        return StepOutcome(config, True, "keep")
    if action == MERGE:
        if config.count < 2:
            return StepOutcome(config, False, "keep")
        i, j = select_merge_pair(config, geometry)
        return StepOutcome(merge_clusters(config, i, j, geometry), True, "merge")
    idx = action - SPLIT_BASE
    if 0 <= idx < config.count and len(config.clusters[idx]) >= 2:
        return StepOutcome(split_cluster(config, idx, geometry), True, "split")
    return StepOutcome(config, False, "keep")


def step(config: ClusterConfig, action: int, n_pad: int,
         geometry: ClusterGeometry) -> StepOutcome:
    """One transition: apply an action id of the n_pad-slot action space.

    Nothing is scored; the caller scores the post-action configuration
    when it needs the reward (``ppo.Episodes.scores``). Episode length and
    the states a policy sees are the caller's business (see
    ``ppo.rollout``).
    """
    if not (0 <= action < n_actions(n_pad)):
        raise ValueError(f"action {action} out of range")
    return apply_action(config, action, geometry)


@dataclass(frozen=True)
class EnvConfig:
    """Everything an episode needs besides its frame and horizon;
    ``ppo.rollout`` rolls frames under one. An error starts with its field.

    The transform sets the frame's clustering space, the ``ClusterGeometry``
    that the MeanShift start, the reward, merge and split all read.
    ``n_pad`` sets the state layout, which always ends with the cluster count.
    """

    weights: RewardWeights = RewardWeights()
    transform: TransformParams = TransformParams()
    bandwidth: BandwidthSpec = BandwidthSpec()
    n_pad: int = 30

    def __post_init__(self) -> None:
        check_fields(self, [("n_pad", check_number(self.n_pad, "n_pad", True) >= 1, ">= 1")])
