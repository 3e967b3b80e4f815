"""Outside-in span recorder for the benchmark's traced run.

Each span names one public function of ``sceneplan``. Installing a tracer
replaces that function at every attribute a caller looks it up by (the
defining module, each module that imported it by name, the package
namespace), so the real code paths are timed without editing ``src/``.
``restore`` puts every original back. A span whose function no longer
exists is reported as absent rather than failing the run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# span name -> the function it times, as "module:attribute"
SPANS = {
    "scene.generate_scene": "sceneplan.scene:generate_scene",
    "scene.coarse_detect": "sceneplan.scene:coarse_detect",
    "scene.observe_tiles": "sceneplan.scene:observe_tiles",
    "scene.aggregate_tiles": "sceneplan.scene:aggregate_tiles",
    "core.nms": "sceneplan.core:nms",
    "clustering.initial_clusters": "sceneplan.clustering:initial_clusters",
    "clustering.estimate_bandwidth": "sceneplan.clustering:estimate_bandwidth",
    "clustering.meanshift": "sceneplan.clustering:meanshift",
    "clustering.select_merge_pair": "sceneplan.clustering:select_merge_pair",
    "clustering.merge_clusters": "sceneplan.clustering:merge_clusters",
    "clustering.split_cluster": "sceneplan.clustering:split_cluster",
    "rl_env.step": "sceneplan.rl_env:step",
    "rl_env.apply_action": "sceneplan.rl_env:apply_action",
    "rl_env.reward": "sceneplan.rl_env:reward",
    "rl_env.encode_state": "sceneplan.rl_env:encode_state",
    "rl_env.action_mask": "sceneplan.rl_env:action_mask",
    "ppo.train": "sceneplan.ppo:train",
    "ppo.infer_clusters": "sceneplan.ppo:infer_clusters",
    "ppo.mlp_forward": "sceneplan.ppo:mlp_forward",
    "ppo.policy_sample": "sceneplan.ppo:policy_sample",
    "ppo.ppo_update": "sceneplan.ppo:ppo_update",
    "offload.partitions_from_config": "sceneplan.offload:partitions_from_config",
    "offload.dp_plan": "sceneplan.offload:dp_plan",
    "offload.assign_servers": "sceneplan.offload:assign_servers",
    "offload.simulate": "sceneplan.offload:simulate",
}


def _count_observations(args, kwargs, result, add):
    add("scene.observations", sum(len(rows) for rows in result))


def _count_kept(args, kwargs, result, add):
    add("scene.kept", len(result.detections))


def _count_initial(args, kwargs, result, add):
    add("clustering.initial_n", result.count)


def _count_action(args, kwargs, result, add):
    _, valid, applied = result
    add(f"rl_env.{applied}s" if valid else "rl_env.invalid_actions", 1)


def _count_step(args, kwargs, result, add):
    add("rl_env.mean_clusters", result.config.count)


def _count_plan(args, kwargs, result, add):
    parts, profiles = args[0], args[1]
    d_max = args[2] if len(args) > 2 else kwargs["d_max"]
    add("offload.partitions", len(parts))
    add("offload.dp_cells", len(parts) * (d_max + 1) * len(profiles))
    add("offload.budget_slack_ms", d_max - result.total_latency_ms)


# span name -> hook(args, kwargs, result, add) recording counts from a call
COUNT_HOOKS = {
    "scene.observe_tiles": _count_observations,
    "scene.coarse_detect": _count_kept,
    "clustering.initial_clusters": _count_initial,
    "rl_env.apply_action": _count_action,
    "rl_env.step": _count_step,
    "offload.dp_plan": _count_plan,
}

# count name -> (span whose calls it is averaged over, or None for per op; unit)
COUNTS = {
    "scene.observations": ("scene.observe_tiles", "boxes"),
    "scene.kept": ("scene.coarse_detect", "boxes"),
    "clustering.initial_n": ("clustering.initial_clusters", "clusters"),
    "rl_env.merges": (None, "count/op"),
    "rl_env.splits": (None, "count/op"),
    "rl_env.keeps": (None, "count/op"),
    "rl_env.invalid_actions": (None, "count/op"),
    "rl_env.mean_clusters": ("rl_env.step", "clusters"),
    "offload.partitions": ("offload.dp_plan", "count"),
    "offload.dp_cells": ("offload.dp_plan", "cells"),
    "offload.budget_slack_ms": ("offload.dp_plan", "ms"),
}


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0


class Tracer:
    """Span and count recorder; ``install`` and ``restore`` bracket a pass."""

    def __init__(self, spans: dict = SPANS):
        self.spans = spans
        self.stats = {name: SpanStats() for name in spans}
        self.counts = {name: 0 for name in COUNTS}
        self.top_ns = 0  # time in spans with no traced caller
        self.absent: list[str] = []        # spans whose function is gone
        self.broken_hooks: list[str] = []  # spans whose counts could not be read
        self._stack: list[list[int]] = []
        self._patched: list[tuple] = []

    def _add(self, name: str, value) -> None:
        self.counts[name] += value

    def _wrap(self, span: str, fn):
        stats = self.stats[span]
        stack = self._stack
        hook = COUNT_HOOKS.get(span)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]  # nanoseconds spent in child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_ns += took - frame[0]
                if stack:
                    stack[-1][0] += took
                else:
                    self.top_ns += took
            if hook is not None and span not in self.broken_hooks:
                try:
                    hook(args, kwargs, result, self._add)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    # the function's inputs or result changed shape
                    self.broken_hooks.append(span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sceneplan" or name.startswith("sceneplan."))]
        for span, target in self.spans.items():
            original = _resolve(target)
            if original is None:
                if span not in self.absent:
                    self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            sites = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            for site in sites:
                setattr(*site, wrapper)
                self._patched.append((*site, original))

    def restore(self) -> None:
        """Put every original back and check that none is left wrapped."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
                    if getattr(o, a) is not orig]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"wrappers left installed at {leftover}")

    def metrics(self, ops: int, traced_ns: int) -> dict:
        """Per-layer metrics: span time and calls per op, counts, and the
        share of the traced wall time spent in outermost spans."""
        out = {}
        for span, st in self.stats.items():
            out[f"{span}.calls"] = (st.calls / ops, "calls/op")
            out[f"{span}.self_ms"] = (st.self_ns / 1e6 / ops, "ms/op")
        for name, (per_span, unit) in COUNTS.items():
            calls = ops if per_span is None else self.stats[per_span].calls
            out[name] = (self.counts[name] / calls if calls else 0.0, unit)
        out["trace.coverage"] = (self.top_ns / traced_ns, "ratio")
        return out


def _resolve(target: str):
    """The function a "module:attribute" target names, or None if it is gone."""
    mod_name, _, attr = target.partition(":")
    fn = getattr(sys.modules.get(mod_name), attr, None)
    return fn if callable(fn) else None
