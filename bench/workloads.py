"""The benchmark's workloads: their inputs, one measured pass, and the checks
that every output must pass.

Every ``sceneplan`` function is called through its module attribute
(``scene.coarse_detect``, not an imported name), so that the traced run's
wrappers see each call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from sceneplan import cli, clustering, core, offload, ppo, rl_env, scene

clock = time.perf_counter_ns

STRATA = (scene.Stratum(0.05, 0.45, 0.012, 0.03, 0.65),
          scene.Stratum(0.55, 0.95, 0.06, 0.12, 0.35))
TRANSFORM = clustering.TransformParams(0.5)
# pipeline settings are the CLI defaults: n=1, E=4, n_pad=30, t_max=30
N_TILES, SERVERS, N_PAD, T_MAX = 1, 4, 30, 30
TARGET_CLUSTERS = 14  # the pipelines' policy merges down to this count

# the desk training recipe: 1280x1280 frames with 14-20 detections
DESK_SPEC = scene.SceneSpec(1280, 1280, 14, 20, STRATA, seed=0)
DESK_ENV = ppo.EnvConfig(
    weights=rl_env.RewardWeights(alpha=2.0, beta=0.2, gamma=1.0, delta=0.4,
                                 n_min=2, n_max=4, d_m=0.05),
    transform=TRANSFORM, bandwidth=clustering.BandwidthSpec("fixed", 0.16), n_pad=8)
DESK_T_MAX = 10
DESK_D_MAX = 1500  # latency budget of the trained policy's evaluation plans

FAILURES = (offload.InfeasiblePlanError, FloatingPointError)


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class FrameResult:
    """What one frame produced, kept for the checks after timing."""

    n_detections: int
    final: core.ClusterConfig
    parts: list
    plan: offload.OffloadPlan
    sim: offload.ScheduleMetrics
    cost: float | None = None  # minus the final reward


_POINTS = np.random.default_rng(0).uniform(size=(250, 2))


def _interpreted_part() -> None:
    """Interpreter-bound arithmetic and dict updates."""
    total, seen = 0.0, {}
    for i in range(3000):
        total += (i * 0.5) ** 0.5
        seen[i & 255] = (total, i)


def _numpy_part() -> None:
    """Small numpy calls."""
    a = np.arange(64.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)


def _memory_part() -> None:
    """A memory-bound pairwise-distance matrix like MeanShift's."""
    d = np.sqrt(((_POINTS[:, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=2))
    (d < 0.1).sum()


# fixed work that does not touch sceneplan, in the program's mix
REFERENCE_PARTS = (_interpreted_part, _numpy_part, _memory_part)


def reference_ns() -> float:
    """One reference time: the geometric mean of the parts' times, so that
    each part counts equally whatever its length."""
    logs = 0.0
    for part in REFERENCE_PARTS:
        t0 = clock()
        part()
        logs += math.log(clock() - t0)
    return math.exp(logs / len(REFERENCE_PARTS))


class Gauge:
    """The machine's speed right after each op, from timing the reference
    parts.

    Other load on a shared machine slows everything for stretches of
    seconds, and slows each kind of work by a different amount. Dividing
    an op's time by the reference time taken just after it cancels most of
    that. Each sample runs the parts for about 2% of the op's time, at
    least once, and keeps the median.
    """

    def __init__(self):
        t0 = clock()
        reference_ns()
        self.sample_ns = clock() - t0  # wall time of one run of the parts

    def sample(self, op_ns: int) -> float:
        reps = max(1, round(0.02 * op_ns / self.sample_ns))
        t0 = clock()
        ref = statistics.median([reference_ns() for _ in range(reps)])
        self.sample_ns = (clock() - t0) / reps
        return ref


@dataclass
class Pass:
    """One measured pass: per-op latencies, the reference times gauged
    after the ops, and the outputs to check."""

    attempted: int
    failed: int = 0
    op_ns: list = field(default_factory=list)
    ref_ns: list = field(default_factory=list)
    frames: list = field(default_factory=list)  # FrameResult or None if failed
    logs: list = field(default_factory=list)    # training log rows


def run_frame(frame, ckpt, bandwidth, t_max, d_max, profiles) -> FrameResult:
    """Refinement, partitioning, planning and scheduling of one frame."""
    final = ppo.infer_clusters(frame, ckpt, TRANSFORM, bandwidth, t_max)
    parts = offload.partitions_from_config(final, frame)
    plan = offload.dp_plan(parts, profiles, d_max)
    sim = offload.simulate(offload.assign_servers(plan, SERVERS))
    return FrameResult(len(frame.detections), final, parts, plan, sim)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_frame(r: FrameResult, d_max: int, profiles) -> None:
    """Raise CheckFailed unless the frame's configuration, plan and schedule
    are consistent."""
    try:
        core.validate_partition(r.final)
    except ValueError as e:
        raise CheckFailed(f"final configuration: {e}") from None
    if len(r.final.detections) != r.n_detections:
        raise CheckFailed(f"configuration holds {len(r.final.detections)} of "
                          f"{r.n_detections} detections")
    check_plan(r.plan, r.parts, d_max, profiles)
    check_schedule(r.plan, r.sim)


def check_plan(plan, parts, d_max: int, profiles) -> None:
    latency = {p.name: p.latency_ms for p in profiles}
    pids = sorted(pid for pid, _, _, _ in plan.assignments)
    if pids != sorted(p.id for p in parts):
        raise CheckFailed(f"plan assigns partitions {pids}, not one model to each "
                          f"of {len(parts)}")
    for pid, model, lat, _ in plan.assignments:
        if latency.get(model) != lat:
            raise CheckFailed(f"partition {pid}: model {model!r} with latency {lat}")
    total = sum(lat for _, _, lat, _ in plan.assignments)
    if total != plan.total_latency_ms or total > d_max:
        raise CheckFailed(f"plan latency {total} ms (recorded "
                          f"{plan.total_latency_ms}) against budget {d_max} ms")
    precision = math.fsum(p for _, _, _, p in plan.assignments)
    if not math.isclose(precision, plan.total_precision, rel_tol=1e-9):
        raise CheckFailed(f"plan precision {plan.total_precision} != sum {precision}")


def check_schedule(plan, sim) -> None:
    busy = sum(sim.busy_ms)
    if not busy == sim.sum_latency_ms == plan.total_latency_ms:
        raise CheckFailed(f"schedule busy {busy} ms, summed latency "
                          f"{sim.sum_latency_ms} ms, plan {plan.total_latency_ms} ms")
    longest = max(lat for _, _, lat, _ in plan.assignments)
    if not longest <= sim.makespan_ms <= busy:
        raise CheckFailed(f"makespan {sim.makespan_ms} ms outside [{longest}, {busy}]")


def check_training(ckpt, log_rows, iterations: int) -> None:
    if len(log_rows) != iterations:
        raise CheckFailed(f"training log has {len(log_rows)} of {iterations} rows")
    for row in log_rows:
        for key in ("mean_return", "policy_loss", "value_loss"):
            if not math.isfinite(float(row[key])):
                raise CheckFailed(f"iteration {row['iteration']}: {key} = {row[key]}")
    for net in (ckpt.policy, ckpt.critic):
        if not all(np.isfinite(a).all() for a in net.weights + net.biases):
            raise CheckFailed("trained network has non-finite parameters")


def plan_figures(results: list) -> dict:
    """Means over frames of what the planning stages produced."""
    if not results:
        raise CheckFailed("no frame completed")
    return {
        "plan_precision": (statistics.fmean(r.plan.total_precision for r in results), "mAP"),
        "makespan_ms": (statistics.fmean(r.sim.makespan_ms for r in results), "ms"),
        "n_final": (statistics.fmean(r.final.count for r in results), "clusters"),
    }


def same_outputs(a: FrameResult | None, b: FrameResult | None) -> bool:
    if a is None or b is None:
        return a is b
    return (a.final.clusters == b.final.clusters and a.plan == b.plan
            and a.sim == b.sim)


# ---------------------------------------------------------------------------
# pipeline workloads
# ---------------------------------------------------------------------------

def alternating_policy(rng) -> ppo.PolicyCheckpoint:
    """A fixed policy whose greedy action merges while more than
    TARGET_CLUSTERS clusters exist and otherwise splits the largest cluster, so once the
    count reaches the target it alternates merges and splits.

    The weights come from the benchmark's own generator, not from the
    package's initializer or trainer, so a change to training cannot move
    pipeline numbers.
    """
    n_pad, feat = N_PAD, rl_env.FEATURES_PER_CLUSTER
    dim, acts, hidden = rl_env.state_dim(n_pad), rl_env.n_actions(n_pad), n_pad + 2
    gain = 100.0 * n_pad                # 50 logits per half cluster of excess
    threshold = (TARGET_CLUSTERS + 0.5) / n_pad  # on the state's count feature N / n_pad
    w1, b1 = np.zeros((dim, hidden)), np.zeros(hidden)
    w1[-1, 0], b1[0] = gain, -gain * threshold   # relu(excess)
    w1[-1, 1], b1[1] = -gain, gain * threshold   # relu(shortfall)
    for i in range(n_pad):
        w1[i * feat + 4, 2 + i] = 10.0           # cluster i's share of detections
    w2, b2 = np.eye(hidden), np.zeros(hidden)
    w3, b3 = np.zeros((hidden, acts)), np.zeros(acts)
    w3[0, rl_env.MERGE], w3[1, rl_env.MERGE] = 1.0, -1.0
    w3[0, rl_env.SPLIT_BASE:], w3[1, rl_env.SPLIT_BASE:] = -1.0, 1.0
    w3[2:, rl_env.SPLIT_BASE:] = np.eye(n_pad)
    weights = [w + 1e-3 * rng.standard_normal(w.shape) for w in (w1, w2, w3)]
    critic = [rng.uniform(-0.1, 0.1, (a, b)) for a, b in ((dim, 8), (8, 1))]
    return ppo.PolicyCheckpoint(
        n_pad=n_pad, include_count=True,
        policy=ppo.MlpParams(weights, [b1, b2, b3]),
        critic=ppo.MlpParams(critic, [np.zeros(8), np.zeros(1)]),
        weights=rl_env.RewardWeights(),
        hyper=ppo.Hyperparams(t_max=T_MAX, hidden=(hidden, hidden)),
    )


@dataclass
class PipelineInputs:
    frames: list
    ckpt: ppo.PolicyCheckpoint
    profiles: list


@dataclass(frozen=True)
class PipelineWorkload:
    """4K frames through coarse_detect -> infer_clusters ->
    partitions_from_config -> dp_plan -> assign_servers -> simulate."""

    name: str
    counts: tuple[int, int]  # detection counts, spread evenly over the pool
    pool: int                # distinct frames per pass
    bandwidth: clustering.BandwidthSpec
    d_max: int
    cli_frames: int          # frames cross-checked through `sceneplan pipeline`
    pass_s: float            # nominal seconds of one pass on a 2-CPU machine

    steps_per_op = T_MAX

    def setup(self, seed: int) -> PipelineInputs:
        rng = np.random.default_rng(seed)
        counts = np.linspace(*self.counts, self.pool).round().astype(int)
        seeds = rng.integers(0, 2 ** 31 - 1, size=self.pool)
        frames = [scene.generate_scene(scene.SceneSpec(3840, 2160, int(c), int(c),
                                                       STRATA, int(s)))
                  for c, s in zip(counts, seeds)]
        ckpt = alternating_policy(rng)
        return PipelineInputs(frames, ckpt, offload.default_profiles())

    def frame(self, inputs: PipelineInputs, frame) -> FrameResult:
        coarse = scene.coarse_detect(frame, N_TILES, SERVERS)
        return run_frame(coarse, inputs.ckpt, self.bandwidth, T_MAX, self.d_max,
                         inputs.profiles)

    def warm_up(self, inputs: PipelineInputs) -> None:
        self.frame(inputs, inputs.frames[0])

    def run_pass(self, inputs: PipelineInputs, workdir: str, gauge: Gauge | None) -> Pass:
        p = Pass(len(inputs.frames))
        for frame in inputs.frames:
            t0 = clock()
            try:
                out = self.frame(inputs, frame)
            except FAILURES:
                out = None
                p.failed += 1
            p.op_ns.append(clock() - t0)
            if gauge:
                p.ref_ns.append(gauge.sample(p.op_ns[-1]))
            p.frames.append(out)
        return p

    def check(self, inputs: PipelineInputs, passes: list) -> dict:
        done = [r for r in passes[0].frames if r is not None]
        figures = plan_figures(done)
        for r in done:
            check_frame(r, self.d_max, inputs.profiles)
            r.cost = -rl_env.reward(r.final, inputs.ckpt.weights, TRANSFORM)[4]
        return {"reward_cost": (statistics.fmean(r.cost for r in done), "reward"),
                **figures}

    def cross_check(self, inputs: PipelineInputs, passes: list, workdir: str) -> None:
        """`sceneplan pipeline` on the first frames must report the same
        n_final, plan_precision and makespan_ms as the API chain."""
        if self.cli_frames == 0:
            return
        ckpt_path = os.path.join(workdir, "policy.ckpt")
        ppo.save_checkpoint(inputs.ckpt, ckpt_path)
        config = {"n": N_TILES, "e": SERVERS, "t_max": T_MAX, "d_max": self.d_max,
                  "transform_alpha": TRANSFORM.alpha, "policy": "trained",
                  "bandwidth_mode": self.bandwidth.mode,
                  "bandwidth_value": self.bandwidth.value, "checkpoint": ckpt_path}
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        for i, frame in enumerate(inputs.frames[:self.cli_frames]):
            dets = os.path.join(workdir, f"frame{i}.json")
            out_dir = os.path.join(workdir, f"cli{i}")
            scene.save_detections(frame, dets)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["pipeline", "--config", config_path,
                                 "--detections", dets, "--out-dir", out_dir])
            if code != 0:
                raise CheckFailed(f"CLI pipeline on frame {i} exited {code}: "
                                  f"{err.getvalue().strip()}")
            with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8") as f:
                (row,) = list(csv.DictReader(f))
            expect = passes[0].frames[i]
            if expect is None:
                raise CheckFailed(f"CLI planned frame {i}, which failed in the API chain")
            got = (int(row["n_final"]), float(row["plan_precision"]),
                   int(row["makespan_ms"]))
            want = (expect.final.count, expect.plan.total_precision,
                    expect.sim.makespan_ms)
            if got != want:
                raise CheckFailed(f"frame {i}: CLI reports (n_final, plan_precision, "
                                  f"makespan_ms) = {got}, API chain {want}")


# ---------------------------------------------------------------------------
# training workload
# ---------------------------------------------------------------------------

@dataclass
class TrainInputs:
    train_seed: int
    eval_frames: list
    profiles: list


@dataclass(frozen=True)
class TrainWorkload:
    """``train()`` on the desk recipe, then a greedy evaluation of the
    trained policy on held-out scenes through the planning stages."""

    name: str
    iterations: int = 120
    episodes_per_iter: int = 16
    eval_frames: int = 64

    pass_s = 11.0  # nominal seconds of one pass on a 2-CPU machine

    @property
    def steps_per_op(self) -> int:
        return self.episodes_per_iter * DESK_T_MAX

    def hyper(self, seed: int, iterations: int) -> ppo.Hyperparams:
        return ppo.Hyperparams(gamma=0.9, clip_eps=0.2, lr_policy=1e-2, lr_critic=1e-3,
                               batch_size=64, t_max=DESK_T_MAX, iterations=iterations,
                               episodes_per_iter=self.episodes_per_iter, epochs=4,
                               entropy_coef=0.01, seed=seed)

    def setup(self, seed: int) -> TrainInputs:
        rng = np.random.default_rng(seed)
        train_seed = int(rng.integers(0, 2 ** 31 - 1))
        held_out = rng.integers(0, 2 ** 31 - 1, size=self.eval_frames)
        frames = [scene.generate_scene(DESK_SPEC.with_seed(int(s))) for s in held_out]
        return TrainInputs(train_seed, frames, offload.default_profiles())

    def evaluate(self, inputs: TrainInputs, ckpt, frames) -> list:
        out = []
        for frame in frames:
            r = run_frame(frame, ckpt, DESK_ENV.bandwidth, DESK_T_MAX, DESK_D_MAX,
                          inputs.profiles)
            r.cost = -rl_env.reward(r.final, ckpt.weights, TRANSFORM)[4]
            out.append(r)
        return out

    def warm_up(self, inputs: TrainInputs) -> None:
        ckpt = ppo.train(ppo.sampler_from_spec(DESK_SPEC), DESK_ENV,
                         self.hyper(inputs.train_seed, 2))
        self.evaluate(inputs, ckpt, inputs.eval_frames[:2])

    def run_pass(self, inputs: TrainInputs, workdir: str, gauge: Gauge | None) -> Pass:
        """One training run and its evaluation; every pass repeats the same
        work.

        Each iteration starts by sampling its first scene, so the sampler
        splits the run into per-iteration latencies and gauges the machine
        between iterations, outside their time.
        """
        p = Pass(self.iterations)
        calls = 0
        start = 0

        def sampler(seed: int):
            nonlocal calls, start
            if calls % self.episodes_per_iter == 0:
                if calls:
                    p.op_ns.append(clock() - start)
                    if gauge:
                        p.ref_ns.append(gauge.sample(p.op_ns[-1]))
                start = clock()
            calls += 1
            return scene.generate_scene(DESK_SPEC.with_seed(seed))

        log_path = os.path.join(workdir, "training_log.csv")
        try:
            ckpt = ppo.train(sampler, DESK_ENV, self.hyper(inputs.train_seed,
                                                           self.iterations),
                             log_path=log_path)
        except FloatingPointError:
            p.failed = self.iterations
            return p
        p.op_ns.append(clock() - start)
        if gauge:
            p.ref_ns.append(gauge.sample(p.op_ns[-1]))
        with open(log_path, encoding="utf-8") as f:
            p.logs = list(csv.DictReader(f))
        os.unlink(log_path)
        check_training(ckpt, p.logs, self.iterations)
        try:
            p.frames = self.evaluate(inputs, ckpt, inputs.eval_frames)
        except FAILURES as e:
            raise CheckFailed(f"evaluation of the trained policy failed: {e}") from None
        return p

    def check(self, inputs: TrainInputs, passes: list) -> dict:
        """Check the evaluation plans. The gated quality figure is the mean
        episode return over the last half of training, because the greedy
        evaluation swings between two outcomes from one training seed to the
        next."""
        p = passes[0]
        if p.failed:
            raise CheckFailed("training stopped on a non-finite loss")
        for r in p.frames:
            check_frame(r, DESK_D_MAX, inputs.profiles)
        tail = [float(row["mean_return"]) for row in p.logs[self.iterations // 2:]]
        return {"reward_cost": (-statistics.fmean(tail), "reward"),
                "train_eval_reward": (-statistics.fmean(r.cost for r in p.frames), "reward"),
                **plan_figures(p.frames)}

    def cross_check(self, inputs, passes, workdir) -> None:
        return None


WORKLOADS = {
    "desk-train": TrainWorkload("desk-train"),
    "desk-pipeline": PipelineWorkload(
        "desk-pipeline", counts=(20, 40), pool=100,
        bandwidth=clustering.BandwidthSpec("quantile", 0.2), d_max=4000,
        cli_frames=3, pass_s=5.0),
    "crowd-pipeline": PipelineWorkload(
        "crowd-pipeline", counts=(500, 700), pool=16,
        bandwidth=clustering.BandwidthSpec("fixed", 0.12), d_max=16000,
        cli_frames=0, pass_s=10.0),
}
