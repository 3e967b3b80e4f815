"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines; any failure prints its FAIL line before the assert fires.
"""

import json
import math
import time

import numpy as np
import pytest

from sceneplan.cli import main as cli_main
from sceneplan.clustering import (
    BandwidthSpec,
    TransformParams,
    kmeans_1d,
    meanshift,
)
from sceneplan.core import DetectionBox, Frame
from sceneplan.offload import (
    InfeasiblePlanError,
    PartitionDescriptor,
    assign_servers,
    dp_plan,
    precision_table,
    scale_area,
)
from sceneplan.ppo import (
    CheckpointError,
    EnvConfig,
    Hyperparams,
    TrajectoryBatch,
    _critic_loss_grad,
    _policy_objective_grad,
    greedy_policy,
    init_mlp,
    keep_policy,
    load_checkpoint,
    masked_log_softmax,
    mlp_forward,
    policy_sample,
    random_policy,
    rollout,
    sampler_from_spec,
    save_checkpoint,
    train,
)
from sceneplan.rl_env import RewardWeights, n_actions, reward, state_dim
from sceneplan.scene import SceneSpec, Stratum, generate_scene

from oracles import (
    hidden_preactivations,
    kmeans_1d_best_cost,
    labels_cost,
    mckp_enumerate,
    optimal_makespan_fast,
    random_config,
    reward_reference,
)

# desk-scale training configuration exercised by criterion 7
DESK_SPEC = SceneSpec(
    width_px=1280, height_px=1280, count_min=14, count_max=20,
    strata=(Stratum(0.05, 0.45, 0.012, 0.03, 0.65),
            Stratum(0.55, 0.95, 0.06, 0.12, 0.35)),
    seed=0)
DESK_WEIGHTS = RewardWeights(alpha=2.0, beta=0.2, gamma=1.0, delta=0.4,
                             n_min=2, n_max=4, d_m=0.05)
DESK_ENV = EnvConfig(weights=DESK_WEIGHTS, transform=TransformParams(0.5),
                     bandwidth=BandwidthSpec("fixed", 0.16), n_pad=8)
DESK_HYPER = Hyperparams(gamma=0.9, clip_eps=0.2, lr_policy=1e-2,
                         lr_critic=1e-3, batch_size=64, t_max=10,
                         iterations=120, episodes_per_iter=16, epochs=4,
                         entropy_coef=0.01, seed=0)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPT-{criterion}] {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def flat_profiles(latencies, values):
    from sceneplan.offload import ModelProfile

    return [ModelProfile(f"m{k}", 600 + k, int(l),
                         ((100.0, float(v)), (10_000.0, float(v))))
            for k, (l, v) in enumerate(zip(latencies, values))]


def test_01_dp_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(220):
        n = int(rng.integers(1, 5))
        lats = [int(l) for l in rng.integers(1, 51, 5)]
        profs = flat_profiles(lats, rng.uniform(0, 1, 5))
        parts = [PartitionDescriptor(i, 1000, 1000, (400.0,)) for i in range(n)]
        prec = precision_table(parts, profs).tolist()
        d_max = int(rng.integers(0, 201))
        best, _ = mckp_enumerate(prec, lats, d_max)
        if best is None:
            with pytest.raises(InfeasiblePlanError):
                dp_plan(parts, profs, d_max)
        else:
            plan = dp_plan(parts, profs, d_max)
            assert plan.total_precision == best
            assert plan.total_latency_ms <= d_max
        checked += 1
    elapsed = time.perf_counter() - start
    report("01", checked == 220 and elapsed < 10.0,
           f"dp == 5^N enumeration on {checked} instances in {elapsed:.2f}s")


def test_02_reward_formula_equivalence():
    rng = np.random.default_rng(202)
    weights = RewardWeights(alpha=3.0, beta=7.0, gamma=11.0, delta=2.0,
                            n_min=3, n_max=6, d_m=0.15)
    worst = 0.0
    for k in range(500):
        cfg = random_config(rng, int(rng.integers(1, 8)))
        transform = TransformParams(0.5) if k % 2 else None
        alpha_t = 0.5 if k % 2 else None
        got = reward(cfg, weights, transform)
        want = reward_reference(cfg, weights, alpha_t)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    report("02", worst < 1e-9, f"max |delta| = {worst:.2e} over 500 configs")


def test_03_reward_piecewise_band():
    weights = RewardWeights(n_min=10, n_max=15)  # table defaults
    boxes = [DetectionBox(0.02 + 0.05 * i, 0.5, 0.01, 0.01) for i in range(19)]
    expected = {7: -3.0, 8: -2.0, 9: -1.0, 10: 0.0, 12: 0.0, 15: 0.0,
                16: -1.0, 17: -2.0, 18: -3.0}
    ok = True
    for n, want in expected.items():
        from sceneplan.core import ClusterConfig, make_cluster

        cfg = ClusterConfig(
            tuple(make_cluster([i], boxes[:n]) for i in range(n)),
            tuple(boxes[:n]))
        r3 = reward(cfg, weights)[2]
        ok = ok and r3 == want
    report("03", ok, "R3 piecewise exact for N in {7..18}, band [10, 15]")


def test_04_gradient_correctness():
    dim, acts = state_dim(30), n_actions(30)  # production-size networks
    hyper = Hyperparams(hidden=(128, 128), entropy_coef=0.01, t_max=30)
    h = 1e-5
    worst = 0.0

    def surrogate(params, batch):
        logits = mlp_forward(params, batch.states)
        logp = masked_log_softmax(logits, batch.masks)
        p = np.exp(logp)
        rows = np.arange(len(batch))
        r = np.exp(logp[rows, batch.actions] - batch.old_logp)
        clipped = np.clip(r, 1 - hyper.clip_eps, 1 + hyper.clip_eps)
        obj = np.minimum(r * batch.advantages, clipped * batch.advantages)
        safe = np.where(batch.masks, logp, 0.0)
        ent = -(p * safe).sum(axis=1)
        return float((obj + hyper.entropy_coef * ent).mean())

    def value_loss(params, batch):
        v = mlp_forward(params, batch.states)[:, 0]
        return float(((v - batch.returns) ** 2).mean())

    def check(params, loss_fn, analytic_ws, analytic_bs, rng):
        nonlocal worst
        for arrays, grads in ((params.weights, analytic_ws),
                              (params.biases, analytic_bs)):
            for arr, g in zip(arrays, grads):
                flat, gflat = arr.reshape(-1), g.reshape(-1)
                picks = rng.choice(flat.size, size=min(25, flat.size),
                                   replace=False)
                for ix in picks:
                    old = flat[ix]
                    flat[ix] = old + h
                    up = loss_fn(params)
                    flat[ix] = old - h
                    down = loss_fn(params)
                    flat[ix] = old
                    fd = (up - down) / (2 * h)
                    # denominator floored at 1e-6: below that, central
                    # differences on an O(1) loss are pure roundoff noise
                    err = abs(gflat[ix] - fd) / max(abs(gflat[ix]) + abs(fd), 1e-6)
                    worst = max(worst, err)

    def draw_batch(seed):
        """One 5-sample batch clear of rectifier kinks and clip boundaries
        (non-differentiable points are excluded from the check, so batches
        that land on them are redrawn)."""
        for attempt in range(50):
            rng = np.random.default_rng(seed + 10_000 * attempt)
            policy = init_mlp(rng, [dim, 128, 128, acts])
            critic = init_mlp(rng, [dim, 128, 128, 1])
            behavior = init_mlp(np.random.default_rng(seed + 555 + attempt),
                                [dim, 128, 128, acts])
            states = rng.uniform(0, 1, (5, dim))
            masks = np.ones((5, acts), dtype=bool)
            masks[:, 2:] = rng.random((5, acts - 2)) < 0.5
            actions, logps = policy_sample(mlp_forward(behavior, states), masks, rng)
            batch = TrajectoryBatch(states, actions, logps,
                                    rng.normal(size=5), rng.normal(size=5),
                                    masks)
            kink = min(
                min(np.abs(z).min() for z in hidden_preactivations(net, states))
                for net in (policy, critic))
            ratio = np.exp(masked_log_softmax(mlp_forward(policy, states),
                                              masks)[np.arange(5),
                                                     batch.actions]
                           - batch.old_logp)
            boundary = min(np.abs(ratio - (1 - hyper.clip_eps)).min(),
                           np.abs(ratio - (1 + hyper.clip_eps)).min())
            if kink > 1e-6 and boundary > 1e-3:
                return policy, critic, batch, rng
        raise RuntimeError("could not draw a kink-free batch")

    for batch_seed in range(10):
        policy, critic, batch, rng = draw_batch(400 + batch_seed)
        _, pdw, pdb = _policy_objective_grad(policy, batch, hyper)
        check(policy, lambda p: surrogate(p, batch), pdw, pdb, rng)
        _, cdw, cdb = _critic_loss_grad(critic, batch)
        check(critic, lambda p: value_loss(p, batch), cdw, cdb, rng)

    report("04", worst < 1e-4,
           f"max relative error {worst:.2e} over 10 five-sample batches")


def test_05_kmeans_optimality():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        vals = rng.uniform(0, 1, n).tolist()
        labels = kmeans_1d(vals)
        gap = labels_cost(vals, labels) - kmeans_1d_best_cost(vals)
        worst = max(worst, abs(gap))
    report("05", worst < 1e-9,
           f"cost gap to exhaustive split oracle {worst:.2e} on 1000 inputs")


def test_06_meanshift_planted_recovery():
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(600 + seed)
        while True:  # centers pairwise >= 0.3 apart
            centers = rng.uniform(0.1, 0.9, (3, 2))
            d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
            if d[np.triu_indices(3, 1)].min() >= 0.3:
                break
        pts, truth = [], []
        for k, c in enumerate(centers):
            m = int(rng.integers(10, 30))
            pts.append(np.clip(c + rng.normal(0, 0.01, (m, 2)), 0, 1))
            truth.extend([k] * m)
        pts = np.concatenate(pts)
        labels = meanshift(pts, 0.1)
        got = {}
        for i, l in enumerate(labels):
            got.setdefault(int(l), set()).add(i)
        want = {}
        for i, l in enumerate(truth):
            want.setdefault(l, set()).add(i)
        if sorted(map(sorted, got.values())) != sorted(map(sorted, want.values())):
            failures += 1
    report("06", failures == 0, f"exact recovery on 100/100 seeds "
                                f"({failures} failures)")


def test_07_training_efficacy():
    start = time.perf_counter()
    ckpt = train(sampler_from_spec(DESK_SPEC), DESK_ENV, DESK_HYPER)
    train_time = time.perf_counter() - start
    frames = [(10_000 + k, generate_scene(DESK_SPEC.with_seed(10_000 + k)))
              for k in range(100)]

    def evaluate(policy_fn):
        finals, ns = [], []
        for seed, frame in frames:
            trace = rollout([frame], DESK_ENV, DESK_HYPER.t_max, policy_fn,
                            np.random.default_rng(seed)).traces[0]
            finals.append(reward(trace[-1].config, DESK_WEIGHTS, DESK_ENV.transform)[4])
            ns.append(trace[-1].config.count)
        return np.array(finals), np.array(ns)

    fr_t, n_t = evaluate(greedy_policy(ckpt))
    fr_r, _ = evaluate(random_policy)
    fr_k, _ = evaluate(keep_policy)
    d_rand = fr_t - fr_r
    d_keep = fr_t - fr_k
    se_rand = d_rand.std(ddof=1) / math.sqrt(len(d_rand))
    se_keep = d_keep.std(ddof=1) / math.sqrt(len(d_keep))
    in_range = float(np.mean((n_t >= DESK_WEIGHTS.n_min) &
                             (n_t <= DESK_WEIGHTS.n_max)))
    ok = (DESK_HYPER.iterations <= 200 and train_time < 600 and
          d_rand.mean() > 2 * se_rand and d_keep.mean() > 2 * se_keep and
          in_range >= 0.9)
    report("07", ok,
           f"train {train_time:.0f}s/{DESK_HYPER.iterations} iters; "
           f"final reward {fr_t.mean():.3f} vs random {fr_r.mean():.3f} "
           f"(diff {d_rand.mean():.3f} > 2se {2 * se_rand:.3f}) vs keep "
           f"{fr_k.mean():.3f} (diff {d_keep.mean():.3f} > 2se "
           f"{2 * se_keep:.3f}); N in range {in_range:.0%}")


def test_08_scale_area_arithmetic():
    ok = scale_area(100, 1000, 1000, 640) == 40.96
    ok = ok and scale_area(100.0, 640, 640, 640) == 100.0
    ok = ok and scale_area(123.456, 777, 555, 640) == \
        123.456 * 640 ** 2 / (777 * 555)
    report("08", ok, "scale_area(100,1000,1000,640) == 40.96; identity holds")


def test_09_transform_invertibility():
    rng = np.random.default_rng(909)
    y = rng.uniform(0, 1, 10_000)
    alpha = 0.5
    yt = y ** alpha
    back = yt ** (1 / alpha)
    max_err = float(np.abs(back - y).max())
    order_kept = (np.argsort(y, kind="stable") ==
                  np.argsort(yt, kind="stable")).all()
    report("09", max_err < 1e-9 and bool(order_kept),
           f"max inversion error {max_err:.2e}; rank order preserved")


def test_10_schedule_bounds():
    from sceneplan.offload import OffloadPlan

    rng = np.random.default_rng(1010)

    def plan_of(lats):
        assignments = tuple((i, "m", int(l), 0.5) for i, l in enumerate(lats))
        return OffloadPlan(assignments, 0.0, int(sum(lats)), int(sum(lats)))

    ok = True
    for _ in range(500):
        lats = [int(l) for l in rng.integers(1, 120, int(rng.integers(1, 13)))]
        for e in (1, 2, 4):
            ms = assign_servers(plan_of(lats), e).makespan_ms
            ok = ok and max(lats) <= ms <= sum(lats)
    ratio_checked = 0
    for _ in range(120):
        lats = [int(l) for l in rng.integers(1, 60, int(rng.integers(1, 9)))]
        for e in (1, 2, 4):
            ms = assign_servers(plan_of(lats), e).makespan_ms
            opt = optimal_makespan_fast(lats, e)
            ok = ok and ms <= (4 / 3 - 1 / (3 * e)) * opt + 1e-9
            ratio_checked += 1
    report("10", ok, f"bounds on 500 plans; LPT ratio bound on "
                     f"{ratio_checked} exhaustive instances")


def test_11_end_to_end_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "width_px": 1280, "height_px": 1280, "count_range": [14, 20],
        "strata": [
            {"y_band": [0.05, 0.45], "size_range": [0.012, 0.03], "density": 0.65},
            {"y_band": [0.55, 0.95], "size_range": [0.06, 0.12], "density": 0.35},
        ], "seed": 0}))
    cfg = {
        "seed": 11, "out_dir": str(tmp_path / "out"),
        "scene_spec": str(spec_path),
        "n": 1, "e": 4, "t_max": 10, "n_pad": 8, "d_max": 2000,
        "bandwidth_mode": "fixed", "bandwidth_value": 0.16,
        "checkpoint": str(tmp_path / "out" / "policy.ckpt"),
        "policy": "trained", "num_scenes": 2,
        "reward": {"alpha": 2.0, "beta": 0.2, "gamma": 1.0, "delta": 0.4,
                   "n_min": 2, "n_max": 4, "d_m": 0.05},
        "train": {"iterations": 0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    first = {name: (out / name).read_bytes()
             for name in ("report.json", "metrics.csv")}
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
    same = all((out / name).read_bytes() == blob for name, blob in first.items())
    report("11", same, "pipeline run twice: report.json and metrics.csv "
                       "byte-identical")


def test_12_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1212)
    from sceneplan.ppo import PolicyCheckpoint

    ckpt = PolicyCheckpoint(
        n_pad=8, include_count=True,
        policy=init_mlp(rng, [state_dim(8), 128, 128, n_actions(8)]),
        critic=init_mlp(rng, [state_dim(8), 128, 128, 1]),
        weights=DESK_WEIGHTS, hyper=DESK_HYPER,
        meta={"iterations": 120, "final_mean_return": -10.5})
    path = tmp_path / "p.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    # a file holds the policy alone; the critic serves only training
    bitexact = all(
        (a == b).all() for a, b in zip(
            ckpt.policy.weights + ckpt.policy.biases,
            back.policy.weights + back.policy.biases, strict=True))
    bitexact = bitexact and back.weights == ckpt.weights and \
        back.hyper == ckpt.hyper and back.critic is None

    rejected = 0
    blob = path.read_bytes()
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(blob[:-20])
    try:
        load_checkpoint(trunc)
    except CheckpointError:
        rejected += 1
    corrupt = tmp_path / "corrupt.ckpt"
    broken = bytearray(blob)
    broken[3] ^= 0xFF
    corrupt.write_bytes(bytes(broken))
    try:
        load_checkpoint(corrupt)
    except CheckpointError:
        rejected += 1
    try:
        from sceneplan.ppo import infer_clusters

        infer_clusters(Frame(100, 100, (DetectionBox(0.5, 0.5, 0.1, 0.1),)),
                       back, n_pad=30)
    except CheckpointError:
        rejected += 1
    report("12", bitexact and rejected == 3,
           f"round-trip bit-exact; {rejected}/3 invalid loads rejected")
