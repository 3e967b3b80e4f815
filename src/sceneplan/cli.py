"""Command-line surface: gen-scene, train, partition, plan, pipeline, eval.

gen-scene reads only its scene spec. Every other command reads one JSON
config file (``--config``); its command-line flags override file values,
which override built-in defaults. All outputs are deterministic under a
fixed seed and written atomically (temp + rename).

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage/validation or a
file that cannot be read or written (named in the message), 3 infeasible plan.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .clustering import BandwidthSpec, TransformParams
from .core import (
    Frame, bounding_blocks, check_fields, check_number, read_json, write_csv, write_json)
from .offload import (
    InfeasiblePlanError,
    PartitionDescriptor,
    assign_servers,
    default_profiles,
    dp_plan,
    load_profiles,
    partitions_from_blocks,
    simulate,
)
from .ppo import (
    Hyperparams,
    greedy_policy,
    keep_policy,
    load_checkpoint,
    policy_config,
    random_policy,
    rollout,
    sampler_from_spec,
    save_checkpoint,
    train,
)
from .rl_env import EnvConfig, RewardWeights, reward
from .scene import (
    coarse_detect,
    generate_scene,
    load_detections,
    save_detections,
    scene_spec_from_dict,
    load_scene_spec,
)

# policy modes besides "trained" (a checkpoint's), in eval.csv's row order
BASELINES = {"random": random_policy, "keep": keep_policy}
POLICY_MODES = ("trained", *sorted(BASELINES))

# keys filling a dataclass field read its default; coarse keys mirror coarse_detect
DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "scene_spec": None,
    "detections": None,
    "profile": None,
    "checkpoint": None,
    "n": 1,
    "e": 4,
    "t_max": Hyperparams.t_max,
    "n_pad": EnvConfig.n_pad,
    "d_max": 2000,
    "transform_alpha": TransformParams.alpha,
    "bandwidth_mode": BandwidthSpec.mode,
    "bandwidth_value": BandwidthSpec.value,
    "nms_iou": 0.5,
    "block_margin": 0.0,
    "min_visible": 0.25,
    "drop_prob": 0.0,
    "jitter_sigma": 0.0,
    "num_scenes": 1,
    "episodes": 100,
    "policy": "trained",
    "reward": asdict(RewardWeights()),
    "train": {f.name: f.default for f in fields(Hyperparams)
              if f.name not in ("seed", "t_max", "hidden")},
}


def _check_value(key: str, default, value) -> None:
    """Raise ValueError naming ``key`` unless ``value`` has the type of its
    default: a non-bool int for integer keys, a finite non-bool real for
    float keys, a string for string keys. Keys defaulting to None are
    paths, so they take None or a string; ``scene_spec`` may also be an
    inline spec object."""
    if isinstance(default, (int, float)):
        check_number(value, f"config key {key!r}", isinstance(default, int))
        return
    if default is None:
        inline = key == "scene_spec"
        ok = value is None or isinstance(value, str) or (inline and isinstance(value, dict))
        want = "a path" + (" or a scene spec object" if inline else "")
    else:
        ok = isinstance(value, str)
        want = "a string"
    if not ok:
        raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


def load_config(path) -> dict:
    """DEFAULTS overlaid with the JSON file at ``path`` (when given); every
    key of the file, and of its ``reward`` and ``train`` blocks, must be
    known and typed like its default."""
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path is not None:
        user = read_json(path)
        if not isinstance(user, dict):
            raise ValueError(f"{path}: config file must hold a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(cfg[key], dict):
                if not isinstance(value, dict):
                    raise ValueError(f"config key {key!r} must be an object")
                for sub, v in value.items():
                    if sub not in cfg[key]:
                        raise ValueError(f"unknown config key {key + '.' + sub!r}")
                    _check_value(f"{key}.{sub}", cfg[key][sub], v)
                cfg[key].update(value)
            else:
                _check_value(key, cfg[key], value)
                cfg[key] = value
    return cfg


def _config(args: argparse.Namespace) -> dict:
    """Flags over file values over defaults, each typed and ranged by key:
    here if no type takes the key, else by the type it fills, built here once;
    the field a type's error starts with gives the key: ``reward.<field>``,
    ``train.<field>`` (but top-level ``t_max``, ``seed``) or ``EnvConfig``'s."""
    cfg = load_config(args.config)
    for key, value in vars(args).items():
        if value is not None and (key in cfg or key == "iterations"):
            block = cfg["train"] if key == "iterations" else cfg
            _check_value(key, block[key], value)
            block[key] = value
    for build, prefix, keys in (
            (lambda: check_fields(cfg, [
                ("seed", cfg["seed"] >= 0, ">= 0"),
                *((k, cfg[k] >= 1, ">= 1") for k in ("n", "e", "num_scenes", "episodes")),
                ("nms_iou", 0.0 < cfg["nms_iou"] < 1.0, "in (0, 1)"),
                ("block_margin", cfg["block_margin"] >= 0.0, ">= 0"),
                ("d_max", cfg["d_max"] >= 0, ">= 0"),
                ("policy", cfg["policy"] in POLICY_MODES,
                 f"{', '.join(map(repr, POLICY_MODES[:-1]))} or {POLICY_MODES[-1]!r}")]), "", {}),
            (lambda: RewardWeights(**cfg["reward"]), "reward.", {}),
            (lambda: _hyper(cfg), "train.", {"t_max": "t_max", "seed": "seed"}),
            (lambda: _env_config(cfg), "", {"alpha": "transform_alpha", "mode": "bandwidth_mode",
                                            "value": "bandwidth_value"})):
        try:
            build()
        except ValueError as e:  # "<field> must be <want>, got <value>"
            field, _, want = str(e).partition(" must be ")
            key = keys.get(field, prefix + field)
            raise ValueError(f"config key {key!r} must be {want}") from None
    return cfg


def _hyper(cfg: dict) -> Hyperparams:
    return Hyperparams(seed=cfg["seed"], t_max=cfg["t_max"], **cfg["train"])


def _env_config(cfg: dict) -> EnvConfig:
    return EnvConfig(
        weights=RewardWeights(**cfg["reward"]),
        transform=TransformParams(cfg["transform_alpha"]),
        bandwidth=BandwidthSpec(cfg["bandwidth_mode"], cfg["bandwidth_value"]),
        n_pad=cfg["n_pad"])


def _scene_spec(cfg: dict):
    raw = cfg["scene_spec"]
    if raw is None:
        raise ValueError("no scene spec configured (scene_spec)")
    if isinstance(raw, str):
        return load_scene_spec(raw)
    return scene_spec_from_dict(raw)


def _profiles(cfg: dict):
    if cfg["profile"] is None:
        return default_profiles()
    return load_profiles(cfg["profile"])


# ---------------------------------------------------------------------------
# pipeline pieces shared by partition / pipeline / eval
# ---------------------------------------------------------------------------

def _policy(cfg: dict, mode: str):
    """(choose, env_config) for a policy mode. A trained policy's checkpoint
    is loaded here, once for all the command's frames, and the environment
    fitted to it (``policy_config``)."""
    if mode in BASELINES:
        return BASELINES[mode], _env_config(cfg)
    if cfg["checkpoint"] is None:
        raise ValueError("trained policy requested but no checkpoint configured")
    ckpt = load_checkpoint(cfg["checkpoint"])
    return greedy_policy(ckpt), policy_config(_env_config(cfg), ckpt)


def _partition_frame(frame: Frame, cfg: dict, scene_seed: int, policy):
    """Coarse-detect and refine one frame's clusters with a ``_policy``
    pair; returns the clusters report, the partitions, and the scores
    (R1, R2, R3, R4, R_total) of the episode's answer (``Episodes.answers``)."""
    if len(frame.detections) == 0:
        raise ValueError("empty scene")
    coarse = coarse_detect(
        frame, cfg["n"], cfg["e"],
        iou_threshold=cfg["nms_iou"], min_visible=cfg["min_visible"],
        drop_prob=cfg["drop_prob"], jitter_sigma=cfg["jitter_sigma"],
        seed=scene_seed,
    )
    if len(coarse.detections) == 0:
        raise ValueError("empty scene after coarse detection")
    choose, env_config = policy
    episodes = rollout([coarse], env_config, cfg["t_max"], choose,
                       np.random.default_rng(scene_seed + 1))
    trace, scores = episodes.traces[0], episodes.scores()[0].tolist()
    (step,), (final,) = episodes.answer_steps(), episodes.answers()
    blocks = bounding_blocks(final, cfg["block_margin"], coarse)
    parts = partitions_from_blocks(final, coarse, blocks)
    means = episodes.geometries[0].means
    clusters = [{
        "id": part.id,
        "members": list(cluster),
        "size": len(cluster),
        "centroid": list(means(cluster)[:2]),
        "mean_wh": list(means(cluster)[2:]),
        "block_px": list(block),
        "member_areas_px2": list(part.areas_px2),
    } for part, cluster, block in zip(parts, final.clusters, blocks)]
    report = {
        "scene_seed": scene_seed,
        "width_px": coarse.width_px,
        "height_px": coarse.height_px,
        "coarse_detections": len(coarse.detections),
        "t_max": cfg["t_max"],
        "n_final": final.count,
        "trace": [
            {"step": t + 1, "action": action, "applied": out.applied, "valid": out.valid,
             "n": out.config.count, "reward": score[4], "components": score[:4]}
            for t, (out, action, score) in enumerate(
                zip(trace, episodes.actions[0].tolist(), scores))
        ],
        "clusters": clusters,
    }
    return report, parts, scores[step]


def load_clusters(path) -> tuple[dict, list[PartitionDescriptor]]:
    """Re-read a clusters report and rebuild its partition descriptors; a
    cluster's id and its four block corners must be 64-bit integers and its
    areas numbers, or the error names ``<path>: clusters[k].<field>``."""
    report = read_json(path)
    parts = []
    try:
        for k, c in enumerate(report["clusters"]):
            where = f"clusters[{k}]."
            block = [check_number(v, where + "block_px", True) for v in c["block_px"]]
            check_fields({where + "block_px": block}, [
                (where + "block_px", len(block) == 4, "four corners")])
            x0, y0, x1, y1 = block
            # PartitionDescriptor checks a float area's range, naming the partition
            areas = tuple(a if isinstance(a, float) else
                          float(check_number(a, where + "member_areas_px2"))
                          for a in c["member_areas_px2"])
            parts.append(PartitionDescriptor(
                check_number(c["id"], where + "id", True), x1 - x0, y1 - y0, areas))
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: malformed clusters report ({e})") from None
    except ValueError as e:  # a value of the wrong type or range
        raise ValueError(f"{path}: {e}") from None
    if not parts:
        raise ValueError(f"{path}: clusters report holds no cluster")
    if len({part.id for part in parts}) < len(parts):
        raise ValueError(f"{path}: clusters report repeats a cluster id")
    return report, parts


def _plan_payload(parts, profiles, d_max: int, e: int) -> dict:
    plan = dp_plan(parts, profiles, d_max)
    schedule = assign_servers(plan, e)
    metrics = simulate(schedule)
    return {
        "assignments": {str(pid): model for pid, model, _, _ in plan.assignments},
        "total_precision": plan.total_precision,
        "total_latency_ms": plan.total_latency_ms,
        "opt_t_ms": plan.opt_t,
        "makespan_ms": metrics.makespan_ms,
        "servers": [
            {
                "server": lane_id,
                "busy_ms": metrics.busy_ms[lane_id],
                "utilization": metrics.utilization[lane_id],
                "tasks": [
                    {"partition": t.partition_id, "model": t.model,
                     "latency_ms": t.latency_ms, "start_ms": t.start_ms,
                     "end_ms": t.end_ms}
                    for t in lane
                ],
            }
            for lane_id, lane in enumerate(schedule.lanes)
        ],
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_scene(args) -> None:
    spec = load_scene_spec(args.spec)
    if args.seed is not None:
        spec = spec.with_seed(check_number(args.seed, "seed", True))
    frame = generate_scene(spec)
    save_detections(frame, args.out)
    print(f"wrote {len(frame.detections)} detections to {args.out}")


def cmd_train(args) -> None:
    cfg = _config(args)
    spec = _scene_spec(cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "policy.ckpt")
    log_path = os.path.join(out_dir, "training_log.csv")
    ckpt = train(sampler_from_spec(spec), _env_config(cfg), _hyper(cfg), log_path=log_path)
    save_checkpoint(ckpt, ckpt_path)
    print(f"wrote {ckpt_path} (final mean return "
          f"{ckpt.meta.get('final_mean_return')})")


def cmd_partition(args) -> None:
    cfg = _config(args)
    if cfg["detections"] is None:
        raise ValueError("no detections file configured")
    frame = load_detections(cfg["detections"])
    report, _, _ = _partition_frame(frame, cfg, cfg["seed"], _policy(cfg, cfg["policy"]))
    out = args.out or os.path.join(cfg["out_dir"], "clusters.json")
    write_json(out, report)
    print(f"wrote {out} ({report['n_final']} clusters)")


def cmd_plan(args) -> None:
    cfg = _config(args)
    _, parts = load_clusters(args.clusters)
    payload = _plan_payload(parts, _profiles(cfg), cfg["d_max"], cfg["e"])
    out = args.out or os.path.join(cfg["out_dir"], "plan.json")
    write_json(out, payload)
    print(f"wrote {out} (precision {payload['total_precision']:.4f}, "
          f"latency {payload['total_latency_ms']} ms)")


def cmd_pipeline(args) -> None:
    cfg = _config(args)
    out_dir = cfg["out_dir"]
    profiles = _profiles(cfg)
    if cfg["detections"] is not None:
        frames = [(cfg["seed"], load_detections(cfg["detections"]))]
    else:
        spec = _scene_spec(cfg)
        frames = ((cfg["seed"] + k, generate_scene(spec.with_seed(cfg["seed"] + k)))
                  for k in range(cfg["num_scenes"]))
    policy = _policy(cfg, cfg["policy"])
    scenes = []
    rows = []
    for scene_seed, frame in frames:
        clusters, parts, score = _partition_frame(frame, cfg, scene_seed, policy)
        plan = _plan_payload(parts, profiles, cfg["d_max"], cfg["e"])
        scenes.append({"scene_seed": scene_seed, "clusters": clusters, "plan": plan})
        rows.append({
            "scene_id": scene_seed,
            "n_final": clusters["n_final"],
            **dict(zip(("r1", "r2", "r3", "r4", "reward"), score)),
            "plan_precision": plan["total_precision"],
            "sum_latency_ms": plan["total_latency_ms"],
            "makespan_ms": plan["makespan_ms"],
        })
    write_json(os.path.join(out_dir, "report.json"), {"scenes": scenes})
    write_csv(os.path.join(out_dir, "metrics.csv"),
              ["scene_id", "n_final", "r1", "r2", "r3", "r4", "reward",
               "plan_precision", "sum_latency_ms", "makespan_ms"], rows)
    print(f"wrote {out_dir}/report.json and {out_dir}/metrics.csv "
          f"({len(rows)} scene(s))")


def cmd_eval(args) -> None:
    cfg = _config(args)
    trained, env_config = _policy(cfg, "trained")  # every row in the checkpoint's environment
    spec = _scene_spec(cfg)
    seeds = range(cfg["seed"] + 10_000, cfg["seed"] + 10_000 + cfg["episodes"])
    policies = [("trained", trained), *BASELINES.items()]
    weights = env_config.weights
    rows = []
    for name, choose in policies:
        for scene_seed in seeds:  # regenerated per policy: one frame alive at a time
            frame = generate_scene(spec.with_seed(scene_seed))
            (final,) = rollout([frame], env_config, cfg["t_max"], choose,
                               np.random.default_rng(scene_seed)).answers()
            rows.append({
                "policy": name,
                "scene_seed": scene_seed,
                "final_reward": reward(final, weights, env_config.transform)[4],
                "final_n": final.count,
                "in_range": int(weights.n_min <= final.count <= weights.n_max),
            })
    out = os.path.join(cfg["out_dir"], "eval.csv")
    write_csv(out, ["policy", "scene_seed", "final_reward", "final_n",
                    "in_range"], rows)
    for name, _ in policies:
        sub = [r for r in rows if r["policy"] == name]
        mean_r = float(np.mean([r["final_reward"] for r in sub]))
        mean_n = float(np.mean([r["final_n"] for r in sub]))
        frac = float(np.mean([r["in_range"] for r in sub]))
        print(f"{name:8s} mean_final_reward={mean_r:.4f} "
              f"mean_N={mean_n:.2f} in_range={frac:.2f}")
    print(f"wrote {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sceneplan",
        description="RL scene partitioning and latency-budgeted model planning",
    )
    sub = parser.add_subparsers(dest="command")
    # flags that several subcommands take, each with one help text
    shared = {
        "--scene-spec": {"help": "scene spec JSON"},
        "--checkpoint": {"help": "policy checkpoint"},
        "--policy": {"choices": POLICY_MODES, "help": "policy mode"},
        "--d-max": {"type": int, "help": "latency budget (ms)"},
    }

    def common(p, *flags):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out-dir", help="output directory")
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("gen-scene", help="generate a synthetic detection file")
    p.add_argument("--seed", type=int, help="scene seed (default: the spec's)")
    p.add_argument("--spec", required=True, help="scene spec JSON")
    p.add_argument("--out", required=True, help="output detection JSON")
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("train", help="train the refinement policy")
    common(p, "--scene-spec")
    p.add_argument("--iterations", type=int, help="training iterations")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("partition", help="cluster one detection file")
    common(p, "--checkpoint", "--policy")
    p.add_argument("--detections", help="detection file (JSON or CSV)")
    p.add_argument("--t-max", type=int, help="refinement steps")
    p.add_argument("--out", help="clusters JSON path")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("plan", help="assign models to a clusters report")
    common(p, "--d-max")
    p.add_argument("--clusters", required=True, help="clusters JSON")
    p.add_argument("--profile", help="model profile JSON (default: bundled)")
    p.add_argument("--e", type=int, help="edge server count")
    p.add_argument("--out", help="plan JSON path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("pipeline", help="generate/load, partition, plan, simulate")
    common(p, "--scene-spec", "--checkpoint", "--policy", "--d-max")
    p.add_argument("--detections", help="detection file instead of generation")
    p.add_argument("--num-scenes", type=int, help="scenes to generate")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval", help="trained vs random vs keep-only baselines")
    common(p, "--scene-spec", "--checkpoint")
    p.add_argument("--episodes", type=int, help="held-out episodes per policy")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        args.func(args)
        return 0
    except InfeasiblePlanError as e:
        print(json.dumps({"error": "infeasible", "reason": str(e)}),
              file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:  # CheckpointError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FloatingPointError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # fall-through runtime failures
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
