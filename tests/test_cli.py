import argparse
import csv
import json
import math
import os
import pathlib
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sceneplan.cli import DEFAULTS, _config, build_parser, load_clusters, main
from sceneplan.clustering import BandwidthSpec, ClusterGeometry, TransformParams, initial_clusters
from sceneplan.ppo import Hyperparams
from sceneplan.rl_env import EnvConfig, RewardWeights
from sceneplan.scene import load_detections

SPEC = {
    "width_px": 1280,
    "height_px": 1280,
    "count_range": [14, 20],
    "strata": [
        {"y_band": [0.05, 0.45], "size_range": [0.012, 0.03], "density": 0.65},
        {"y_band": [0.55, 0.95], "size_range": [0.06, 0.12], "density": 0.35},
    ],
    "seed": 0,
}


def base_config(tmp_path, **overrides):
    cfg = {
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "scene_spec": SPEC,
        "n": 1,
        "e": 4,
        "t_max": 4,
        "n_pad": 6,
        "d_max": 2000,
        "bandwidth_mode": "fixed",
        "bandwidth_value": 0.14,
        "policy": "keep",
        "reward": {"alpha": 10.0, "beta": 1.0, "gamma": 5.0, "delta": 2.0,
                   "n_min": 2, "n_max": 4, "d_m": 0.05},
        "train": {"iterations": 0, "episodes_per_iter": 2, "batch_size": 8},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


# ---------------------------------------------------------------------------
# gen-scene
# ---------------------------------------------------------------------------

def test_gen_scene_happy_path(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out = tmp_path / "dets.json"
    assert main(["gen-scene", "--spec", str(spec), "--out", str(out)]) == 0
    frame = load_detections(out)
    assert 14 <= len(frame.detections) <= 20


def test_gen_scene_deterministic(tmp_path):
    spec = write_spec(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen-scene", "--spec", str(spec), "--out", str(a), "--seed", "9"]) == 0
    assert main(["gen-scene", "--spec", str(spec), "--out", str(b), "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["gen-scene", "--spec", str(spec), "--out", str(b), "--seed", "10"]) == 0
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("flag", ["--config", "--out-dir"])
def test_gen_scene_reads_no_config(tmp_path, flag):
    spec = write_spec(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["gen-scene", "--spec", str(spec), "--out", str(tmp_path / "d.json"),
              flag, str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("where", ["flag", "spec"])
def test_gen_scene_negative_seed_names_it(tmp_path, capsys, where):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "seed": -1} if where == "spec" else SPEC))
    flag = ["--seed", "-1"] if where == "flag" else []
    assert main(["gen-scene", "--spec", str(spec), *flag, "--out", str(tmp_path / "d.json")]) == 2
    assert "seed" in capsys.readouterr().err


def test_gen_scene_output_under_regular_file_exits_2_naming_it(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("a regular file\n")
    assert main(["gen-scene", "--spec", str(write_spec(tmp_path)),
                 "--out", str(plain / "dets.json")]) == 2
    assert str(plain) in capsys.readouterr().err


def test_gen_scene_missing_spec(tmp_path, capsys):
    out = tmp_path / "dets.json"
    code = main(["gen-scene", "--spec", str(tmp_path / "nope.json"),
                 "--out", str(out)])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_zero_iterations_writes_checkpoint(tmp_path):
    cfg_path, cfg = base_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "policy.ckpt").exists()
    log = (out / "training_log.csv").read_text().strip().splitlines()
    assert len(log) == 1  # header only for 0 iterations


def test_train_log_rows_and_determinism(tmp_path):
    cfg_path, _ = base_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--iterations", "2"]) == 0
    log1 = (tmp_path / "out" / "training_log.csv").read_bytes()
    assert len(log1.decode().strip().splitlines()) == 3
    assert main(["train", "--config", str(cfg_path), "--iterations", "2"]) == 0
    log2 = (tmp_path / "out" / "training_log.csv").read_bytes()
    assert log1 == log2


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def make_detections(tmp_path, name="dets.json"):
    spec = write_spec(tmp_path)
    out = tmp_path / name
    assert main(["gen-scene", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def test_partition_empty_scene(tmp_path, capsys):
    dets = tmp_path / "empty.json"
    dets.write_text(json.dumps({"width_px": 100, "height_px": 100,
                                "detections": []}))
    cfg_path, _ = base_config(tmp_path, detections=str(dets))
    code = main(["partition", "--config", str(cfg_path)])
    assert code == 2
    assert "empty scene" in capsys.readouterr().err


def test_partition_keep_policy_equals_meanshift(tmp_path):
    dets = make_detections(tmp_path)
    cfg_path, cfg = base_config(tmp_path, detections=str(dets))
    out = tmp_path / "clusters.json"
    assert main(["partition", "--config", str(cfg_path), "--out", str(out)]) == 0
    report, parts = load_clusters(out)
    assert report["t_max"] == 4
    assert len(report["trace"]) == 4
    assert all(t["applied"] == "keep" for t in report["trace"])

    # rebuild the initial clustering over the same coarse-detected frame
    from sceneplan.scene import coarse_detect

    frame = load_detections(dets)
    coarse = coarse_detect(frame, cfg["n"], cfg["e"], seed=cfg["seed"])
    expected = initial_clusters(ClusterGeometry(coarse.detections, TransformParams(0.5)),
                                BandwidthSpec("fixed", 0.14))
    got_members = sorted(tuple(c["members"]) for c in report["clusters"])
    want_members = sorted(expected.clusters)
    assert got_members == want_members


def test_partition_trained_policy_needs_checkpoint(tmp_path, capsys):
    dets = make_detections(tmp_path)
    cfg_path, _ = base_config(tmp_path, detections=str(dets), policy="trained")
    assert main(["partition", "--config", str(cfg_path)]) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_partition_with_trained_checkpoint(tmp_path):
    cfg_path, _ = base_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    dets = make_detections(tmp_path)
    cfg_path2, _ = base_config(
        tmp_path, detections=str(dets), policy="trained",
        checkpoint=str(tmp_path / "out" / "policy.ckpt"))
    out = tmp_path / "clusters.json"
    assert main(["partition", "--config", str(cfg_path2), "--out", str(out)]) == 0
    report, parts = load_clusters(out)
    assert report["n_final"] >= 1
    assert len(parts) == report["n_final"]


def count_driven_checkpoint(n_pad):
    """A checkpoint whose merge logit is the count feature N / n_pad, so its
    greedy policy merges at every step it can, and keeps otherwise."""
    from sceneplan.ppo import Hyperparams, MlpParams, PolicyCheckpoint
    from sceneplan.rl_env import MERGE, RewardWeights, n_actions, state_dim

    dim, acts = state_dim(n_pad), n_actions(n_pad)
    w1, w2 = np.zeros((dim, 1)), np.zeros((1, acts))
    w1[-1, 0] = 1.0      # the count feature N / n_pad
    w2[0, MERGE] = 1.0   # drives only the merge logit
    return PolicyCheckpoint(
        n_pad=n_pad, include_count=True,
        policy=MlpParams([w1, w2], [np.zeros(1), np.zeros(acts)]),
        critic=MlpParams([np.zeros((dim, 1))], [np.zeros(1)]),
        weights=RewardWeights(alpha=10.0, beta=1.0, gamma=5.0, delta=2.0,
                              n_min=2, n_max=4, d_m=0.05),
        hyper=Hyperparams(t_max=4, hidden=(1,)))


def test_partition_fits_its_environment_to_checkpoint_n_pad(tmp_path):
    # the CLI must build its environment from the checkpoint's header, as
    # infer_clusters does: in the config's n_pad of 9 this 6-slot policy
    # could not read a state
    from sceneplan.ppo import infer_clusters, save_checkpoint
    from sceneplan.scene import coarse_detect

    ckpt = count_driven_checkpoint(n_pad=6)
    ckpt_path = tmp_path / "policy.ckpt"
    save_checkpoint(ckpt, ckpt_path)
    dets = make_detections(tmp_path)
    cfg_path, cfg = base_config(tmp_path, detections=str(dets), policy="trained", n_pad=9,
                                checkpoint=str(ckpt_path))
    out = tmp_path / "clusters.json"
    assert main(["partition", "--config", str(cfg_path), "--out", str(out)]) == 0
    report, _ = load_clusters(out)

    coarse = coarse_detect(load_detections(dets), cfg["n"], cfg["e"], seed=cfg["seed"])
    want = infer_clusters(coarse, ckpt, TransformParams(0.5),
                          BandwidthSpec("fixed", 0.14), cfg["t_max"])
    merges = [step["applied"] for step in report["trace"]]
    assert merges == ["merge"] * cfg["t_max"]  # the policy read every state
    assert report["n_final"] == want.count
    got = [tuple(c["members"]) for c in report["clusters"]]
    assert got == list(want.clusters)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def make_clusters_report(tmp_path):
    dets = make_detections(tmp_path)
    cfg_path, _ = base_config(tmp_path, detections=str(dets))
    out = tmp_path / "clusters.json"
    assert main(["partition", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


def test_plan_generous_budget(tmp_path):
    from sceneplan.offload import default_profiles

    from oracles import partition_precision_reference

    cfg_path, clusters = make_clusters_report(tmp_path)
    out = tmp_path / "plan.json"
    assert main(["plan", "--config", str(cfg_path), "--clusters", str(clusters),
                 "--d-max", "100000", "--out", str(out)]) == 0
    plan = json.loads(out.read_text())
    # oracle: with an unconstrained budget every block takes its best model
    _, parts = load_clusters(clusters)
    profs = {p.name: p for p in default_profiles()}
    for part in parts:
        best = max(partition_precision_reference(part, p) for p in profs.values())
        chosen = profs[plan["assignments"][str(part.id)]]
        assert partition_precision_reference(part, chosen) == pytest.approx(best)
    assert plan["total_latency_ms"] <= 100000


def test_plan_infeasible_budget(tmp_path, capsys):
    cfg_path, clusters = make_clusters_report(tmp_path)
    code = main(["plan", "--config", str(cfg_path), "--clusters", str(clusters),
                 "--d-max", "5"])
    assert code == 3
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "infeasible"
    assert "short by" in payload["reason"]


@pytest.mark.parametrize("d_max", [2000.5, True, "2000"])
def test_plan_non_integer_budget_names_key(tmp_path, capsys, d_max):
    cfg_path, clusters = make_clusters_report(tmp_path)
    base_config(tmp_path, detections=str(tmp_path / "dets.json"), d_max=d_max)
    code = main(["plan", "--config", str(cfg_path), "--clusters", str(clusters)])
    assert code == 2
    assert "d_max" in capsys.readouterr().err


@pytest.mark.parametrize("area", [float("nan"), float("inf")])
def test_plan_non_finite_area_names_partition(tmp_path, capsys, area):
    cfg_path, clusters = make_clusters_report(tmp_path)
    report = json.loads(clusters.read_text())
    bad = report["clusters"][-1]
    bad["member_areas_px2"][0] = area
    clusters.write_text(json.dumps(report))
    code = main(["plan", "--config", str(cfg_path), "--clusters", str(clusters)])
    assert code == 2
    assert f"partition {bad['id']}: areas must be positive and finite" in \
        capsys.readouterr().err


def test_plan_underflowing_area_names_partition_and_model(tmp_path, capsys):
    # 5e-324 px² scales to 0 in a 4000 x 4000 block under every bundled model
    clusters = tmp_path / "r.json"
    clusters.write_text(json.dumps({"clusters": [{"id": 7, "block_px": [0, 0, 4000, 4000],
                                                  "member_areas_px2": [400.0, 5e-324]}]}))
    code = main(["plan", "--clusters", str(clusters), "--out", str(tmp_path / "plan.json")])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == \
        "error: partition 7: model yolov8n scales a box area to 0 (area must be positive)"


def test_plan_respects_budget(tmp_path):
    cfg_path, clusters = make_clusters_report(tmp_path)
    _, parts = load_clusters(clusters)
    budget = 88 * len(parts) + 150  # feasible but binding
    out = tmp_path / "plan.json"
    assert main(["plan", "--config", str(cfg_path), "--clusters", str(clusters),
                 "--d-max", str(budget), "--out", str(out)]) == 0
    plan = json.loads(out.read_text())
    assert plan["total_latency_ms"] <= budget
    lanes = plan["servers"]
    assert max(l["busy_ms"] for l in lanes) == plan["makespan_ms"]


CLUSTERS = {"clusters": [{"id": 0, "block_px": [0, 0, 100, 100],
                          "member_areas_px2": [400.0]}]}
MODEL = {"name": "m", "input_size": 320, "latency_ms": 10, "curve": [[16, 0.1], [64, 0.3]]}


@pytest.mark.parametrize("command, flag, content", [
    ("plan", "--clusters", [CLUSTERS]),
    ("plan", "--clusters", {"clusters": 5}),
    ("plan", "--clusters", {"clusters": [{"id": 0}]}),
    ("plan", "--profile", [MODEL]),
    ("plan", "--profile", {"models": [{k: v for k, v in MODEL.items() if k != "curve"}]}),
    ("plan", "--clusters", {"clusters": [{**CLUSTERS["clusters"][0],
                                          "block_px": [0, 0, float("inf"), 100]}]}),
    ("plan", "--profile", {"models": [{**MODEL, "input_size": float("inf")}]}),
    ("plan", "--profile", {"models": [{**MODEL, "input_size": 10 ** 160}]}),
    ("partition", "--detections", {"width_px": 100, "height_px": 100, "detections": 7}),
    ("partition", "--detections", {"width_px": "wide", "height_px": 100, "detections": []}),
    ("partition", "--detections", {"width_px": float("inf"), "height_px": 100,
                                   "detections": []}),
    ("plan", "--clusters", {"clusters": CLUSTERS["clusters"] * 2}),
    ("plan", "--clusters", {"clusters": []}),
    # a misspelt key used to be ignored, and a model that is no object to stop the run
    ("plan", "--profile", {"models": [{**MODEL, "latncy_ms": 9}]}),
    ("plan", "--profile", {"models": [5]}),
], ids=["clusters-list", "clusters-number", "cluster-without-block", "profile-list",
        "model-without-curve", "cluster-infinite-block", "model-infinite-size",
        "model-size-past-int64", "detections-number", "detections-text-width",
        "detections-infinite-width", "clusters-repeated-id", "clusters-empty",
        "model-unknown-key", "model-number"])
def test_bad_input_file_exits_2_naming_it(tmp_path, capsys, command, flag, content):
    cfg_path, _ = base_config(tmp_path)
    clusters, bad = tmp_path / "clusters.json", tmp_path / "bad.json"
    clusters.write_text(json.dumps(CLUSTERS))
    bad.write_text(json.dumps(content))
    # a repeated flag keeps its last value, so a bad --clusters replaces the good one
    required = ["--clusters", str(clusters)] if command == "plan" else []
    assert main([command, "--config", str(cfg_path), *required, flag, str(bad),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("field, value", [
    ("id", 1.5), ("id", True), ("id", "3"), ("id", 2 ** 70), ("block_px", [0, 0, 100.9, 100]),
    ("block_px", [0, 0, False, 100]), ("member_areas_px2", ["400"]),
    ("member_areas_px2", [True]), ("block_px", [0, 0, 100]),
], ids=["id-fraction", "id-bool", "id-text", "id-past-int64", "corner-fraction",
        "corner-bool", "area-text", "area-bool", "corner-missing"])
def test_plan_reads_cluster_numbers_strictly(tmp_path, capsys, field, value):
    # nothing is coerced or truncated: the second cluster's bad value is named
    cluster = {"id": 1, "block_px": [0, 0, 100, 100], "member_areas_px2": [400.0], field: value}
    cfg_path, _ = base_config(tmp_path)
    clusters = tmp_path / "clusters.json"
    clusters.write_text(json.dumps({"clusters": [*CLUSTERS["clusters"], cluster]}))
    assert main(["plan", "--config", str(cfg_path), "--clusters", str(clusters),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert f"{clusters}: clusters[1].{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("field, value", [
    ("width_px", 2 ** 70), ("width_px", 0), ("height_px", -5), ("width_px", 3840.7),
    ("width_px", True), ("height_px", "2160"),
])
def test_detections_bad_frame_size_exits_2_naming_file_and_field(tmp_path, capsys, field,
                                                                  value):
    # read like a scene spec's size: a positive 64-bit integer, not a bool or text
    cfg_path, _ = base_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"width_px": 3840, "height_px": 2160, "detections": [],
                               field: value}))
    assert main(["partition", "--config", str(cfg_path), "--detections", str(bad),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert f"{bad}: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_detections_int64_frame_size_loads(tmp_path):
    path = tmp_path / "dets.json"
    path.write_text(json.dumps({"width_px": 2 ** 63 - 1, "height_px": 2 ** 63 - 1,
                                "detections": []}))
    frame = load_detections(path)
    assert frame.width_px == frame.height_px == 2 ** 63 - 1


NOT_JSON, NOT_UTF8 = b"{seed: 1}", b'{"seed": "\xff"}'
NESTED = b"[" * 100_000 + b"]" * 100_000  # deeper than json's recursion allows
CSV_HEADER = b"cx,cy,w,h,score,class_id\n"


@pytest.mark.parametrize("command, flag, name, content", [
    ("pipeline", "--config", "bad.json", NOT_JSON),
    ("pipeline", "--config", "bad.json", NOT_UTF8),
    ("pipeline", "--scene-spec", "bad.json", NOT_JSON),
    ("pipeline", "--scene-spec", "bad.json", NOT_UTF8),
    ("partition", "--detections", "bad.json", NOT_JSON),
    ("partition", "--detections", "bad.json", NOT_UTF8),
    ("partition", "--detections", "bad.csv", CSV_HEADER + b"\xff,0.5,0.1,0.1,0.9,0\n"),
    ("partition", "--detections", "bad.csv", CSV_HEADER + b"1.5,0.5,0.1,0.1,0.9,0\n"),
    ("plan", "--clusters", "bad.json", NOT_JSON),
    ("plan", "--clusters", "bad.json", NOT_UTF8),
    ("plan", "--profile", "bad.json", NOT_JSON),
    ("plan", "--profile", "bad.json", NOT_UTF8),
    ("pipeline", "--checkpoint", "bad.ckpt", b"not a checkpoint file at all"),
    ("partition", "--detections", "plain/bad.json", None),
    ("pipeline", "--config", "bad.json", NESTED),
    ("pipeline", "--scene-spec", "bad.json", NESTED),
], ids=["config-not-json", "config-not-utf8", "spec-not-json", "spec-not-utf8",
        "detections-not-json", "detections-not-utf8", "csv-not-utf8", "csv-bad-row",
        "clusters-not-json", "clusters-not-utf8", "profile-not-json", "profile-not-utf8",
        "checkpoint-corrupt", "path-under-regular-file", "config-nested", "spec-nested"])
def test_unreadable_input_file_exits_2_naming_it(tmp_path, capsys, command, flag, name, content):
    cfg_path, _ = base_config(tmp_path)
    clusters, bad = tmp_path / "clusters.json", tmp_path / name
    clusters.write_text(json.dumps(CLUSTERS))
    (tmp_path / "plain").write_text("a regular file\n")
    if content is not None:
        bad.write_bytes(content)
    required = ["--clusters", str(clusters)] if command == "plan" else []
    policy = ["--policy", "trained"] if flag == "--checkpoint" else []
    assert main([command, "--config", str(cfg_path), *required, *policy, flag, str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides, message", [
    ("pipeline", {"scene_spec": None}, "no scene spec configured (scene_spec)"),
    ("partition", {}, "no detections file configured"),
    # every observation of seed 3's scene dropped
    ("pipeline", {"drop_prob": 0.999999}, "empty scene after coarse detection"),
], ids=["no-scene-spec", "no-detections", "empty-after-coarse-detection"])
def test_missing_input_exits_2_naming_it(tmp_path, capsys, command, overrides, message):
    cfg_path, _ = base_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_deterministic_bytes(tmp_path):
    cfg_path, cfg = base_config(tmp_path, num_scenes=2)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    report1 = (out / "report.json").read_bytes()
    metrics1 = (out / "metrics.csv").read_bytes()
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert (out / "report.json").read_bytes() == report1
    assert (out / "metrics.csv").read_bytes() == metrics1


def test_pipeline_loads_the_checkpoint_once(tmp_path, monkeypatch):
    from sceneplan import cli
    from sceneplan.ppo import save_checkpoint

    ckpt_path = tmp_path / "policy.ckpt"
    save_checkpoint(count_driven_checkpoint(n_pad=6), ckpt_path)
    cfg_path, _ = base_config(tmp_path, checkpoint=str(ckpt_path))
    real, calls = cli.load_checkpoint, []
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: calls.append(path) or real(path))
    assert main(["pipeline", "--config", str(cfg_path), "--policy", "trained",
                 "--num-scenes", "3"]) == 0
    assert calls == [str(ckpt_path)]
    rows = (tmp_path / "out" / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + three scenes, all refined by the one policy


@pytest.mark.parametrize("command, flag, rollouts", [
    ("pipeline", "--num-scenes=6", 6), ("eval", "--episodes=5", 15)])
def test_frames_are_generated_where_they_are_refined(tmp_path, monkeypatch, command, flag,
                                                     rollouts):
    # memory holds one generated frame at a time, not num_scenes or episodes of them
    import weakref

    from sceneplan import cli
    from sceneplan.ppo import save_checkpoint

    ckpt_path = tmp_path / "policy.ckpt"
    save_checkpoint(count_driven_checkpoint(n_pad=6), ckpt_path)
    cfg_path, _ = base_config(tmp_path, checkpoint=str(ckpt_path))
    generate, rollout, frames, alive = cli.generate_scene, cli.rollout, [], []

    def generate_scene(spec):
        frame = generate(spec)
        frames.append(weakref.ref(frame))
        return frame

    def counting_rollout(*args):
        alive.append(sum(ref() is not None for ref in frames))
        return rollout(*args)

    monkeypatch.setattr(cli, "generate_scene", generate_scene)
    monkeypatch.setattr(cli, "rollout", counting_rollout)
    assert main([command, "--config", str(cfg_path), flag]) == 0
    assert len(alive) == rollouts and max(alive) <= 2


def test_pipeline_metrics_rows_and_models(tmp_path):
    from sceneplan.offload import default_profiles

    cfg_path, cfg = base_config(tmp_path, num_scenes=3)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per scene
    report = json.loads((out / "report.json").read_text())
    names = {p.name for p in default_profiles()}
    for scene in report["scenes"]:
        assert set(scene["plan"]["assignments"].values()) <= names
        assert scene["plan"]["total_latency_ms"] <= cfg["d_max"]


def test_pipeline_metrics_reward_equals_final_configuration(tmp_path):
    # r1-r4 and reward are read from the last step's scores, which the
    # episode computes in one pass when the report asks; they must equal
    # rl_env.reward of the final configuration the report lists
    from sceneplan.cli import load_config
    from sceneplan.core import ClusterConfig, make_cluster
    from sceneplan.rl_env import RewardWeights, reward
    from sceneplan.scene import coarse_detect, generate_scene, scene_spec_from_dict

    cfg_path, _ = base_config(tmp_path, num_scenes=3, policy="random", t_max=12)
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    cfg = load_config(cfg_path)
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    spec = scene_spec_from_dict(cfg["scene_spec"])
    applied = set()
    for scene, line in zip(report["scenes"], rows[1:]):
        row = dict(zip(header, line.split(",")))
        seed = scene["scene_seed"]
        coarse = coarse_detect(
            generate_scene(spec.with_seed(seed)), cfg["n"], cfg["e"],
            iou_threshold=cfg["nms_iou"], min_visible=cfg["min_visible"],
            drop_prob=cfg["drop_prob"], jitter_sigma=cfg["jitter_sigma"], seed=seed)
        final = ClusterConfig(tuple(make_cluster(c["members"], coarse.detections)
                                    for c in scene["clusters"]["clusters"]),
                              coarse.detections)
        want = reward(final, RewardWeights(**cfg["reward"]),
                      TransformParams(cfg["transform_alpha"]))
        got = tuple(float(row[k]) for k in ("r1", "r2", "r3", "r4", "reward"))
        assert got == want
        applied |= {step["applied"] for step in scene["clusters"]["trace"]}
    assert applied >= {"merge", "split"}


@pytest.mark.parametrize("key, value", [("min_visible", 1.5), ("drop_prob", 1.5),
                                        ("jitter_sigma", -0.1), ("nms_iou", 1.5),
                                        ("block_margin", -1.0), ("transform_alpha", 1.5),
                                        ("d_max", -5), ("bandwidth_value", 0.0),
                                        ("reward.n_min", 0), ("seed", -1), ("n_pad", -3),
                                        ("n", 0), ("e", 0)])
def test_pipeline_out_of_range_coarse_input_names_key(tmp_path, capsys, key, value):
    block, _, sub = key.rpartition(".")
    overrides = {key: value}
    if block:  # a key of the reward block: the base config's block with one value changed
        overrides = {block: {**base_config(tmp_path)[1][block], sub: value}}
    cfg_path, _ = base_config(tmp_path, **overrides)
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("reward.alpha", -1.0), ("reward.beta", -0.5), ("reward.gamma", -1), ("reward.delta", -1e-9),
    ("reward.d_m", 0), ("reward.d_m", -0.05), ("train.gamma", 1.5), ("train.gamma", 0.0),
    ("train.gamma", 1), ("train.clip_eps", 0.0), ("train.lr_policy", 0), ("train.lr_critic", -1e-3),
    ("train.batch_size", 0), ("train.episodes_per_iter", -2), ("train.epochs", 0),
    ("train.iterations", -1), ("train.entropy_coef", -1.0)])
def test_train_out_of_range_reward_or_train_value_names_key(tmp_path, capsys, key, value):
    block, _, sub = key.partition(".")
    cfg_path, _ = base_config(tmp_path, **{block: {**base_config(tmp_path)[1][block], sub: value}})
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert f"config key {key!r} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NAN = float("nan")
# every range-checked field of the types the CLI builds, with values out of
# its range; NaN is out of every float field's range
OUT_OF_RANGE = {
    RewardWeights: {"alpha": [-1.0, NAN], "beta": [-0.5, NAN], "gamma": [-1, NAN],
                    "delta": [-1e-9, NAN], "n_min": [0], "n_max": [9], "d_m": [0.0, NAN]},
    Hyperparams: {"gamma": [0.0, 1.0, NAN], "clip_eps": [0.0, NAN], "lr_policy": [0, NAN],
                  "lr_critic": [-1e-3, NAN], "batch_size": [0], "t_max": [0],
                  "iterations": [-1], "episodes_per_iter": [-2], "epochs": [0],
                  "entropy_coef": [-1.0, NAN]},
    TransformParams: {"alpha": [0.0, 1.0, NAN]},
    BandwidthSpec: {"mode": ["x"], "value": [0.0, 1.0, NAN, True, "0.2"]},
    EnvConfig: {"n_pad": [0, -1, NAN]},
}


@pytest.mark.parametrize("kind, field, value", [
    pytest.param(kind, field, value, id=f"{kind.__name__}.{field}={value!r}")
    for kind, ranges in OUT_OF_RANGE.items() for field, values in ranges.items()
    for value in values])
def test_out_of_range_field_error_starts_with_the_field(kind, field, value):
    # _config names a key by the field each message starts with
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        kind(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.14"])
def test_pipeline_bad_bandwidth_names_it(tmp_path, capsys, value):
    cfg_path, _ = base_config(tmp_path, bandwidth_value=value)
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "bandwidth" in capsys.readouterr().err


def test_pipeline_reward_that_overflows_exits_2_naming_the_weight(tmp_path, capsys):
    # a finite but huge weight: gamma * R3 overflows once N leaves [2, 4]
    spec = {**SPEC, "width_px": 3840, "height_px": 2160, "count_range": [20, 40]}
    cfg_path, cfg = base_config(tmp_path, seed=5, d_max=100000, policy="random",
                                scene_spec=spec)
    cfg_path.write_text(json.dumps({**cfg, "reward": {**cfg["reward"], "gamma": 1e308}}))
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert "reward.gamma" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command, key, value, named", [
    # past ppo.T_MAX_LIMIT, t_max is refused by its range before any allocation
    ("pipeline", "t_max", 2 ** 40, "'t_max' must be <= 10000, got 1099511627776"),
    ("pipeline", "t_max", 2 ** 62, "'t_max' must be <= 10000, got 4611686018427387904"),
    ("pipeline", "n_pad", 2 ** 40, "n_pad=1099511627776"),
    ("pipeline", "scene_spec", {**SPEC, "count_range": [2 ** 40, 2 ** 40]}, "count_range"),
    ("gen-scene", "scene_spec", {**SPEC, "count_range": [2 ** 40, 2 ** 40]}, "count_range"),
    ("plan", "e", 10 ** 15, "e=1000000000000000"),
    ("train", "n_pad", 2 ** 40, "n_pad=1099511627776"),
    ("train", "train", {"episodes_per_iter": 2 ** 40}, "episodes_per_iter=1099511627776"),
], ids=["t_max-2**40", "t_max-2**62", "n_pad-2**40", "count-pipeline", "count-gen-scene",
        "e-10**15", "train-n_pad-2**40", "train-episodes-2**40"])
def test_size_that_cannot_be_allocated_exits_2_naming_it(tmp_path, capsys, command, key,
                                                         value, named):
    # each asks for 48 TiB or more, so the allocation fails at once; a size
    # like 10**7 steps might be allocated lazily and then stepped
    cfg_path, cfg = base_config(tmp_path, **{key: value})
    spec, clusters = tmp_path / "spec.json", tmp_path / "clusters.json"
    spec.write_text(json.dumps(cfg["scene_spec"]))
    clusters.write_text(json.dumps(CLUSTERS))
    required = ["--clusters", str(clusters)] if command == "plan" else []
    argv = (["gen-scene", "--spec", str(spec), "--out", str(tmp_path / "dets.json")]
            if command == "gen-scene" else [command, "--config", str(cfg_path), *required])
    assert main(argv) == 2
    assert named in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_baselines(tmp_path):
    cfg_path, cfg = base_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = str(tmp_path / "out" / "policy.ckpt")
    cfg_path2, cfg2 = base_config(tmp_path, checkpoint=ckpt, episodes=5)
    assert main(["eval", "--config", str(cfg_path2)]) == 0
    rows = (tmp_path / "out" / "eval.csv").read_text().strip().splitlines()
    assert rows[0] == "policy,scene_seed,final_reward,final_n,in_range"
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == 15  # 3 policies x 5 episodes
    by_policy = {}
    for r in body:
        by_policy.setdefault(r[0], []).append(r)
    # identical scene seeds across policies
    seeds = {p: [r[1] for r in rs] for p, rs in by_policy.items()}
    assert seeds["trained"] == seeds["random"] == seeds["keep"]

    # keep rows reproduce the initial clustering statistics
    from sceneplan.cli import load_config
    from sceneplan.scene import generate_scene, scene_spec_from_dict

    spec = scene_spec_from_dict(cfg2["scene_spec"])
    for row in by_policy["keep"]:
        seed = int(row[1])
        frame = generate_scene(spec.with_seed(seed))
        init = initial_clusters(ClusterGeometry(frame.detections, TransformParams(0.5)),
                                BandwidthSpec("fixed", 0.14))
        assert int(row[3]) == init.count


def test_eval_runs_every_policy_in_the_checkpoints_environment(tmp_path):
    # the config's n_pad, weights and band are not the checkpoint's (6, alpha 10, [2, 4])
    from sceneplan.ppo import keep_policy, policy_config, random_policy, rollout, save_checkpoint
    from sceneplan.rl_env import reward
    from sceneplan.scene import generate_scene, scene_spec_from_dict

    ckpt = count_driven_checkpoint(n_pad=6)
    ckpt_path = tmp_path / "policy.ckpt"
    save_checkpoint(ckpt, ckpt_path)
    cfg_path, cfg = base_config(tmp_path, n_pad=9, checkpoint=str(ckpt_path), episodes=4,
                                reward={"alpha": 3.0, "beta": 1.0, "gamma": 5.0, "delta": 2.0,
                                        "n_min": 8, "n_max": 12, "d_m": 0.05})
    assert main(["eval", "--config", str(cfg_path)]) == 0
    rows = [r.split(",") for r in
            (tmp_path / "out" / "eval.csv").read_text().strip().splitlines()[1:]]
    transform = TransformParams(0.5)
    env_config = policy_config(EnvConfig(transform=transform,
                                         bandwidth=BandwidthSpec("fixed", 0.14)), ckpt)
    spec = scene_spec_from_dict(cfg["scene_spec"])
    for name, seed, final_reward, final_n, in_range in rows:
        assert int(in_range) == (2 <= int(final_n) <= 4)
        if name == "trained":
            continue
        frame = generate_scene(spec.with_seed(int(seed)))
        choose = keep_policy if name == "keep" else random_policy
        final = rollout([frame], env_config, cfg["t_max"], choose,
                        np.random.default_rng(int(seed))).traces[0][-1].config
        assert final.count == int(final_n)
        assert float(final_reward) == reward(final, ckpt.weights, transform)[4]
    # the config's band would have judged these rows otherwise
    assert any(8 <= int(final_n) <= 12 for _, _, _, final_n, _ in rows)


def csv_rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_every_result_is_the_step_that_episodes_answers_with(tmp_path, monkeypatch):
    # with the rule on Episodes patched to step 0, partition, pipeline, eval,
    # infer_clusters and training's log all report the first step's configuration
    from sceneplan import cli, ppo
    from sceneplan.rl_env import reward
    from sceneplan.scene import generate_scene, scene_spec_from_dict

    # raising=False: a tree without the rule fails on what its readers report
    monkeypatch.setattr(ppo.Episodes, "answer_steps", lambda self: [0] * len(self.traces),
                        raising=False)
    rollout, rolled = ppo.rollout, []

    def recording(*args):
        rolled.append(rollout(*args))
        return rolled[-1]

    monkeypatch.setattr(cli, "rollout", recording)
    monkeypatch.setattr(ppo, "rollout", recording)

    def first_config(episodes):
        trace = episodes.traces[0]
        assert trace[0].config != trace[-1].config  # the rule decides what is reported
        return trace[0].config

    # a greedy policy that merges at every step it can
    ckpt = count_driven_checkpoint(n_pad=6)
    ckpt_path = tmp_path / "policy.ckpt"
    ppo.save_checkpoint(ckpt, ckpt_path)
    dets = make_detections(tmp_path)
    cfg_path, cfg = base_config(tmp_path, detections=str(dets), policy="random", t_max=8,
                                checkpoint=str(ckpt_path), episodes=2)

    out = tmp_path / "clusters.json"
    assert main(["partition", "--config", str(cfg_path), "--out", str(out)]) == 0
    first = first_config(rolled.pop())
    report, _ = load_clusters(out)
    assert report["n_final"] == first.count
    assert [c["members"] for c in report["clusters"]] == [list(c) for c in first.clusters]

    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    (row,) = csv_rows(tmp_path / "out" / "metrics.csv")
    first = first_config(rolled[0])
    assert int(row["n_final"]) == first.count
    assert [float(row[k]) for k in ("r1", "r2", "r3", "r4", "reward")] == \
        rolled.pop().scores()[0][0].tolist()

    assert main(["eval", "--config", str(cfg_path)]) == 0
    rows = csv_rows(tmp_path / "out" / "eval.csv")
    assert [r["policy"] for r in rows] == ["trained"] * 2 + ["random"] * 2 + ["keep"] * 2
    for row, episodes in zip(rows[:4], rolled):  # a keep episode never changes
        first = first_config(episodes)
        assert int(row["final_n"]) == first.count
        assert float(row["final_reward"]) == reward(first, ckpt.weights, TransformParams(0.5))[4]
    rolled.clear()

    spec = scene_spec_from_dict(cfg["scene_spec"])
    frame = generate_scene(spec.with_seed(cfg["seed"]))
    final = ppo.infer_clusters(frame, ckpt, TransformParams(0.5), BandwidthSpec("fixed", 0.14), 8)
    assert final == first_config(rolled.pop())

    env_config = ppo.policy_config(EnvConfig(transform=TransformParams(0.5),
                                             bandwidth=BandwidthSpec("fixed", 0.14)), ckpt)
    frames = [generate_scene(spec.with_seed(seed)) for seed in (1, 2)]
    _, episodes, figures = ppo.collect(ckpt.policy, ckpt.critic, frames, env_config,
                                       Hyperparams(t_max=8), np.random.default_rng(0))
    assert figures["mean_N_final"] == np.mean([trace[0].config.count
                                               for trace in episodes.traces])
    assert figures["mean_N_final"] != np.mean([trace[-1].config.count
                                               for trace in episodes.traces])


def test_eval_requires_checkpoint(tmp_path, capsys):
    cfg_path, _ = base_config(tmp_path, episodes=2)
    assert main(["eval", "--config", str(cfg_path)]) == 2
    assert "checkpoint" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# misc surface
# ---------------------------------------------------------------------------

def test_no_subcommand_usage(capsys):
    assert main([]) == 2


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sered": 1}))
    assert main(["pipeline", "--config", str(path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("t_max", "5"), ("n_pad", 2.5), ("e", float("inf")), ("t_max", float("nan")),
    ("seed", "1"), ("num_scenes", "2"), ("min_visible", "0.3"), ("episodes", True),
    ("reward.n_min", 2.0), ("reward.d_m", float("nan")), ("reward.alpha", "10"),
    ("train.iterations", True), ("train.lr_policy", float("inf")),
    ("train.hidden", [64, 64]), ("train.seed", 1), ("reward.nmin", 2),
    ("profile", 5), ("scene_spec", 5), ("checkpoint", ["a"]), ("out_dir", 1),
    ("bandwidth_mode", "x"), ("policy", "x"),
    pytest.param("reward.alpha", 10 ** 400, id="reward.alpha-int_past_float_range"),
    pytest.param("reward.n_min", 10 ** 400, id="reward.n_min-int_past_int64"),
    pytest.param("reward.n_max", 10 ** 400, id="reward.n_max-int_past_int64"),
    pytest.param("seed", 2 ** 63, id="seed-int_past_int64"),
    pytest.param("d_max", 2 ** 63, id="d_max-int_past_int64"),
])
def test_pipeline_mistyped_config_value_names_key(tmp_path, capsys, key, value):
    block, _, sub = key.partition(".")
    if sub:
        _, cfg = base_config(tmp_path)
        overrides = {block: {**cfg[block], sub: value}}
    else:
        overrides = {key: value}
    cfg_path, _ = base_config(tmp_path, **overrides)
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert repr(key) in capsys.readouterr().err


def test_policy_modes_are_listed_in_one_order(tmp_path, capsys):
    # the config's error and every --policy flag list trained, keep, random
    cfg_path, _ = base_config(tmp_path, policy="x")
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == \
        "error: config key 'policy' must be 'trained', 'keep' or 'random', got 'x'\n"
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert {command: list(action.choices) for command, sub in commands.choices.items()
            for action in sub._actions if action.dest == "policy"} == \
        {command: ["trained", "keep", "random"] for command in ("partition", "pipeline")}


def stratum(**fields):
    return [{**SPEC["strata"][0], **fields}, SPEC["strata"][1]]


@pytest.mark.parametrize("field, value, where", [
    ("width_px", 1280.9, "scene_spec.width_px"),
    ("height_px", "1280", "scene_spec.height_px"),
    ("count_range", [14.7, 20.2], "scene_spec.count_range"),
    ("count_range", [14], "scene_spec.count_range"),
    ("seed", True, "scene_spec.seed"),
    ("strata", stratum(y_band=["0.1", 0.9]), "scene_spec.strata[0].y_band"),
    ("strata", stratum(y_band=0.5), "scene_spec.strata[0].y_band"),
    ("strata", stratum(size_range=[0.01, float("inf")]), "scene_spec.strata[0].size_range"),
    ("strata", stratum(density=float("nan")), "scene_spec.strata[0].density"),
    ("strata", stratum(density=False), "scene_spec.strata[0].density"),
    ("strata", stratum(density=-10 ** 400), "scene_spec.strata[0].density"),
    ("strata", stratum(y_band=[0.9, 0.1]), "scene_spec.strata[0]"),
    ("strata", [5], "scene_spec.strata[0]"),
    pytest.param("width_px", 10 ** 400, "scene_spec.width_px", id="width_px-int_past_int64"),
    ("count_range", [10 ** 400, 10 ** 400], "scene_spec.count_range"),
    ("count_range", [40, 20], "scene_spec.count_range"),
    ("width_px", 0, "scene_spec.width_px"),
    ("strata", [], "scene_spec.strata"),
    ("seed", -1, "scene_spec.seed"),
    ("strata", stratum(density=1e308)[:1] * 2, "scene_spec.strata"),
    ("count_rnage", [5, 9], "scene_spec.count_rnage is not a field"),
    ("strata", stratum(densty=5), "scene_spec.strata[0].densty is not a field"),
])
def test_pipeline_bad_scene_spec_field_names_it(tmp_path, capsys, field, value, where):
    cfg_path, _ = base_config(tmp_path, scene_spec={**SPEC, field: value})
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("field, value, where", [
    ("width_px", 0, "scene_spec.width_px must be > 0, got 0"),
    ("strata", stratum(densty=5), "scene_spec.strata[0].densty is not a field"),
], ids=["zero-width", "misspelt-stratum-key"])
@pytest.mark.parametrize("command", ["gen-scene", "pipeline"])
def test_bad_scene_spec_file_field_names_the_file_and_field(tmp_path, capsys, command, field,
                                                             value, where):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, field: value}))
    cfg_path, _ = base_config(tmp_path)
    argv = (["gen-scene", "--spec", str(spec), "--out", str(tmp_path / "dets.json")]
            if command == "gen-scene"
            else ["pipeline", "--config", str(cfg_path), "--scene-spec", str(spec)])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {spec}: {where}\n"


def test_pipeline_refuses_more_tiles_than_pixels(tmp_path, capsys, monkeypatch):
    # 2**42 tiles of a 1280x1280 frame: refused before its grid shape is sought
    from sceneplan import scene

    monkeypatch.setattr(scene, "grid_shape", lambda total: pytest.fail("scanned"))
    cfg_path, _ = base_config(tmp_path, n=1099511627776)
    assert main(["pipeline", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == ("error: n * e must be at most 1638400, the 1280x1280 "
                                       "frame's pixels, got 4398046511104\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t_max", [0, -3])
@pytest.mark.parametrize("command", ["pipeline", "eval"])
def test_nonpositive_t_max_names_it(tmp_path, capsys, command, t_max):
    from sceneplan.ppo import save_checkpoint

    ckpt_path = tmp_path / "policy.ckpt"
    save_checkpoint(count_driven_checkpoint(n_pad=6), ckpt_path)
    cfg_path, _ = base_config(tmp_path, t_max=t_max, episodes=2,
                              checkpoint=str(ckpt_path))
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "t_max" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["partition", "pipeline", "eval"])
def test_t_max_past_its_bound_exits_2_before_rolling(tmp_path, capsys, monkeypatch, command):
    # one step past ppo.T_MAX_LIMIT (10,000) is refused by range, before any
    # episode is rolled; 10**7 steps would reserve about 11 GiB on one frame
    from sceneplan import cli

    monkeypatch.setattr(cli, "rollout", lambda *args, **kw: pytest.fail("rolled"))
    cfg_path, _ = base_config(tmp_path, t_max=10_001, episodes=2, policy="random")
    assert main([command, "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: config key 't_max' must be <= 10000, got 10001\n"
    assert Hyperparams(t_max=10_000).t_max == 10_000


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("source", ["file", "flag"])
@pytest.mark.parametrize("command, key", [("pipeline", "num_scenes"), ("eval", "episodes")])
def test_nonpositive_count_names_it(tmp_path, capsys, command, key, source, value):
    from sceneplan.ppo import save_checkpoint

    ckpt_path = tmp_path / "policy.ckpt"
    save_checkpoint(count_driven_checkpoint(n_pad=6), ckpt_path)
    cfg_path, _ = base_config(tmp_path, checkpoint=str(ckpt_path),
                              **({key: value} if source == "file" else {}))
    argv = [command, "--config", str(cfg_path)]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, key", [
    ("pipeline", "--seed", "seed"), ("pipeline", "--d-max", "d_max"),
    ("gen-scene", "--seed", "seed")])
def test_flag_past_int64_names_key(tmp_path, capsys, command, flag, key):
    if command == "gen-scene":
        argv = [command, "--spec", str(write_spec(tmp_path)),
                "--out", str(tmp_path / "out" / "d.json")]
    else:
        argv = [command, "--config", str(base_config(tmp_path)[0])]
    assert main([*argv, flag, str(2 ** 63)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"seed": 1}]))
    assert main(["pipeline", "--config", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path):
    cfg_path, cfg = base_config(tmp_path)
    assert cfg["seed"] == 3
    assert main(["pipeline", "--config", str(cfg_path), "--seed", "5"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [s["scene_seed"] for s in report["scenes"]] == [5]


def config_flags():
    """(command, flag, key) for every parser flag whose dest is a config
    key; ``--iterations`` sets ``train.iterations``."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.dest)
            for command, sub in commands.choices.items() if command != "gen-scene"
            for action in sub._actions
            if action.dest in DEFAULTS or action.dest == "iterations"]


CONFIG_FLAGS = config_flags()


@pytest.mark.parametrize("command, flag, key", CONFIG_FLAGS,
                         ids=[f"{command} {flag}" for command, flag, _ in CONFIG_FLAGS])
def test_every_config_flag_beats_the_file(tmp_path, command, flag, key):
    block = "train" if key == "iterations" else None
    default = DEFAULTS[block][key] if block else DEFAULTS[key]
    if key == "policy":
        file_value, flag_value = "keep", "random"
    elif isinstance(default, int):
        file_value, flag_value = 3, 5
    else:
        file_value, flag_value = "from-file", "from-flag"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({block: {key: file_value}} if block else {key: file_value}))
    required = ["--clusters", "clusters.json"] if command == "plan" else []
    args = build_parser().parse_args(
        [command, "--config", str(path), *required, flag, str(flag_value)])
    cfg = _config(args)
    assert (cfg[block] if block else cfg)[key] == flag_value


def test_config_keeps_the_environment_and_hyperparameters_it_checks(tmp_path):
    cfg_path, cfg = base_config(tmp_path, transform_alpha=0.5)
    args = build_parser().parse_args(
        ["train", "--config", str(cfg_path), "--seed", "7", "--iterations", "2"])
    built = _config(args)
    assert built["env"] == EnvConfig(RewardWeights(**cfg["reward"]), TransformParams(0.5),
                                     BandwidthSpec("fixed", 0.14), 6)
    assert built["hyper"] == Hyperparams(seed=7, t_max=4, **{**cfg["train"], "iterations": 2})


# ---------------------------------------------------------------------------
# hostile config values
# ---------------------------------------------------------------------------

TINY_SPEC = {**SPEC, "width_px": 640, "height_px": 640, "count_range": [6, 10]}
HOSTILE_KEYS = [*DEFAULTS] + [
    f"{block}.{sub}" for block in ("reward", "train") for sub in DEFAULTS[block]]
# no value is an integer >= 1, so each fails the keys that size an
# allocation (n, e, t_max, n_pad, num_scenes, episodes) at once
HOSTILE_VALUES = [float("nan"), float("inf"), -float("inf"), 0, 0.0, -1, -0.5, -2 ** 63,
                  2 ** 63, 1e308, -1e308, True, False, "", "x", [], [1.0]]
HOSTILE_COMMANDS = ("partition", "plan", "pipeline", "eval")


@pytest.fixture(scope="module")
def hostile_inputs(tmp_path_factory):
    """A tiny scene's detections, its clusters report, an untrained
    checkpoint (``iterations: 0``), and the base config naming them."""
    folder = tmp_path_factory.mktemp("hostile")
    cfg = {"seed": 1, "out_dir": str(folder), "scene_spec": TINY_SPEC, "t_max": 3, "n_pad": 6,
           "d_max": 100000, "episodes": 2, "bandwidth_mode": "fixed", "bandwidth_value": 0.14,
           "policy": "random", "train": {"iterations": 0}}
    path = folder / "config.json"
    path.write_text(json.dumps(cfg))
    spec = folder / "spec.json"
    spec.write_text(json.dumps(TINY_SPEC))
    dets, clusters = folder / "dets.json", folder / "clusters.json"
    assert main(["gen-scene", "--spec", str(spec), "--out", str(dets)]) == 0
    assert main(["train", "--config", str(path)]) == 0
    cfg.update(detections=str(dets), checkpoint=str(folder / "policy.ckpt"), out_dir="out")
    path.write_text(json.dumps(cfg))
    assert main(["partition", "--config", str(path), "--out", str(clusters)]) == 0
    return cfg, str(clusters)


def finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(map(finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(finite_numbers, value))
    return not isinstance(value, float) or math.isfinite(value)


def written_numbers_finite(folder) -> bool:
    """Every number in the JSON and CSV files under ``folder`` is finite."""
    for path in pathlib.Path(folder).rglob("*"):
        if path.suffix == ".json":
            if not finite_numbers(json.loads(path.read_text())):
                return False
        elif path.suffix == ".csv":
            for cell in path.read_text().replace("\n", ",").split(","):
                try:
                    if not math.isfinite(float(cell)):
                        return False
                except ValueError:
                    pass
    return True


def run_hostile(base, clusters, key, value, command, capsys):
    """Run ``command`` in a fresh folder on ``base`` with ``key`` set to
    ``value``; returns (exit code, stderr, whether the outputs are finite)."""
    block, _, sub = key.rpartition(".")
    cfg = json.loads(json.dumps(base))
    if block:
        cfg[block] = {**cfg.get(block, {}), sub: value}
    else:
        cfg[key] = value
    required = ["--clusters", clusters] if command == "plan" else []
    argv = [command, "--config", "config.json", *required]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            pathlib.Path("config.json").write_text(json.dumps(cfg))
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
            return code, capsys.readouterr().err, code != 0 or written_numbers_finite(folder)
        finally:
            os.chdir(home)


def names(err, key, value) -> bool:
    """Whether an error names the key, or the path a path key was set to."""
    if DEFAULTS.get(key, "") is None and isinstance(value, str):
        return value in err
    return re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err) is not None


@given(st.sampled_from(HOSTILE_KEYS), st.sampled_from(HOSTILE_VALUES))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hostile_config_value_exits_0_2_or_3(hostile_inputs, capsys, key, value):
    # finite outputs, or an error naming the key, or an infeasible plan;
    # never a runtime failure (exit 1) or a traceback
    base, clusters = hostile_inputs
    for command in HOSTILE_COMMANDS:
        code, err, finite = run_hostile(base, clusters, key, value, command, capsys)
        assert code in (0, 2, 3), (command, err)
        assert "Traceback" not in err
        assert finite, command
        if code == 2:
            assert names(err, key, value), (command, err)
