"""Every CLI output of one committed case list, and a SHA-256 manifest of them.

    python3 tools/outputs.py OUT [--against REV]

Each case writes its JSON inputs into OUT/<case>/ and runs its commands there,
each as ``python -W error::RuntimeWarning ...`` on this tree's src/; a failing
command stops the run, naming the case, the command and its exit code.
OUT/manifest.json maps each file under OUT to its SHA-256, and the files named
together in SAME must hash alike. The environment passes through: CI runs the
list under PYTHONHASHSEED and OPENBLAS_NUM_THREADS in {1, 2} and compares the
manifests. With --against REV the list runs again on REV's src/ (from ``git
archive``) and each file that differs or exists on one side only is printed
(exit 1); else it prints "no file differs". Training bytes depend on the BLAS
build, so compare trees on one machine. A change reports "``tools/outputs.py
--against <parent>``: no file differs", or lists the files that differ and why.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STRATA = [{"y_band": [0.05, 0.45], "size_range": [0.012, 0.03], "density": 0.65},
          {"y_band": [0.55, 0.95], "size_range": [0.06, 0.12], "density": 0.35}]


def spec(lo, hi, width=3840, height=2160, **extra):
    return {"width_px": width, "height_px": height, "count_range": [lo, hi], **extra,
            "strata": STRATA}


def cli(*args):
    return ["-m", "sceneplan.cli", *args]


# the acceptance tests' desk recipe; its 64-128 detection variant straddles
# clustering.DENSE_MAX (96), so one reset sends frames through each MeanShift loop
DESK = {"seed": 3, "n_pad": 8, "t_max": 10, "bandwidth_mode": "fixed", "bandwidth_value": 0.16,
        "scene_spec": spec(14, 20, 1280, 1280),
        "reward": {"alpha": 2.0, "beta": 0.2, "gamma": 1.0, "delta": 0.4,
                   "n_min": 2, "n_max": 4, "d_m": 0.05},
        "train": {"gamma": 0.9, "lr_policy": 0.01, "lr_critic": 0.001, "batch_size": 64}}
CROWD = {"d_max": 16000, "bandwidth_mode": "fixed", "bandwidth_value": 0.12}
TRAIN = cli("train", "--config", "config.json", "--out-dir", ".", "--iterations", "2")


def pipeline(policy, out=".", *args, config="config.json"):
    return cli("pipeline", "--config", config, "--policy", policy, "--out-dir", out, *args)


def trained_runs(config):
    """eval and a trained pipeline on the checkpoint a case trained."""
    return [cli("eval", "--config", config, "--out-dir", ".", "--checkpoint", "policy.ckpt",
                "--episodes", "5"),
            pipeline("trained", ".", "--num-scenes", "3", "--checkpoint", "policy.ckpt",
                     config=config)]


# two models of equal latency, which tie where their curves clamp alike (the
# smaller input wins), and a slower one; budgets one ms above the cheapest plan
# (20 ms a block) and part way to the widest cut the top of the planner's rows
TIGHT_PROFILE = {"models": [
    {"name": "even-320", "input_size": 320, "latency_ms": 20,
     "curve": [[64, 0.2], [1024, 0.4], [65536, 0.6]]},
    {"name": "even-640", "input_size": 640, "latency_ms": 20,
     "curve": [[64, 0.2], [1024, 0.3], [65536, 0.6]]},
    {"name": "slow-1280", "input_size": 1280, "latency_ms": 45,
     "curve": [[64, 0.3], [1024, 0.5], [65536, 0.7]]}]}
TIGHT_CLUSTERS = {"clusters": [
    {"id": k, "block_px": [0, 0, w, h], "member_areas_px2": areas}
    for k, (w, h, areas) in enumerate([(100, 100, [5000.0]), (4000, 4000, [1.0, 2.0]),
                                       (640, 480, [300.0, 1200.0, 90.0]), (50, 70, [40.0]),
                                       (1920, 1080, [2500.0, 16.0])])]}


def tight_plan(d_max, out):
    return cli("plan", "--clusters", "clusters.json", "--profile", "profile.json",
               "--d-max", str(d_max), "--out", out)


def gen_scene(*exts):
    return [cli("gen-scene", "--spec", "spec.json", "--out", f"dets.{ext}") for ext in exts]


# (name, input files as JSON objects, commands run in the case's directory)
CASES = [
    ("desk-train", {"config.json": DESK}, [TRAIN, *trained_runs("config.json")]),
    # the built-in n_pad and reward block: eval and the trained pipeline run in
    # the environment fitted to the checkpoint, so they write desk-train's bytes
    ("desk-fitted", {"config.json": DESK, "builtin.json": {
        key: value for key, value in DESK.items() if key not in ("n_pad", "reward")}},
     [TRAIN, *trained_runs("builtin.json")]),
    ("both-loops-train", {"config.json": {**DESK, "scene_spec": spec(64, 128, 1280, 1280)}},
     [TRAIN]),
    ("crowd-keep", {"config.json": {"seed": 7, **CROWD, "scene_spec": spec(2000, 2000)}},
     [pipeline("keep")]),
    ("crowd-random", {"config.json": {"seed": 9, "num_scenes": 2, **CROWD,
                                      "scene_spec": spec(500, 700)}}, [pipeline("random")]),
    ("noisy-random", {"config.json": {"seed": 17, "num_scenes": 2, **CROWD, "drop_prob": 0.1,
                                      "jitter_sigma": 0.01, "scene_spec": spec(500, 700)}},
     [pipeline("random")]),
    # most random steps split clusters of a few members, as in training
    ("desk-random", {"config.json": {"seed": 5, "num_scenes": 3, **CROWD, "d_max": 4000,
                                     "scene_spec": spec(20, 40)}}, [pipeline("random")]),
    # the default bandwidth mode: estimate_bandwidth's quantile
    ("quantile", {"config.json": {"seed": 31, "num_scenes": 3, "d_max": 16000,
                                  "scene_spec": spec(20, 60)}},
     [pipeline("keep", "keep"), pipeline("random", "random")]),
    *[(f"scene-{ext}", {"spec.json": spec(500, 700, seed=seed),
                        "config.json": {"seed": seed, **CROWD}},
       gen_scene(ext) + [cli("partition", "--config", "config.json", "--detections", f"dets.{ext}",
                             "--policy", "random", "--out", "clusters.json"),
                         cli("plan", "--config", "config.json", "--clusters", "clusters.json",
                             "--out", "plan.json")])
      for ext, seed in (("json", 11), ("csv", 13))],
    ("gen-scene-2000", {"spec.json": spec(2000, 2000, seed=21)}, gen_scene("json", "csv")),
    # a saved scene pipelines as the generated frame it was saved from
    ("loaded-frame", {"spec.json": spec(500, 700, seed=23), "config.json": {"seed": 23, **CROWD}},
     gen_scene("json", "csv") + [pipeline("random", "generated", "--scene-spec", "spec.json")]
     + [pipeline("random", ext, "--detections", f"dets.{ext}") for ext in ("json", "csv")]),
    ("ties", {}, [[str(ROOT / "tools" / "ties.py"), "ties.json"]]),
    ("tight-plan", {"clusters.json": TIGHT_CLUSTERS, "profile.json": TIGHT_PROFILE},
     [tight_plan(5 * 20 + 1, "plan.json"), tight_plan(5 * 20 + 2 * 25 + 3, "plan-mid.json")]),
]
SAME = [*([f"loaded-frame/{src}/{name}" for src in ("generated", "json", "csv")]
          for name in ("report.json", "metrics.csv")),
        *([f"{case}/{name}" for case in ("desk-train", "desk-fitted")]
          for name in ("policy.ckpt", "eval.csv", "report.json", "metrics.csv"))]


def run(src: Path, out: Path, tree: str) -> dict:
    """Run every case on the package in ``src``; write and return the manifest."""
    if out.exists() and (out.is_file() or any(out.iterdir())):
        sys.exit(f"{out} is not an empty directory")
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, inputs, commands in CASES:
        (out / name).mkdir(parents=True)
        for file, content in inputs.items():
            (out / name / file).write_text(json.dumps(content))
        for cmd in commands:
            code = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *cmd],
                                  cwd=out / name, env=env, stdout=subprocess.DEVNULL).returncode
            if code:
                sys.exit(f"{tree}: case {name}: `python {' '.join(cmd)}` exited {code}")
    manifest = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.rglob("*")) if path.is_file()}
    for files in SAME:
        if len({manifest[f] for f in files}) > 1:
            sys.exit(f"{tree}: these files differ: {', '.join(files)}")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


@contextlib.contextmanager
def archived_src(rev: str):
    """A temporary directory holding ``rev``'s src/, from ``git archive``;
    a bad revision exits naming it."""
    tree = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True)
    if tree.returncode:
        sys.exit(f"git archive {rev} src: {tree.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(tree.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the outputs and manifest.json")
    parser.add_argument("--against", metavar="REV", help="a git revision to compare with")
    args = parser.parse_args()
    rev = args.against
    # a bad revision fails before any case runs
    with contextlib.nullcontext() if rev is None else archived_src(rev) as tmp:
        ours = run(ROOT / "src", args.out, "this tree")
        if rev is None:
            return 0
        theirs = run(tmp / "src", tmp / "out", rev)
    differ = [("differs" if f in ours and f in theirs else "only here" if f in ours
               else f"only in {rev}") + f": {f}"
              for f in sorted(ours.keys() | theirs.keys()) if ours.get(f) != theirs.get(f)]
    print("\n".join(differ) or "no file differs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
