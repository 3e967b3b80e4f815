"""Fast self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload shrunk to a few frames or iterations, untraced and
traced, and checks that the metrics printed match BENCHMARK.json by name
and unit, that the tracer restores every function, and that each output
check fires on a broken input. Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run  # pins BLAS threads and puts src/ on the path before numpy loads

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from sceneplan import core, ppo, scene  # noqa: E402

TINY = {
    "desk-train": dict(iterations=2, episodes_per_iter=2, eval_frames=2),
    "desk-pipeline": dict(pool=2, counts=(8, 12), cli_frames=1),
    "crowd-pipeline": dict(pool=2, counts=(40, 50)),
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def expect_check_fails(fn, *args, what: str) -> None:
    try:
        fn(*args)
    except wl.CheckFailed:
        return
    raise SystemExit(f"selftest FAILED: check did not fire on {what}")


def declared() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS),
           "BENCHMARK.json workloads match the benchmark's")
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def untouched() -> bool:
    """No sceneplan function is left wrapped by the tracer."""
    return not any(hasattr(v, "__wrapped__") for name, m in list(sys.modules.items())
                   if name.startswith("sceneplan") for v in vars(m).values())


def check_metrics(workdir: str) -> None:
    names = declared()
    for name, workload in wl.WORKLOADS.items():
        tiny = dataclasses.replace(workload, **TINY[name])
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run.run_workload(tiny, 0, 0, trace, workdir)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == names[kind], f"{name} trace={int(trace)} metrics and units "
                   f"match BENCHMARK.json {kind}")
            expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{name} trace={int(trace)} metrics are finite")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={int(trace)} ran without failures")
            expect(untouched(), f"{name}: tracer restored every function")
            if trace:
                expect(record["absent_spans"] == [] and record["uncounted_spans"] == [],
                       f"{name}: every span found and counted")
                expect(result["metrics"]["trace.coverage"]["value"] > 0.5,
                       f"{name}: spans cover the traced pass")


def check_tracer_absent_span() -> None:
    spans = {**tracing.SPANS, "scene.renamed": "sceneplan.scene:no_such_function"}
    tracer = tracing.Tracer(spans)
    for _ in range(2):
        tracer.install()
        try:
            scene.tile_frame(core.Frame(64, 64), 1, 4)
        finally:
            tracer.restore()
    expect(tracer.absent == ["scene.renamed"], "a missing function is reported absent once")
    expect(untouched(), "tracer restored every function after an absent span")
    metrics = tracer.metrics(1, 1)
    expect(metrics["scene.renamed.calls"][0] == 0, "an absent span reports no calls")


def check_output_checks(workdir: str) -> None:
    desk = dataclasses.replace(wl.WORKLOADS["desk-pipeline"], **TINY["desk-pipeline"])
    inputs = desk.setup(0)
    good = desk.frame(inputs, inputs.frames[0])
    profiles, d_max = inputs.profiles, desk.d_max
    wl.check_frame(good, d_max, profiles)
    fr = dataclasses.replace

    missing = core.ClusterConfig(good.final.clusters[1:], good.final.detections)
    expect_check_fails(wl.check_frame, fr(good, final=missing), d_max, profiles,
                       what="a configuration missing a detection")
    expect_check_fails(wl.check_frame, fr(good, n_detections=good.n_detections + 1),
                       d_max, profiles, what="a configuration that lost a detection")
    expect_check_fails(wl.check_plan, good.plan, good.parts,
                       good.plan.total_latency_ms - 1, profiles, what="a plan over budget")
    expect_check_fails(wl.check_plan, fr(good.plan, assignments=good.plan.assignments[1:]),
                       good.parts, d_max, profiles, what="a partition without a model")
    busy = (good.sim.busy_ms[0] + 1,) + good.sim.busy_ms[1:]
    expect_check_fails(wl.check_schedule, good.plan, fr(good.sim, busy_ms=busy),
                       what="a schedule that does not conserve time")

    train = dataclasses.replace(wl.WORKLOADS["desk-train"], **TINY["desk-train"])
    ckpt = ppo.train(ppo.sampler_from_spec(wl.DESK_SPEC), wl.DESK_ENV, train.hyper(0, 2))
    rows = [{"iteration": i, "mean_return": -1.0, "policy_loss": 0.0, "value_loss": 1.0}
            for i in range(2)]
    wl.check_training(ckpt, rows, 2)
    rows[1]["value_loss"] = float("inf")
    expect_check_fails(wl.check_training, ckpt, rows, 2, what="a non-finite loss")
    rows[1]["value_loss"] = 1.0
    ckpt.policy.weights[0][0, 0] = np.nan
    expect_check_fails(wl.check_training, ckpt, rows, 2, what="a non-finite parameter")

    desk.cross_check(inputs, [wl.Pass(1, frames=[good])], workdir)
    wrong = fr(good, plan=fr(good.plan, total_precision=good.plan.total_precision + 1))
    expect_check_fails(desk.cross_check, inputs, [wl.Pass(1, frames=[wrong])],
                       workdir, what="a CLI result that differs from the API chain")
    expect(not wl.same_outputs(good, wrong), "differing outputs compare unequal")
    expect_check_fails(desk.check, inputs, [wl.Pass(1, failed=1, frames=[None])],
                       what="a pass in which no frame completed")

    class Drifting:
        """Each pass logs a different return."""

        def __init__(self):
            self.passes = 0

        def run_pass(self, inputs, workdir, gauge):
            self.passes += 1
            return wl.Pass(1, op_ns=[1], ref_ns=[1], logs=[{"mean_return": self.passes}])

    expect_check_fails(run.measure, Drifting(), None, 2, workdir,
                       what="passes over the same inputs that disagree")


def check_refuses_without_program(workdir: str) -> None:
    """In a directory holding only the benchmark, run.py exits non-zero and
    prints no result."""
    bare = os.path.join(workdir, "bare")
    shutil.copytree(run.ROOT / "bench", os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk-pipeline",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=60)
    expect(out.returncode != 0 and out.stdout == "",
           "without the program the benchmark fails and prints nothing")


def main() -> int:
    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as workdir:
            check_metrics(workdir)
            check_tracer_absent_span()
            check_output_checks(workdir)
            check_refuses_without_program(workdir)
    finally:
        if not any(work_root.iterdir()):
            work_root.rmdir()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
