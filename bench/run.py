"""Benchmark of sceneplan: one frame through all three stages, and training.

    python3 bench/run.py --workload desk-pipeline --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads are described in ``bench/README.md``. The last line of
standard output is the result object; the line before it, starting with
``record``, holds the metrics with the seed and the environment.

``--trace 0`` reports the end-to-end metrics, with op times in reference
units (see the README). ``--trace 1`` alternates untraced and traced passes
over the same inputs and reports per-layer span times, counts, coverage
and tracing overhead instead.

Exit codes: 0 success, 1 an output check or the CLI cross-check failed,
2 bad arguments or no program to measure.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # before the passes, and again after them
MIN_PASSES = 2

if not (SRC / "sceneplan" / "__init__.py").is_file():
    print(f"error: no sceneplan package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pass_count(workload, seconds: float, trace: bool) -> int:
    """How many passes fill ``seconds`` at the workload's nominal pass time,
    at least MIN_PASSES; with tracing, how many untraced and traced pairs.

    The count does not depend on how fast the program runs, so every
    commit's figures are taken over the same number of passes.
    """
    per_pass = workload.pass_s * (2 if trace else 1)
    return max(MIN_PASSES, int(seconds // per_pass))


def measure(workload, inputs, count: int, workdir: str, tracer=None):
    """``count`` identical passes over the inputs.

    Every pass must reproduce the first exactly; only the first keeps its
    outputs, so memory does not grow with the pass count. With a tracer,
    ``count`` pairs of an untraced and a traced pass run, the first pair
    untraced first and then in alternating order, so that a drift in speed
    over the run favours neither kind. Neither runs reference work; returns
    (untraced, traced, traced wall time). Otherwise each pass is gauged and
    returns (passes, [], 0).
    """
    passes, traced = [], []
    traced_ns = 0

    def run_traced():
        nonlocal traced_ns
        t0 = time.perf_counter_ns()
        tracer.install()
        try:
            add(traced, workload.run_pass(inputs, workdir, None))
        finally:
            tracer.restore()
        traced_ns += time.perf_counter_ns() - t0

    def add(into, p):
        if passes and not same_pass_outputs(passes[0], p):
            raise wl.CheckFailed("passes over the same inputs disagree")
        if passes:
            p.frames, p.logs = [], []
        into.append(p)

    for i in range(count):
        if tracer is None:
            add(passes, workload.run_pass(inputs, workdir, wl.Gauge()))
        elif i % 2 == 0:
            add(passes, workload.run_pass(inputs, workdir, None))
            run_traced()
        else:
            run_traced()
            add(passes, workload.run_pass(inputs, workdir, None))
    return passes, traced, traced_ns


def fastest(passes) -> list:
    """Each op's time in its fastest pass, in nanoseconds."""
    return [min(ns) for ns in zip(*(p.op_ns for p in passes))]


def overhead(passes, traced) -> float:
    """Median over ops of the traced time over the untraced time of the
    same op in the other pass of its pair. Pairing ops that ran a pass
    apart cancels most slow stretches of the machine that a ratio of
    totals would pick up."""
    return statistics.median(t / u for pu, pt in zip(passes, traced)
                             for u, t in zip(pu.op_ns, pt.op_ns))


def reference_units(p) -> list:
    """Each op's time over the reference time gauged right after it."""
    return [t / ref for t, ref in zip(p.op_ns, p.ref_ns)]


def time_setups(workload, seed: int, setup_ns: list):
    """Set up SETUP_REPEATS times, appending each time; returns the inputs."""
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        inputs = workload.setup(seed)
        setup_ns.append(time.perf_counter_ns() - t0)
    return inputs


def same_pass_outputs(a, b) -> bool:
    return (a.logs == b.logs and len(a.frames) == len(b.frames)
            and all(map(wl.same_outputs, a.frames, b.frames)))


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: str):
    """Set up, warm up, measure and check one workload.

    Returns (result, record): the result object printed last, and the fuller
    record with figures that are not gated. Raises workloads.CheckFailed on
    a wrong output.
    """
    setup_ns = []
    inputs = time_setups(workload, seed, setup_ns)
    workload.warm_up(inputs)

    tracer = Tracer() if trace else None
    passes, traced, traced_ns = measure(workload, inputs,
                                        pass_count(workload, seconds, trace), workdir, tracer)
    if not trace:
        # set-up times taken far apart are not all caught by one slow stretch
        time_setups(workload, seed, setup_ns)
    quality = workload.check(inputs, passes)
    reward_cost = quality.pop("reward_cost")
    workload.cross_check(inputs, passes, workdir)

    # each op counts its fastest pass, in raw time and in reference units
    op_ms = sorted(ns / 1e6 for ns in fastest(passes))
    first = passes[0]
    completed = first.attempted - first.failed
    busy_s = sum(op_ms) / 1e3
    summary = {
        "passes": (len(passes), "count"),
        "ops_per_pass": (len(op_ms), "count"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "ops_per_s": (completed / busy_s, "1/s"),
        "env_steps_per_s": (completed * workload.steps_per_op / busy_s, "1/s"),
        **quality,
    }
    # a percentile is reported only with at least ten samples beyond it
    if len(op_ms) >= 100:
        summary["op_ms_p90"] = (statistics.quantiles(op_ms, n=10)[-1], "ms")
    if trace:
        metrics = tracer.metrics(first.attempted * len(traced), traced_ns)
        metrics["trace.overhead"] = (overhead(passes, traced), "ratio")
    else:
        op_cost = [min(c) for c in zip(*map(reference_units, passes))]
        summary["reference_ms"] = (statistics.median(r for p in passes for r in p.ref_ns)
                                   / 1e6, "ms")
        metrics = {
            "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
            "op_cost_p50": (statistics.median(op_cost), "ref"),
            "op_cost_mean": (statistics.fmean(op_cost), "ref"),
            "reward_cost": reward_cost,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "absent_spans": tracer.absent if trace else [],
        "uncounted_spans": tracer.broken_hooks if trace else [],
    }
    every = passes + traced
    result = {"correct": True, "attempted": sum(p.attempted for p in every),
              "failed": sum(p.failed for p in every), "metrics": record["metrics"]}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as workdir:
            result, record = run_workload(wl.WORKLOADS[args.workload], args.seed,
                                          args.seconds, bool(args.trace), workdir)
    except wl.CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if not any(work_root.iterdir()):
            work_root.rmdir()
    figures = {"ops": {"value": result["attempted"], "unit": "count"},
               "ops_failed": {"value": result["failed"], "unit": "count"},
               **record["metrics"], **record["summary"]}
    for name, m in figures.items():
        print(f"{record['workload']} {name} = {m['value']:.6g} {m['unit']}")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
