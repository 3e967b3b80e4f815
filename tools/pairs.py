"""Alternating pairs of benchmark runs: a revision against this tree.

    python3 tools/pairs.py REV --workload W [--pairs 10] [--seconds 5] [--seed S]

REV's side is a temporary tree of REV's src/ (``outputs.archived_src``) beside a
copy of this tree's bench/, so both sides run the same benchmark, each on its
own program. Pair k runs ``bench/run.py --trace 0`` with seed S + k on both
sides, REV first in even pairs and this tree first in odd ones, so a drift in
the machine's speed favours neither. For each end-to-end metric named in
BENCHMARK.json it prints both sides' medians with their quartiles, and in how
many pairs this tree reads lower, higher or equal. A run fails when it exits
non-zero or reports ``"correct": false``. A pair whose runs both fail is
printed with its seed and both exit codes, counted in the summary and left
out of the medians, and the next pair takes the next seed; a pair with one
failing run stops the tool, naming the side, the seed and the exit code.
Compare trees on one machine, with nothing else running.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from outputs import ROOT, archived_src


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``, interpolated
    between the closest ranks (``statistics.quantiles``' inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, metrics, rev: str) -> list[str]:
    """One line per metric of ``metrics`` (BENCHMARK.json's ``end_to_end``
    entries) over ``pairs``, a list of (REV's metrics, this tree's metrics)
    dicts of metric name to value, one per pair of runs."""
    lines = []
    for metric in metrics:
        name = metric["name"]
        theirs = [a[name] for a, _ in pairs]
        ours = [b[name] for _, b in pairs]
        diffs = [b - a for a, b in zip(theirs, ours)]
        counts = (sum(d < 0 for d in diffs), sum(d > 0 for d in diffs), sum(d == 0 for d in diffs))
        sides = [f"{side} {m:.6g} [{q1:.6g}, {q3:.6g}]"
                 for side, (q1, m, q3) in ((rev, quartiles(theirs)),
                                           ("this tree", quartiles(ours)))]
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better): median "
                     f"[quartiles] {sides[0]}, {sides[1]}; this tree lower in {counts[0]}, "
                     f"higher in {counts[1]}, equal in {counts[2]} of {len(pairs)} pairs")
    return lines


class RunFailed(Exception):
    """One ``bench/run.py`` run exited non-zero or reported ``"correct": false``."""

    def __init__(self, side: str, seed: int, code: int, correct, stderr: str):
        super().__init__(f"{side}: seed {seed}: bench/run.py exited {code}"
                         f" with correct={correct}\n{stderr}")
        self.code = code


def run(root: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one ``bench/run.py --trace 0`` run in
    ``root``; a failing run raises ``RunFailed``."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode or not result.get("correct"):
        raise RunFailed(side, seed, proc.returncode, result.get("correct"), proc.stderr.strip())
    return {name: m["value"] for name, m in result["metrics"].items()}


def play(sides, workload: str, n: int, first_seed: int, seconds: float):
    """Run ``n`` alternating pairs over ``sides``, [(REV's root, REV), (this
    tree's root, "this tree")], pair k with seed ``first_seed + k``. Returns
    the (REV's, this tree's) metrics of each pair both sides ran, and the
    (seed, REV's exit code, this tree's exit code) of each pair both sides
    failed; a pair one side alone failed exits the tool."""
    pairs, failed = [], []
    for k in range(n):
        seed, got = first_seed + k, [None, None]
        for i in ((0, 1) if k % 2 == 0 else (1, 0)):
            try:
                got[i] = run(*sides[i], workload, seed, seconds)
            except RunFailed as e:
                got[i] = e
        broken = [g for g in got if isinstance(g, RunFailed)]
        if len(broken) == 1:
            sys.exit(str(broken[0]))
        if broken:
            failed.append((seed, got[0].code, got[1].code))
            print(f"pair {k + 1}/{n} (seed {seed}) failed on both sides: {sides[0][1]} "
                  f"exited {got[0].code}, this tree exited {got[1].code}", file=sys.stderr)
        else:
            pairs.append(tuple(got))
            print(f"pair {k + 1}/{n} (seed {seed}) done", file=sys.stderr)
    return pairs, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare this tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with archived_src(args.rev) as tmp:
        shutil.copytree(ROOT / "bench", tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        pairs, failed = play([(tmp, args.rev), (ROOT, "this tree")], args.workload,
                             args.pairs, args.seed, args.seconds)
    print(f"{args.workload}: {args.rev} against this tree, {args.pairs} pairs from seed "
          f"{args.seed}, --seconds {args.seconds:g}")
    print(f"failed on both sides in {len(failed)} of {args.pairs} pairs"
          + "".join(f"; seed {seed}: {args.rev} exited {a}, this tree exited {b}"
                    for seed, a, b in failed))
    if pairs:
        print("\n".join(summarize(pairs, metrics, args.rev)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
