"""tools/pairs.py's summary of alternating benchmark pairs, on fixed numbers
(no benchmark runs here)."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_pairs():
    if str(ROOT / "tools") not in sys.path:  # pairs.py imports outputs.py beside it
        sys.path.insert(0, str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_gives_medians_quartiles_and_pair_counts():
    pairs = load_pairs()
    metric = {"name": "op_cost_p50", "unit": "ref", "better": "lower"}
    runs = [({"op_cost_p50": a}, {"op_cost_p50": b})
            for a, b in ((2.0, 1.0), (3.0, 3.0), (4.0, 5.0), (5.0, 2.0))]
    assert pairs.summarize(runs, [metric], "HEAD~1") == [
        "op_cost_p50 (ref, lower is better): median [quartiles] HEAD~1 3.5 [2.75, 4.25], "
        "this tree 2.5 [1.75, 3.5]; this tree lower in 2, higher in 1, equal in 1 of 4 pairs"]


def test_summary_covers_every_end_to_end_metric_from_one_pair():
    pairs = load_pairs()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = [({m["name"]: 1.0 for m in metrics}, {m["name"]: 1.0 for m in metrics})]
    lines = pairs.summarize(runs, metrics, "main")
    assert [line.split(" ")[0] for line in lines] == [m["name"] for m in metrics]
    assert all(line.endswith("main 1 [1, 1], this tree 1 [1, 1]; this tree lower in 0, "
                             "higher in 0, equal in 1 of 1 pairs") for line in lines)


def stubbed_play(monkeypatch, fails, n=3):
    """``play`` over ``n`` pairs from seed 10 with ``run`` stubbed: a run
    exits 1 for each (side, seed) in ``fails``, else REV reads 1.0 and this
    tree 2.0. Returns the module, ``play``'s result or SystemExit, and the
    (side, seed) of every run in order."""
    pairs, calls = load_pairs(), []

    def run(root, side, workload, seed, seconds):
        calls.append((side, seed))
        if (side, seed) in fails:
            raise pairs.RunFailed(side, seed, 1, False, "Traceback: boom")
        return {"op_cost_p50": 1.0 if side == "REV" else 2.0}

    monkeypatch.setattr(pairs, "run", run)
    try:
        result = pairs.play([("rev-root", "REV"), ("root", "this tree")], "desk-train", n, 10, 1.0)
    except SystemExit as e:
        result = e
    return result, calls


def test_a_pair_failing_on_both_sides_is_counted_and_the_next_seed_runs(monkeypatch, capsys):
    (done, failed), calls = stubbed_play(monkeypatch, {("REV", 11), ("this tree", 11)})
    assert calls == [("REV", 10), ("this tree", 10), ("this tree", 11), ("REV", 11),
                     ("REV", 12), ("this tree", 12)]
    assert done == [({"op_cost_p50": 1.0}, {"op_cost_p50": 2.0})] * 2
    assert failed == [(11, 1, 1)]
    assert "pair 2/3 (seed 11) failed on both sides: REV exited 1, this tree exited 1\n" \
        in capsys.readouterr().err


def test_a_pair_failing_on_one_side_stops_the_tool(monkeypatch):
    stopped, calls = stubbed_play(monkeypatch, {("this tree", 11)})
    assert isinstance(stopped, SystemExit)
    assert str(stopped) == "this tree: seed 11: bench/run.py exited 1 with correct=False\n" \
                           "Traceback: boom"
    assert calls == [("REV", 10), ("this tree", 10), ("this tree", 11), ("REV", 11)]
