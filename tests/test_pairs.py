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
