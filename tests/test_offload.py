import json
import math
import re

import numpy as np
import pytest

from sceneplan.offload import (
    InfeasiblePlanError,
    ModelProfile,
    PartitionDescriptor,
    assign_servers,
    default_profiles,
    dp_plan,
    load_profiles,
    partitions_from_config,
    precision_table,
    profile_from_dict,
    scale_area,
    simulate,
)

from oracles import (
    dp_plan_reference,
    mckp_enumerate,
    optimal_makespan,
    precision_lookup_reference as precision_lookup,
    precision_table_reference,
    random_config,
)


def flat_profile(name, size, latency, value):
    return ModelProfile(name, size, latency,
                        ((100.0, value), (10_000.0, value)))


def make_profiles(latencies, values):
    return [flat_profile(f"m{k}", 600 + k, lat, val)
            for k, (lat, val) in enumerate(zip(latencies, values))]


def one_partition(pid=0, w=1000, h=1000, areas=(400.0,)):
    return PartitionDescriptor(pid, w, h, tuple(areas))


def mapping(plan):
    return {pid: model for pid, model, _, _ in plan.assignments}


# ---------------------------------------------------------------------------
# area scaling and precision lookup
# ---------------------------------------------------------------------------

def test_scale_area_direct():
    assert scale_area(100, 1000, 1000, 640) == 40.96


def test_scale_area_identity():
    assert scale_area(100.0, 640, 640, 640) == 100.0


def test_scale_area_linear(rng):
    for _ in range(20):
        a = float(rng.uniform(1, 1e5))
        w, h, s = rng.integers(100, 4000, 3)
        assert scale_area(2 * a, w, h, s) == 2 * scale_area(a, w, h, s)


def test_scale_area_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale_area(0, 100, 100, 640)


def test_precision_lookup_clamps():
    p = ModelProfile("m", 640, 100, ((16.0, 0.1), (64.0, 0.2), (256.0, 0.4)))
    # centers: 8, 40, 160
    assert precision_lookup(p, 1.0) == 0.1
    assert precision_lookup(p, 5000.0) == 0.4


def test_precision_lookup_nodes_and_midpoint():
    p = ModelProfile("m", 640, 100, ((16.0, 0.1), (64.0, 0.2), (256.0, 0.4)))
    assert precision_lookup(p, 40.0) == 0.2
    assert precision_lookup(p, 100.0) == pytest.approx(0.3)  # midpoint 40..160


def test_partition_precision_single_object():
    p = ModelProfile("m", 640, 100, ((16.0, 0.1), (64.0, 0.2), (256.0, 0.4)))
    part = one_partition(areas=(250.0,))
    scaled = scale_area(250.0, 1000, 1000, 640)
    assert precision_table([part], [p])[0, 0] == precision_lookup(p, scaled)


def test_partition_precision_equal_areas():
    p = ModelProfile("m", 640, 100, ((16.0, 0.1), (256.0, 0.4)))
    part = one_partition(areas=(250.0, 250.0, 250.0))
    single = precision_lookup(p, scale_area(250.0, 1000, 1000, 640))
    assert precision_table([part], [p])[0, 0] == pytest.approx(single)


def test_partition_precision_matches_formula(rng):
    p = ModelProfile("m", 896, 188,
                     ((16.0, 0.05), (64.0, 0.2), (256.0, 0.35), (1024.0, 0.5)))
    for _ in range(10):
        areas = tuple(float(a) for a in rng.uniform(10, 5e4, 6))
        w, h = int(rng.integers(200, 4000)), int(rng.integers(200, 4000))
        part = PartitionDescriptor(0, w, h, areas)
        # straight from the formula: mean of p(scaled area)
        expected = sum(
            precision_lookup(p, a * p.input_size ** 2 / (w * h))
            for a in areas) / len(areas)
        assert precision_table([part], [p])[0, 0] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_default_profiles_shape():
    profs = default_profiles()
    assert [p.name for p in profs] == ["yolov8n", "yolov8s", "yolov8m",
                                       "yolov8l", "yolov8x"]
    assert [p.input_size for p in profs] == [640, 768, 896, 1024, 1280]
    assert profs[0].latency_ms == 88
    assert profs[-1].latency_ms == 400
    for p in profs:
        maps = [m for _, m in p.curve]
        assert all(b >= a for a, b in zip(maps, maps[1:]))


def test_bigger_model_never_worse(rng):
    # with latency ignored, precision is nondecreasing in model input size
    profs = default_profiles()
    for _ in range(20):
        cfg = random_config(rng, 3)
        from sceneplan.core import Frame

        parts = partitions_from_config(cfg, Frame(3840, 2160))
        for precs in precision_table(parts, profs).tolist():
            assert all(b >= a - 1e-12 for a, b in zip(precs, precs[1:]))


def test_profile_loader_roundtrip(tmp_path):
    payload = {"models": [{
        "name": "tiny", "input_size": 320, "latency_ms": 12.3,
        "curve": [[16, 0.1], [64, 0.3]]}]}
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(payload))
    profs = load_profiles(path)
    assert profs[0].latency_ms == 13  # fractional latencies round up
    assert profs[0].curve == ((16.0, 0.1), (64.0, 0.3))


def test_profile_monotonicity_enforced(tmp_path):
    bad = {"name": "m", "input_size": 320, "latency_ms": 10,
           "curve": [[16, 0.5], [64, 0.3]]}
    with pytest.raises(ValueError, match="decreases"):
        profile_from_dict(bad)


@pytest.mark.parametrize("field, value", [
    ("input_size", 10 ** 160), ("input_size", 3.7), ("input_size", "640"),
    ("input_size", True), ("latency_ms", 10 ** 400), ("latency_ms", "10"),
    ("latency_ms", True)], ids=["size-past-int64", "size-fraction", "size-text", "size-bool",
                                "latency-past-float", "latency-text", "latency-bool"])
def test_profile_numbers_are_checked_naming_them(tmp_path, field, value):
    # no overflow, truncation, text or bool gets through
    model = {"name": "m", "input_size": 320, "latency_ms": 10,
             "curve": [[16, 0.1], [64, 0.3]], field: value}
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"models": [model]}))
    named = f"{path}: malformed model entry (m: {field} must be"
    with pytest.raises(ValueError, match=re.escape(named)):
        load_profiles(path)


@pytest.mark.parametrize("curve", [
    [["100", "0.5"], ["200", True]], [[16, 0.1], ["100", 0.5]], [[16, 0.1], [100, "0.5"]],
    [[16, 0.1], [100, True]]], ids=["issue-example", "edge-text", "map-text", "map-bool"])
def test_profile_curve_values_are_not_coerced(tmp_path, curve):
    model = {"name": "m", "input_size": 320, "latency_ms": 10, "curve": curve}
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"models": [model]}))
    named = f"{path}: malformed model entry (m: curve must be a finite number"
    with pytest.raises(ValueError, match=re.escape(named)):
        load_profiles(path)


def test_profile_validation():
    with pytest.raises(ValueError):
        ModelProfile("m", 0, 10, ((16.0, 0.1),))
    with pytest.raises(ValueError):
        ModelProfile("m", 640, 10, ())


@pytest.mark.parametrize("edge", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_profile_rejects_non_finite_edge(edge, slot):
    curve = [[1.0, 0.9], [10.0, 0.5], [100.0, 0.1]]
    curve[slot][0] = edge
    with pytest.raises(ValueError, match="odd: bin edges must be finite"):
        ModelProfile("odd", 640, 30, tuple(map(tuple, curve)))


@pytest.mark.parametrize("area", [float("nan"), float("inf"), -float("inf")])
def test_partition_rejects_non_finite_area(area):
    with pytest.raises(ValueError, match="partition 7: areas must be positive and finite"):
        PartitionDescriptor(7, 100, 100, (400.0, area))
    with pytest.raises(ValueError):
        ModelProfile("m", 640, 10, ((16.0, 0.1), (8.0, 0.2)))
    with pytest.raises(ValueError):
        ModelProfile("m", 640, 10, ((16.0, 1.5),))


# ---------------------------------------------------------------------------
# dynamic programming
# ---------------------------------------------------------------------------

def test_dp_single_partition_best_model():
    profs = make_profiles([10, 20, 30], [0.2, 0.5, 0.4])
    plan = dp_plan([one_partition()], profs, d_max=100)
    assert mapping(plan) == {0: "m1"}
    assert plan.total_precision == pytest.approx(0.5)
    assert plan.total_latency_ms == 20


def test_dp_infeasible_budget():
    profs = make_profiles([10, 20], [0.2, 0.5])
    with pytest.raises(InfeasiblePlanError, match="short by 11 ms"):
        dp_plan([one_partition(0), one_partition(1)], profs, d_max=9)


def test_dp_matches_enumeration(rng):
    for trial in range(60):
        n = int(rng.integers(1, 5))
        lats = [int(l) for l in rng.integers(1, 51, 5)]
        profs = make_profiles(lats, rng.uniform(0, 1, 5).round(6))
        parts = [one_partition(i) for i in range(n)]
        prec = precision_table(parts, profs).tolist()
        d_max = int(rng.integers(0, 201))
        best, _ = mckp_enumerate(prec, lats, d_max)
        if best is None:
            with pytest.raises(InfeasiblePlanError):
                dp_plan(parts, profs, d_max)
            continue
        plan = dp_plan(parts, profs, d_max)
        assert plan.total_precision == best, f"trial {trial}"
        assert plan.total_latency_ms <= d_max


def test_dp_value_nondecreasing_in_budget(rng):
    profs = make_profiles([5, 9, 14, 22, 31], [0.1, 0.3, 0.45, 0.5, 0.52])
    parts = [one_partition(i) for i in range(3)]
    prev = -np.inf
    for d_max in range(15, 120, 7):
        plan = dp_plan(parts, profs, d_max)
        assert plan.total_precision >= prev
        prev = plan.total_precision


def test_dp_one_model_per_partition(rng):
    profs = default_profiles()
    cfg = random_config(rng, 4)
    from sceneplan.core import Frame

    parts = partitions_from_config(cfg, Frame(3840, 2160))
    plan = dp_plan(parts, profs, d_max=1200)
    assert sorted(mapping(plan).keys()) == [0, 1, 2, 3]
    assert plan.total_latency_ms <= 1200
    assert plan.total_latency_ms == sum(lat for _, _, lat, _ in plan.assignments)


def test_dp_tie_break_prefers_cheaper():
    # both models give identical precision; the faster one must win
    profs = make_profiles([30, 10], [0.4, 0.4])
    plan = dp_plan([one_partition()], profs, d_max=100)
    assert mapping(plan) == {0: "m1"}
    assert plan.total_latency_ms == 10


def test_dp_generous_budget_picks_best_everywhere(rng):
    profs = default_profiles()
    parts = [one_partition(i, areas=(float(a),))
             for i, a in enumerate(rng.uniform(100, 1e5, 4))]
    plan = dp_plan(parts, profs, d_max=400 * 4)
    for i, row in enumerate(precision_table(parts, profs).tolist()):
        best = max(row)
        assert plan.assignments[i][3] == pytest.approx(best)


# ---------------------------------------------------------------------------
# planner against the full-table reference (drawn comparisons are in
# test_references.py)
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """A call's result, or its exception's type and text."""
    try:
        return fn(*args)
    except (ValueError, InfeasiblePlanError) as e:
        return type(e), str(e)


def test_dp_plan_model_slower_than_budget_matches_reference():
    profs = make_profiles([40, 500, 25], [0.3, 0.9, 0.3])
    parts = [one_partition(i) for i in range(3)]
    for d_max in (0, 74, 75, 120, 499, 500, 1499, 1500, 4000):
        assert outcome(dp_plan, parts, profs, d_max) == \
            outcome(dp_plan_reference, parts, profs, d_max)


def test_dp_plan_nan_precision_never_wins():
    # a NaN bin edge, which would yield NaN precision for larger areas, is
    # rejected when the profile is built, so it never reaches the table
    with pytest.raises(ValueError, match="odd: bin edges must be finite"):
        ModelProfile("odd", 640, 30, ((1.0, 0.9), (float("nan"), 0.5), (100.0, 0.1)))


def test_dp_plan_huge_budget_equals_reachable_budget(rng):
    profs = default_profiles()
    from sceneplan.core import Frame

    for n in (1, 4, 15):
        parts = partitions_from_config(random_config(rng, n), Frame(3840, 2160))
        assert dp_plan(parts, profs, 10 ** 9) == dp_plan(parts, profs, n * 400)


@pytest.mark.parametrize("d_max", [2000.5, 2000.0, float("nan"), "2000", True,
                                   np.float64(100.0)])
def test_dp_plan_rejects_non_integer_budget(d_max):
    with pytest.raises(ValueError, match="d_max"):
        dp_plan([one_partition()], make_profiles([10], [0.5]), d_max)


def test_dp_plan_accepts_numpy_integer_budget():
    profs = make_profiles([10, 20], [0.2, 0.5])
    parts = [one_partition(0), one_partition(1)]
    assert dp_plan(parts, profs, np.int64(30)) == dp_plan(parts, profs, 30)
    assert dp_plan(parts, profs, np.int32(30)) == dp_plan_reference(parts, profs, 30)


# ---------------------------------------------------------------------------
# exactness traps of the precision table and the banded DP table
# ---------------------------------------------------------------------------

def bits(table):
    """A table's shape and the bits of its cells, so -0.0 differs from 0.0."""
    return table.shape, table.tobytes()


@pytest.mark.parametrize("areas", [(1.0,) * 7 + (25.0,), (1.0,) * 6 + (25.0,) * 2])
def test_precision_table_adds_in_member_order_where_pairwise_differs(areas):
    # numpy's pairwise sum of the eight values (np.sum, or an axis sum over
    # a single block), or of 0.0 and the eight, rounds differently in the
    # last bit from adding them in member order
    prof = ModelProfile("m", 320, 10, ((4.0, 0.0), (16.0, 0.0), (65536.0, 0.125)))
    part = PartitionDescriptor(0, 1, 4, areas)
    values = np.interp(np.array(areas) * 320 ** 2 / 4, prof.centers, prof.maps)
    in_order = 0.0
    for v in values.tolist():
        in_order += v
    pairwise = {float(np.sum(values)), float(np.sum(np.r_[0.0, values]))}
    assert pairwise - {in_order}  # the trap is live
    table = precision_table([part], [prof])
    assert bits(table) == bits(precision_table_reference([part], [prof]))
    assert table[0, 0] == in_order / 8


def test_precision_table_negative_zero_map_matches_reference():
    profs = [ModelProfile("z", 640, 10, ((16.0, -0.0), (64.0, -0.0))),
             ModelProfile("h", 640, 12, ((16.0, -0.0), (64.0, 0.5)))]
    parts = [one_partition(0, areas=(1.0,)), one_partition(1, areas=(1.0, 5e4, 2.0))]
    table = precision_table(parts, profs)
    assert bits(table) == bits(precision_table_reference(parts, profs))
    assert math.copysign(1.0, table[0, 0]) == 1.0  # the sum starts from 0.0


def test_precision_table_of_no_partitions_has_a_column_per_model():
    profs = default_profiles()
    table = precision_table([], profs)
    assert table.shape == (0, len(profs)) and table.dtype == np.float64


def test_dp_plan_budget_inside_the_bands_matches_reference():
    # n * lo < d_max < n * hi, so the budget cuts the top of the later rows;
    # two models share each of the two smaller latencies, and a and b also
    # tie in precision (b, the smaller input, wins)
    profs = [flat_profile("a", 640, 20, 0.4), flat_profile("b", 320, 20, 0.4),
             flat_profile("c", 896, 35, 0.55), flat_profile("d", 1280, 35, 0.5),
             flat_profile("e", 1024, 90, 0.6)]
    parts = [one_partition(i, areas=(400.0 * (i + 1),)) for i in range(6)]
    for d_max in (6 * 20 + 1, 6 * 20 + 15, 150, 200, 300, 6 * 90 - 1):
        assert 6 * 20 < d_max < 6 * 90
        assert dp_plan(parts, profs, d_max) == dp_plan_reference(parts, profs, d_max)


def test_dp_plan_one_below_the_cheapest_plan_fails_like_reference():
    profs = make_profiles([30, 12, 12, 50], [0.3, 0.2, 0.25, 0.9])
    parts = [one_partition(i) for i in range(5)]
    d_max = 5 * 12 - 1
    got = outcome(dp_plan, parts, profs, d_max)
    assert got == outcome(dp_plan_reference, parts, profs, d_max)
    assert got == (InfeasiblePlanError,
                   "budget 59 ms infeasible: cheapest assignment needs 60 ms (short by 1 ms)")


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------

def plan_from_latencies(lats):
    assignments = tuple((i, f"m{i}", int(l), 0.5) for i, l in enumerate(lats))
    from sceneplan.offload import OffloadPlan

    return OffloadPlan(assignments, 0.5 * len(lats), sum(lats), sum(lats))


def test_serial_schedule():
    sched = assign_servers(plan_from_latencies([5, 4, 3]), 1)
    assert sched.makespan_ms == 12


def test_fully_parallel_schedule():
    sched = assign_servers(plan_from_latencies([5, 4, 3]), 8)
    assert sched.makespan_ms == 5


def test_lpt_example_vs_exhaustive_oracle():
    lats = [5, 4, 3, 3, 3]
    sched = assign_servers(plan_from_latencies(lats), 2)
    lanes = sorted(tuple(t.latency_ms for t in lane) for lane in sched.lanes)
    # hand simulation of the LPT rule: lanes {5,3} and {4,3,3}
    assert lanes == [(4, 3, 3), (5, 3)]
    assert sched.makespan_ms == 10
    best = optimal_makespan(lats, 2)
    assert best == 9
    assert sched.makespan_ms <= (4 / 3 - 1 / 6) * best


def test_lpt_bound_random(rng):
    for _ in range(30):
        n = int(rng.integers(1, 9))
        lats = [int(l) for l in rng.integers(1, 60, n)]
        for e in (1, 2, 4):
            sched = assign_servers(plan_from_latencies(lats), e)
            best = optimal_makespan(lats, e)
            assert sched.makespan_ms <= (4 / 3 - 1 / (3 * e)) * best + 1e-9
            assert max(lats) <= sched.makespan_ms <= sum(lats)


def test_empty_plan_inputs_are_refused():
    parts = [PartitionDescriptor(0, 64, 64, (100.0,))]
    with pytest.raises(ValueError, match="^no partitions to plan$"):
        dp_plan([], default_profiles(), 1000)
    with pytest.raises(ValueError, match="^no model profiles$"):
        dp_plan(parts, [], 1000)
    with pytest.raises(ValueError, match="^partition 0: needs at least one box$"):
        PartitionDescriptor(0, 64, 64, ())


@pytest.mark.parametrize("lanes, makespan, message", [
    (((0, 5, 5, 10),), 10, "lane gap/overlap at partition 0"),
    (((0, 5, 0, 4),), 4, "span != latency for partition 0"),
    (((0, 5, 0, 5), (1, 3, 0, 3)), 7, "recorded makespan disagrees with replay"),
], ids=["gap", "span", "makespan"])
def test_simulate_refuses_a_schedule_its_replay_contradicts(lanes, makespan, message):
    from sceneplan.offload import ScheduledTask, ServerSchedule

    schedule = ServerSchedule(tuple((ScheduledTask(pid, "m", lat, start, end),)
                                    for pid, lat, start, end in lanes), makespan)
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate(schedule)


def test_profile_refuses_a_key_it_does_not_read():
    model = {"name": "m", "input_size": 320, "latency_ms": 10, "curve": [[16, 0.1], [64, 0.3]]}
    with pytest.raises(ValueError, match=r"^model\.latncy_ms is not a field$"):
        profile_from_dict({**model, "latncy_ms": 9})
    with pytest.raises(ValueError, match=r"^model\.latency_ms is missing$"):
        profile_from_dict({k: v for k, v in model.items() if k != "latency_ms"})
    with pytest.raises(ValueError, match=r"^model must be an object, got 5$"):
        profile_from_dict(5)


def test_simulate_empty():
    from sceneplan.offload import ServerSchedule

    metrics = simulate(ServerSchedule((), 0))
    assert metrics.makespan_ms == 0 and metrics.sum_latency_ms == 0


def test_simulate_single_block_full_utilization():
    sched = assign_servers(plan_from_latencies([7]), 3)
    metrics = simulate(sched)
    assert metrics.makespan_ms == 7
    assert metrics.utilization[0] == 1.0
    assert metrics.utilization[1] == 0.0


def test_simulate_conservation(rng):
    for _ in range(20):
        lats = [int(l) for l in rng.integers(1, 80, int(rng.integers(1, 12)))]
        sched = assign_servers(plan_from_latencies(lats), 3)
        metrics = simulate(sched)
        assert metrics.sum_latency_ms == sum(lats)
        assert sum(metrics.busy_ms) == sum(lats)
        assert max(lats) <= metrics.makespan_ms <= sum(lats)
