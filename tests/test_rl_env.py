import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan.clustering import (
    PAIR_LOOP_BELOW,
    BandwidthSpec,
    ClusterGeometry,
    TransformParams,
    initial_clusters,
    merge_clusters,
    select_merge_pair,
    split_cluster,
)
from sceneplan.core import ClusterConfig, DetectionBox, Frame, make_cluster
from sceneplan.ppo import (
    Hyperparams,
    PolicyCheckpoint,
    collect,
    greedy_policy,
    init_mlp,
    keep_policy,
    mlp_forward,
    random_policy,
    rollout,
)
from sceneplan.rl_env import (
    KEEP,
    MERGE,
    SPLIT_BASE,
    EnvConfig,
    RewardWeights,
    action_mask,
    apply_action,
    encode_state,
    n_actions,
    reward,
    rewards,
    state_dim,
    step,
)
from sceneplan.scene import SceneSpec, Stratum, generate_scene

from oracles import (
    action_mask_reference,
    encode_state_reference,
    geometry_of,
    pair_distance,
    policy_sample_reference,
    random_config,
    reward_centroids,
    reward_per_cluster_reference,
    reward_reference,
    select_merge_pair_reference,
    split_cluster_reference,
    tied_config,
)

DESK = RewardWeights(alpha=50.0, beta=1.0, gamma=1e6, delta=5.0,
                     n_min=10, n_max=15, d_m=0.03)


def singleton_config(centers):
    boxes = [DetectionBox(x, y, 0.05, 0.05) for x, y in centers]
    clusters = tuple(make_cluster([i], boxes) for i in range(len(boxes)))
    return ClusterConfig(clusters, tuple(boxes))


def n_singletons(n):
    xs = np.linspace(0.05, 0.95, n)
    return singleton_config([(float(x), 0.5) for x in xs])


# ---------------------------------------------------------------------------
# state encoding
# ---------------------------------------------------------------------------

def test_encode_padding():
    cfg = singleton_config([(0.3, 0.4)])
    s = encode_state(cfg, geometry_of(cfg), n_pad=3)
    assert len(s) == 16
    assert s[:5] == pytest.approx([0.3, 0.4, 0.05, 0.05, 1.0])
    assert (s[5:15] == 0).all()
    assert s[-1] == pytest.approx(1 / 3)


def test_encode_full():
    cfg = n_singletons(3)
    s = encode_state(cfg, geometry_of(cfg), n_pad=3)
    slots = s[:-1].reshape(3, 5)
    assert (slots != 0).all()
    assert s[-1] == 1.0


def test_encode_truncates():
    cfg = n_singletons(5)
    s = encode_state(cfg, geometry_of(cfg), n_pad=3)
    assert len(s) == 16
    assert s[-1] == 1.0
    assert s[0] == pytest.approx(cfg.detections[cfg.clusters[0][0]].cx)


def test_encode_entries_in_unit_range(rng):
    for _ in range(10):
        cfg = random_config(rng, 4)
        s = encode_state(cfg, geometry_of(cfg), n_pad=6)
        assert (s >= 0).all() and (s <= 1).all()


@st.composite
def gate_walks(draw):
    """A frame started at 11-16 clusters (each cluster's members in index
    order, as MeanShift's starts are), a transform, n_pad, and a walk
    of runs of merges or splits (split ``pick`` modulo the splittable
    clusters) that crosses ``PAIR_LOOP_BELOW`` both ways. On a grid,
    centroid distances tie exactly."""
    k = draw(st.integers(11, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = k + draw(st.integers(k, 3 * k))
    grid = draw(st.sampled_from([None, 8, 32]))
    boxes = []
    for cx, cy, w, h in rng.uniform(0.05, 0.95, size=(n, 4)).tolist():
        if grid is not None:
            cx, cy = round(cx * grid) / grid, round(cy * grid) / grid
        boxes.append(DetectionBox(cx, cy, w / 8, h / 8))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(labels)
    start = ClusterConfig(tuple(make_cluster(np.flatnonzero(labels == c).tolist(), boxes)
                                for c in range(k)), boxes)
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 4)), min_size=2, max_size=5))
    walk = [draw(st.none() if merge else st.integers(0, 99)) for merge, length in runs
            for _ in range(length)]
    transform = draw(st.sampled_from([None, TransformParams(0.5), TransformParams(0.3)]))
    return start, transform, draw(st.sampled_from([1, 8, 13, 20, 30])), walk


@settings(max_examples=150, deadline=None)
@given(gate_walks())
def test_rows_carried_across_the_gate_equal_rows_built_afresh(args):
    config, transform, n_pad, walk = args
    boxes = config.detections
    geometry, carried = ClusterGeometry(boxes, transform), False
    for pick in [*walk, None]:
        if config.count >= PAIR_LOOP_BELOW:
            # a step from 13 clusters up to as many holds the rows before any
            # read; a start, or a climb back from 12, builds them on first read
            assert (geometry._held[0] is config) == carried
            fresh = ClusterGeometry(boxes, transform).rows(config)
            assert geometry.rows(config).tobytes() == fresh.tobytes()
        assert encode_state(config, geometry, n_pad).tobytes() == \
            encode_state_reference(config, n_pad, len(boxes)).tobytes()
        if config.count >= 2:
            assert select_merge_pair(config, geometry) == \
                select_merge_pair_reference(config, transform)
        # below 13 clusters nothing reads or fills the slot
        assert (geometry._held[0] is config) == (config.count >= PAIR_LOOP_BELOW)
        splittable = [i for i, c in enumerate(config.clusters) if len(c) >= 2]
        if pick is None and config.count >= 2:
            action = MERGE
        elif pick is not None and splittable:
            action = SPLIT_BASE + splittable[pick % len(splittable)]
        else:
            action = KEEP
        carried = config.count >= PAIR_LOOP_BELOW
        config = apply_action(config, action, geometry).config


# ---------------------------------------------------------------------------
# action mask
# ---------------------------------------------------------------------------

def test_mask_single_singleton():
    cfg = singleton_config([(0.5, 0.5)])
    m = action_mask(cfg, n_pad=4)
    assert m.tolist() == [True, False, False, False, False, False]


def test_mask_two_splittable():
    rng = np.random.default_rng(0)
    cfg = random_config(rng, 2, min_size=3, max_size=3)
    m = action_mask(cfg, n_pad=4)
    assert m.tolist() == [True, True, True, True, False, False]


def test_mask_length(rng):
    for n_pad in (1, 5, 30):
        cfg = random_config(rng, 2)
        assert len(action_mask(cfg, n_pad)) == 2 + n_pad


# ---------------------------------------------------------------------------
# reward
# ---------------------------------------------------------------------------

def test_reward_singletons_zero_r1_r2():
    cfg = n_singletons(12)
    r1, r2, r3, r4, total = reward(cfg, DESK)
    assert r1 == 0.0 and r2 == 0.0 and r3 == 0.0


def test_reward_count_band():
    # N below, inside, and above the [10, 15] band
    assert reward(n_singletons(8), DESK)[2] == -2.0
    assert reward(n_singletons(12), DESK)[2] == 0.0
    assert reward(n_singletons(17), DESK)[2] == -2.0


@pytest.mark.parametrize("transform", [None, TransformParams(0.5)])
def test_reward_without_close_pairs_is_positive_zero(transform):
    # R4 and R3 both print 0.0 in reports, never -0.0
    cfg = singleton_config([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])
    for r4 in (reward(cfg, DESK, transform)[3],
               reward_per_cluster_reference(cfg, DESK, transform)[3]):
        assert r4 == 0.0 and math.copysign(1.0, r4) == 1.0
        assert str(r4) == "0.0"


def test_reward_close_pair_counting():
    cfg = singleton_config([(0.5, 0.5), (0.51, 0.5), (0.9, 0.9)])
    r4 = reward(cfg, DESK)[3]
    assert r4 == -1.0


def test_reward_matches_reference_raw(rng):
    w = RewardWeights(alpha=3.0, beta=7.0, gamma=11.0, delta=2.0,
                      n_min=2, n_max=4, d_m=0.2)
    for _ in range(50):
        cfg = random_config(rng, int(rng.integers(1, 7)))
        got = reward(cfg, w, transform=None)
        want = reward_reference(cfg, w, alpha_t=None)
        assert got == pytest.approx(want, abs=1e-9)


def test_reward_matches_reference_transformed(rng):
    w = RewardWeights(alpha=3.0, beta=7.0, gamma=11.0, delta=2.0,
                      n_min=2, n_max=4, d_m=0.2)
    t = TransformParams(0.5)
    for _ in range(50):
        cfg = random_config(rng, int(rng.integers(1, 7)))
        got = reward(cfg, w, transform=t)
        want = reward_reference(cfg, w, alpha_t=0.5)
        assert got == pytest.approx(want, abs=1e-9)


def test_reward_counts_pairs_at_exactly_d_m():
    # centroid distances 0.125 (exactly d_m, not closer) and 0.0 (coincident)
    cfg = singleton_config([(0.25, 0.5), (0.375, 0.5), (0.375, 0.5)])
    w = RewardWeights(d_m=0.125)
    assert reward(cfg, w)[3] == reward_per_cluster_reference(cfg, w)[3] == -1.0
    w = RewardWeights(d_m=math.nextafter(0.125, 1.0))
    assert reward(cfg, w)[3] == reward_per_cluster_reference(cfg, w)[3] == -3.0


@pytest.mark.parametrize("alpha", [None, 0.5])
def test_reward_swapped_offsets_at_d_m_match_reference(rng, alpha):
    # with d_m the distance of (0.5, 0.5) to (p, q), the pairs to (p, q) and
    # (q, p) both sit exactly on it under the one rounding, so neither counts
    transform = None if alpha is None else TransformParams(alpha)
    for _ in range(300):
        p, q = (float(v) for v in rng.uniform(0.3, 0.7, size=2))
        cfg = singleton_config([(0.5, 0.5), (p, q), (q, p)])
        cents = reward_centroids(cfg, transform)
        w = RewardWeights(d_m=pair_distance(cents[0], cents[1]))
        assert reward(cfg, w, transform) == reward_per_cluster_reference(cfg, w, transform)


def test_reward_empty_configuration_names_it():
    with pytest.raises(ValueError, match="empty configuration"):
        reward(ClusterConfig((), ()), DESK)


def test_reward_decomposition_identity(rng):
    w = RewardWeights(alpha=5.0, beta=2.0, gamma=100.0, delta=3.0,
                      n_min=2, n_max=4, d_m=0.1)
    for _ in range(20):
        cfg = random_config(rng, int(rng.integers(1, 6)))
        r1, r2, r3, r4, total = reward(cfg, w)
        assert total == pytest.approx(
            w.alpha * r1 + w.beta * r2 + w.gamma * r3 + w.delta * r4, abs=1e-9)
        assert r1 <= 0 and r2 <= 0 and r3 <= 0 and r4 <= 0
        assert total <= 0


# ---------------------------------------------------------------------------
# step / reset
# ---------------------------------------------------------------------------

def test_step_keep_is_identity(rng):
    cfg = random_config(rng, 3)
    out = step(cfg, KEEP, 8, geometry_of(cfg))
    assert out.config is cfg
    assert out.valid and out.applied == "keep"


def test_step_merge_decrements(rng):
    cfg = random_config(rng, 2)
    out = step(cfg, MERGE, 8, geometry_of(cfg))
    assert out.config.count == 1
    assert out.applied == "merge"


def test_step_split_conserves(rng):
    cfg = random_config(rng, 2, min_size=4, max_size=4)
    out = step(cfg, SPLIT_BASE + 0, 8, geometry_of(cfg))
    assert out.config.count == 3
    assert sum(len(c) for c in out.config.clusters) == 8


def test_step_masked_action_degrades_to_keep():
    cfg = singleton_config([(0.5, 0.5)])
    out = step(cfg, MERGE, 4, geometry_of(cfg))
    assert out.config is cfg
    assert not out.valid
    assert out.applied == "keep"


def test_step_reward_is_post_action(rng):
    # a step's score is its post-action configuration's, not the one it left
    frame = make_test_frame(rng)
    episodes = rollout([frame], TEST_ENV, 1, lambda states, masks, rng: [MERGE])
    start = initial_clusters(ClusterGeometry(frame.detections, TEST_ENV.transform),
                             TEST_ENV.bandwidth)
    (out,) = episodes.traces[0]
    assert out.applied == "merge" and out.config.count == start.count - 1
    assert episodes.scores()[0, 0].tolist() == list(
        reward(out.config, TEST_ENV.weights, TEST_ENV.transform))


def test_step_rejects_out_of_range_action(rng):
    cfg = random_config(rng, 2)
    with pytest.raises(ValueError):
        step(cfg, 99, 4, geometry_of(cfg))


def test_env_config_rejects_n_pad_below_one():
    # both fail where the config is built, before any rollout's MeanShift
    for n_pad in (0, -1):
        with pytest.raises(ValueError, match=rf"^n_pad must be >= 1, got {n_pad}$"):
            EnvConfig(n_pad=n_pad)


def test_apply_action_split_invalid_index(rng):
    cfg = random_config(rng, 2, min_size=1, max_size=1)
    nxt, valid, applied = apply_action(cfg, SPLIT_BASE + 5, geometry_of(cfg))
    assert nxt is cfg and not valid and applied == "keep"


def test_reset_single_detection():
    geometry = ClusterGeometry((DetectionBox(0.4, 0.6, 0.1, 0.1),), TransformParams())
    cfg = initial_clusters(geometry)
    assert cfg.count == 1
    s = encode_state(cfg, geometry, n_pad=4)
    assert (s[:5] != 0).all() and (s[5:20] == 0).all()


def test_reset_planted_blobs(rng):
    boxes = []
    for cx, cy in [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)]:
        for _ in range(10):
            boxes.append(DetectionBox(
                float(np.clip(cx + rng.normal(0, 0.005), 0, 1)),
                float(np.clip(cy + rng.normal(0, 0.005), 0, 1)),
                0.02, 0.02))
    cfg = initial_clusters(ClusterGeometry(tuple(boxes), TransformParams(0.5)),
                           BandwidthSpec("fixed", 0.1))
    assert cfg.count == 3


def test_reset_deterministic(rng):
    boxes = tuple(DetectionBox(float(x), float(y), 0.02, 0.02)
                  for x, y in rng.uniform(0.1, 0.9, (20, 2)))
    a = initial_clusters(ClusterGeometry(boxes, TransformParams()))
    b = initial_clusters(ClusterGeometry(boxes, TransformParams()))
    assert a == b


def test_reset_empty_scene():
    with pytest.raises(ValueError, match="empty scene"):
        initial_clusters(ClusterGeometry((), TransformParams()))


# ---------------------------------------------------------------------------
# environment invariants
# ---------------------------------------------------------------------------

TEST_ENV = EnvConfig(weights=RewardWeights(alpha=5, beta=1, gamma=10, delta=2,
                                           n_min=2, n_max=4, d_m=0.05),
                     bandwidth=BandwidthSpec("fixed", 0.15), n_pad=8)


def make_test_frame(rng, n_points=20):
    boxes = tuple(DetectionBox(float(x), float(y), 0.03, 0.03)
                  for x, y in rng.uniform(0.1, 0.9, (n_points, 2)))
    return Frame(1000, 1000, boxes)


def test_all_keep_episode_return(rng):
    frame = make_test_frame(rng)
    start = initial_clusters(ClusterGeometry(frame.detections, TEST_ENV.transform),
                             TEST_ENV.bandwidth)
    base = reward(start, TEST_ENV.weights, TEST_ENV.transform)[4]
    episodes = rollout([frame], TEST_ENV, 7, keep_policy)
    assert len(episodes.traces[0]) == 7
    assert episodes.scores()[0, :, 4].sum() == pytest.approx(7 * base, abs=1e-9)


@pytest.mark.parametrize("n_frames, t_max, named", [
    (0, 5, "at least one frame"), (1, 0, "t_max must be > 0, got 0")], ids=["no-frames", "no-steps"])
def test_rollout_rejects_no_frames_or_no_steps(rng, n_frames, t_max, named):
    frames = [make_test_frame(rng) for _ in range(n_frames)]
    with pytest.raises(ValueError, match=named):
        rollout(frames, TEST_ENV, t_max, keep_policy)


STRATA = (Stratum(0.05, 0.45, 0.012, 0.03, 0.65), Stratum(0.55, 0.95, 0.06, 0.12, 0.35))


def desk_frames(n):
    return [generate_scene(SceneSpec(1280, 1280, 14, 20, STRATA, seed)) for seed in range(n)]


DESK_ENV = EnvConfig(weights=DESK, transform=TransformParams(0.5),
                     bandwidth=BandwidthSpec("fixed", 0.06), n_pad=8)


def greedy_chooser(policy_seed):
    """The greedy chooser of a random 8-slot policy. On the first 8 desk
    frames, seed 3 never repeats a configuration on some and repeats one
    after 14-19 steps on the others; seed 5 repeats one after 2-7 steps."""
    n_pad = 8
    policy = init_mlp(np.random.default_rng(policy_seed),
                      [state_dim(n_pad), 16, n_actions(n_pad)])
    return greedy_policy(PolicyCheckpoint(n_pad, True, policy, policy, DESK, Hyperparams()))


def episode_record(episodes):
    """Everything an episode shows, with every step's scores."""
    return (episodes.traces, episodes.scores().tolist(),
            episodes.states.tolist(), episodes.masks.tolist(), episodes.actions.tolist())


def reference_scores(episodes, transform):
    """Every step's scores, each configuration scored alone by the oracle."""
    return [[list(reward_per_cluster_reference(out.config, episodes.weights, transform))
             for out in trace] for trace in episodes.traces]


def stepped_outcomes(trace):
    """How many of a trace's steps were stepped, not replayed."""
    return len({id(out) for out in trace})


@pytest.mark.parametrize("policy_seed", [3, 5, None])
def test_stationary_rollout_replays_what_stepping_gives(policy_seed):
    # a stationary chooser's replayed cycle equals the full t_max steps of
    # the same chooser without the mark, alone and in a lockstep batch;
    # no policy seed means keep_policy
    choose = keep_policy if policy_seed is None else greedy_chooser(policy_seed)
    unmarked = lambda states, masks, rng: choose(states, masks, rng)  # noqa: E731
    assert choose.stationary and not hasattr(unmarked, "stationary")
    t_max, frames = 30, desk_frames(8)
    for batch in [[frame] for frame in frames] + [frames]:
        replayed = rollout(batch, DESK_ENV, t_max, choose)
        stepped = rollout(batch, DESK_ENV, t_max, unmarked)
        assert episode_record(replayed) == episode_record(stepped)
        assert replayed.scores().tolist() == reference_scores(replayed, DESK_ENV.transform)
        assert all(stepped_outcomes(trace) == t_max for trace in stepped.traces)
    counts = [stepped_outcomes(trace) for trace in replayed.traces]
    if policy_seed is None:
        assert counts == [1] * 8
    else:  # the batch's episodes close their cycles at different steps
        assert len(set(counts)) >= 3 and min(counts) < t_max
    if policy_seed == 3:
        assert t_max in counts


@pytest.mark.parametrize("chooser, calls", [("keep", 1), ("unmarked", 7), ("random", 7)])
def test_rollout_step_calls_per_episode(monkeypatch, chooser, calls):
    import sceneplan.ppo as ppo

    choose = {"keep": keep_policy,
              "unmarked": lambda states, masks, rng: keep_policy(states, masks, rng),
              "random": random_policy}[chooser]
    steps, real_step = [], ppo.step
    monkeypatch.setattr(ppo, "step", lambda *a: steps.append(a) or real_step(*a))
    episodes = rollout(desk_frames(3), DESK_ENV, 7, choose, np.random.default_rng(0))
    assert len(steps) == 3 * calls
    assert [len(trace) for trace in episodes.traces] == [7] * 3


def test_split_then_merge_restores_reward(rng):
    w = RewardWeights(alpha=5, beta=1, gamma=10, delta=2, n_min=2, n_max=4, d_m=0.05)
    for _ in range(10):
        cfg = random_config(rng, 3, min_size=2, max_size=6)
        before = reward(cfg, w)
        split = split_cluster(cfg, 1, geometry_of(cfg))
        restored = (split, True)
        merged = None
        from sceneplan.clustering import merge_clusters
        merged = merge_clusters(split, 1, split.count - 1)
        after = reward(merged, w)
        assert after == before  # bitwise restoration via sorted members


def test_split_never_worsens_cluster_spread(rng):
    # size-weighted mean center distance of the two halves vs the original
    for trial in range(50):
        cfg = random_config(rng, 1, min_size=3, max_size=12)
        cluster = cfg.clusters[0]
        pts = np.array([[cfg.detections[i].cx, cfg.detections[i].cy] for i in cluster])
        orig = np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean()
        out = split_cluster(cfg, 0, geometry_of(cfg))
        weighted = 0.0
        for c in out.clusters:
            sub = np.array([[cfg.detections[i].cx, cfg.detections[i].cy] for i in c])
            weighted += len(sub) * np.linalg.norm(sub - sub.mean(axis=0), axis=1).mean()
        weighted /= len(cluster)
        assert weighted <= orig + 1e-12, f"trial {trial}"


def test_masked_step_is_noop_on_config():
    # one singleton cluster: splitting it is masked and keeps the config
    boxes = (DetectionBox(0.5, 0.5, 0.05, 0.05),)
    geometry = ClusterGeometry(boxes, TEST_ENV.transform)
    before = initial_clusters(geometry, TEST_ENV.bandwidth)
    out = step(before, SPLIT_BASE + 0, TEST_ENV.n_pad, geometry)
    assert out.config is before


def reference_step(cfg, action, transform):
    """The next configuration as apply_action made it from the per-cluster
    reference loops."""
    if action == MERGE and cfg.count >= 2:
        return merge_clusters(cfg, *select_merge_pair_reference(cfg, transform))
    idx = action - SPLIT_BASE
    if 0 <= idx < cfg.count and len(cfg.clusters[idx]) >= 2:
        return split_cluster_reference(cfg, idx, transform)
    return cfg


@pytest.mark.parametrize("alpha", [None, 0.5])
@pytest.mark.parametrize("seed", range(4))
def test_rollout_outcomes_equal_reference_chain(alpha, seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 12, size=10).tolist()
    frame = Frame(3840, 2160, tied_config(rng, sizes, grid=(None, 64)[seed % 2],
                                          copies={3, 6}).detections)
    transform = None if alpha is None else TransformParams(alpha)
    n_pad = 30
    cfg = initial_clusters(ClusterGeometry(frame.detections, TransformParams(0.5)),
                           BandwidthSpec("fixed", 0.06))
    geometry = ClusterGeometry(frame.detections, transform)
    for _ in range(30):
        # merges and splits, plus masked ids that degrade to keep
        action = int(rng.choice([MERGE, SPLIT_BASE + rng.integers(0, min(cfg.count, n_pad)),
                                 rng.integers(0, SPLIT_BASE + n_pad)], p=[0.4, 0.4, 0.2]))
        nxt = reference_step(cfg, action, transform)
        out = step(cfg, action, n_pad, geometry)
        assert out.config == nxt
        # scored in the episode's geometry, its memo filled by the steps so far
        assert rewards([(out.config, geometry)], DESK).tolist() == [
            list(reward_per_cluster_reference(nxt, DESK, transform))]
        cfg = nxt


@pytest.mark.parametrize("seed", range(4))
def test_sampled_rollout_equals_reference_chain(seed):
    # three desk episodes collected together; n_pad 8 truncates the state
    # and mask of larger configurations
    strata = (Stratum(0.05, 0.45, 0.012, 0.03, 0.65), Stratum(0.55, 0.95, 0.06, 0.12, 0.35))
    frames = [generate_scene(SceneSpec(1280, 1280, 14, 20, strata, seed + 10 * e))
              for e in range(3)]
    transform, n_pad, t_max = TransformParams(0.5), 8, 30
    env_config = DESK_ENV
    policy = init_mlp(np.random.default_rng(100 + seed),
                      [state_dim(n_pad), 16, n_actions(n_pad)])
    critic = init_mlp(np.random.default_rng(200 + seed), [state_dim(n_pad), 16, 1])
    roll_rng = np.random.default_rng(seed)
    batch, episodes, _ = collect(policy, critic, frames, env_config,
                                 Hyperparams(gamma=0.9, t_max=t_max), roll_rng)
    assert len(batch) == 3 * t_max
    assert [len(trace) for trace in episodes.traces] == [t_max] * 3

    # the reference chain, driven by each episode's recorded actions; the
    # draws go in (step, episode) order, from the rows of one batched forward
    rng = np.random.default_rng(seed)
    cfgs = [initial_clusters(ClusterGeometry(frame.detections, transform),
                             env_config.bandwidth) for frame in frames]
    for t in range(t_max):
        ref_states = [encode_state_reference(cfg, n_pad, len(cfg.detections)) for cfg in cfgs]
        ref_masks = [action_mask_reference(cfg, n_pad) for cfg in cfgs]
        logits = mlp_forward(policy, np.array(ref_states))
        for e, frame in enumerate(frames):
            row = e * t_max + t  # episode-major
            state, mask = batch.states[row], batch.masks[row]
            action, logp = int(batch.actions[row]), float(batch.old_logp[row])
            assert episodes.actions[e, t] == action
            ref_action, ref_logp = policy_sample_reference(logits[e], ref_masks[e], rng)
            assert np.array_equal(state, ref_states[e]) and state.dtype == ref_states[e].dtype
            assert np.array_equal(mask, ref_masks[e]) and mask.dtype == ref_masks[e].dtype
            assert (action, logp) == (ref_action, ref_logp)
            cfgs[e] = reference_step(cfgs[e], action, transform)
            assert episodes.traces[e][t].config == cfgs[e]
    assert episodes.scores().tolist() == reference_scores(episodes, transform)
    for trace, cfg in zip(episodes.traces, cfgs):
        assert trace[-1].config == cfg
    assert roll_rng.random() == rng.random()  # same draws from one stream


@pytest.mark.parametrize("seed", range(3))
def test_step_reward_scored_on_first_read_only(monkeypatch, seed):
    # stepping scores nothing, under a stationary chooser or not; the steps
    # are scored when asked, all in one rewards pass
    import sceneplan.ppo as ppo
    import sceneplan.rl_env as rl_env

    frame = generate_scene(SceneSpec(1280, 1280, 14, 20, STRATA, seed))
    calls, original = [], rl_env.rewards
    spy = lambda scored, weights: calls.append(scored) or original(scored, weights)  # noqa: E731
    for module in (ppo, rl_env):
        monkeypatch.setattr(module, "rewards", spy)
    for choose in (keep_policy, greedy_chooser(3), random_policy):
        episodes = rollout([frame], DESK_ENV, 30, choose, np.random.default_rng(seed))
        assert calls == []
        scores = episodes.scores()
        configs = {id(out.config) for out in episodes.traces[0]}
        assert len(calls) == 1 and len(calls[0]) == len(configs)
        assert scores.tolist() == reference_scores(episodes, DESK_ENV.transform)
        calls.clear()
    assert {out.applied for out in episodes.traces[0]} >= {"merge", "split"}


def test_scores_score_each_distinct_configuration_once(monkeypatch):
    # a keep, an invalid step and a replayed step carry their configuration
    # object on: its 88 distinct records hold 81 configurations, scored once each
    import sceneplan.ppo as ppo

    episodes = rollout(desk_frames(8), TEST_ENV, 30, greedy_chooser(5))
    calls, original = [], ppo.rewards
    monkeypatch.setattr(ppo, "rewards", lambda scored, weights: calls.append(scored)
                        or original(scored, weights))
    scores = episodes.scores()
    assert sum(map(len, episodes.traces)) == 240
    assert len({id(out) for trace in episodes.traces for out in trace}) == 88
    assert [len(scored) for scored in calls] == [81]
    assert scores.tolist() == reference_scores(episodes, TEST_ENV.transform)


@pytest.mark.parametrize("weights, named", [
    (dict(gamma=1e308), "the term weighted by reward.gamma overflows"),
    (dict(gamma=1e308, delta=1e308), "the terms weighted by reward.gamma, reward.delta overflow"),
    # gamma * R3 = -1.4e308 and delta * R4 = -6e307 are finite, their sum is not
    (dict(gamma=2e307, delta=2e307), "the sum of the terms weighted by reward.alpha, "
     "reward.beta, reward.gamma, reward.delta overflows"),
])
def test_reward_that_overflows_names_its_weights(weights, named):
    # three coincident singletons: R3 = -7 (N = 3, n_min = 10), R4 = -3
    cfg = singleton_config([(0.25, 0.5)] * 3)
    w = RewardWeights(**{"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0, **weights})
    with pytest.raises(ValueError, match=f"^reward is not finite: {named}$"):
        reward(cfg, w)


def test_rewards_returns_one_float_row_per_pair(rng):
    scored = [(cfg, geometry_of(cfg)) for cfg in
              (random_config(rng, int(rng.integers(1, 7))) for _ in range(5))]
    got = rewards(scored, DESK)
    assert got.dtype == np.float64 and got.shape == (5, 5)
    assert got.tolist() == [list(reward_per_cluster_reference(cfg, DESK)) for cfg, _ in scored]
    assert rewards([], DESK).shape == (0, 5)


def test_rewards_without_close_pairs_clear_r4s_sign_bit():
    far = singleton_config([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])
    close = singleton_config([(0.5, 0.5), (0.51, 0.5)])
    got = rewards([(far, geometry_of(far)), (close, geometry_of(close))], DESK)
    assert not np.signbit(got[0, 3]) and got[0, 3] == 0.0
    assert got[1, 3] == -1.0


@pytest.mark.parametrize("order, named", [
    ((0, 1, 2), "the term weighted by reward.gamma overflows"),
    ((0, 2, 1), "the terms weighted by reward.gamma, reward.delta overflow"),
    ((2, 1, 0), "the terms weighted by reward.gamma, reward.delta overflow"),
])
def test_rewards_name_the_first_row_that_overflows(order, named):
    # gamma = delta = 1e308 and the band [3, 3]: three far singletons score
    # 0.0; one singleton has R3 = -2, so gamma's term overflows; five
    # coincident ones have R3 = -2 and R4 = -10, so both terms overflow
    w = RewardWeights(gamma=1e308, delta=1e308, n_min=3, n_max=3)
    configs = [singleton_config([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)]),
               singleton_config([(0.5, 0.5)]),
               singleton_config([(0.25, 0.5)] * 5)]
    scored = [(configs[k], geometry_of(configs[k])) for k in order]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^reward is not finite: {named}$"):
            rewards(scored, w)
