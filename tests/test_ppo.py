import json
import math
import os
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from sceneplan.clustering import BandwidthSpec, ClusterGeometry, TransformParams, initial_clusters
from sceneplan.core import DetectionBox, Frame
from sceneplan.ppo import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    EnvConfig,
    Hyperparams,
    MlpParams,
    PolicyCheckpoint,
    TrajectoryBatch,
    compute_returns_advantages,
    greedy_action,
    infer_clusters,
    init_mlp,
    load_checkpoint,
    masked_log_softmax,
    mlp_forward,
    policy_sample,
    ppo_update,
    save_checkpoint,
    standardize_advantages,
    train,
)
from sceneplan.rl_env import RewardWeights, n_actions, state_dim

from oracles import (
    finite_diff_grads,
    mlp_reference,
    returns_reference,
)


def tiny_hyper(**kw):
    base = dict(gamma=0.9, clip_eps=0.2, lr_policy=1e-3, lr_critic=1e-3,
                batch_size=8, t_max=4, iterations=2, episodes_per_iter=2,
                epochs=1, entropy_coef=0.01, hidden=(8, 8), seed=0)
    base.update(kw)
    return Hyperparams(**base)


def small_frame(rng, n=12):
    boxes = tuple(DetectionBox(float(x), float(y), 0.03, 0.03)
                  for x, y in rng.uniform(0.1, 0.9, (n, 2)))
    return Frame(640, 640, boxes)


def tiny_env_config():
    return EnvConfig(
        weights=RewardWeights(alpha=5, beta=1, gamma=10, delta=2,
                              n_min=2, n_max=3, d_m=0.05),
        transform=TransformParams(0.5),
        bandwidth=BandwidthSpec("fixed", 0.2),
        n_pad=4,
    )


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_forward_zero_params_zero_output():
    params = MlpParams(
        [np.zeros((3, 4)), np.zeros((4, 2))],
        [np.zeros(4), np.zeros(2)])
    assert (mlp_forward(params, np.ones((1, 3))) == 0).all()


def test_forward_single_layer_hand_computed():
    params = MlpParams([np.array([[1.0, -2.0], [0.5, 3.0]])],
                       [np.array([0.1, -0.2])])
    out = mlp_forward(params, np.array([[2.0, 1.0]]))
    # output layer is affine, no rectifier: [2+0.5+0.1, -4+3-0.2]
    assert out[0] == pytest.approx([2.6, -1.2])


def test_forward_matches_reference(rng):
    params = init_mlp(rng, [5, 16, 16, 3])
    for _ in range(10):
        x = rng.normal(size=(1, 5))
        assert mlp_forward(params, x)[0] == pytest.approx(
            mlp_reference(params, x[0]), abs=1e-6)


def test_forward_batch_shape(rng):
    params = init_mlp(rng, [5, 8, 2])
    out = mlp_forward(params, rng.normal(size=(7, 5)))
    assert out.shape == (7, 2)


def test_forward_dim_mismatch(rng):
    params = init_mlp(rng, [5, 8, 2])
    for x in (np.ones((3, 4)), np.ones(5), np.ones((1, 1, 5))):
        with pytest.raises(ValueError, match="input shape"):
            mlp_forward(params, x)


# ---------------------------------------------------------------------------
# masked sampling
# ---------------------------------------------------------------------------

def test_sample_single_valid_action(rng):
    logits = np.array([5.0, -1.0, 3.0])
    mask = np.array([False, True, False])
    actions, logps = policy_sample(logits[None], mask[None], rng)
    assert actions.tolist() == [1] and logps.tolist() == [0.0]


def test_sample_uniform_frequencies():
    rng = np.random.default_rng(7)
    logits = np.zeros(6)
    mask = np.array([True, True, True, True, False, False])
    n = 100_000
    actions, _ = policy_sample(np.tile(logits, (n, 1)), np.tile(mask, (n, 1)), rng)
    counts = np.bincount(actions, minlength=6)
    freqs = counts / n
    sigma = math.sqrt(0.25 * 0.75 / n)
    for k in range(4):
        assert abs(freqs[k] - 0.25) < 3 * sigma + 1e-12
    assert counts[4] == 0 and counts[5] == 0


def test_sample_never_masked(rng):
    logits = np.array([0.0, 100.0, 0.0])
    mask = np.array([True, False, True])
    actions, _ = policy_sample(np.tile(logits, (1000, 1)), np.tile(mask, (1000, 1)), rng)
    assert (actions != 1).all()


def test_masked_probabilities_sum_to_one(rng):
    for _ in range(20):
        logits = rng.normal(size=8) * 3
        mask = rng.random(8) < 0.6
        mask[0] = True
        logp = masked_log_softmax(logits, mask)
        p = np.exp(logp)
        assert p[~mask].sum() == 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_all_masked_rejected(rng):
    with pytest.raises(ValueError):
        masked_log_softmax(np.zeros(3), np.zeros(3, dtype=bool))


def test_greedy_tie_break_lowest_id():
    logits = np.array([1.0, 1.0, 1.0])
    mask = np.array([True, True, True])
    assert greedy_action(logits, mask) == 0
    assert greedy_action(logits, np.array([False, True, True])) == 1


# ---------------------------------------------------------------------------
# returns / advantages
# ---------------------------------------------------------------------------

def test_returns_single_step():
    g, a = compute_returns_advantages([-5.0], 0.9, [2.0])
    assert g.tolist() == [-5.0]
    assert a.tolist() == [-7.0]


def test_returns_geometric():
    g, _ = compute_returns_advantages([-1.0, -1.0, -1.0], 0.5, [0.0, 0.0, 0.0])
    assert g == pytest.approx([-1.75, -1.5, -1.0])


def test_returns_match_forward_sum_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 30))
        rewards = rng.normal(size=n)
        g, adv = compute_returns_advantages(rewards, 0.93, np.zeros(n))
        assert g == pytest.approx(returns_reference(rewards, 0.93), abs=1e-9)
        assert adv == pytest.approx(g)


def test_standardize():
    adv = standardize_advantages(np.array([1.0, 2.0, 3.0, 4.0]))
    assert adv.mean() == pytest.approx(0.0, abs=1e-12)
    assert adv.std() == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# update step
# ---------------------------------------------------------------------------

def make_batch(rng, policy, n=12, n_act=4, ratio=None, adv=None):
    """A consistent batch; old_logp comes from the policy itself unless a
    target ratio is forced."""
    dim = policy.weights[0].shape[0]
    states = rng.normal(size=(n, dim))
    masks = np.ones((n, n_act), dtype=bool)
    masks[:, -1] = rng.random(n) < 0.5
    actions, old_logp = policy_sample(mlp_forward(policy, states), masks, rng)
    if ratio is not None:
        old_logp = old_logp - math.log(ratio)
    advantages = adv if adv is not None else rng.normal(size=n)
    return TrajectoryBatch(states, actions, old_logp,
                           np.asarray(advantages, dtype=float),
                           rng.normal(size=n), masks)


def test_update_identity_ratio_surrogate(rng):
    policy = init_mlp(rng, [6, 8, 8, 4])
    critic = init_mlp(rng, [6, 8, 8, 1])
    batch = make_batch(rng, policy)
    _, _, figures = ppo_update(policy, critic, batch, tiny_hyper())
    assert figures["policy_loss"] == pytest.approx(float(batch.advantages.mean()), abs=1e-12)
    # behaviour and current policy are one: ratio 1, nothing clipped
    assert figures["approx_kl"] == pytest.approx(0.0, abs=1e-12)
    assert figures["clip_frac"] == 0.0


def test_update_clip_region_flat(rng):
    # beyond the clip boundary the per-sample objective stops moving with r
    policy = init_mlp(rng, [6, 8, 8, 4])
    critic = init_mlp(rng, [6, 8, 8, 1])
    hyper = tiny_hyper(entropy_coef=0.0)
    pos = [ppo_update(policy, critic,
                      make_batch(np.random.default_rng(3), policy, ratio=r,
                                 adv=np.ones(12)), hyper)[2]["policy_loss"]
           for r in (1.3, 1.7, 2.5)]
    assert pos[0] == pytest.approx(1.2, abs=1e-9)
    assert pos[0] == pytest.approx(pos[1], abs=1e-12)
    assert pos[1] == pytest.approx(pos[2], abs=1e-12)
    neg = [ppo_update(policy, critic,
                      make_batch(np.random.default_rng(4), policy, ratio=r,
                                 adv=-np.ones(12)), hyper)[2]["policy_loss"]
           for r in (0.7, 0.4, 0.1)]
    assert neg[0] == pytest.approx(-0.8, abs=1e-9)
    assert neg[0] == pytest.approx(neg[1], abs=1e-12)
    assert neg[1] == pytest.approx(neg[2], abs=1e-12)


def test_update_inside_clip_region_tracks_ratio(rng):
    policy = init_mlp(rng, [6, 8, 8, 4])
    critic = init_mlp(rng, [6, 8, 8, 1])
    hyper = tiny_hyper(entropy_coef=0.0)
    r = 1.1
    batch = make_batch(np.random.default_rng(5), policy, ratio=r, adv=np.ones(12))
    _, _, figures = ppo_update(policy, critic, batch, hyper)
    assert figures["policy_loss"] == pytest.approx(r, rel=1e-9)
    assert figures["clip_frac"] == 0.0
    assert figures["approx_kl"] == pytest.approx((r - 1) - math.log(r), rel=1e-9)


def test_update_rejects_empty(rng):
    policy = init_mlp(rng, [6, 8, 4])
    critic = init_mlp(rng, [6, 8, 1])
    empty = TrajectoryBatch(np.zeros((0, 6)), np.zeros(0, dtype=int),
                            np.zeros(0), np.zeros(0), np.zeros(0),
                            np.zeros((0, 4), dtype=bool))
    with pytest.raises(ValueError):
        ppo_update(policy, critic, empty, tiny_hyper())


def test_update_aborts_on_nonfinite(rng):
    policy = init_mlp(rng, [6, 8, 4])
    critic = init_mlp(rng, [6, 8, 1])
    batch = make_batch(rng, policy, n_act=4)
    batch.advantages[0] = np.nan
    with pytest.raises(FloatingPointError):
        ppo_update(policy, critic, batch, tiny_hyper())


def test_update_leaves_its_inputs_and_takes_plain_steps(rng):
    from sceneplan.ppo import _critic_loss_grad, _policy_objective_grad

    policy = init_mlp(rng, [6, 8, 8, 4])
    critic = init_mlp(rng, [6, 8, 8, 1])
    for b in policy.biases + critic.biases:  # nonzero, so each bias step shows
        b += rng.normal(size=b.shape)
    nets = (policy, critic)
    before = [[a.copy() for a in net.weights + net.biases] for net in nets]
    batch = make_batch(rng, policy)
    hyper = tiny_hyper()
    _, pdw, pdb = _policy_objective_grad(policy, batch, hyper)
    _, cdw, cdb = _critic_loss_grad(critic, batch)
    new_policy, new_critic, _ = ppo_update(policy, critic, batch, hyper)
    for net, old in zip(nets, before):
        assert [a.tobytes() for a in net.weights + net.biases] == [a.tobytes() for a in old]
    want = ([w + hyper.lr_policy * dw for w, dw in
             zip(policy.weights + policy.biases, pdw + pdb)],
            [w - hyper.lr_critic * dw for w, dw in
             zip(critic.weights + critic.biases, cdw + cdb)])
    for net, arrays in zip((new_policy, new_critic), want):
        assert [a.tobytes() for a in net.weights + net.biases] == \
            [a.tobytes() for a in arrays]


# ---------------------------------------------------------------------------
# gradient checks (finite-difference oracle)
# ---------------------------------------------------------------------------

def surrogate_loss_fn(batch, hyper):
    """From-scratch clipped surrogate + entropy, for finite differencing."""

    def loss(params):
        total = 0.0
        for k in range(len(batch)):
            out = mlp_reference(params, batch.states[k])
            valid = batch.masks[k]
            z = np.where(valid, out, -np.inf)
            m = z[valid].max()
            logsum = m + math.log(np.exp(z[valid] - m).sum())
            logp = z - logsum
            r = math.exp(logp[batch.actions[k]] - batch.old_logp[k])
            a = batch.advantages[k]
            obj = min(r * a, min(max(r, 1 - hyper.clip_eps), 1 + hyper.clip_eps) * a)
            ent = -sum(math.exp(lp) * lp for lp, v in zip(logp, valid) if v)
            total += obj + hyper.entropy_coef * ent
        return total / len(batch)

    return loss


def value_loss_fn(batch):
    def loss(params):
        total = 0.0
        for k in range(len(batch)):
            v = mlp_reference(params, batch.states[k])[0]
            total += (v - batch.returns[k]) ** 2
        return total / len(batch)

    return loss


def relative_errors(analytic, fd):
    errs = []
    for a_arr, f_arr in zip(analytic, fd):
        denom = np.maximum(np.abs(a_arr) + np.abs(f_arr), 1e-8)
        errs.append(np.abs(a_arr - f_arr) / denom)
    return max(float(e.max()) for e in errs)


def assert_no_kink_inputs(params, states):
    from sceneplan.ppo import _forward_cache

    _, pre = _forward_cache(params, states)
    for z in pre[:-1]:
        assert np.abs(z).min() > 1e-6, "pre-activation too close to rectifier kink"


def test_policy_gradient_matches_finite_differences(rng):
    from sceneplan.ppo import _policy_objective_grad

    hyper = tiny_hyper(entropy_coef=0.01)
    policy = init_mlp(rng, [5, 6, 6, 4])
    behavior = init_mlp(np.random.default_rng(99), [5, 6, 6, 4])
    batch = make_batch(rng, behavior, n=5, n_act=4)
    assert_no_kink_inputs(policy, batch.states)
    _, dws, dbs = _policy_objective_grad(policy, batch, hyper)
    fd_ws, fd_bs = finite_diff_grads(policy, surrogate_loss_fn(batch, hyper))
    assert relative_errors(dws, fd_ws) < 1e-4
    assert relative_errors(dbs, fd_bs) < 1e-4


def test_critic_gradient_matches_finite_differences(rng):
    from sceneplan.ppo import _critic_loss_grad

    critic = init_mlp(rng, [5, 6, 6, 1])
    batch = make_batch(rng, init_mlp(rng, [5, 6, 6, 4]), n=5, n_act=4)
    assert_no_kink_inputs(critic, batch.states)
    _, dws, dbs = _critic_loss_grad(critic, batch)
    fd_ws, fd_bs = finite_diff_grads(critic, value_loss_fn(batch))
    assert relative_errors(dws, fd_ws) < 1e-4
    assert relative_errors(dbs, fd_bs) < 1e-4


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def scene_sampler(seed):
    return small_frame(np.random.default_rng(seed % 50))


@pytest.mark.parametrize("hidden", [(0,), (-1,), (8, 0)])
def test_hyperparams_hidden_widths_are_at_least_one(hidden):
    # a zero width would build an empty layer, a negative one fail inside numpy
    with pytest.raises(ValueError, match=f"^{re.escape(f'hidden must be widths >= 1, got {hidden!r}')}$"):
        Hyperparams(hidden=hidden)


def test_train_zero_iterations_returns_init():
    ckpt = train(scene_sampler, tiny_env_config(), tiny_hyper(iterations=0))
    assert ckpt.meta["iterations"] == 0
    assert ckpt.meta["final_mean_return"] is None
    assert ckpt.n_pad == 4
    assert ckpt.policy.weights[0].shape == (state_dim(4), 8)


def test_train_deterministic():
    a = train(scene_sampler, tiny_env_config(), tiny_hyper(iterations=2))
    b = train(scene_sampler, tiny_env_config(), tiny_hyper(iterations=2))
    for wa, wb in zip(a.policy.weights + a.critic.weights,
                      b.policy.weights + b.critic.weights):
        assert (wa == wb).all()
    assert a.meta == b.meta


def test_train_writes_log(tmp_path):
    log = tmp_path / "log.csv"
    train(scene_sampler, tiny_env_config(), tiny_hyper(iterations=3), log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == ("iteration,mean_return,policy_loss,value_loss,mean_N_final,"
                        "approx_kl,clip_frac,entropy,explained_variance")
    assert len(lines) == 4
    for line in lines[1:]:
        row = dict(zip(lines[0].split(","), map(float, line.split(","))))
        assert row["approx_kl"] >= 0.0 and 0.0 <= row["clip_frac"] <= 1.0
        assert 0.0 <= row["entropy"] <= math.log(6)  # six actions at n_pad 4
        assert row["explained_variance"] <= 1.0


def test_train_log_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    # the training log and a checkpoint, each written over an old file
    # whose rename fails: the old bytes stay and no temp file is left
    writes = {
        "log.csv": lambda path: train(scene_sampler, tiny_env_config(),
                                      tiny_hyper(iterations=1), log_path=path),
        "policy.ckpt": lambda path: save_checkpoint(make_ckpt(np.random.default_rng(0)), path),
    }

    def broken_rename(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_rename)  # the rename that ends every write
    for name, write in writes.items():
        path = tmp_path / name
        path.write_text("old\n")
        with pytest.raises(OSError, match="disk full"):
            write(path)
        assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writes)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def make_ckpt(rng, n_pad=4):
    return PolicyCheckpoint(
        n_pad=n_pad,
        include_count=True,
        policy=init_mlp(rng, [state_dim(n_pad), 8, 8, n_actions(n_pad)]),
        critic=init_mlp(rng, [state_dim(n_pad), 8, 8, 1]),
        weights=RewardWeights(alpha=5, beta=1, gamma=10, delta=2,
                              n_min=2, n_max=3, d_m=0.05),
        hyper=tiny_hyper(),
        meta={"iterations": 0, "final_mean_return": -1.5},
    )


def test_checkpoint_roundtrip_bitexact(tmp_path, rng):
    ckpt = make_ckpt(rng)
    path = tmp_path / "p.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.n_pad == ckpt.n_pad
    assert back.weights == ckpt.weights
    assert back.hyper == ckpt.hyper
    assert back.meta == ckpt.meta
    assert back.critic is None  # a file holds the policy alone
    for a, b in zip(ckpt.policy.weights + ckpt.policy.biases,
                    back.policy.weights + back.policy.biases, strict=True):
        assert a.shape == b.shape
        assert (a == b).all()


def test_checkpoint_saved_from_its_load_is_the_same_bytes(tmp_path, rng):
    path, again = tmp_path / "p.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(make_ckpt(rng), path)
    save_checkpoint(load_checkpoint(path), again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("edit, named", [
    # a bias one entry short of its layer's width
    (lambda net: MlpParams(net.weights, [net.biases[0][:7], *net.biases[1:]]),
     "policy.b0 must be of shape (8,), got (7,)"),
    (lambda net: MlpParams(net.weights[:-1], net.biases[:-1]),
     "policy.w2 must be of shape (8, 6), got None"),
    (lambda net: MlpParams(net.weights + [np.zeros((6, 6))], net.biases + [np.zeros(6)]),
     "policy.w3 must be absent, got (6, 6)"),
    # a weight list one longer than its bias list
    (lambda net: MlpParams(net.weights, net.biases[:-1]),
     "policy.b2 must be of shape (6,), got None"),
], ids=["bias-short", "last-layer-missing", "extra-layer", "bias-missing"])
def test_save_refuses_a_policy_off_its_layout(tmp_path, rng, edit, named):
    # the layout is [state_dim(4), *hyper.hidden, n_actions(4)] = [21, 8, 8, 6];
    # a refused save leaves the file it would replace as it was
    ckpt = make_ckpt(rng, n_pad=4)
    path = tmp_path / "p.ckpt"
    path.write_bytes(b"old")
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        save_checkpoint(replace(ckpt, policy=edit(ckpt.policy)), path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["p.ckpt"]


def test_checkpoint_truncated_rejected(tmp_path, rng):
    path = tmp_path / "p.ckpt"
    save_checkpoint(make_ckpt(rng), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 17])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(tmp_path, rng):
    path = tmp_path / "p.ckpt"
    save_checkpoint(make_ckpt(rng), path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version_rejected(tmp_path, rng):
    # version 1 (named arrays) and 2 (width lists and a critic) are refused
    # by their numbers alone
    path = tmp_path / "p.ckpt"
    for version in (1, 2, 99):
        save_checkpoint(make_ckpt(rng), path)
        blob = bytearray(path.read_bytes())
        blob[11] = version  # version field
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: unsupported checkpoint version {version}")):
            load_checkpoint(path)


def read_header(path, **loads) -> dict:
    """The JSON header of the checkpoint at ``path``, read by ``json.loads``
    with ``loads``."""
    blob = path.read_bytes()
    hlen = struct.unpack_from("<II", blob, len(CHECKPOINT_MAGIC))[1]
    return json.loads(blob[len(CHECKPOINT_MAGIC) + 8:len(CHECKPOINT_MAGIC) + 8 + hlen], **loads)


def refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_zero_iteration_checkpoint_header_is_strict_json(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(train(scene_sampler, tiny_env_config(), tiny_hyper(iterations=0)), path)
    header = read_header(path, parse_constant=refuse_constant)
    assert header["meta"] == {"iterations": 0, "final_mean_return": None}
    assert load_checkpoint(path).meta["final_mean_return"] is None


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
def test_save_refuses_a_meta_value_strict_json_cannot_hold(tmp_path, rng, value):
    path = tmp_path / "p.ckpt"
    path.write_bytes(b"old")
    ckpt = make_ckpt(rng)
    with pytest.raises(ValueError, match=f"^{re.escape(f'meta.note must be finite, got {value!r}')}$"):
        save_checkpoint(replace(ckpt, meta={**ckpt.meta, "note": value}), path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["p.ckpt"]


def write_header(path, header):
    """Rewrite the checkpoint at ``path`` with ``header`` as its JSON header."""
    blob = path.read_bytes()
    off = len(CHECKPOINT_MAGIC)
    version, hlen = struct.unpack_from("<II", blob, off)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:off] + struct.pack("<II", version, len(new)) + new
                     + blob[off + 8 + hlen:])


def rewrite_header(path, **fields):
    """Rewrite the checkpoint at ``path`` with ``fields`` set in its JSON header."""
    write_header(path, {**read_header(path), **fields})


def assert_header_edit_refused(path, rng, field, value, named):
    """Save a checkpoint at ``path`` with ``field`` (``<key>`` or
    ``<block>.<key>``) of its header set to ``value``: loading it must fail
    with exactly ``<path>: invalid header: <named>``."""
    save_checkpoint(make_ckpt(rng, n_pad=4), path)
    block, _, key = field.partition(".")
    rewrite_header(path, **{block: {**read_header(path)[block], key: value} if key else value})
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: invalid header: {named}')}$"):
        load_checkpoint(path)


def test_checkpoint_header_holds_four_keys(tmp_path, rng):
    path = tmp_path / "p.ckpt"
    save_checkpoint(make_ckpt(rng, n_pad=4), path)
    header = read_header(path)
    assert sorted(header) == ["hyper", "meta", "n_pad", "weights"]
    for written, named in [([], "header must be an object, got []"),
                           ({k: v for k, v in header.items() if k != "meta"},
                            "header.meta is missing"),
                           # version 2's width lists: the layout follows from n_pad and hyper
                           ({**header, "widths": {"policy": [21, 8, 8, 6]}},
                            "header.widths is not a field")]:
        write_header(path, written)
        with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: invalid header: {named}')}$"):
            load_checkpoint(path)


@pytest.mark.parametrize("field, value, named", [
    ("n_pad", 4.5, "n_pad must be a 64-bit integer, got 4.5"),
    ("n_pad", "4", "n_pad must be a 64-bit integer, got '4'"),
    ("n_pad", 0, "n_pad must be >= 1, got 0"),
    ("meta", [1, 2], "meta must be an object, got [1, 2]"),
    # the header's keys are its four, and no other: the layout follows from n_pad
    ("state_dim", 21, "header.state_dim is not a field"),
    # each weights and hyper value is typed like its config key, and named with its block
    ("weights.alpha", True, "weights.alpha must be a finite number, got True"),
    ("weights.alpha", "5", "weights.alpha must be a finite number, got '5'"),
    ("weights.n_min", 2.5, "weights.n_min must be a 64-bit integer, got 2.5"),
    ("weights.gamma", -1.0, "weights.gamma must be >= 0, got -1.0"),
    ("weights.zeta", 1.0, "weights.zeta is not a field"),
    ("weights", {}, "weights.alpha is missing"),
    ("weights", [], "weights must be an object, got []"),
    ("hyper.t_max", True, "hyper.t_max must be a 64-bit integer, got True"),
    ("hyper.t_max", 2.5, "hyper.t_max must be a 64-bit integer, got 2.5"),
    ("hyper.batch_size", 1e300, "hyper.batch_size must be a 64-bit integer, got 1e+300"),
    ("hyper.gamma", 1.5, "hyper.gamma must be in (0, 1), got 1.5"),
    ("hyper.hidden", ["x"], "hyper.hidden[0] must be a 64-bit integer, got 'x'"),
    ("hyper.hidden", 8, "hyper.hidden must be a list, got 8"),
    ("hyper.hidden", [8, 0], "hyper.hidden must be widths >= 1, got (8, 0)"),
], ids=["n_pad-4.5", "n_pad-4", "n_pad-0", "meta-list", "state_dim-stray",
        "weights.alpha-true", "weights.alpha-text", "weights.n_min-fraction",
        "weights.gamma-negative", "weights.zeta-unknown", "weights-empty", "weights-list",
        "hyper.t_max-true", "hyper.t_max-fraction", "hyper.batch_size-1e300",
        "hyper.gamma-1.5", "hyper.hidden-text", "hyper.hidden-int", "hyper.hidden-zero"])
def test_checkpoint_header_values_are_not_coerced(tmp_path, rng, field, value, named):
    assert_header_edit_refused(tmp_path / "p.ckpt", rng, field, value, named)


@pytest.mark.parametrize("field, value, named", [
    ("include_count", "no", "include_count must be true, got 'no'"),
    ("include_count", 1, "include_count must be true, got 1"),
    ("include_count", False, "include_count must be true, got False"),
    ("n_pad", 0, "n_pad must be >= 1, got 0"),
    ("meta", [1, 2], "meta must be an object, got [1, 2]"),
], ids=["include_count-no", "include_count-1", "include_count-false", "n_pad-0", "meta-list"])
def test_checkpoint_fields_are_ranged(rng, field, value, named):
    # no file records include_count, but every state encodes the cluster count
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        replace(make_ckpt(rng), **{field: value})


@pytest.mark.parametrize("n_pad, hidden, named", [
    # [26, 3, 7]'s arrays are shorter than the saved [21, 8, 8, 6]'s
    (5, [3], "trailing bytes after final array: n_pad=5 and hyper.hidden=[3] "
             "lay out 872 payload bytes, the file holds 2416"),
    (4, [8, 8, 8], "checkpoint truncated: n_pad=4 and hyper.hidden=[8, 8, 8] "
                   "lay out 2992 payload bytes, the file holds 2416"),
    (5, [8, 8], "checkpoint truncated: n_pad=5 and hyper.hidden=[8, 8] "
                "lay out 2808 payload bytes, the file holds 2416"),
], ids=["hidden-unequal", "hidden-deeper", "n_pad-wider"])
def test_checkpoint_layers_are_checked_in_order(tmp_path, rng, n_pad, hidden, named):
    # each edit leaves a header that reads well; the payload is then
    # measured against the layout it gives, before any array is read
    path = tmp_path / "p.ckpt"
    save_checkpoint(make_ckpt(rng, n_pad=4), path)
    header = read_header(path)
    write_header(path, {**header, "n_pad": n_pad, "hyper": {**header["hyper"], "hidden": hidden}})
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {named}')}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("extra", [np.arange(3, dtype="<f8").tobytes(), b"\x00"],
                         ids=["extra", "stray-byte"])
def test_checkpoint_refuses_an_array_no_layer_reaches(tmp_path, rng, extra):
    # bytes appended to the payload: saving the loaded networks again would drop them
    path = tmp_path / "p.ckpt"
    save_checkpoint(make_ckpt(rng, n_pad=4), path)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: trailing bytes after final array")):
        load_checkpoint(path)


def test_infer_rejects_mismatched_n_pad(tmp_path, rng):
    ckpt = make_ckpt(rng, n_pad=4)
    frame = small_frame(rng)
    with pytest.raises(CheckpointError, match="n_pad"):
        infer_clusters(frame, ckpt, n_pad=8)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def test_infer_keep_preferring_policy_is_meanshift(rng):
    # zero logits everywhere: greedy tie-break picks keep each step
    n_pad = 4
    zero = MlpParams(
        [np.zeros((state_dim(n_pad), 8)), np.zeros((8, n_actions(n_pad)))],
        [np.zeros(8), np.zeros(n_actions(n_pad))])
    ckpt = make_ckpt(rng, n_pad=n_pad)
    ckpt.policy = zero
    frame = small_frame(rng)
    transform = TransformParams(0.5)
    bandwidth = BandwidthSpec("fixed", 0.2)
    out = infer_clusters(frame, ckpt, transform, bandwidth, t_max=6)
    assert out == initial_clusters(ClusterGeometry(frame.detections, transform), bandwidth)


def test_infer_single_cluster_scene_safe(rng):
    frame = Frame(100, 100, (DetectionBox(0.5, 0.5, 0.05, 0.05),))
    ckpt = make_ckpt(rng)
    out = infer_clusters(frame, ckpt, t_max=5)
    assert out.count == 1
    assert out.clusters[0] == (0,)


def test_infer_deterministic(rng):
    ckpt = make_ckpt(rng)
    frame = small_frame(rng)
    a = infer_clusters(frame, ckpt, t_max=5)
    b = infer_clusters(frame, ckpt, t_max=5)
    assert a == b


def test_infer_scores_no_step(rng, monkeypatch):
    # greedy refinement reads no reward, so no step computes one
    import sceneplan.ppo as ppo
    import sceneplan.rl_env as rl_env
    from sceneplan.rl_env import MERGE

    n_pad = 4
    ckpt = make_ckpt(rng, n_pad=n_pad)
    ckpt.policy = MlpParams(
        [np.zeros((state_dim(n_pad), 8)), np.zeros((8, n_actions(n_pad)))],
        [np.zeros(8), np.eye(n_actions(n_pad))[MERGE]])  # merge while it can
    calls = []
    real_reward, real_step = rl_env.reward, ppo.step
    monkeypatch.setattr(rl_env, "reward", lambda *a: calls.append("reward") or real_reward(*a))
    monkeypatch.setattr(ppo, "step", lambda *a: calls.append("step") or real_step(*a))
    frame = small_frame(rng)
    transform, bandwidth = TransformParams(0.5), BandwidthSpec("fixed", 0.2)
    out = infer_clusters(frame, ckpt, transform, bandwidth, t_max=6)
    start = initial_clusters(ClusterGeometry(frame.detections, transform), bandwidth)
    assert (start.count, out.count) == (4, 1)
    # three merges leave one cluster; the fourth step's masked merge keeps
    # it, so the configuration repeats and the last two steps are replayed
    assert calls == ["step"] * 4
