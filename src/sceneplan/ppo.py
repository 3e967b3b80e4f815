"""Policy/critic networks, the lockstep episode rollout, clipped-surrogate
training, greedy inference, and checkpoint persistence.

Both networks are plain rectifier MLPs whose hidden widths are
``Hyperparams.hidden`` (two layers of 128 units by default), implemented
directly in numpy with exact backpropagation. The critic serves only
training's advantages, so a checkpoint file holds the policy alone.
Updates are the plain gradient steps of the training algorithm (ascent
on the clipped surrogate for the policy, descent on the value MSE for the
critic), each written into the gradient arrays it computed.
Training, inference and the command line all roll episodes through one
driver, ``rollout``, which owns them: it takes frames, one ``EnvConfig``
(``policy_config`` fits it to a checkpoint) and a horizon, starts every
episode's clustering in one ``clustering.initial_clusters_frames`` call,
and steps the episodes in lockstep: each step stacks their states and masks
into one batch, so one policy call chooses every episode's action, and each
configuration then steps on its own through ``rl_env.step``, which scores
nothing: ``Episodes.scores`` scores every step in one ``rl_env.rewards``
pass when asked. Training rolls an iteration's ``episodes_per_iter``
episodes together (``collect``); inference and the command line roll one.
Everything is deterministic for a fixed seed.

An episode's answer, the configuration that inference, the command line
and training's log take as its result, is chosen in one place:
``Episodes.answer_steps`` names the step each episode answers with (its
last), and ``Episodes.answers`` reads the configurations after those steps.

A chooser that declares itself ``stationary`` (its actions depend on the
states and masks alone: ``greedy_policy``'s and ``keep_policy``) lets an
episode stop stepping once its configuration repeats; the rest of the
episode replays that cycle, its trace entries the same ``StepOutcome``
records. Training's sampler and ``random_policy`` are not stationary and
step every step.

Which outputs depend on the OpenBLAS kernel picked for the CPU: training's
checkpoint and log bytes do, through the MLP's ``gemm`` (matrix products
round differently per kernel). Clustering, rewards, the merge pair,
MeanShift and the keep- and random-policy outputs do not: their pair
distances round one way, ``clustering.squared_distances``. Outputs of a
trained policy (its evaluation, report and metrics) read the same under
three kernels on the committed cases, as greedy argmax absorbed the
last-ulp differences there, but nothing guarantees that.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields, asdict, replace
from itertools import zip_longest

import numpy as np

from .clustering import BandwidthSpec, ClusterGeometry, TransformParams, initial_clusters_frames
from .core import (ClusterConfig, Frame, check_fields, check_keys, check_number, write_csv,
                   write_file)
from .rl_env import (
    KEEP,
    EnvConfig,
    RewardWeights,
    StepOutcome,
    action_mask,
    encode_state,
    n_actions,
    rewards,
    state_dim,
    step,
)


# ``Generator.choice``'s tolerance on the sum of its probabilities
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

# The longest episode: ``rollout`` lays out every step's state and mask up
# front, and the clusters report holds a row per step, so a longer one is
# refused before anything is allocated.
T_MAX_LIMIT = 10_000


class CheckpointError(ValueError):
    """Raised for unreadable, corrupt, or dimensionally incompatible checkpoints."""


@dataclass
class MlpParams:
    """Layer weights/biases of one MLP; weights[i] has shape (fan_in, fan_out)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs, after clipped-surrogate practice; an error starts with its field."""

    gamma: float = 0.99
    clip_eps: float = 0.2
    lr_policy: float = 3e-4
    lr_critic: float = 1e-3
    batch_size: int = 64
    t_max: int = 30
    iterations: int = 50
    episodes_per_iter: int = 16
    epochs: int = 4
    entropy_coef: float = 0.01
    hidden: tuple[int, ...] = (128, 128)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(self.hidden))
        check_fields(self, [
            ("gamma", 0.0 < self.gamma < 1.0, "in (0, 1)"),
            *((name, getattr(self, name) > 0, "> 0")
              for name in ("clip_eps", "lr_policy", "lr_critic", "batch_size", "t_max",
                           "episodes_per_iter", "epochs")),
            ("t_max", self.t_max <= T_MAX_LIMIT, f"<= {T_MAX_LIMIT}"),
            ("iterations", self.iterations >= 0, ">= 0"),
            ("entropy_coef", self.entropy_coef >= 0.0, ">= 0"),
            ("hidden", all(width >= 1 for width in self.hidden), "widths >= 1")])


def policy_widths(n_pad: int, hidden) -> list[int]:
    """The policy's layer widths, state to action logits (layer k maps
    widths[k] inputs to widths[k + 1]): the layout ``train`` builds and a
    checkpoint stores."""
    return [state_dim(n_pad), *hidden, n_actions(n_pad)]


def init_mlp(rng: np.random.Generator, sizes) -> MlpParams:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def _forward_cache(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer's activation for backprop: the
    input, each hidden layer's product rectified in place, the output."""
    acts = [x]
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w
        z += b
        acts.append(z if k == last else np.maximum(z, 0.0, out=z))
    return acts


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Affine + rectifier composition over a (B, fan_in) batch."""
    x, fan_in = np.asarray(x, dtype=float), params.weights[0].shape[0]
    if x.ndim != 2 or x.shape[1] != fan_in:
        raise ValueError(f"input shape {x.shape} is not (B, {fan_in})")
    return _forward_cache(params, x)[-1]


def _backward(params: MlpParams, acts, dout):
    """Gradients of every weight/bias given dL/d(output); a hidden unit
    passes gradient where its rectified activation is positive."""
    dws = [None] * len(params.weights)
    dbs = [None] * len(params.biases)
    grad = dout
    for k in range(len(params.weights) - 1, -1, -1):
        dws[k] = acts[k].T @ grad
        dbs[k] = grad.sum(axis=0)
        if k > 0:
            grad = grad @ params.weights[k].T
            grad *= acts[k] > 0.0
    return dws, dbs


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Log-probabilities with invalid actions at -inf; rows sum to 1 over
    the valid set."""
    logits = np.asarray(logits, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("mask leaves no valid action")
    neg = np.where(mask, logits, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    shifted = neg - m  # -inf at every masked action, so exp gives 0 there
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def policy_sample(logits, masks, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Draw one action per row of (B, A) logits from the row's masked
    softmax; returns the B actions and their log-probabilities, and never
    picks an invalid id.

    Each row is drawn by ``Generator.choice``'s own method without its
    per-call set-up: the row's normalised cumulative probabilities are
    searched for one uniform (``side="right"``). The B uniforms come from
    one ``rng.random(B)``, which equals B successive ``rng.random()`` draws,
    so actions and generator state equal ``policy_sample_reference`` in
    ``tests/oracles.py``, which calls ``rng.choice(len(p), p=p)``, run on
    the rows in order on the same stream. As in ``choice``, a row whose
    probabilities are NaN or do not sum to 1 within sqrt(eps) raises
    ``ValueError``; then nothing is drawn.
    """
    logp = masked_log_softmax(logits, masks)
    p = np.exp(logp)
    p /= p.sum(axis=1, keepdims=True)
    cdf = p.cumsum(axis=1)
    total = cdf[:, -1:].copy()
    off = ~(np.abs(total - 1.0) <= _CHOICE_ATOL)  # also true for NaN
    if off.any():
        raise ValueError(f"action probabilities sum to {total[off][0]}, not 1")
    cdf /= total
    # searchsorted(side="right") on a non-decreasing row counts entries <= u
    actions = (cdf <= rng.random(len(cdf))[:, None]).sum(axis=1)
    return actions, logp[np.arange(len(actions)), actions]


def greedy_action(logits, masks) -> np.ndarray:
    """Masked argmax over the last axis; ties resolve to the lowest action id."""
    return np.where(np.asarray(masks, dtype=bool), logits, -np.inf).argmax(axis=-1)


def compute_returns_advantages(rewards, gamma: float, values):
    """Discounted returns by backward recursion over the last axis (one
    episode per row) and raw advantages G - V.

    Standardization is applied later, across a whole collection batch; the
    per-episode values returned here are untouched.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    g = np.zeros(rewards.shape)
    acc = np.zeros(rewards.shape[:-1])
    for t in range(rewards.shape[-1] - 1, -1, -1):
        acc = rewards[..., t] + gamma * acc
        g[..., t] = acc
    return g, g - values


def standardize_advantages(adv, eps: float = 1e-8) -> np.ndarray:
    adv = np.asarray(adv, dtype=float)
    return (adv - adv.mean()) / (adv.std() + eps)


@dataclass
class TrajectoryBatch:
    """Flat arrays of transitions ready for an update step."""

    states: np.ndarray      # (B, state_dim)
    actions: np.ndarray     # (B,) int
    old_logp: np.ndarray    # (B,) behavior-policy log-probs
    advantages: np.ndarray  # (B,) standardized
    returns: np.ndarray     # (B,)
    masks: np.ndarray       # (B, n_actions) bool

    def take(self, idx) -> "TrajectoryBatch":
        return TrajectoryBatch(self.states[idx], self.actions[idx],
                               self.old_logp[idx], self.advantages[idx],
                               self.returns[idx], self.masks[idx])

    def __len__(self) -> int:
        return len(self.actions)


def _policy_objective_grad(policy: MlpParams, batch: TrajectoryBatch,
                           hyper: Hyperparams):
    """Clipped-surrogate value and its exact gradient (ascent direction).

    The first value is a dict: the surrogate ``policy_loss`` (without the
    entropy bonus, which the gradient includes), the ``approx_kl`` of the
    behaviour policy from the current one (the mean of (r - 1) - log r),
    the ``clip_frac`` of samples with |r - 1| > clip_eps, and the mean
    ``entropy`` of the masked policy.
    """
    b = len(batch)
    acts = _forward_cache(policy, batch.states)
    logits = acts[-1]
    logp_all = masked_log_softmax(logits, batch.masks)
    p = np.exp(logp_all)
    # -inf log-probs of masked actions would poison products; zero them out
    safe_logp = np.where(batch.masks, logp_all, 0.0)
    rows = np.arange(b)
    log_ratio = logp_all[rows, batch.actions] - batch.old_logp
    ratio = np.exp(log_ratio)
    adv = batch.advantages
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - hyper.clip_eps, 1.0 + hyper.clip_eps) * adv
    l_clip = float(np.minimum(unclipped, clipped).mean())

    # gradient flows only where the unclipped branch is active
    active = (unclipped <= clipped).astype(float)
    dlogp = unclipped * active / b

    onehot = np.zeros_like(p)
    onehot[rows, batch.actions] = 1.0
    dlogits = dlogp[:, None] * (onehot - p)
    entropy = -(p * safe_logp).sum(axis=1)
    if hyper.entropy_coef > 0.0:
        dent = -p * (safe_logp + entropy[:, None])
        dlogits = dlogits + hyper.entropy_coef * dent / b
    dws, dbs = _backward(policy, acts, dlogits)
    terms = {
        "policy_loss": l_clip,
        "approx_kl": float(((ratio - 1.0) - log_ratio).mean()),
        "clip_frac": float((np.abs(ratio - 1.0) > hyper.clip_eps).mean()),
        "entropy": float(entropy.mean()),
    }
    return terms, dws, dbs


def _critic_loss_grad(critic: MlpParams, batch: TrajectoryBatch):
    """Mean-squared value error and its exact gradient (descent direction)."""
    b = len(batch)
    acts = _forward_cache(critic, batch.states)
    v = acts[-1][:, 0]
    err = v - batch.returns
    l_value = float((err ** 2).mean())
    dout = (2.0 * err / b)[:, None]
    dws, dbs = _backward(critic, acts, dout)
    return l_value, dws, dbs


def ppo_update(policy: MlpParams, critic: MlpParams, batch: TrajectoryBatch,
               hyper: Hyperparams) -> tuple[MlpParams, MlpParams, dict]:
    """One plain gradient step on each network over the given batch.

    Policy ascends the clipped surrogate (plus entropy bonus), critic
    descends the value MSE. Returns the new networks and the step's
    figures, taken before it: ``value_loss`` and the terms of
    ``_policy_objective_grad``. Raises FloatingPointError on non-finite loss.
    The input networks are left as they are. Both networks step in one
    loop, each new array written into the gradient array this step computed
    for it (``dw *= rate; dw += w``, the critic's rate negated), so the step
    allocates no parameter array; the bytes equal ``w + lr * dw`` and
    ``w - lr * dw``.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    terms, pdw, pdb = _policy_objective_grad(policy, batch, hyper)
    l_clip = terms["policy_loss"]
    l_value, cdw, cdb = _critic_loss_grad(critic, batch)
    if not (np.isfinite(l_clip) and np.isfinite(l_value)):
        raise FloatingPointError(
            f"non-finite loss (clip={l_clip}, value={l_value}); update aborted")
    for net, grads, rate in ((policy, pdw + pdb, hyper.lr_policy),
                             (critic, cdw + cdb, -hyper.lr_critic)):
        for w, dw in zip(net.weights + net.biases, grads):
            dw *= rate
            dw += w
    return MlpParams(pdw, pdb), MlpParams(cdw, cdb), {**terms, "value_loss": l_value}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class PolicyCheckpoint:
    """A trained (or freshly initialized) policy plus its context, and
    ``train``'s critic (None once loaded: a file holds the policy alone).
    Every state encodes the cluster count, so ``include_count`` must be
    true; ``n_pad`` is at least 1 and ``meta`` is a dict."""

    n_pad: int
    include_count: bool
    policy: MlpParams
    critic: MlpParams | None
    weights: RewardWeights
    hyper: Hyperparams
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self, [("n_pad", self.n_pad >= 1, ">= 1"),
                            ("include_count", self.include_count is True, "true"),
                            ("meta", isinstance(self.meta, dict), "an object")])


def policy_config(env_config: EnvConfig, ckpt: PolicyCheckpoint) -> EnvConfig:
    """``env_config`` with a checkpoint's n_pad and reward weights, so its
    policy sees the state layout it was trained on: n_pad slots, then the
    cluster count, which every state encodes."""
    return replace(env_config, weights=ckpt.weights, n_pad=ckpt.n_pad)


@dataclass
class Episodes:
    """Episodes rolled in lockstep. Entry [e, t] of each array belongs to
    step t of episode e: the state and mask its action was chosen in, and
    the action; ``traces[e][t]`` is that step's outcome. Each episode
    answers with the configuration after one of its steps: read it through
    ``answers``, never from a trace."""

    traces: list[list[StepOutcome]]
    states: np.ndarray   # (E, T, state_dim)
    masks: np.ndarray    # (E, T, n_actions) bool
    actions: np.ndarray  # (E, T) int
    geometries: list[ClusterGeometry]  # each episode's, for scores
    weights: RewardWeights

    def scores(self) -> np.ndarray:
        """Every step's (R1, R2, R3, R4, R_total) as an (E, T, 5) array,
        from one ``rl_env.rewards`` pass over the post-action
        configurations in their episodes' geometries. Rows are keyed by the
        configuration object, which a keep, an invalid step and a replayed
        step all carry on unchanged, so each is scored once."""
        scored = {id(out.config): (out.config, geometry)
                  for trace, geometry in zip(self.traces, self.geometries) for out in trace}
        row = {key: r for r, key in enumerate(scored)}
        at = [row[id(out.config)] for trace in self.traces for out in trace]
        return rewards(list(scored.values()), self.weights)[at].reshape(*self.actions.shape, 5)

    def answer_steps(self) -> list[int]:
        """The step each episode answers with: its last. The one statement
        of the rule; every reader of an episode's result goes through it."""
        return [len(trace) - 1 for trace in self.traces]

    def answers(self) -> list[ClusterConfig]:
        """Each episode's answer: its configuration after its ``answer_steps`` step."""
        return [trace[t].config for trace, t in zip(self.traces, self.answer_steps())]


def rollout(frames: list[Frame], env_config: EnvConfig, t_max: int, choose,
            rng: np.random.Generator | None = None) -> Episodes:
    """Roll one episode of t_max steps (1 to ``T_MAX_LIMIT``) per frame under
    ``env_config``, in lockstep: the one episode driver.

    Every episode starts from the MeanShift clustering in its frame's
    ``ClusterGeometry`` (all from one ``initial_clusters_frames`` call) and
    merges and splits in that geometry, scoring nothing (``Episodes.scores``
    does). At each step the rollout encodes the state and mask of each
    configuration about to step (no state after the last step),
    ``choose(states, masks, rng)`` gets the E states and masks as
    (E, state_dim) and (E, n_actions) arrays and returns the E actions, and
    each configuration steps on its own, in order. Episode arrays too large to allocate raise ``ValueError`` naming
    t_max and n_pad.

    A chooser with a true ``stationary`` attribute promises that its
    actions depend on nothing but the states and masks it is given;
    ``greedy_policy``'s choosers and ``keep_policy`` declare it. A step is a
    pure function of the ordered configuration, so under such a chooser an
    episode whose configuration before step ``first + p`` is the one before
    step ``first`` repeats that cycle to its end: every step ``u`` from
    ``first + p`` on is step ``first + (u - first) % p`` replayed. Its trace
    entry is that step's own ``StepOutcome``, its state, mask and
    action are copies, and the episode does not step again. ``choose``
    still sees every row while any episode steps, so no other episode's
    actions change, and is not called once all have closed their cycles.
    Other choosers (training's sampler, ``random_policy``) step all t_max
    steps.
    """
    if not frames:
        raise ValueError("rollout needs at least one frame")
    check_fields({"t_max": t_max}, [("t_max", t_max > 0, "> 0"),
                                    ("t_max", t_max <= T_MAX_LIMIT, f"<= {T_MAX_LIMIT}")])
    n, ec = len(frames), env_config
    try:
        states = np.empty((n, t_max, state_dim(ec.n_pad)))
        masks = np.empty((n, t_max, n_actions(ec.n_pad)), dtype=bool)
        actions = np.empty((n, t_max), dtype=int)
    except (MemoryError, ValueError) as e:  # numpy's "array is too big" is a ValueError
        raise ValueError(f"episodes of t_max={t_max}, n_pad={ec.n_pad} do not fit: {e}") from None
    geometries = [ClusterGeometry(frame.detections, ec.transform) for frame in frames]
    configs = initial_clusters_frames(geometries, ec.bandwidth)
    traces = [[] for _ in frames]
    stationary = getattr(choose, "stationary", False)
    # per episode, the step at which each configuration (its clusters) was first reached
    seen = [{config.clusters: 0} for config in configs] if stationary else None
    live = range(n)  # episodes that have not closed a cycle
    for t in range(t_max):
        if not live:
            break
        for e in live:  # a closed episode's rows are already replayed
            states[e, t] = encode_state(configs[e], geometries[e], ec.n_pad)
            masks[e, t] = action_mask(configs[e], ec.n_pad)
        chosen = choose(states[:, t], masks[:, t], rng)
        stepping = []
        for e in live:
            actions[e, t] = chosen[e]
            out = step(configs[e], int(actions[e, t]), ec.n_pad, geometries[e])
            configs[e] = out.config
            traces[e].append(out)
            first = t + 1
            if stationary:
                first = seen[e].setdefault(out.config.clusters, first)
            if first == t + 1:
                stepping.append(e)
                continue
            later = np.arange(t + 1, t_max)
            src = first + (later - first) % (t + 1 - first)
            for rows in (states[e], masks[e], actions[e]):
                rows[later] = rows[src]
            traces[e] += [traces[e][s] for s in src.tolist()]
        live = stepping
    return Episodes(traces, states, masks, actions, geometries, ec.weights)


def collect(policy: MlpParams, critic: MlpParams, frames: list[Frame],
            env_config: EnvConfig, hyper: Hyperparams, rng: np.random.Generator
            ) -> tuple[TrajectoryBatch, Episodes, dict]:
    """Roll an episode of ``hyper.t_max`` steps per frame in lockstep under
    the policy, each step's actions drawn by one ``policy_sample`` over the
    batched logits, score every step in one ``Episodes.scores`` pass, and lay
    the transitions out episode-major for the update.

    Returns are discounted per episode by ``hyper.gamma``; the advantages take one critic pass
    over all E·T states and are standardised over the batch. Also returns
    the episodes and the collection's training-log figures: the mean
    episode return, the mean cluster count of the episodes' answers
    (``Episodes.answers``), and the critic's explained variance of the
    returns (NaN when the returns do not vary).
    """
    logps = []

    def sample(states, masks, rng):
        actions, logp = policy_sample(mlp_forward(policy, states), masks, rng)
        logps.append(logp)
        return actions

    episodes = rollout(frames, env_config, hyper.t_max, sample, rng)
    n = episodes.actions.size
    states = episodes.states.reshape(n, -1)
    totals = episodes.scores()[:, :, 4]
    values = mlp_forward(critic, states)[:, 0]
    returns, advantages = compute_returns_advantages(
        totals, hyper.gamma, values.reshape(totals.shape))
    returns = returns.ravel()
    batch = TrajectoryBatch(
        states=states,
        actions=episodes.actions.ravel(),
        old_logp=np.stack(logps, axis=1).ravel(),
        advantages=standardize_advantages(advantages.ravel()),
        returns=returns,
        masks=episodes.masks.reshape(n, -1),
    )
    spread = returns.var()
    return batch, episodes, {
        "mean_return": float(totals.sum(axis=1).mean()),
        "mean_N_final": float(np.mean([config.count for config in episodes.answers()])),
        "explained_variance": (float(1.0 - (returns - values).var() / spread)
                               if spread > 0 else float("nan")),
    }


def sampler_from_spec(spec):
    """Turn a SceneSpec into a seed -> Frame sampler for training."""
    from .scene import generate_scene

    def sample(seed: int) -> Frame:
        return generate_scene(spec.with_seed(seed))

    return sample


TRAINING_LOG_COLUMNS = ("iteration", "mean_return", "policy_loss", "value_loss",
                        "mean_N_final", "approx_kl", "clip_frac", "entropy",
                        "explained_variance")


def train(scene_sampler, env_config: EnvConfig, hyper: Hyperparams,
          log_path=None) -> PolicyCheckpoint:
    """Iterate exploration (fresh scenes, sampled actions) and optimization
    (minibatch clipped-surrogate / value-MSE steps); returns the final
    checkpoint. Fully deterministic for a fixed hyper.seed.

    Each iteration samples its ``episodes_per_iter`` scenes before its first
    step, then rolls their episodes in lockstep (``collect``). The one
    generator, seeded with hyper.seed, is read in this order: the policy's
    and then the critic's initial weights; then, per iteration, the E scene
    seeds (one ``rng.integers``), the E uniforms of each step's action draw
    (one ``rng.random(E)`` per step, t_max steps), and one permutation per
    epoch.

    ``log_path`` receives one CSV row per iteration (TRAINING_LOG_COLUMNS):
    the collection's figures from ``collect``, and the means over the
    iteration's minibatch steps of the figures ``ppo_update`` returns.
    The checkpoint's ``meta.final_mean_return`` is the last iteration's
    mean return, or None after 0 iterations.
    """
    rng = np.random.default_rng(hyper.seed)
    widths = policy_widths(env_config.n_pad, hyper.hidden)
    policy = init_mlp(rng, widths)
    critic = init_mlp(rng, [*widths[:-1], 1])
    log_rows = []
    mean_return = None  # no iteration, no return: JSON null in the checkpoint
    for it in range(hyper.iterations):
        seeds = rng.integers(0, 2 ** 31 - 1, size=hyper.episodes_per_iter)
        frames = [scene_sampler(int(seed)) for seed in seeds]
        batch, _, figures = collect(policy, critic, frames, env_config, hyper, rng)
        steps = []
        for _ in range(hyper.epochs):
            perm = rng.permutation(len(batch))
            for lo in range(0, len(batch), hyper.batch_size):
                mb = batch.take(perm[lo:lo + hyper.batch_size])
                policy, critic, step_figures = ppo_update(policy, critic, mb, hyper)
                steps.append(step_figures)
        mean_return = figures["mean_return"]
        log_rows.append({"iteration": it, **figures,
                         **{k: float(np.mean([f[k] for f in steps])) for k in steps[0]}})
    if log_path is not None:
        write_csv(log_path, TRAINING_LOG_COLUMNS, log_rows)
    return PolicyCheckpoint(
        n_pad=env_config.n_pad,
        include_count=True,
        policy=policy,
        critic=critic,
        weights=env_config.weights,
        hyper=hyper,
        meta={"iterations": hyper.iterations, "final_mean_return": mean_return},
    )


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def greedy_policy(ckpt: PolicyCheckpoint):
    """Masked-argmax action chooser over the checkpoint's policy net."""

    def choose(states, masks, rng) -> np.ndarray:
        return greedy_action(mlp_forward(ckpt.policy, states), masks)

    choose.stationary = True  # see ``rollout``
    return choose


def keep_policy(states, masks, rng) -> np.ndarray:
    """Action chooser that always keeps the configuration."""
    return np.full(len(states), KEEP)


keep_policy.stationary = True  # see ``rollout``


def random_policy(states, masks, rng) -> list[int]:
    """Action chooser uniform over each row's valid actions, one
    ``rng.choice`` per row in order; needs the caller's rng."""
    return [int(rng.choice(np.flatnonzero(mask))) for mask in masks]


def infer_clusters(
    frame: Frame,
    ckpt: PolicyCheckpoint,
    transform: TransformParams = TransformParams(),
    bandwidth: BandwidthSpec = BandwidthSpec(),
    t_max: int | None = None,
    n_pad: int | None = None,
) -> ClusterConfig:
    """Greedy refinement: MeanShift reset, then t_max masked-argmax steps
    (the checkpoint's own t_max by default), stepped until the configuration
    repeats and then replayed (see ``rollout``); returns the episode's
    answer (``Episodes.answers``). Deterministic."""
    if n_pad is not None and n_pad != ckpt.n_pad:
        raise CheckpointError(
            f"checkpoint built for n_pad={ckpt.n_pad}, requested {n_pad}")
    env_config = policy_config(EnvConfig(transform=transform, bandwidth=bandwidth), ckpt)
    return rollout([frame], env_config, ckpt.hyper.t_max if t_max is None else t_max,
                   greedy_policy(ckpt)).answers()[0]


# ---------------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------------
#
#   bytes 0..10   magic "REPOSE-CKPT"
#   uint32 LE     format version
#   uint32 LE     header length in bytes
#   header        UTF-8 JSON object of exactly four keys: n_pad, weights,
#                 hyper and meta
#   payload       row-major float64 LE arrays of the policy alone: w0, b0,
#                 w1, b1, ...; with widths = policy_widths(n_pad,
#                 hyper.hidden), layer k's weight has shape
#                 (widths[k], widths[k + 1]) and its bias (widths[k + 1],)

CHECKPOINT_MAGIC = b"REPOSE-CKPT"
CHECKPOINT_VERSION = 3


def _payload_shapes(ckpt: PolicyCheckpoint) -> list[tuple[int, ...]]:
    """The shapes of the payload's arrays in order: array k is layer
    k // 2's weight (k even) or bias (k odd)."""
    widths = policy_widths(ckpt.n_pad, ckpt.hyper.hidden)
    return [shape for fan_in, fan_out in zip(widths[:-1], widths[1:])
            for shape in ((fan_in, fan_out), (fan_out,))]


def save_checkpoint(ckpt: PolicyCheckpoint, path) -> None:
    """Write the versioned checkpoint container of the policy (not the
    critic). A policy off the layout of n_pad and ``hyper.hidden`` raises
    ValueError naming its first array at fault, and a ``meta`` value that
    strict JSON cannot hold (NaN or an infinity) one naming its key; either
    way nothing is written."""
    net = ckpt.policy
    arrays = [a for layer in zip_longest(net.weights, net.biases) for a in layer]
    for k, (want, a) in enumerate(zip_longest(_payload_shapes(ckpt), arrays)):
        got = None if a is None else np.shape(a)
        if got != want:
            raise ValueError(f"policy.{'wb'[k % 2]}{k // 2} must be "
                             f"{'absent' if want is None else f'of shape {want}'}, got {got}")
    for key, value in ckpt.meta.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise ValueError(f"meta.{key} must be finite, got {value!r}") from None
    header = {"n_pad": ckpt.n_pad, "weights": asdict(ckpt.weights),
              "hyper": asdict(ckpt.hyper), "meta": ckpt.meta}
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(blob)), blob]
    parts += [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays]
    write_file(path, b"".join(parts))


def load_checkpoint(path) -> PolicyCheckpoint:
    """Read and validate a checkpoint; any fault raises a CheckpointError naming the file."""
    try:
        with open(path, "rb") as f:
            return _parse_checkpoint(f.read())
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from None
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from None


def _header_block(header: dict, name: str, cls):
    """``cls`` built from the header's ``name`` block, read as strictly as a
    config file's: every field present and none else, each value a
    ``check_number`` (integer where the field's default is an int; ``hidden``
    a list of ints), then ranged by ``cls``. An error starts with
    ``<name>.<field>``, since ``gamma`` is a field of both blocks."""
    defaults = {f.name: f.default for f in fields(cls)}
    block = check_keys(header[name], name, defaults)
    for key, default in defaults.items():
        where, value = f"{name}.{key}", block[key]
        if isinstance(default, tuple):
            check_fields({where: value}, [(where, isinstance(value, list), "a list")])
            for k, v in enumerate(value):
                check_number(v, f"{where}[{k}]", integer=True)
        else:
            check_number(value, where, isinstance(default, int))
    try:
        return cls(**block)
    except ValueError as e:  # "<field> must be <want>, got <value>"
        raise ValueError(f"{name}.{e}") from None


def _refuse_constant(token: str):
    """``json.loads``' hook for ``NaN``, ``Infinity`` and ``-Infinity``: strict
    JSON (RFC 8259) has no such token, and ``save_checkpoint`` writes none."""
    raise CheckpointError(f"invalid header: {token} is not a JSON number")


def _parse_checkpoint(data: bytes) -> PolicyCheckpoint:
    """The checkpoint a file holds; any inconsistency raises CheckpointError.

    The header alone builds the checkpoint, its policy still empty:
    ``_header_block`` reads the weights and hyper blocks, and
    ``PolicyCheckpoint`` ranges n_pad and meta. The payload must then be
    exactly as long as the arrays n_pad and ``hyper.hidden`` lay out, which
    it fills in order."""
    if len(data) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointError("checkpoint truncated before header")
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    off = len(CHECKPOINT_MAGIC)
    version, hlen = struct.unpack_from("<II", data, off)
    off += 8
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if len(data) < off + hlen:
        raise CheckpointError("checkpoint truncated inside header")
    try:
        header = json.loads(data[off:off + hlen].decode("utf-8"),
                            parse_constant=_refuse_constant)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"corrupt header: {e}") from None
    off += hlen
    try:
        check_keys(header, "header", ("hyper", "meta", "n_pad", "weights"))
        n_pad = check_number(header["n_pad"], "n_pad", integer=True)
        ckpt = PolicyCheckpoint(n_pad, True, MlpParams([], []), None,
                                _header_block(header, "weights", RewardWeights),
                                _header_block(header, "hyper", Hyperparams), header["meta"])
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"invalid header: {e}") from None
    shapes = _payload_shapes(ckpt)
    need, have = 8 * sum(math.prod(shape) for shape in shapes), len(data) - off
    if have != need:
        fault = "checkpoint truncated" if have < need else "trailing bytes after final array"
        raise CheckpointError(f"{fault}: n_pad={n_pad} and hyper.hidden="
                              f"{list(ckpt.hyper.hidden)} lay out {need} payload bytes, "
                              f"the file holds {have}")
    for k, shape in enumerate(shapes):
        a = np.frombuffer(data, dtype="<f8", count=math.prod(shape), offset=off)
        (ckpt.policy.biases if k % 2 else ckpt.policy.weights).append(a.reshape(shape).copy())
        off += a.nbytes
    return ckpt
