"""Train the refinement policy at desk scale and compare it to baselines.

A short CPU run (120 iterations, well under a minute) teaches the policy
"merge while the cluster count is above the band, then keep". Held-out
scenes score the greedy policy against uniform-random valid actions and
against keeping the MeanShift clustering untouched.
"""

import time

import numpy as np

from sceneplan.clustering import BandwidthSpec, TransformParams
from sceneplan.ppo import (
    Hyperparams,
    greedy_policy,
    keep_policy,
    random_policy,
    rollout,
    sampler_from_spec,
    train,
)
from sceneplan.rl_env import EnvConfig, RewardWeights, reward
from sceneplan.scene import SceneSpec, Stratum, generate_scene

spec = SceneSpec(
    width_px=1280, height_px=1280, count_min=14, count_max=20,
    strata=(Stratum(0.05, 0.45, 0.012, 0.03, 0.65),
            Stratum(0.55, 0.95, 0.06, 0.12, 0.35)),
    seed=0,
)
weights = RewardWeights(alpha=2.0, beta=0.2, gamma=1.0, delta=0.4,
                        n_min=2, n_max=4, d_m=0.05)
env_cfg = EnvConfig(weights=weights, transform=TransformParams(0.5),
                    bandwidth=BandwidthSpec("fixed", 0.16), n_pad=8)
hyper = Hyperparams(gamma=0.9, clip_eps=0.2, lr_policy=1e-2, lr_critic=1e-3,
                    batch_size=64, t_max=10, iterations=120,
                    episodes_per_iter=16, epochs=4, entropy_coef=0.01, seed=0)

t0 = time.time()
ckpt = train(sampler_from_spec(spec), env_cfg, hyper)
print(f"trained {hyper.iterations} iterations in {time.time() - t0:.1f}s; "
      f"final mean return {ckpt.meta['final_mean_return']:.2f}")

held_out = [(10_000 + k, generate_scene(spec.with_seed(10_000 + k)))
            for k in range(60)]


def evaluate(name, policy_fn):
    finals, ns = [], []
    for seed, frame in held_out:
        (final,) = rollout([frame], env_cfg, hyper.t_max, policy_fn,
                           np.random.default_rng(seed)).answers()
        finals.append(reward(final, weights, env_cfg.transform)[4])
        ns.append(final.count)
    finals, ns = np.array(finals), np.array(ns)
    in_band = np.mean((ns >= weights.n_min) & (ns <= weights.n_max))
    print(f"  {name:8s} mean final reward {finals.mean():8.3f}   "
          f"mean N {ns.mean():5.2f}   N in band {in_band:5.0%}")
    return finals


print(f"\nheld-out evaluation ({len(held_out)} scenes, identical for all policies):")
fr_trained = evaluate("trained", greedy_policy(ckpt))
fr_random = evaluate("random", random_policy)
fr_keep = evaluate("keep", keep_policy)

for name, other in (("random", fr_random), ("keep-only", fr_keep)):
    diff = fr_trained - other
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    print(f"trained vs {name}: mean diff {diff.mean():.3f} "
          f"({diff.mean() / se:.1f} standard errors)")
