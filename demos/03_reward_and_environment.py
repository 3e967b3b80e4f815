"""The four-part clustering reward and the fixed-horizon environment loop.

Walks a hand-scripted policy (merge while over the count band, then keep)
through one episode and prints the reward decomposition at every step.
"""

from sceneplan.clustering import (
    BandwidthSpec,
    ClusterGeometry,
    TransformParams,
    initial_clusters,
)
from sceneplan.ppo import rollout
from sceneplan.rl_env import KEEP, MERGE, EnvConfig, RewardWeights
from sceneplan.scene import SceneSpec, Stratum, generate_scene

spec = SceneSpec(
    width_px=1280, height_px=1280, count_min=16, count_max=16,
    strata=(Stratum(0.05, 0.45, 0.012, 0.03, 0.65),
            Stratum(0.55, 0.95, 0.06, 0.12, 0.35)),
    seed=4,
)
weights = RewardWeights(alpha=2.0, beta=0.2, gamma=1.0, delta=0.4,
                        n_min=2, n_max=4, d_m=0.05)
frame = generate_scene(spec)
env_config = EnvConfig(weights=weights, transform=TransformParams(0.5),
                       bandwidth=BandwidthSpec("fixed", 0.16), n_pad=8)

start = initial_clusters(ClusterGeometry(frame.detections, env_config.transform),
                         env_config.bandwidth)
print(f"initial clusters: {start.count} "
      f"(target band [{weights.n_min}, {weights.n_max}])")


def merge_down(states, masks, rng):
    """Merge while over the count band, then keep, one action per row of
    the stacked states. The state's last entry is N / n_pad clipped to 1,
    and n_pad (8) is above n_max (4), so the clip hides no count above it."""
    return [MERGE if state[-1] * env_config.n_pad > weights.n_max else KEEP
            for state in states]


# rollout starts from the same MeanShift clustering and runs t_max steps
episodes = rollout([frame], env_config, 10, merge_down)
print(f"state vector: length {episodes.states.shape[-1]} "
      f"(5 features x 8 slots + normalized count)")
trace = episodes.traces[0]
(final,) = episodes.answers()

print()
print("step  action  N   R1(tight)  R2(areavar)  R3(count)  R4(close)  reward")
# stepping scores nothing; every step is scored here, in one pass
for t, (out, (r1, r2, r3, r4, total)) in enumerate(zip(trace, episodes.scores()[0].tolist())):
    print(f"{t + 1:4d}  {out.applied:6s} {out.config.count:2d}   {r1:9.4f}  {r2:11.6f}"
          f"  {r3:9.1f}  {r4:9.1f}  {total:7.3f}")

print(f"\nfinal N = {final.count}; merging stopped once the count "
      "penalty R3 hit zero")
