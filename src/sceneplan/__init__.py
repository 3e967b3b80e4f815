"""RL-driven non-uniform partitioning of detection scenes, latency-budgeted
detector assignment, and parallel edge-schedule simulation.

The package namespace carries the names the demos use; everything else is
imported from its module (``sceneplan.ppo``, ``sceneplan.offload``, ...).
"""

from .scene import (
    SceneSpec,
    Stratum,
    aggregate_tiles,
    generate_scene,
    observe_tiles,
    tile_frame,
)
from .clustering import (
    BandwidthSpec,
    ClusterGeometry,
    TransformParams,
    initial_clusters,
    merge_clusters,
    select_merge_pair,
    split_cluster,
    transform_y,
)
from .rl_env import EnvConfig, RewardWeights
from .ppo import (
    Hyperparams,
    greedy_policy,
    keep_policy,
    random_policy,
    rollout,
    sampler_from_spec,
    train,
)
from .offload import (
    InfeasiblePlanError,
    assign_servers,
    default_profiles,
    dp_plan,
    partitions_from_config,
    simulate,
)

__version__ = "0.1.0"
