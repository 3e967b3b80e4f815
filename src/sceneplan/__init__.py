"""RL-driven non-uniform partitioning of detection scenes, latency-budgeted
detector assignment, and parallel edge-schedule simulation.

Every name is imported from the module that defines it (``sceneplan.scene``,
``sceneplan.clustering``, ``sceneplan.ppo``, ``sceneplan.offload``, ...).
"""

__version__ = "0.1.0"
