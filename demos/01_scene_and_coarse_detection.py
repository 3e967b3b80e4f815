"""Scene generation and the tiled coarse-detection emulation.

Builds a stratified synthetic scene (small dense objects high in the frame,
large sparse ones low), splits it into tiles, lets each tile "detect" the
boxes it can see, and fuses everything back with NMS.
"""

import numpy as np

from sceneplan.scene import (
    SceneSpec,
    Stratum,
    aggregate_tiles,
    generate_scene,
    observe_tiles,
    tile_frame,
)

spec = SceneSpec(
    width_px=3840, height_px=2160,
    count_min=30, count_max=30,
    strata=(
        Stratum(0.05, 0.45, 0.01, 0.03, density=0.7),   # crowd at the top
        Stratum(0.55, 0.95, 0.06, 0.12, density=0.3),   # near objects below
    ),
    seed=2,
)

frame = generate_scene(spec)
print(f"scene: {frame.width_px}x{frame.height_px}, {len(frame.detections)} objects")

cy = np.array([d.cy for d in frame.detections])
h = np.array([d.h for d in frame.detections])
print(f"size grows with depth: corr(cy, h) = {np.corrcoef(cy, h)[0, 1]:.3f}")

# one tile per edge device times the partition parameter
grid = tile_frame(frame, n=1, e=4)
print(f"\ntiling: {grid.rows}x{grid.cols} = {len(grid.tiles)} tiles")

# a tile reports any box with at least 10% of its area inside
clean = observe_tiles(frame, grid, min_visible=0.1)
print("observations per tile:", [len(rows) for rows in clean])
dups = sum(len(rows) for rows in clean) - len(frame.detections)
print(f"boxes straddling tile boundaries produce {dups} duplicate observations")

merged = aggregate_tiles(clean, grid, iou_threshold=0.5)
print(f"after NMS aggregation: {len(merged)} boxes")

# duplicates from straddlers land on the same spot after remapping, so the
# aggregation suppresses them even though each tile saw them independently

# the same pass with a deliberately flaky detector
noisy = observe_tiles(frame, grid, drop_prob=0.15, jitter_sigma=0.004, seed=1)
merged_noisy = aggregate_tiles(noisy, grid, iou_threshold=0.5)
print(f"noisy detector (15% drops, jittered): {len(merged_noisy)} boxes survive")
