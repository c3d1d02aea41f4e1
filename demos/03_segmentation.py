"""Segment a scene's fingerprints into homogeneous categories.

Stage one grows categories from founder images whose corner templates
recruit later images at normalized cross-correlation >= tau_in. Stage
two merges categories whose founders match each other at >= tau_out.
Lowering tau_out can only merge further, so the category count is
monotone in it.
"""
import collections

import numpy as np

from amdnloc import (
    Rect,
    SceneConfig,
    build_dataset,
    match_between,
    match_within,
    render_image,
)

scene = SceneConfig(
    area_m=(100.0, 100.0),
    bs_pos=(5.0, 50.0),
    buildings=[Rect(30.0, 20.0, 15.0, 20.0), Rect(60.0, 55.0, 20.0, 15.0)],
    grid_spacing_m=8.0,
    nt=16,
    nc=16,
    seed=11,
)
samples = build_dataset(scene)
images = [render_image(s.cfr, "cfr_magnitude") for s in samples]
print(f"{len(images)} fingerprint images of shape {images[0].shape}")

within = match_within(images, tau_in=0.97, size=(8, 8))
print(f"stage one: {within.class_count} categories")

for tau_out in (0.99, 0.95, 0.9):
    merged = match_between(within, images, tau_out)
    sizes = sorted(collections.Counter(merged.labels.tolist()).values(), reverse=True)
    print(f"tau_out={tau_out}: {merged.class_count} categories, largest {sizes[:5]}")
