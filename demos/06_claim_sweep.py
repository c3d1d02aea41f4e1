"""Sweep the claim over seeds and noise: segmented against global error.

The one claim amdnloc keeps is that splitting the area into regions,
one affine regressor each, beats one global linear model. This runs
the reference scene at seeds 0-5 and at no noise, 30 dB and 20 dB SNR,
on all terminals and then on the NLOS terminals alone (``nlos_mode``
"nlos_only"), which the paper is about. Each cell makes one segmented
and one ``single_region`` pipeline run on the same scene and split, and
prints both held-out errors, their ratio and the region count, and a
fingerprint baseline on the same held-out terminals: ``knn5_m``, the
mean error of the mean position of the 5 nearest training terminals in
the fused features (``sample_features``), standardized by the training
rows. k = 5 is stated, not tuned. Every cell is printed and none is gated;
the last line is one JSON object holding every cell.
"""
import json

import numpy as np

from amdnloc import run_pipeline, sample_features
from amdnloc.evaluate import default_config, generate, split
from amdnloc.localizer import FeatureConfig
from amdnloc.scenegen import build_dataset, nlos_filter
from amdnloc.segmentation_adcam import Standardizer

K = 5  # neighbours of the fingerprint baseline

# The scene and settings of HETERO_SCENE and HETERO_CONFIG in
# tests/test_acceptance.py, which checks that they stay equal.
# The config's seed is the scene's seed too, as the config.json and
# report.json of a run record it, so each seed draws its own noise and
# split.
SCENE = {
    **default_config()["scene"],
    "area_m": [250.0, 250.0],
    "bs_pos": [125.0, 2.0],
    "buildings": [
        [40.0, 60.0, 30.0, 40.0],
        [170.0, 50.0, 35.0, 30.0],
        [60.0, 170.0, 40.0, 30.0],
        [165.0, 160.0, 30.0, 45.0],
        [110.0, 30.0, 25.0, 20.0],
    ],
    "grid_spacing_m": 5.5,
    "nt": 32,
    "nc": 32,
}
CONFIG = {
    **default_config(),
    "template_size": [16, 16],
    "tau_in": 0.91,
    "tau_out": 0.88,
    "min_count": 8,
    "k_max": 6,
    "ridge_lambda": 30.0,
}


def knn_error(config: dict) -> float:
    """Mean held-out error of the mean position of the ``K`` training
    terminals nearest in standardized fused features, on the terminals
    and split of ``run_pipeline(config)``; ties go to the earlier
    training terminal."""
    cfg, scene, _ = generate(config)
    train, held = split(nlos_filter(build_dataset(scene), cfg["nlos_mode"]), cfg)
    features = FeatureConfig(nt=scene.nt, nc=scene.nc)
    train_x, held_x = (np.array([sample_features(s, features) for s in part]) for part in (train, held))
    std = Standardizer.fit(train_x)
    train_x, held_x = std.apply(train_x), std.apply(held_x)
    train_pos = np.array([s.pos for s in train])
    errors = []
    for x, s in zip(held_x, held):
        nearest = np.argsort(((train_x - x) ** 2).sum(axis=1), kind="stable")[:K]
        errors.append(np.hypot(*(train_pos[nearest].mean(axis=0) - s.pos)))
    return float(np.mean(errors))


if __name__ == "__main__":
    cells = []
    print(
        f"{'nlos_mode':>9} {'snr_db':>6} {'seed':>4} {'segmented_m':>11} {'global_m':>9} {'ratio':>6} {'regions':>7}"
        f" {'knn5_m':>7}"
    )
    for nlos_mode in ("all", "nlos_only"):
        for snr_db in (None, 30.0, 20.0):
            for seed in range(6):
                config = {**CONFIG, "scene": {**SCENE, "snr_db": snr_db}, "seed": seed, "nlos_mode": nlos_mode}
                segmented = run_pipeline(config)
                global_run = run_pipeline({**config, "single_region": True})
                cell = {
                    "nlos_mode": nlos_mode,
                    "snr_db": snr_db,
                    "seed": seed,
                    "segmented_m": segmented["mean_error_m"],
                    "global_m": global_run["mean_error_m"],
                    "ratio": segmented["mean_error_m"] / global_run["mean_error_m"],
                    "regions": segmented["region_count"],
                    "knn5_m": knn_error(config),
                }
                cells.append(cell)
                snr = "none" if snr_db is None else f"{snr_db:g}"
                print(
                    f"{nlos_mode:>9} {snr:>6} {seed:>4} {cell['segmented_m']:>11.3f} {cell['global_m']:>9.3f}"
                    f" {cell['ratio']:>6.3f} {cell['regions']:>7} {cell['knn5_m']:>7.3f}"
                )
    print(json.dumps({"cells": cells}))
