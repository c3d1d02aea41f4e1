"""Sweep the claim over seeds and noise: segmented against global error.

The one claim amdnloc keeps is that splitting the area into regions,
one affine regressor each, beats one global linear model. This runs
the reference scene at seeds 0-5 and at no noise, 30 dB and 20 dB SNR,
on all terminals and then on the NLOS terminals alone (``nlos_mode``
"nlos_only"), which the paper is about. Each cell makes one segmented
and one ``single_region`` pipeline run on the same scene and split, and
prints both held-out errors, their ratio and the region count. Every
cell is printed and none is gated; the last line is one JSON object
holding every cell.
"""
import json

from amdnloc import run_pipeline
from amdnloc.evaluate import default_config

# The scene and settings of HETERO_SCENE and HETERO_CONFIG in
# tests/test_acceptance.py, which checks that they stay equal.
# run_pipeline seeds the scene from the config's seed, so each seed
# draws its own noise and split.
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

if __name__ == "__main__":
    cells = []
    print(f"{'nlos_mode':>9} {'snr_db':>6} {'seed':>4} {'segmented_m':>11} {'global_m':>9} {'ratio':>6} {'regions':>7}")
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
                }
                cells.append(cell)
                snr = "none" if snr_db is None else f"{snr_db:g}"
                print(
                    f"{nlos_mode:>9} {snr:>6} {seed:>4} {cell['segmented_m']:>11.3f} {cell['global_m']:>9.3f}"
                    f" {cell['ratio']:>6.3f} {cell['regions']:>7}"
                )
    print(json.dumps({"cells": cells}))
