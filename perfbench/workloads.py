"""The benchmark's workloads: full ``run_pipeline`` configs.

Every workload runs one fixed scene and split. The workload seed does
not reach the program: a different ``seed`` in the config draws a
different train/test split, and the held-out error then moves by
about 15 % from split to split, which no regression bound can absorb.
The seed orders the closed localize loop instead (see ``run.py``).
"""
from __future__ import annotations

from amdnloc.evaluate import default_config

# The scene of HETERO_SCENE in tests/test_acceptance.py: five buildings
# in a 250 m square, the base station at the bottom edge.
BUILDINGS = [
    [40.0, 60.0, 30.0, 40.0],
    [170.0, 50.0, 35.0, 30.0],
    [60.0, 170.0, 40.0, 30.0],
    [165.0, 160.0, 30.0, 45.0],
    [110.0, 30.0, 25.0, 20.0],
]

# The split and segmentation settings of HETERO_CONFIG in
# tests/test_acceptance.py. The scene seed equals the config seed,
# because run_pipeline seeds the scene from the config.
SEED = 3

# pipeline_repeats: run_pipeline calls per run; their mean, in reference
#   seconds, is reported.
# min_passes: closed-loop passes over the held-out terminals, at least.
# beats_global: the run checks the segmented error against the global
#   model's on the same scene and split (checks.check_beats_global).
WORKLOADS = {
    # Tiny images, small templates and high thresholds leave hundreds of
    # founders after stage two, so per-call overhead and routing dominate.
    "many-founders": {
        "scene": {"grid_spacing_m": 8.5, "nt": 16, "nc": 16},
        "config": {"template_size": [8, 8], "tau_in": 0.97, "tau_out": 0.95},
        "pipeline_repeats": 2,
        "min_passes": 2,
    },
    # No template matching: synthesis, features and io dominate.
    "dense-global": {
        "scene": {"grid_spacing_m": 3.5, "nt": 32, "nc": 32},
        "config": {"single_region": True},
        "pipeline_repeats": 3,
        "min_passes": 4,
    },
    # The ROADMAP reference scene; CFR template matching does most of the
    # work. One pipeline call takes 25 to 40 s, so it is made once.
    "hetero-segmented": {
        "scene": {"grid_spacing_m": 5.5, "nt": 32, "nc": 32},
        "config": {},
        "pipeline_repeats": 1,
        "min_passes": 2,
        "beats_global": True,
    },
}


def build_config(name: str) -> dict:
    """The complete ``run_pipeline`` config of a workload."""
    spec = WORKLOADS[name]
    base = default_config()
    scene = {
        **base["scene"],
        "area_m": [250.0, 250.0],
        "bs_pos": [125.0, 2.0],
        "buildings": BUILDINGS,
        "seed": SEED,
        **spec["scene"],
    }
    return {
        **base,
        "scene": scene,
        "seed": SEED,
        "template_size": [16, 16],
        "tau_in": 0.91,
        "tau_out": 0.88,
        "min_count": 8,
        "k_max": 6,
        "ridge_lambda": 30.0,
        **spec["config"],
    }
