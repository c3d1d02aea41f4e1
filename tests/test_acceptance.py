"""End-to-end acceptance checks for the whole package.

Published results on real measured channel datasets need data volumes
and learned models far outside this package's scope: their meter-scale
errors are not reproducible from synthetic ray-traced scenes, no
component claims them, and nothing here tries to reproduce them. Each
algorithmic building block is instead held to its independent
brute-force oracle in its own module's tests, and this module holds the
end-to-end checks: the claim that per-region regression on a segmented
scene beats one global linear model, on a seeded synthetic scene; the
coverage/accuracy trade-off of cleansing; byte-identical reruns; the
benchmark and claim-sweep configs; and ``locate`` against full founder
scoring. Template matching's scan and stage one keep their oracle
checks here too, with the segmentation invariants.
"""
import dataclasses
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from amdnloc.channel import render_image
from amdnloc import localizer
from amdnloc.cli import main as cli_main
from amdnloc.evaluate import default_config, error_report, generate, run_pipeline, segment, split
from amdnloc.fusion import Segmentation, cleanse, fuse_labels
from amdnloc.localizer import locate, sample_features, train
from amdnloc.scenegen import Rect, SceneConfig, build_dataset, scene_from_json, scene_to_json
from amdnloc.segmentation_adcam import build_features, path_descriptor, select_k
from amdnloc.segmentation_cfr import (
    _best_pairs,
    _ImageStacks,
    _TemplateBank,
    extract_templates,
    match_between,
    match_within,
    segment_cfr,
)
from oracles import REFERENCE_SCENE, affine_oracle, magnitude_images, match_within_sequential, pair_scores

# ---------------------------------------------------------------------------
# shared oracles


def ncc_oracle(template: np.ndarray, source: np.ndarray) -> float:
    """Literal sliding-window scan of the normalized cross-correlation.

    The window of placement (i, j) is gathered by explicit row indices
    i..i+a-1 and column indices j..j+b-1, and its products and energy
    are plain sums over it.
    """
    a, b = template.shape
    t_energy = float(np.sum(template * template))
    if t_energy == 0.0:
        return 0.0
    p, q = source.shape[0] - a + 1, source.shape[1] - b + 1
    rows = np.arange(p)[:, None, None, None] + np.arange(a)[None, None, :, None]
    cols = np.arange(q)[None, :, None, None] + np.arange(b)[None, None, None, :]
    windows = source[rows, cols]  # (p, q, a, b)
    energies = np.sum(windows * windows, axis=(2, 3))
    products = np.sum(template * windows, axis=(2, 3))
    # windows above 1e-12 of the largest energy, none when every one is empty
    valid = energies > 1e-12 * energies.max()
    if not valid.any():
        return 0.0
    best = float(np.max(products[valid] / np.sqrt(t_energy * energies[valid])))
    return min(max(best, 0.0), 1.0)


# ---------------------------------------------------------------------------
# the heterogeneous demonstration scene, shared by the trade-off and
# segmentation-benefit checks

HETERO_SCENE = SceneConfig(**REFERENCE_SCENE, grid_spacing_m=5.5, nt=32, nc=32, seed=7)

HETERO_CONFIG = {
    **default_config(),
    "scene": scene_to_json(HETERO_SCENE),
    "seed": 3,
    "template_size": [16, 16],
    "tau_in": 0.91,
    "tau_out": 0.88,
    "min_count": 8,
    "k_max": 6,
    "ridge_lambda": 30.0,
}


@pytest.fixture(scope="module")
def hetero_segmentation():
    """Dataset, split and segmentation of the demonstration scene."""
    train_s, test_s = split(build_dataset(HETERO_SCENE), HETERO_CONFIG)
    images = [render_image(s.cfr, "cfr_magnitude") for s in train_s]
    lab = segment_cfr(images, HETERO_CONFIG["tau_in"], HETERO_CONFIG["tau_out"], (16, 16))
    founders = {
        c: extract_templates(images[p.founder_id], (16, 16), founder_id=train_s[p.founder_id].id)
        for c, p in lab.founders.items()
    }
    feats, std = build_features(train_s)
    _, cmodel = select_k(feats, range(2, HETERO_CONFIG["k_max"] + 1), seed=HETERO_CONFIG["seed"])
    return train_s, test_s, lab, founders, cmodel, std


# ---------------------------------------------------------------------------
# 1. template matching against the brute-force scan


def bank_ncc(template: np.ndarray, source: np.ndarray) -> float:
    """The package's one template scorer, ``_ImageStacks._score``, on
    one template and one image."""
    stacks = _ImageStacks([source], template.shape)
    return float(stacks._score(_TemplateBank(template[None], source.shape), np.arange(1))[0, 0])


def test_ncc_matches_brute_force_scan():
    """200 random pairs agree with the literal scan. The time bound is on
    the package's scorer calls alone; the Python oracle is left off the
    clock because its own cost says nothing about the package."""
    rng = np.random.default_rng(0)
    spent = 0.0
    for _ in range(200):
        t = rng.uniform(0.0, 1.0, (16, 16))
        s = rng.uniform(0.0, 1.0, (64, 64))
        t0 = time.perf_counter()
        got = bank_ncc(t, s)
        spent += time.perf_counter() - t0
        assert got == pytest.approx(ncc_oracle(t, s), abs=1e-9)
    assert spent < 5.0


# ---------------------------------------------------------------------------
# 2. segmentation invariants on a ~200-sample synthetic set


def test_segmentation_invariants():
    scene = SceneConfig(
        area_m=(100.0, 100.0),
        bs_pos=(5.0, 50.0),
        buildings=[Rect(30.0, 20.0, 15.0, 20.0), Rect(60.0, 55.0, 20.0, 15.0)],
        grid_spacing_m=5.7,
        nt=16,
        nc=16,
        seed=11,
    )
    t0 = time.perf_counter()
    samples = build_dataset(scene)
    assert 150 <= len(samples) <= 260
    images = [render_image(s.cfr, "cfr_magnitude") for s in samples]

    within = match_within(images, 0.97, (8, 8))
    counts = []
    for tau_out in (0.99, 0.98, 0.95, 0.9):
        merged = match_between(within, images, tau_out)
        counts.append(merged.class_count)
        # totality: every image ends up labeled with a live category
        assert np.all(merged.labels >= 0)
        assert set(np.unique(merged.labels)) == set(merged.founders)
        # stage two is a fixpoint: merging again changes nothing
        again = match_between(merged, images, tau_out)
        assert np.array_equal(again.labels, merged.labels)
        assert again.class_count == merged.class_count
    # more permissive cross-category threshold can only merge further
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[-1]

    # determinism: an independent full run reproduces the labeling
    rerun = segment_cfr(images, 0.97, 0.99, (8, 8))
    full = segment_cfr(images, 0.97, 0.99, (8, 8))
    assert np.array_equal(rerun.labels, full.labels)
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. coverage / accuracy trade-off of category cleansing


def _retained_error(train_s, test_s, lab, founders, cmodel, std, min_count):
    regions = cleanse(fuse_labels(lab.labels, cmodel.assignment), min_count)
    segmentation = Segmentation(regions, founders, cmodel.centroids, std)
    model = train(train_s, segmentation, HETERO_CONFIG["ridge_lambda"])
    # the CFR label: the first best-scoring founder in model.founders order
    best = _best_pairs(model.corner_banks, [render_image(s.cfr, "cfr_magnitude") for s in test_s])
    cfr_labels = np.array(list(model.founders))[best]
    errs = []
    for s, c in zip(test_s, cfr_labels):
        kf = model.adcam_standardizer.apply(path_descriptor(s))
        a = int(np.argmin(np.sum((model.adcam_centroids - kf) ** 2, axis=1)))
        fused = model.pair_to_fused.get((int(c), a))
        if fused is None or fused not in model.weights:
            continue  # sample falls in a cleansed category: not retained
        feat = model.feature_standardizer.apply(sample_features(s, model.config))
        errs.append(float(np.hypot(*(affine_oracle(model.weights[fused], feat) - np.array(s.pos)))))
    return regions.covering_rate, float(np.mean(errs))


def test_cleansing_trades_coverage_for_accuracy(hetero_segmentation):
    covers, errors = [], []
    for mc in (0, 2, 10):
        cover, err = _retained_error(*hetero_segmentation, mc)
        covers.append(cover)
        errors.append(err)
    # coverage shrinks as the category-size floor rises
    assert all(a >= b for a, b in zip(covers, covers[1:]))
    assert covers[0] > covers[-1]
    # accuracy over the retained samples holds up: each step is
    # non-increasing or within 5% of the previous one
    for prev, cur in zip(errors, errors[1:]):
        assert cur <= prev * 1.05


def test_stage_one_equals_the_sequential_scan_on_hetero(hetero_segmentation):
    # the reference scene's training images, as run_pipeline segments them
    images = [render_image(s.cfr, "cfr_magnitude") for s in hetero_segmentation[0]]
    got = match_within(images, HETERO_CONFIG["tau_in"], (16, 16))
    want = match_within_sequential(images, HETERO_CONFIG["tau_in"], (16, 16))
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.class_count == want.class_count == len(got.founders)
    assert {c: p.founder_id for c, p in got.founders.items()} == {c: p.founder_id for c, p in want.founders.items()}
    assert got.scores.tobytes() == want.scores.tobytes()


# ---------------------------------------------------------------------------
# 4. segmented regression beats one global linear model


def test_segmentation_beats_global_model():
    t0 = time.perf_counter()
    segmented = run_pipeline(HETERO_CONFIG)
    elapsed = time.perf_counter() - t0
    global_run = run_pipeline({**HETERO_CONFIG, "single_region": True})

    n = segmented["n_train"] + segmented["n_test"]
    assert 900 <= n <= 1100  # ~1000 terminals
    assert len(HETERO_SCENE.buildings) >= 4
    assert segmented["region_count"] >= 2
    assert segmented["mean_error_m"] <= 0.8 * global_run["mean_error_m"]
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# 5. byte-identical artifacts across reruns


def test_pipeline_runs_are_byte_identical(tmp_path):
    scene = SceneConfig(
        area_m=(60.0, 60.0),
        bs_pos=(8.0, 30.0),
        buildings=[Rect(25.0, 20.0, 8.0, 25.0)],
        grid_spacing_m=11.0,
        nt=16,
        nc=16,
        seed=1,
    )
    cfg = {
        **default_config(),
        "scene": scene_to_json(scene),
        "tau_in": 0.95,
        "tau_out": 0.95,
        "template_size": [8, 8],
        "min_count": 0,
        "k_max": 3,
        "seed": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    names = [sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) for out in (out_a, out_b)]
    assert names[0] == names[1]
    dataset = ["dataset/adcam.bin", "dataset/cfr.bin", "dataset/config.json", "dataset/paths.csv", "dataset/positions.csv"]
    assert set(names[0]) >= {"report.json", "region_map.csv", "region_map.ppm", "model.json", *dataset}
    for name in names[0]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# 6. routing on the benchmark scenes equals full founder scoring

# The configs of the two benchmark workloads: HETERO_CONFIG, and the same
# buildings on a 3.5 m grid with one global region.
BENCHMARK_CONFIGS = {
    "dense-global": {
        **HETERO_CONFIG,
        "scene": {**HETERO_CONFIG["scene"], "grid_spacing_m": 3.5},
        "single_region": True,
    },
    "hetero-segmented": HETERO_CONFIG,
}


def _pipeline_model(cfg):
    """The model that ``run_pipeline(cfg)`` trains, and its held-out samples."""
    cfg, scene, _ = generate(cfg)
    train_s, test_s = split(build_dataset(scene), cfg)
    model = train(train_s, segment(train_s, cfg, magnitude_images(train_s)), cfg["ridge_lambda"])
    return model, test_s


def _module_at(name: str, relative: str):
    """The module of a file of the repository, imported under ``name``."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_times_the_reference_scene():
    # perfbench keeps its own copy of the buildings; it must not drift
    # from the scene the tests check
    workloads = _module_at("perfbench_workloads", "perfbench/workloads.py")
    assert [Rect(*b) for b in workloads.BUILDINGS] == REFERENCE_SCENE["buildings"]
    for name in workloads.WORKLOADS:
        scene = scene_from_json(workloads.build_config(name)["scene"])
        assert (scene.area_m, scene.bs_pos, scene.buildings) == (
            REFERENCE_SCENE["area_m"], REFERENCE_SCENE["bs_pos"], REFERENCE_SCENE["buildings"]
        ), name


def test_the_claim_sweep_runs_the_reference_config():
    # demos/06_claim_sweep.py keeps its own copy of the scene and settings,
    # which run_pipeline seeds from each cell's config seed; importing it
    # runs no sweep
    demo = _module_at("claim_sweep", "demos/06_claim_sweep.py")
    assert "cells" not in vars(demo)
    scene = scene_from_json(demo.SCENE)
    assert (scene.area_m, scene.bs_pos, scene.buildings) == (
        REFERENCE_SCENE["area_m"], REFERENCE_SCENE["bs_pos"], REFERENCE_SCENE["buildings"]
    )
    assert dataclasses.replace(scene, seed=HETERO_SCENE.seed) == HETERO_SCENE
    assert {**demo.CONFIG, "scene": HETERO_CONFIG["scene"], "seed": HETERO_CONFIG["seed"]} == HETERO_CONFIG


@pytest.mark.parametrize("name", list(BENCHMARK_CONFIGS))
def test_locate_equals_full_scoring_on_benchmark_scenes(name, monkeypatch):
    model, test_s = _pipeline_model(BENCHMARK_CONFIGS[name])
    xy, regions = locate(model, test_s)
    # run_pipeline routes and predicts its held-out design rows as locate
    # does its held-out samples
    want = error_report(xy, [s.pos for s in test_s], regions)
    report = run_pipeline(BENCHMARK_CONFIGS[name])
    assert {key: report[key] for key in want} == want
    pairs = list(model.founders.values())

    def full_scoring(banks, images):
        stacks = _ImageStacks(images, pairs[0].size)
        return np.argmax(pair_scores(stacks, pairs, np.arange(len(images))), axis=0)

    monkeypatch.setattr(localizer, "_best_pairs", full_scoring)
    want_xy, want_regions = locate(model, test_s)
    assert regions == want_regions
    assert np.array_equal(xy, want_xy)
    if not BENCHMARK_CONFIGS[name].get("single_region"):
        assert len(pairs) > 1 and len(set(regions)) > 1
