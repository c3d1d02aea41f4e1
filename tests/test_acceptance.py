"""End-to-end acceptance checks for the whole package.

Published results on real measured channel datasets need data volumes
and learned models far outside this package's scope, so nothing here
tries to reproduce them.  Instead every algorithmic building block is
held to an independent brute-force oracle, and the end-to-end claim --
that per-region regression on a segmented scene beats one global linear
model -- is demonstrated on a seeded synthetic scene.
"""
import json
import time

import numpy as np
import pytest

from amdnloc.channel import (
    PathRecord,
    adcam,
    cfr_from_paths,
    dft_matrices,
    render_image,
)
from amdnloc import localizer
from amdnloc.cli import main as cli_main
from amdnloc.evaluate import _split, default_config, run_pipeline, segment
from amdnloc.fusion import Segmentation, cleanse, fuse_labels
from amdnloc.localizer import (
    apply_weights,
    fit_region_weights,
    locate,
    sample_features,
    train,
)
from amdnloc.scenegen import Rect, SceneConfig, build_dataset, nlos_filter, scene_from_json, scene_to_json
from amdnloc.segmentation_adcam import (
    build_features,
    calinski_harabasz,
    kmeans,
    path_descriptor,
    select_k,
    silhouette,
)
from amdnloc.segmentation_cfr import (
    _best_pairs,
    _ImageStacks,
    _TemplateBank,
    extract_templates,
    match_between,
    match_within,
    segment_cfr,
)
from oracles import match_within_sequential, pair_scores

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


def silhouette_oracle(points, assignment):
    n = len(points)
    labels = np.asarray(assignment)
    total = 0.0
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not same:
            continue  # singleton contributes 0
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in same])
        b = min(
            np.mean([np.linalg.norm(points[i] - points[j]) for j in range(n) if labels[j] == c])
            for c in np.unique(labels)
            if c != labels[i]
        )
        total += (b - a) / max(a, b)
    return total / n


def ch_oracle(points, assignment):
    labels = np.asarray(assignment)
    n, k = len(points), len(np.unique(labels))
    mean = points.mean(axis=0)
    bg = sum(
        (labels == c).sum() * np.sum((points[labels == c].mean(axis=0) - mean) ** 2)
        for c in np.unique(labels)
    )
    wg = sum(
        np.sum((points[labels == c] - points[labels == c].mean(axis=0)) ** 2)
        for c in np.unique(labels)
    )
    if wg == 0.0:
        return float("inf")
    return (bg / (k - 1)) / (wg / (n - k))


# ---------------------------------------------------------------------------
# the heterogeneous demonstration scene, shared by the trade-off and
# segmentation-benefit checks

HETERO_SCENE = SceneConfig(
    area_m=(250.0, 250.0),
    bs_pos=(125.0, 2.0),
    buildings=[
        Rect(40.0, 60.0, 30.0, 40.0),
        Rect(170.0, 50.0, 35.0, 30.0),
        Rect(60.0, 170.0, 40.0, 30.0),
        Rect(165.0, 160.0, 30.0, 45.0),
        Rect(110.0, 30.0, 25.0, 20.0),
    ],
    grid_spacing_m=5.5,
    nt=32,
    nc=32,
    seed=7,
)

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
    samples = build_dataset(HETERO_SCENE)
    tr, te = _split(len(samples), 0.8, HETERO_CONFIG["seed"])
    train_s = [samples[i] for i in tr]
    test_s = [samples[i] for i in te]
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
# 1. scope statement


def test_measured_dataset_results_out_of_scope():
    """Meter-scale errors published for real measured channels are not
    reproducible from synthetic ray-traced scenes and no component here
    claims them; the rest of this module checks the algorithmic
    properties that are reproducible."""
    assert True


# ---------------------------------------------------------------------------
# 2. template matching against the brute-force scan


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
# 3. channel math


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32, 64, 127, 128])
def test_dft_matrices_unitary(n):
    v, f = dft_matrices(n, n)
    eye = np.eye(n)
    assert np.max(np.abs(v.conj().T @ v - eye)) < 1e-10
    assert np.max(np.abs(f.conj().T @ f - eye)) < 1e-10


def test_adcam_equals_direct_multiplication():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(16, 24)) + 1j * rng.normal(size=(16, 24))
    v, f = dft_matrices(16, 24)
    direct = np.abs(v.conj().T @ h @ f)
    assert np.max(np.abs(adcam(h) - direct)) < 1e-9


@pytest.mark.parametrize("delay", [0, 1, 5])
def test_single_path_peak_location_and_value(delay):
    """A lone broadside path concentrates at row nt/2 with value
    sqrt(nt*nc); its delay appears at column (nc - delay) % nc because
    the delay-axis transform conjugates the phase ramp (delay 0 sits at
    column 0 either way)."""
    nt, nc = 32, 32
    path = PathRecord(aoa=np.pi / 2, aod=np.pi / 2, gain=1.0 + 0j, delay_samples=delay, pathloss_db=0.0)
    a = adcam(cfr_from_paths([path], nt, nc))
    peak = np.unravel_index(np.argmax(a), a.shape)
    assert peak == (nt // 2, (nc - delay) % nc)
    assert a[peak] == pytest.approx(np.sqrt(nt * nc), abs=1e-9)


# ---------------------------------------------------------------------------
# 4. clustering indices


def test_cluster_indices_match_oracles():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(6, 31))
        k = int(rng.integers(2, min(n, 5)))
        pts = rng.normal(size=(n, 4))
        labels = rng.integers(0, k, size=n)
        if len(np.unique(labels)) < 2:
            labels[: 2] = [0, 1]
        assert silhouette(pts, labels) == pytest.approx(silhouette_oracle(pts, labels), abs=1e-9)
        assert calinski_harabasz(pts, labels) == pytest.approx(ch_oracle(pts, labels), abs=1e-9)


def test_cluster_indices_worked_values():
    pts = np.array([[0.0], [1.0], [9.0], [10.0]])
    labels = np.array([0, 0, 1, 1])
    assert silhouette(pts, labels) == pytest.approx(0.8885, abs=1e-3)
    assert calinski_harabasz(pts, labels) == pytest.approx(162.0, abs=1e-3)


# ---------------------------------------------------------------------------
# 5. model selection recovers planted blob counts


@pytest.mark.parametrize("true_k", [2, 3])
def test_select_k_recovers_blob_count(true_k):
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-40.0, 40.0, size=(true_k, 3))
        while np.min(
            [np.linalg.norm(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]]
        ) < 25.0:
            centers = rng.uniform(-40.0, 40.0, size=(true_k, 3))
        pts = np.vstack([c + rng.normal(scale=1.5, size=(30, 3)) for c in centers])
        k, _ = select_k(pts, range(2, 7), seed=seed)
        hits += k == true_k
    assert hits >= 9


# ---------------------------------------------------------------------------
# 6. segmentation invariants on a ~200-sample synthetic set


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
# 7. coverage / accuracy trade-off of category cleansing


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
        errs.append(float(np.hypot(*(apply_weights(model.weights[fused], feat) - np.array(s.pos)))))
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
# 8. segmented regression beats one global linear model


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
# 9. exact recovery when features really are affine in position


def test_exact_recovery_for_affine_features():
    rng = np.random.default_rng(23)
    pos = rng.uniform(0.0, 100.0, size=(200, 2))
    region = (pos[:, 0] >= 50.0).astype(int)
    maps = {0: (np.array([[1.2, -0.3], [0.4, 2.0]]), np.array([3.0, -7.0])),
            1: (np.array([[-0.7, 1.1], [2.2, 0.5]]), np.array([10.0, 1.0]))}
    feats = np.array([maps[r][0] @ p + maps[r][1] for r, p in zip(region, pos)])
    train_idx, test_idx = _split(200, 0.8, 1)
    worst = 0.0
    for r in (0, 1):
        tr = [i for i in train_idx if region[i] == r]
        te = [i for i in test_idx if region[i] == r]
        w = fit_region_weights(feats[tr], pos[tr], ridge_lambda=0.0)
        for i in te:
            err = float(np.hypot(*(apply_weights(w, feats[i]) - pos[i])))
            worst = max(worst, err)
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# 10. byte-identical artifacts across reruns


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
    dataset = ["dataset/adcam.bin", "dataset/cfr.bin", "dataset/paths.csv", "dataset/positions.csv"]
    assert set(names[0]) >= {"report.json", "region_map.csv", "region_map.ppm", "model.json", *dataset}
    for name in names[0]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# 11. routing on the benchmark scenes equals full founder scoring

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
    scene = scene_from_json(cfg["scene"])
    scene.seed = cfg["seed"]
    samples = nlos_filter(build_dataset(scene), cfg["nlos_mode"])
    tr, te = _split(len(samples), cfg["train_fraction"], cfg["seed"])
    train_s = [samples[i] for i in tr]
    model = train(train_s, segment(train_s, cfg), cfg["ridge_lambda"])
    return model, [samples[i] for i in te]


@pytest.mark.parametrize("name", list(BENCHMARK_CONFIGS))
def test_locate_equals_full_scoring_on_benchmark_scenes(name, monkeypatch):
    model, test_s = _pipeline_model(BENCHMARK_CONFIGS[name])
    xy, regions = locate(model, test_s)
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
