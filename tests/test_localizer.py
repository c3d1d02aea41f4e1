import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from amdnloc import io as dio
from amdnloc.channel import PathRecord, render_image
from amdnloc.evaluate import _split, default_config, segment
from amdnloc.fusion import cleanse, fuse_labels
from amdnloc.localizer import (
    FeatureConfig,
    _block_means,
    _stack_features,
    _top_peaks,
    apply_weights,
    extract_features_adcam,
    extract_features_cfr,
    fit_region_weights,
    fuse_features,
    locate,
    predict,
    sample_features,
    train,
)
from amdnloc.scenegen import Rect, Sample, SceneConfig, build_dataset
from amdnloc.segmentation_adcam import Standardizer, build_features, kmeans, path_descriptor
from amdnloc.segmentation_cfr import extract_templates, segment_cfr
from oracles import ncc

CONFIG = FeatureConfig(nt=16, nc=16)


def block_mean_oracle(img, grid=(8, 8)):
    """Independent block averaging via explicit index boundaries."""
    h, w = img.shape
    rb = [round(i * h / grid[0]) for i in range(grid[0] + 1)]
    cb = [round(j * w / grid[1]) for j in range(grid[1] + 1)]
    out = []
    for i in range(grid[0]):
        for j in range(grid[1]):
            out.append(img[rb[i] : rb[i + 1], cb[j] : cb[j + 1]].mean())
    return np.array(out)


def block_means_loop(img, grid=(8, 8)):
    """Block averaging by nested ``np.array_split`` loops, one block at a time."""
    gh, gw = grid
    out = np.empty((gh, gw))
    for i, r in enumerate(np.array_split(img, gh, axis=0)):
        for j, c in enumerate(np.array_split(r, gw, axis=1)):
            out[i, j] = c.mean()
    return out.ravel()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(8, 70),
    st.integers(8, 70),
    st.sampled_from([1.0, 1e-7, 1e5]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([(8, 8), (3, 5), (1, 1)]),
)
def test_block_means_equal_the_loop(h, w, scale, seed, grid):
    # even (32x32, 16x16) and uneven (20x20, 12x18) splits alike
    img = scale * np.random.default_rng(seed).random((h, w))
    assert np.array_equal(_block_means(img, grid), block_means_loop(img, grid))


# ---------------------------------------------------------------------------
# The per-sample feature path, one 2-D image at a time: the oracle of the
# stacked features in localizer.


def render_oracle(m, tag):
    """One image min-max normalized by its scalar range (constant: zeros)."""
    if tag == "cfr_phase":
        return (np.angle(m) + np.pi) / (2.0 * np.pi)
    vals = np.abs(m) if tag == "cfr_magnitude" else np.asarray(m, dtype=float)
    lo, hi = vals.min(), vals.max()
    if hi - lo == 0.0:
        return np.zeros_like(vals, dtype=float)
    return (vals - lo) / (hi - lo)


def adcam_features_oracle(img):
    flat = img.ravel()
    peaks = np.zeros(15)
    for i, idx in enumerate(np.argsort(-flat, kind="stable")[:5]):
        if flat[idx] != 0.0:
            peaks[3 * i : 3 * i + 3] = (*divmod(int(idx), img.shape[1]), flat[idx])
    return np.concatenate([block_means_loop(img), img.mean(axis=1), img.mean(axis=0), peaks])


def features_oracle(sample):
    mag = render_oracle(sample.cfr, "cfr_magnitude")
    phase = render_oracle(sample.cfr, "cfr_phase")
    cfr = [block_means_loop(mag), block_means_loop(phase), mag.mean(axis=1), mag.mean(axis=0)]
    return np.concatenate([*cfr, adcam_features_oracle(render_oracle(sample.adcam, "adcam"))])


# The buildings and base station of the benchmark scenes, on their two grids.
REFERENCE_SCENE = dict(
    area_m=(250.0, 250.0),
    bs_pos=(125.0, 2.0),
    buildings=[
        Rect(40.0, 60.0, 30.0, 40.0),
        Rect(170.0, 50.0, 35.0, 30.0),
        Rect(60.0, 170.0, 40.0, 30.0),
        Rect(165.0, 160.0, 30.0, 45.0),
        Rect(110.0, 30.0, 25.0, 20.0),
    ],
    nt=32,
    nc=32,
    seed=3,
)


@pytest.mark.parametrize("spacing, step", [(3.5, 4), (5.5, 1)], ids=["dense-global", "hetero-segmented"])
def test_stacked_features_equal_the_per_sample_oracle(spacing, step):
    samples = build_dataset(SceneConfig(grid_spacing_m=spacing, **REFERENCE_SCENE))[::step]
    config = FeatureConfig(nt=32, nc=32)
    want = np.array([features_oracle(s) for s in samples])
    mag, got = _stack_features(samples, config)
    assert np.array_equal(got, want)
    assert np.array_equal(mag, [render_oracle(s.cfr, "cfr_magnitude") for s in samples])
    assert all(np.array_equal(sample_features(s, config), w) for s, w in zip(samples[::50], want[::50]))


# images with ties, zeros, constant images and fewer than 5 nonzero values
_images = st.builds(
    lambda n, h, w, levels, zeros, seed: np.where(
        np.random.default_rng(seed).random((n, h, w)) < zeros,
        0.0,
        np.random.default_rng(seed + 1).integers(0, levels, size=(n, h, w)) / max(levels - 1, 1),
    ),
    st.integers(1, 6), st.integers(8, 20), st.integers(8, 20),
    st.sampled_from([1, 2, 3, 1000, 2**40]), st.sampled_from([0.0, 0.5, 0.97, 1.0]), st.integers(0, 2**32 - 2),
)


@settings(max_examples=300, deadline=None)
@given(_images)
def test_top_peaks_equal_a_stable_full_sort(imgs):
    flat = imgs.reshape(len(imgs), -1)
    assert np.array_equal(_top_peaks(flat, 5), np.argsort(-flat, axis=1, kind="stable")[:, :5])


@settings(max_examples=100, deadline=None)
@given(_images)
def test_stacked_adcam_features_equal_the_oracle(imgs):
    config = FeatureConfig(nt=imgs.shape[1], nc=imgs.shape[2])
    want = np.array([adcam_features_oracle(img) for img in imgs])
    assert np.array_equal(extract_features_adcam(imgs, config), want)
    assert np.array_equal(extract_features_adcam(imgs[0], config), want[0])


class TestCfrFeatures:
    def test_zero_image_zero_vector(self):
        z = np.zeros((16, 16))
        np.testing.assert_array_equal(extract_features_cfr(z, z, CONFIG), np.zeros(CONFIG.cfr_len))

    def test_constant_magnitude(self):
        mag = np.full((16, 16), 0.5)
        feats = extract_features_cfr(mag, np.zeros((16, 16)), CONFIG)
        np.testing.assert_allclose(feats[:64], 0.5)
        np.testing.assert_allclose(feats[128:], 0.5)

    def test_matches_block_oracle(self):
        rng = np.random.default_rng(0)
        mag = rng.random((16, 16))
        phase = rng.random((16, 16))
        feats = extract_features_cfr(mag, phase, CONFIG)
        np.testing.assert_allclose(feats[:64], block_mean_oracle(mag), atol=1e-12)
        np.testing.assert_allclose(feats[64:128], block_mean_oracle(phase), atol=1e-12)
        np.testing.assert_allclose(feats[128:144], mag.mean(axis=1), atol=1e-12)
        np.testing.assert_allclose(feats[144:], mag.mean(axis=0), atol=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            extract_features_cfr(np.zeros((8, 8)), np.zeros((8, 8)), CONFIG)


class TestAdcamFeatures:
    def test_zero_image(self):
        feats = extract_features_adcam(np.zeros((16, 16)), CONFIG)
        np.testing.assert_array_equal(feats, np.zeros(CONFIG.adcam_len))

    def test_single_peak_location(self):
        img = np.zeros((16, 16))
        img[8, 3] = 1.0
        feats = extract_features_adcam(img, CONFIG)
        r, c, v = feats[-15], feats[-14], feats[-13]
        assert (r, c, v) == (8.0, 3.0, 1.0)

    def test_top5_matches_brute_force(self):
        rng = np.random.default_rng(1)
        img = rng.random((16, 16))
        feats = extract_features_adcam(img, CONFIG)
        got_vals = feats[-15:].reshape(5, 3)[:, 2]
        want = np.sort(img.ravel())[::-1][:5]
        np.testing.assert_allclose(got_vals, want)


class TestFuseFeatures:
    def test_zero_concat(self):
        fused = fuse_features(np.zeros(3), np.zeros(2))
        np.testing.assert_array_equal(fused, np.zeros(5))

    def test_lengths_add(self):
        assert fuse_features(np.ones(7), np.ones(4)).size == 11

    def test_training_set_moments(self):
        rng = np.random.default_rng(2)
        raw = rng.random((30, 10))
        std = Standardizer.fit(raw)
        out = std.apply(raw)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)


class TestRidge:
    def test_normal_equations_satisfied(self):
        rng = np.random.default_rng(3)
        x = rng.random((40, 6))
        y = rng.random((40, 2))
        lam = 1e-3
        w = fit_region_weights(x, y, lam)
        xb = np.hstack([x, np.ones((40, 1))])
        penalty = lam * np.eye(7)
        penalty[-1, -1] = 0.0  # the bias is not shrunk
        resid = (xb.T @ xb + penalty) @ w.T - xb.T @ y
        assert np.max(np.abs(resid)) < 1e-8

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(4)
        x = rng.random((50, 5))
        true_w = rng.random((2, 6))
        y = np.array([apply_weights(true_w, xi) for xi in x])
        w = fit_region_weights(x, y, ridge_lambda=0.0)
        preds = np.array([apply_weights(w, xi) for xi in x])
        assert np.max(np.linalg.norm(preds - y, axis=1)) < 1e-6


SMALL_SCENE = SceneConfig(
    area_m=(120.0, 120.0),
    bs_pos=(10.0, 60.0),
    buildings=[Rect(50, 40, 10, 40), Rect(20, 100, 80, 6)],
    grid_spacing_m=12.0,
    nt=16,
    nc=16,
)


def small_dataset():
    return build_dataset(SMALL_SCENE)


def segment_and_train(samples, seed=0, min_count=0):
    images = [render_image(s.cfr, "cfr_magnitude") for s in samples]
    labeling = segment_cfr(images, 0.95, 0.95, (8, 8))
    founders = {
        c: extract_templates(images[p.founder_id], (8, 8), founder_id=samples[p.founder_id].id)
        for c, p in labeling.founders.items()
    }
    feats, std = build_features(samples)
    cm = kmeans(feats, min(3, len(samples)), seed=seed)
    regions = cleanse(fuse_labels(labeling.labels, cm.assignment), min_count)
    model = train(samples, regions, founders, cm.centroids, std)
    return model, regions


class TestTrainPredict:
    def test_training_samples_route_to_their_region(self):
        samples = small_dataset()
        model, regions = segment_and_train(samples)
        routed = locate(model, samples)[1]
        agree = sum(
            routed[i] == regions.fused_labels[i]
            for i in range(len(samples))
            if regions.retained[i]
        )
        total = int(regions.retained.sum())
        # boundary samples may legitimately flip; the bulk must self-assign
        assert agree / total > 0.9

    def test_founder_sample_routes_to_founder_region(self):
        samples = small_dataset()
        model, regions = segment_and_train(samples)
        by_id = {s.id: s for s in samples}
        for c, pair in model.founders.items():
            s = by_id[pair.founder_id]
            i = next(i for i, t in enumerate(samples) if t.id == s.id)
            if regions.retained[i]:
                assert locate(model, [s])[1] == [regions.fused_labels[i]]

    def test_deterministic_weights(self):
        # seeded k-means, then closed-form ridge: two runs fit the same weights
        samples = small_dataset()
        m1, _ = segment_and_train(samples, seed=5)
        m2, _ = segment_and_train(samples, seed=5)
        for r in m1.weights:
            np.testing.assert_array_equal(m1.weights[r], m2.weights[r])

    def test_prediction_is_affine_within_region(self):
        samples = small_dataset()
        model, _ = segment_and_train(samples)
        region = next(iter(model.weights))
        w = model.weights[region]
        rng = np.random.default_rng(7)
        a = rng.random(model.config.fused_len)
        b = rng.random(model.config.fused_len)
        for alpha in (0.0, 0.3, 0.7, 1.0):
            mix = apply_weights(w, alpha * a + (1 - alpha) * b)
            direct = alpha * apply_weights(w, a) + (1 - alpha) * apply_weights(w, b)
            np.testing.assert_allclose(mix, direct, atol=1e-9)

    def test_duplicate_sample_identical_prediction(self):
        samples = small_dataset()
        model, _ = segment_and_train(samples)
        s = samples[3]
        np.testing.assert_array_equal(predict(model, s), predict(model, s))


def route_oracle(model, sample) -> tuple[int, bool]:
    """Routing one sample at a time with the scalar ``ncc``: the region,
    and whether the sample's (CFR, cluster) pair routed it directly."""
    mag = render_image(sample.cfr, "cfr_magnitude")
    cfr_label = max(
        model.founders,
        key=lambda c: min(ncc(model.founders[c].t1, mag), ncc(model.founders[c].t2, mag)),
    )
    kf = model.adcam_standardizer.apply(path_descriptor(sample, model.path_select))
    adcam_label = int(cdist([kf], model.adcam_centroids)[0].argmin())
    fused = model.pair_to_fused.get((int(cfr_label), adcam_label))
    if fused is not None and fused in model.weights:
        return fused, True
    feat = model.feature_standardizer.apply(sample_features(sample, model.config))
    nearest = min(
        model.region_feature_centroids,
        key=lambda r: float(np.sum((model.region_feature_centroids[r] - feat) ** 2)),
    )
    return nearest, False


def predict_oracle(model, sample) -> np.ndarray:
    feat = model.feature_standardizer.apply(sample_features(sample, model.config))
    return apply_weights(model.weights[route_oracle(model, sample)[0]], feat)


@pytest.fixture(scope="module", params=[False, True], ids=["segmented", "single_region"])
def held_out_model(request):
    """A model trained on a split of the small scene, and its held-out samples."""
    samples = small_dataset()
    tr, te = _split(len(samples), 0.8, 0)
    train_s = [samples[i] for i in tr]
    cfg = {
        **default_config(),
        "tau_in": 0.9,
        "tau_out": 0.9,
        "template_size": [8, 8],
        "k_max": 4,
        "single_region": request.param,
    }
    regions, founders, centroids, std = segment(train_s, cfg)
    return train(train_s, regions, founders, centroids, std), [samples[i] for i in te]


class TestLocate:
    def test_matches_scalar_oracle(self, held_out_model):
        model, test = held_out_model
        xy, regions = locate(model, test)
        oracle = [route_oracle(model, s) for s in test]
        assert regions == [r for r, _ in oracle]
        assert np.array_equal(xy, np.array([predict_oracle(model, s) for s in test]))
        direct = [d for _, d in oracle]
        if len(model.weights) > 1:
            # both the direct route and the nearest-centroid fallback ran
            assert any(direct) and not all(direct)

    def test_predict_is_locate_of_one(self, held_out_model):
        model, test = held_out_model
        for s in test[:5]:
            assert np.array_equal(predict(model, s), locate(model, [s])[0][0])
            assert predict(model, s).shape == (2,)

    def test_read_back_and_replaced_models_route_through_their_founders(self, held_out_model, tmp_path):
        model, test = held_out_model
        dio.write_model(tmp_path / "model.json", model)
        read = dio.read_model(tmp_path / "model.json", small_dataset())
        # each category's founder re-cut from a held-out sample, in reverse
        # order, so a bank left from the old founders would route otherwise
        size = next(iter(model.founders.values())).size
        cut = [extract_templates(render_image(s.cfr, "cfr_magnitude"), size, founder_id=s.id) for s in test]
        replaced = dataclasses.replace(model, founders=dict(zip(reversed(list(model.founders)), cut)))
        for m in (read, replaced):
            xy, regions = locate(m, test)
            assert regions == [route_oracle(m, s)[0] for s in test]
            assert np.array_equal(xy, np.array([predict_oracle(m, s) for s in test]))
        if len(model.founders) > 1:
            assert locate(replaced, test)[1] != locate(model, test)[1]

    def test_locate_transforms_no_template(self, held_out_model, monkeypatch):
        model, test = held_out_model
        want = locate(model, test)
        rfft2 = np.fft.rfft2
        shapes = []

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return rfft2(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft2", counted)
        got = locate(model, test)
        monkeypatch.undo()
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        if len(model.founders) == 1:
            # every sample routes to the one founder, so none is scored
            assert shapes == []
        else:
            # only the samples' CFR magnitude images, each transformed once
            assert all(shape[1:] == (model.config.nt, model.config.nc) for shape in shapes)
            assert sum(shape[0] for shape in shapes) == len(test)

    def test_no_samples_give_no_positions(self, held_out_model):
        model, _ = held_out_model
        xy, regions = locate(model, [])
        assert xy.shape == (0, 2) and regions == []

    def test_sample_of_another_shape_rejected(self, held_out_model):
        model, test = held_out_model
        odd = dataclasses.replace(test[0], cfr=test[0].cfr[:, :-1])
        with pytest.raises(ValueError, match=r"\(16, 15\).*\(16, 16\)"):
            locate(model, [test[1], odd])


class TestPiecewiseLinearRecovery:
    def test_per_region_beats_global_on_piecewise_truth(self):
        # synthetic features exactly affine per region but with different
        # maps; a single global fit cannot be exact
        rng = np.random.default_rng(8)
        n = 120
        feats = rng.random((n, 6))
        region = (np.arange(n) < n // 2).astype(int)
        w0 = rng.random((2, 7)) * 10
        w1 = -rng.random((2, 7)) * 10
        y = np.array(
            [apply_weights(w0 if r == 0 else w1, f) for f, r in zip(feats, region)]
        )
        per_region_err = 0.0
        for r, w_true in ((0, w0), (1, w1)):
            mask = region == r
            w = fit_region_weights(feats[mask], y[mask], ridge_lambda=0.0)
            preds = np.array([apply_weights(w, f) for f in feats[mask]])
            per_region_err = max(per_region_err, np.max(np.linalg.norm(preds - y[mask], axis=1)))
        assert per_region_err < 1e-6
        wg = fit_region_weights(feats, y, ridge_lambda=0.0)
        global_preds = np.array([apply_weights(wg, f) for f in feats])
        assert np.mean(np.linalg.norm(global_preds - y, axis=1)) > 1e-3
