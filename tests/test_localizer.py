import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from amdnloc import channel, localizer
from amdnloc import io as dio
from amdnloc.channel import _CHUNK, PathRecord, render_image
from amdnloc.evaluate import _split, default_config, segment
from amdnloc.fusion import Segmentation, cleanse, fuse_labels
from amdnloc.localizer import (
    FeatureConfig,
    _block_means,
    _image_features,
    _nearest_centroid,
    _render_planes,
    _stack_features,
    _top_peaks,
    apply_weights,
    fit_region_weights,
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
    mags = np.empty((len(samples), config.nt, config.nc))
    got = _stack_features(samples, config, mags)
    assert np.array_equal(got, want)
    assert np.array_equal(mags, [render_oracle(s.cfr, "cfr_magnitude") for s in samples])
    assert np.array_equal(_stack_features(samples, config), want)
    assert all(np.array_equal(sample_features(s, config), w) for s, w in zip(samples[::50], want[::50]))


# Image kinds of the fused render test: a single-path terminal's CFR has a
# flat magnitude whose range is rounding noise (about 1e-21), and an
# all-zero CFR carries signed zeros, which set its phase.
def _render_image_of(kind, rng, shape):
    cfr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    adcam = np.abs(rng.normal(size=shape))
    if kind == "constant":
        cfr[:], adcam[:] = cfr[0, 0], adcam[0, 0]
    elif kind == "zero":
        cfr = 0.0 * cfr
        adcam[:] = 0.0
    elif kind == "faint":
        cfr = 3.7599147566781e-06 * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
        adcam = 1e-21 * adcam
    return cfr, adcam


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, _CHUNK, _CHUNK + 1]),
    st.sampled_from([(8, 8), (16, 16), (12, 18)]),
    st.lists(st.sampled_from(["random", "constant", "zero", "faint"]), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_fused_render_equals_render_image(n, shape, kinds, seed):
    rng = np.random.default_rng(seed)
    pairs = [_render_image_of(kinds[i % len(kinds)], rng, shape) for i in range(n)]
    cfr, adcam = np.array([c for c, _ in pairs]), np.array([a for _, a in pairs])
    before = cfr.tobytes(), adcam.tobytes()
    planes = _render_planes(cfr, list(adcam))
    assert planes.shape == (3, n, *shape)
    for plane, (m, tag) in zip(planes, [(cfr, "cfr_magnitude"), (cfr, "cfr_phase"), (adcam, "adcam")]):
        assert plane.tobytes() == render_image(m, tag).tobytes()
    # neither render writes its input
    assert (cfr.tobytes(), adcam.tobytes()) == before


def image_features(mag, phase, adcam):
    """``_image_features`` of one image triple, or of three (n, nt, nc) stacks."""
    planes = np.array([mag, phase, adcam], dtype=float)
    *lead, nt, nc = planes.shape[1:]
    planes = planes.reshape(3, -1, nt, nc)
    out = np.empty((planes.shape[1], FeatureConfig(nt, nc).fused_len))
    return _image_features(planes, out).reshape(*lead, -1)


def cfr_features(mag, phase):
    """The CFR part of the fused features."""
    return image_features(mag, phase, np.zeros_like(mag))[..., : FeatureConfig(*mag.shape[-2:]).cfr_len]


def adcam_features(img):
    """The ADCAM part of the fused features."""
    return image_features(np.zeros_like(img), np.zeros_like(img), img)[..., FeatureConfig(*img.shape[-2:]).cfr_len :]


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
    want = np.array([adcam_features_oracle(img) for img in imgs])
    assert np.array_equal(adcam_features(imgs), want)
    assert np.array_equal(adcam_features(imgs[0]), want[0])


class TestCfrFeatures:
    def test_zero_image_zero_vector(self):
        z = np.zeros((16, 16))
        np.testing.assert_array_equal(cfr_features(z, z), np.zeros(CONFIG.cfr_len))

    def test_constant_magnitude(self):
        mag = np.full((16, 16), 0.5)
        feats = cfr_features(mag, np.zeros((16, 16)))
        np.testing.assert_allclose(feats[:64], 0.5)
        np.testing.assert_allclose(feats[128:], 0.5)

    def test_matches_block_oracle(self):
        rng = np.random.default_rng(0)
        mag = rng.random((16, 16))
        phase = rng.random((16, 16))
        feats = cfr_features(mag, phase)
        np.testing.assert_allclose(feats[:64], block_mean_oracle(mag), atol=1e-12)
        np.testing.assert_allclose(feats[64:128], block_mean_oracle(phase), atol=1e-12)
        np.testing.assert_allclose(feats[128:144], mag.mean(axis=1), atol=1e-12)
        np.testing.assert_allclose(feats[144:], mag.mean(axis=0), atol=1e-12)

    def test_dim_mismatch_rejected(self):
        sample = Sample(id=4, pos=(0.0, 0.0), paths=[], is_los=True, cfr=np.zeros((8, 8), complex), adcam=np.zeros((8, 8)))
        with pytest.raises(ValueError, match=r"sample 4 has CFR shape \(8, 8\), the features take \(16, 16\)"):
            sample_features(sample, CONFIG)


class TestAdcamFeatures:
    def test_zero_image(self):
        feats = adcam_features(np.zeros((16, 16)))
        np.testing.assert_array_equal(feats, np.zeros(CONFIG.adcam_len))

    def test_single_peak_location(self):
        img = np.zeros((16, 16))
        img[8, 3] = 1.0
        feats = adcam_features(img)
        r, c, v = feats[-15], feats[-14], feats[-13]
        assert (r, c, v) == (8.0, 3.0, 1.0)

    def test_top5_matches_brute_force(self):
        rng = np.random.default_rng(1)
        img = rng.random((16, 16))
        feats = adcam_features(img)
        got_vals = feats[-15:].reshape(5, 3)[:, 2]
        want = np.sort(img.ravel())[::-1][:5]
        np.testing.assert_allclose(got_vals, want)


class TestFuseFeatures:
    def test_zero_concat(self):
        z = np.zeros((16, 16))
        np.testing.assert_array_equal(image_features(z, z, z), np.zeros(CONFIG.fused_len))

    def test_lengths_add(self):
        img = np.random.default_rng(5).random((3, 16, 16))
        fused = image_features(*img)
        assert fused.size == CONFIG.cfr_len + CONFIG.adcam_len
        # the CFR part, then the ADCAM part, each of its own images only
        assert np.array_equal(fused[: CONFIG.cfr_len], cfr_features(img[0], img[1]))
        assert np.array_equal(fused[CONFIG.cfr_len :], adcam_features(img[2]))

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
    model = train(samples, Segmentation(regions, founders, cm.centroids, std))
    return model, regions


@pytest.mark.parametrize("single_region", [False, True], ids=["segmented", "single_region"])
def test_train_equals_the_gathered_per_region_fit(single_region):
    # with one region holding every sample train gathers no rows; with
    # cleansed samples it fits on the retained rows of each region
    samples = small_dataset()
    cfg = {**default_config(), "tau_in": 0.9, "tau_out": 0.9, "template_size": [8, 8], "k_max": 4}
    segmentation = segment(samples, {**cfg, "single_region": single_region})
    regions = segmentation.regions
    assert regions.retained.all() == single_region and (regions.fused_count == 1) == single_region
    model = train(samples, segmentation, ridge_lambda=0.5)
    raw = np.array([sample_features(s, CONFIG) for s in samples])
    std = Standardizer.fit(raw[regions.retained])
    feats, pos = std.apply(raw), np.array([s.pos for s in samples])
    assert np.array_equal(model.feature_standardizer.mean, std.mean)
    assert np.array_equal(model.feature_standardizer.scale, std.scale)
    assert sorted(model.weights) == list(range(regions.fused_count))
    for r, w in model.weights.items():
        mask = regions.fused_labels == r
        assert np.array_equal(w, fit_region_weights(feats[mask], pos[mask], 0.5))
        assert np.array_equal(model.region_feature_centroids[r], feats[mask].mean(axis=0))


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

    @pytest.mark.parametrize("domain, cut", [("CFR", (16, 15)), ("ADCAM", (15, 16))])
    def test_train_rejects_a_sample_of_another_shape(self, domain, cut):
        samples = small_dataset()
        model, regions = segment_and_train(samples)
        seg = Segmentation(regions, model.founders, model.adcam_centroids, model.adcam_standardizer)
        odd = samples[5]
        field = domain.lower()
        samples[5] = dataclasses.replace(odd, **{field: getattr(odd, field)[: cut[0], : cut[1]]})
        with pytest.raises(ValueError, match=rf"sample {odd.id} has {domain} shape \({cut[0]}, {cut[1]}\), the features take \(16, 16\)"):
            train(samples, seg)

    def test_duplicate_sample_identical_prediction(self):
        samples = small_dataset()
        model, _ = segment_and_train(samples)
        s = samples[3]
        np.testing.assert_array_equal(predict(model, s), predict(model, s))


def cluster_oracle(model, sample) -> int:
    """The sample's clustering label, by ``scipy`` distances."""
    kf = model.adcam_standardizer.apply(path_descriptor(sample))
    return int(cdist([kf], model.adcam_centroids)[0].argmin())


def route_via(model, cfr_label, adcam_label, sample) -> tuple[int, bool]:
    """Where the (CFR, cluster) pair sends the sample: the region, and
    whether the pair routed it directly rather than the fallback."""
    fused = model.pair_to_fused.get((cfr_label, adcam_label))
    if fused is not None and fused in model.weights:
        return fused, True
    return nearest_oracle(model, sample), False


def nearest_oracle(model, sample) -> int:
    """The fallback: the region whose training feature centroid is
    nearest to the sample's features, the first in order on a tie."""
    feat = model.feature_standardizer.apply(sample_features(sample, model.config))
    return min(
        model.region_feature_centroids,
        key=lambda r: float(np.sum((model.region_feature_centroids[r] - feat) ** 2)),
    )


def route_oracle(model, sample) -> tuple[int, bool]:
    """Routing one sample at a time with the scalar ``ncc``: the region,
    and whether the sample's (CFR, cluster) pair routed it directly."""
    mag = render_image(sample.cfr, "cfr_magnitude")
    cfr_label = max(
        model.founders,
        key=lambda c: min(ncc(model.founders[c].t1, mag), ncc(model.founders[c].t2, mag)),
    )
    return route_via(model, int(cfr_label), cluster_oracle(model, sample), sample)


def decided_oracle(model, sample) -> bool:
    """Whether every founder sends the sample to one region, so that no
    founder needs scoring: each founder's route taken one at a time."""
    a = cluster_oracle(model, sample)
    return len({route_via(model, c, a, sample)[0] for c in model.founders}) == 1


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
    return train(train_s, segment(train_s, cfg)), [samples[i] for i in te]


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

    def test_a_model_of_no_regions_is_refused_where_it_is_made(self, held_out_model):
        model, test = held_out_model
        with pytest.raises(ValueError, match="a model has no regions"):
            dataclasses.replace(model, weights={}, region_feature_centroids={})

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
        if len(model.weights) == 1:
            # a one-region model routes nothing, so no image is scored
            assert shapes == []
        else:
            # only the samples' CFR magnitude images, each transformed once
            assert all(shape[1:] == (model.config.nt, model.config.nc) for shape in shapes)
            assert sum(shape[0] for shape in shapes) == sum(not decided_oracle(model, s) for s in test)

    def test_one_centroid_model_takes_no_descriptor(self, held_out_model, monkeypatch):
        model, test = held_out_model
        want = [route_oracle(model, s)[0] for s in test], np.array([predict_oracle(model, s) for s in test])
        pathless = [dataclasses.replace(s, paths=[]) for s in test]
        # the single-region fixture has one centroid and one region, the
        # segmented one several of each
        one = len(model.weights) == 1
        assert one == (len(model.adcam_centroids) == 1)
        calls = []

        def descriptor(sample):
            if one:
                raise AssertionError("a one-region model needs no cluster label")
            calls.append(sample.id)
            return path_descriptor(sample)

        monkeypatch.setattr(localizer, "path_descriptor", descriptor)
        xy, regions = locate(model, test)
        assert regions == want[0] and np.array_equal(xy, want[1])
        if one:
            # nothing is routed, so a sample needs no paths
            xy, regions = locate(model, pathless)
            assert regions == want[0] and np.array_equal(xy, want[1])
        else:
            assert calls == [s.id for s in test]
            with pytest.raises(ValueError, match=f"sample {test[0].id} has no paths"):
                locate(model, pathless)

    def test_a_model_cut_to_one_region_routes_nothing(self, held_out_model, monkeypatch):
        # the segmented model keeps its founders and centroids, but with one
        # region both the pair lookup and the fallback can only give it
        model, test = held_out_model
        pathless = [dataclasses.replace(s, paths=[]) for s in test]
        if len(model.weights) > 1:
            assert len(model.founders) > 1 and len(model.adcam_centroids) > 1

        def refuse(*args):
            raise AssertionError("a one-region model routes nothing")

        for region in model.weights:
            cut = dataclasses.replace(
                model,
                weights={region: model.weights[region]},
                region_feature_centroids={region: model.region_feature_centroids[region]},
            )
            assert len(cut.founders) == len(model.founders)
            assert len(cut.adcam_centroids) == len(model.adcam_centroids)
            want = np.array([predict_oracle(cut, s) for s in test])
            assert all(route_oracle(cut, s)[0] == region for s in test)
            with monkeypatch.context() as m:
                m.setattr(localizer, "_best_pairs", refuse)
                m.setattr(localizer, "path_descriptor", refuse)
                for samples in (test, pathless):
                    xy, regions = locate(cut, samples)
                    assert regions == [region] * len(test)
                    assert np.array_equal(xy, want)

    def test_weights_are_stored_once_column_major(self, held_out_model, tmp_path):
        model, test = held_out_model
        dio.write_model(tmp_path / "model.json", model)
        read = dio.read_model(tmp_path / "model.json", small_dataset())
        replaced = dataclasses.replace(model, weights={r: np.ascontiguousarray(w) for r, w in model.weights.items()})
        want = locate(model, test)
        for m in (model, read, replaced):
            assert not hasattr(m, "fortran_weights")
            assert all(w.flags.f_contiguous and not w.flags.c_contiguous for w in m.weights.values())
            assert all(np.array_equal(m.weights[r], w) for r, w in model.weights.items())
            xy, regions = locate(m, test)
            assert regions == want[1] and np.array_equal(xy, want[0])

    def test_no_samples_give_no_positions(self, held_out_model):
        model, _ = held_out_model
        xy, regions = locate(model, [])
        assert xy.shape == (0, 2) and regions == []

    def test_sample_of_another_shape_rejected(self, held_out_model):
        model, test = held_out_model
        odd = dataclasses.replace(test[0], cfr=test[0].cfr[:, :-1])
        with pytest.raises(ValueError, match=r"\(16, 15\).*\(16, 16\)"):
            locate(model, [test[1], odd])
        odd = dataclasses.replace(test[0], adcam=test[0].adcam[:-1])
        with pytest.raises(ValueError, match=rf"sample {odd.id} has ADCAM shape \(15, 16\), the features take \(16, 16\)"):
            locate(model, [test[1], odd])

    def test_batch_across_chunks_matches_the_oracle(self, held_out_model):
        # the held-out samples repeated, each pass in another order, so
        # every chunk of _CHUNK samples routes through several founders
        model, test = held_out_model
        rng = np.random.default_rng(9)
        batch = [test[i] for _ in range(2 * _CHUNK // len(test) + 2) for i in rng.permutation(len(test))]
        assert len(batch) > 2 * _CHUNK and len(batch) % _CHUNK != 0
        xy, regions = locate(model, batch)
        assert regions == [route_oracle(model, s)[0] for s in batch]
        assert np.array_equal(xy, np.array([predict_oracle(model, s) for s in batch]))


@st.composite
def _centroids_and_feature(draw):
    """Region centroids keyed by distinct ids in a drawn order, drawn from
    a few rows so that duplicates are common, and a feature vector, often
    one of the rows; small integer values make distinct rows tie too. The
    lengths reach past 128, where ``np.sum`` splits a row pairwise."""
    d = draw(st.sampled_from([1, 3, 8, 9, 127, 129, 335]))
    values = draw(st.sampled_from([st.integers(-2, 2).map(float), st.floats(-1e6, 1e6)]))
    pool = draw(st.lists(arrays(float, d, elements=values), min_size=1, max_size=4))
    keys = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
    centroids = {k: pool[draw(st.integers(0, len(pool) - 1))] for k in keys}
    feat = draw(st.one_of(st.sampled_from(pool), arrays(float, d, elements=values)))
    return centroids, feat


@settings(max_examples=300, deadline=None)
@given(_centroids_and_feature())
def test_nearest_centroid_equals_the_scalar_min(case):
    centroids, feat = case
    got = _nearest_centroid(centroids)(feat)
    assert got == min(centroids, key=lambda r: float(np.sum((centroids[r] - feat) ** 2)))
    dist = {r: float(np.sum((c - feat) ** 2)) for r, c in centroids.items()}
    assert got == next(r for r in centroids if dist[r] == min(dist.values()))


def test_nearest_centroid_ties_go_to_the_first_region_in_order():
    x, y = np.array([1.0, 2.0]), np.array([1.0, 2.5])
    assert _nearest_centroid({7: x, 3: x, 5: y})(x) == 7
    assert _nearest_centroid({5: y, 3: x, 7: x})(np.array([1.0, 2.0])) == 3
    # equally far on either side
    assert _nearest_centroid({4: x, 2: y})(np.array([1.0, 2.25])) == 4


def _plant(model, test, case):
    """The model with pairs planted for the cluster of ``test[0]``, that
    cluster, and whether ``test[0]`` is routed without scoring."""
    t, founders = test[0], list(model.founders)
    a, near = cluster_oracle(model, t), nearest_oracle(model, t)
    far = next(r for r in model.weights if r != near)
    missing = max(model.weights) + 1
    others = {pair: r for pair, r in model.pair_to_fused.items() if pair[1] != a}
    every = {**others, **{(c, a): far for c in founders}}
    pairs, decided = {
        "no-pair": (others, True),
        "every-founder-one-region": (every, True),
        "only-pair-without-weights": ({**others, (founders[0], a): missing}, True),
        "one-founder-without-weights": ({**every, (founders[0], a): missing}, False),
        "one-pair-the-fallback-equals": ({**others, (founders[-1], a): near}, True),
        "one-pair-the-fallback-differs": ({**others, (founders[-1], a): far}, False),
    }[case]
    return dataclasses.replace(model, pair_to_fused=pairs), a, decided


def _locate_taking_transforms(model, samples, monkeypatch):
    """``locate``'s output, and a copy of every array ``np.fft.rfft2``
    took during the call."""
    rfft2, taken = np.fft.rfft2, []

    def counted(a, *args, **kwargs):
        taken.append(np.array(a))
        return rfft2(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.fft, "rfft2", counted)
        return locate(model, samples), taken


@pytest.mark.parametrize(
    "case",
    [
        "no-pair",
        "every-founder-one-region",
        "only-pair-without-weights",
        "one-founder-without-weights",
        "one-pair-the-fallback-equals",
        "one-pair-the-fallback-differs",
    ],
)
@pytest.mark.parametrize("held_out_model", [False], ids=["segmented"], indirect=True)
def test_locate_scores_only_the_routes_in_doubt(held_out_model, case, monkeypatch):
    # a terminal whose founders all send it to one region is routed
    # without scoring; every other one has its magnitude image scored
    model, test = held_out_model
    planted, a, decided = _plant(model, test, case)
    assert decided_oracle(planted, test[0]) == decided
    if case in ("no-pair", "every-founder-one-region", "only-pair-without-weights"):
        assert all(decided_oracle(planted, s) for s in test if cluster_oracle(planted, s) == a)
    (xy, regions), taken = _locate_taking_transforms(planted, test, monkeypatch)
    oracle = [route_oracle(planted, s) for s in test]
    assert regions == [r for r, _ in oracle]
    assert xy.tobytes() == np.array([predict_oracle(planted, s) for s in test]).tobytes()
    if case == "every-founder-one-region":
        assert oracle[0] == (regions[0], True) and regions[0] != nearest_oracle(planted, test[0])
    # the undecided terminals' CFR magnitude images, each transformed once, in order
    undecided = [render_image(s.cfr, "cfr_magnitude") for s in test if not decided_oracle(planted, s)]
    assert 0 < len(undecided) < len(test)
    assert np.array_equal(np.concatenate(taken), np.array(undecided))
    # with every terminal decided, _best_pairs is not called
    all_decided = [s for s in test if decided_oracle(planted, s)]
    (xy, regions), taken = _locate_taking_transforms(planted, all_decided, monkeypatch)
    assert taken == [] and regions == [route_oracle(planted, s)[0] for s in all_decided]


def test_locate_across_chunks_on_the_dense_reference_scene():
    # 2,540 distinct 32x32 terminals; a single-region model on 4/5 of them
    samples = build_dataset(SceneConfig(grid_spacing_m=3.5, **REFERENCE_SCENE))
    tr, te = _split(len(samples), 0.8, 0)
    train_s = [samples[i] for i in tr]
    model = train(train_s, segment(train_s, {**default_config(), "single_region": True}))
    test = [samples[i] for i in te[: 3 * _CHUNK - 11]]
    assert len(test) > 2 * _CHUNK
    xy, regions = locate(model, test)
    assert regions == [0] * len(test)
    assert np.array_equal(xy, np.array([predict(model, s) for s in test]))
    assert np.array_equal(xy, np.array([predict_oracle(model, s) for s in test]))


def _traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, under tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def one_region_model():
    """A one-region model on the 32x32 reference scene and 300 samples."""
    samples = build_dataset(SceneConfig(grid_spacing_m=8.0, **REFERENCE_SCENE))
    train_s, test = samples[::5], samples[:300]
    model = train(train_s, segment(train_s, {**default_config(), "single_region": True}))
    locate(model, test[:2])  # first-call imports and caches
    return model, test


def test_one_region_locate_keeps_no_magnitude_stack(one_region_model):
    # the bound is two feature arrays plus one chunk's feature pass; the
    # (n, nt, nc) magnitude stack that only routing reads would add 2.4 MB
    model, test = one_region_model
    config = model.config
    # the peak of one chunk's pass, less the chunk's own rows of features
    chunk_pass = _traced_peak(lambda: _stack_features(test[:_CHUNK], config)) - _CHUNK * config.fused_len * 8
    features = 2 * len(test) * config.fused_len * 8
    stack = len(test) * config.nt * config.nc * 8
    slack = 64 * 1024
    assert stack > 30 * slack
    assert _traced_peak(lambda: locate(model, test)) <= features + chunk_pass + slack


def test_one_region_train_holds_one_design_matrix():
    # on the dense benchmark scene's 2,034 training rows: the (n, fused_len
    # + 1) design matrix and one temporary of its size (the deviations the
    # standardizer's std takes), a tenth of it to spare for small arrays;
    # the features next to an hstack copy of them with ones reach 2.34x
    samples = build_dataset(SceneConfig(grid_spacing_m=3.5, **REFERENCE_SCENE))
    train_s = [samples[i] for i in _split(len(samples), 0.8, 3)[0]]
    cfg = {**default_config(), "single_region": True}
    segmentation = segment(train_s, cfg)
    train(train_s[:3], segment(train_s[:3], cfg))  # first-call imports and caches
    design = len(train_s) * (FeatureConfig(32, 32).fused_len + 1) * 8
    assert len(train_s) == 2034
    assert _traced_peak(lambda: train(train_s, segmentation)) <= 2.1 * design


def test_locate_standardizes_its_features_in_place(one_region_model):
    # one sample per chunk: the pass holds the (n, fused_len) features and
    # one sample's planes, and a second feature array would double it
    model, test = one_region_model
    features = len(test) * model.config.fused_len * 8
    with mock.patch.object(channel, "_CHUNK", 1):
        assert _traced_peak(lambda: locate(model, test)) < 1.5 * features


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
