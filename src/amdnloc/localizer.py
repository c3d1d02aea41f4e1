"""Fingerprint features and the per-region coordinate regressor array.

Features are deterministic: block means of the CFR magnitude/phase and
angle-delay images, row/column profiles, and the strongest angle-delay
peaks. Each fused region gets its own affine regressor over the fused
feature vector; test samples are routed to a region by re-running the
training-time matchers (CFR founder templates, clustering centroids)
with a nearest-centroid fallback.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import render_image
from .fusion import Segmentation
from .segmentation_adcam import Standardizer, _dist, path_descriptor
from .segmentation_cfr import _PLANES, TemplatePair, _best_pairs, _corner_banks, _TemplateBank

__all__ = [
    "FeatureConfig",
    "LocalizationModel",
    "extract_features_cfr",
    "extract_features_adcam",
    "fuse_features",
    "fit_region_weights",
    "apply_weights",
    "train",
    "locate",
    "predict",
]

_BLOCK_GRID = (8, 8)
_TOP_PEAKS = 5


@dataclass(frozen=True)
class FeatureConfig:
    nt: int
    nc: int

    @property
    def cfr_len(self) -> int:
        return 2 * _BLOCK_GRID[0] * _BLOCK_GRID[1] + self.nt + self.nc

    @property
    def adcam_len(self) -> int:
        return _BLOCK_GRID[0] * _BLOCK_GRID[1] + self.nt + self.nc + 3 * _TOP_PEAKS

    @property
    def fused_len(self) -> int:
        return self.cfr_len + self.adcam_len


def _split_runs(n: int, parts: int) -> list[tuple[int, int, int, int]]:
    """The sections of ``np.array_split`` of ``n`` items into ``parts``, as
    runs of equal size: (first section, sections, size, first item)."""
    size, extra = divmod(n, parts)
    runs = [(0, extra, size + 1, 0), (extra, parts - extra, size, extra * (size + 1))]
    return [run for run in runs if run[1] > 0]


def _block_means(img: np.ndarray, grid: tuple[int, int] = _BLOCK_GRID) -> np.ndarray:
    """Mean over an evenly split grid of blocks, flattened row-major, of
    each image of an (..., H, W) stack.

    The blocks are those of ``np.array_split`` along each axis. Blocks of
    one size are copied into contiguous rows and averaged together, which
    sums each block in the order ``block.mean()`` does.
    """
    *lead, h, w = img.shape
    gh, gw = grid
    if h < gh or w < gw:
        raise ValueError(f"image {(h, w)} smaller than block grid {grid}")
    out = np.empty((*lead, gh, gw))
    for i, nr, sr, y in _split_runs(h, gh):
        for j, nc, sc, x in _split_runs(w, gw):
            blocks = img[..., y : y + nr * sr, x : x + nc * sc].reshape(*lead, nr, sr, nc, sc).swapaxes(-3, -2)
            rows = np.ascontiguousarray(blocks).reshape(*lead, nr, nc, sr * sc)
            out[..., i : i + nr, j : j + nc] = rows.mean(axis=-1)
    return out.reshape(*lead, gh * gw)


def _check_dims(config: FeatureConfig, *imgs: np.ndarray):
    shapes = [img.shape[-2:] for img in imgs]
    if any(shape != (config.nt, config.nc) for shape in shapes):
        raise ValueError(
            f"image dims {'/'.join(map(str, shapes))} do not match config ({config.nt}, {config.nc})"
        )


def _top_peaks(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values of each row of ``flat``, (n, k).

    Exactly ``np.argsort(-flat, kind="stable")[:, :k]``: larger values
    first and equal values in index order. ``np.partition`` finds each
    row's k-th largest value, and only the values at least that large
    are sorted.
    """
    n, m = flat.shape
    kth = np.partition(flat, m - k, axis=1)[:, m - k, None]
    rows, cols = np.nonzero(flat >= kth)  # by row, then by index
    order = np.lexsort((-flat[rows, cols], rows))
    first = np.searchsorted(rows, np.arange(n))
    return cols[order[first[:, None] + np.arange(k)]]


def extract_features_cfr(mag: np.ndarray, phase: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Block means of magnitude and phase plus magnitude row/column
    profiles, of one image pair or of (n, nt, nc) stacks."""
    _check_dims(config, mag, phase)
    return np.concatenate(
        [_block_means(mag), _block_means(phase), mag.mean(axis=-1), mag.mean(axis=-2)], axis=-1
    )


def extract_features_adcam(img: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Block means, row/column profiles, and the top peaks of the
    angle-delay image, or of each image of an (n, nt, nc) stack."""
    _check_dims(config, img)
    blocks = _block_means(img)
    flat = img.reshape(-1, config.nt * config.nc)
    idx = _top_peaks(flat, _TOP_PEAKS)
    peaks = np.empty((len(flat), _TOP_PEAKS, 3))
    peaks[..., 0], peaks[..., 1] = np.divmod(idx, config.nc)
    peaks[..., 2] = flat[np.arange(len(flat))[:, None], idx]
    peaks[peaks[..., 2] == 0.0] = 0.0  # zero peaks carry no location
    return np.concatenate(
        [blocks, img.mean(axis=-1), img.mean(axis=-2), peaks.reshape(*img.shape[:-2], 3 * _TOP_PEAKS)], axis=-1
    )


def fuse_features(f_cfr: np.ndarray, f_adcam: np.ndarray) -> np.ndarray:
    """Concatenate the two feature vectors (along the last axis)."""
    return np.concatenate([f_cfr, f_adcam], axis=-1)


def _stack_features(samples, config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """The CFR magnitude images (n, nt, nc) and the raw fused feature
    vectors (n, fused_len) of samples, from their stacked matrices."""
    cfr = np.array([s.cfr for s in samples])
    mag = render_image(cfr, "cfr_magnitude")
    feats = fuse_features(
        extract_features_cfr(mag, render_image(cfr, "cfr_phase"), config),
        extract_features_adcam(render_image(np.array([s.adcam for s in samples]), "adcam"), config),
    )
    return mag, feats


def sample_features(sample, config: FeatureConfig) -> np.ndarray:
    """Raw (un-normalized) fused feature vector of one dataset sample."""
    return _stack_features([sample], config)[1][0]


def _chunks(samples):
    """(offset, samples) for every ``_PLANES`` samples, so feature
    temporaries stay small however many samples there are."""
    for i in range(0, len(samples), _PLANES):
        yield i, samples[i : i + _PLANES]


def fit_region_weights(x: np.ndarray, y: np.ndarray, ridge_lambda: float = 1e-3) -> np.ndarray:
    """Closed-form ridge solution for one region; returns 2 x (d+1) weights."""
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    d = xb.shape[1]
    # leave the bias column unpenalized: targets are absolute coordinates
    penalty = ridge_lambda * np.eye(d)
    penalty[-1, -1] = 0.0
    gram = xb.T @ xb + penalty
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(gram) < d:
        raise np.linalg.LinAlgError("singular system; use ridge_lambda > 0")
    w = np.linalg.solve(gram, xb.T @ y)
    return w.T  # (2, d+1)


@dataclass
class LocalizationModel:
    """Trained per-region regressors plus everything needed to route a
    new sample to a region.

    The founder templates are kept as ``_corner_banks`` for the CFR
    image shape too, a t1 bank and a t2 bank built once from
    ``founders`` whenever a model is made, so ``locate`` transforms no
    template.
    """

    config: FeatureConfig
    weights: dict[int, np.ndarray]  # fused region id -> (2, d+1)
    founders: dict[int, TemplatePair]  # cfr category -> founder templates
    adcam_centroids: np.ndarray
    adcam_standardizer: Standardizer
    path_select: str
    pair_to_fused: dict[tuple[int, int], int]
    feature_standardizer: Standardizer
    region_feature_centroids: dict[int, np.ndarray]
    ridge_lambda: float = 1e-3
    corner_banks: tuple[_TemplateBank, _TemplateBank] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.corner_banks = _corner_banks(list(self.founders.values()), (self.config.nt, self.config.nc))


def train(samples, segmentation: Segmentation, ridge_lambda: float = 1e-3) -> LocalizationModel:
    """Fit one closed-form ridge regressor per retained fused region.

    Feature normalization constants come from the retained training
    samples; the segmentation's routing state is stored so ``locate``
    can route new samples.
    """
    regions = segmentation.regions
    config = FeatureConfig(nt=samples[0].cfr.shape[0], nc=samples[0].cfr.shape[1])
    raw = np.empty((len(samples), config.fused_len))
    for i, chunk in _chunks(samples):
        raw[i : i + len(chunk)] = _stack_features(chunk, config)[1]
    feat_std = Standardizer.fit(raw[regions.retained])
    # Standardizer.apply's two operations, in place
    feats = raw
    feats -= feat_std.mean
    feats /= feat_std.scale
    positions = np.array([s.pos for s in samples])

    weights: dict[int, np.ndarray] = {}
    centroids: dict[int, np.ndarray] = {}
    for region in range(regions.fused_count):
        mask = regions.fused_labels == region
        if not np.any(mask):
            raise ValueError(f"region {region} has no training samples")
        x, y = feats[mask], positions[mask]
        weights[region] = fit_region_weights(x, y, ridge_lambda)
        centroids[region] = x.mean(axis=0)

    return LocalizationModel(
        config=config,
        weights=weights,
        founders=segmentation.founders,
        adcam_centroids=np.asarray(segmentation.adcam_centroids, dtype=float),
        adcam_standardizer=segmentation.adcam_standardizer,
        path_select=segmentation.path_select,
        pair_to_fused=regions.pair_to_fused,
        feature_standardizer=feat_std,
        region_feature_centroids=centroids,
        ridge_lambda=ridge_lambda,
    )


def locate(model: LocalizationModel, samples) -> tuple[np.ndarray, list[int]]:
    """Estimated (x, y) in meters, shape (n, 2), and the region of each sample.

    Routing pairs the CFR label, the first best-matching founder in
    ``model.founders`` order, with the nearest clustering centroid. A
    pair never seen (or cleansed away) falls back to the region whose
    training feature centroid is nearest. The CFR label comes from
    ``_best_pairs`` over the model's ``corner_banks``, which scores a
    founder's t2 only where it can still win. A call takes the
    ``rfft2`` of its samples' CFR magnitude images and of no template;
    a one-founder model transforms no image at all. Each magnitude
    image is rendered once, with the features, ``_PLANES`` samples at
    a time. Every sample's CFR must have the model's shape (nt, nc).
    No samples give an empty (0, 2) array and no regions.
    """
    if not samples:
        return np.empty((0, 2)), []
    shape = (model.config.nt, model.config.nc)
    for s in samples:
        if s.cfr.shape != shape:
            raise ValueError(f"sample {s.id} has CFR shape {s.cfr.shape}, the model takes {shape}")
    kf = model.adcam_standardizer.apply([path_descriptor(s, model.path_select) for s in samples])
    adcam_labels = _dist(kf, model.adcam_centroids).argmin(axis=1)
    # one magnitude render per sample, shared by routing and features
    mags: list[np.ndarray] = []
    raw = np.empty((len(samples), model.config.fused_len))
    for i, chunk in _chunks(samples):
        mag, raw[i : i + len(chunk)] = _stack_features(chunk, model.config)
        mags.extend(mag)
    feats = model.feature_standardizer.apply(raw)
    cfr_labels = np.array(list(model.founders))[_best_pairs(model.corner_banks, mags)]
    xy = np.empty((len(samples), 2))
    regions = []
    for i, feat in enumerate(feats):
        region = model.pair_to_fused.get((int(cfr_labels[i]), int(adcam_labels[i])))
        if region not in model.weights:
            centroids = model.region_feature_centroids
            region = min(centroids, key=lambda r: float(np.sum((centroids[r] - feat) ** 2)))
        xy[i] = apply_weights(model.weights[region], feat)
        regions.append(region)
    return xy, regions


def apply_weights(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Affine map: W @ [features; 1].

    W is taken column-major, the layout ``fit_region_weights`` returns:
    the product rounds differently for each layout, and a model read
    back from JSON must predict bit for bit as the trained one.
    """
    return np.asfortranarray(weights) @ np.append(features, 1.0)


def predict(model: LocalizationModel, sample) -> np.ndarray:
    """Estimated (x, y) in meters."""
    return locate(model, [sample])[0][0]
