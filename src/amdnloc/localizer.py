"""Fingerprint features and the per-region coordinate regressor array.

Features are deterministic: block means of the CFR magnitude/phase and
angle-delay images, row/column profiles, and the strongest angle-delay
peaks. ``_image_features`` defines their layout, and every feature
vector comes from ``_design_matrix``, the one loop that writes design
rows: it renders the three images of each part of at most
``channel._CHUNK`` samples once, in place into one plane stack, and
scatters their fused vectors to their rows of one design matrix, next
to a column of ones.
``train``, ``locate`` and ``sample_features`` feed it samples through
``_stack_features``; ``evaluate.run_pipeline`` feeds it every terminal's
fingerprints as they are made, and routes the held-out rows through
``_locate_rows``, the routing and prediction half of ``locate``.
``fit`` standardizes a design matrix's features in place with
``Standardizer.apply`` and gives each fused region its own affine
regressor over a design row. A model of one region sends every
test sample to it; with more regions a test sample is routed by
re-running the training-time matchers (CFR founder templates, clustering
centroids) with a nearest-centroid fallback. The cluster is taken first:
when every founder would send the sample to one region, by its (founder,
cluster) pair or by the fallback, that region is taken and no founder is
scored; only the other samples are scored.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import _chunk_rows, _chunks, _min_max, _phase_map
from .fusion import Segmentation
from .segmentation_adcam import Standardizer, _dist, path_descriptor
from .segmentation_cfr import TemplatePair, _best_pairs, _corner_banks, _TemplateBank

__all__ = [
    "FeatureConfig",
    "LocalizationModel",
    "sample_features",
    "fit_region_weights",
    "apply_weights",
    "fit",
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
    one size are copied into contiguous rows, summed together by one
    ``np.add.reduce`` and divided by their size: each block is summed in
    the order ``block.mean()`` sums it, and divided as it divides.
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
            np.divide(np.add.reduce(rows, axis=-1), sr * sc, out=out[..., i : i + nr, j : j + nc])
    return out.reshape(*lead, gh * gw)


def _top_peaks(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values of each row of ``flat``, (n, k).

    Exactly ``np.argsort(-flat, kind="stable")[:, :k]``: larger values
    first and equal values in index order. ``np.partition`` finds each
    row's k-th largest value, and only the values at least that large
    are sorted.
    """
    n, m = flat.shape
    kth = np.partition(flat, m - k, axis=1)[:, m - k, None]
    pos = np.flatnonzero(flat >= kth)  # by row, then by index
    rows, cols = np.divmod(pos, m)
    order = np.lexsort((-flat.ravel()[pos], rows))
    first = np.searchsorted(rows, np.arange(n))
    return cols[order[first[:, None] + np.arange(k)]]


def _image_features(planes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The fused feature vectors of rendered images, written into ``out``
    (n, fused_len) and returned; the one definition of the layout.

    ``planes`` is the (3, n, nt, nc) stack of the CFR magnitude, CFR
    phase and ADCAM images. Each vector is the CFR part, ``cfr_len``
    values:

    - the block means of the magnitude, then of the phase;
    - the magnitude's row means (nt), then its column means (nc);

    then the ADCAM part, ``adcam_len`` values:

    - the block means, row means and column means of the ADCAM image;
    - its ``_TOP_PEAKS`` largest values, largest first, each as (row,
      column, value); a zero value carries no location, so its peak is
      (0, 0, 0).

    Every block mean comes from one ``_block_means`` call, and the row
    and column means of the magnitude and the ADCAM from one reduction
    each, equal bit for bit to ``.mean`` on one image.
    """
    _, n, nt, nc = planes.shape
    blocks = _block_means(planes)
    pair = planes[::2]  # magnitude and ADCAM
    rows = np.add.reduce(pair, axis=-1) / nc
    cols = np.add.reduce(pair, axis=-2) / nt
    flat = planes[2].reshape(n, nt * nc)
    idx = _top_peaks(flat, _TOP_PEAKS)
    peaks = np.empty((n, _TOP_PEAKS, 3))
    peaks[..., 0], peaks[..., 1] = np.divmod(idx, nc)
    peaks[..., 2] = flat[np.arange(n)[:, None], idx]
    peaks[peaks[..., 2] == 0.0] = 0.0
    parts = [blocks[0], blocks[1], rows[0], cols[0], blocks[2], rows[1], cols[1], peaks.reshape(n, -1)]
    return np.concatenate(parts, axis=1, out=out)


def _check_samples(samples, shape: tuple[int, int]):
    """Reject the first sample whose CFR or ADCAM is not ``shape``."""
    for s in samples:
        for domain, m in (("CFR", s.cfr), ("ADCAM", s.adcam)):
            if m.shape != shape:
                raise ValueError(f"sample {s.id} has {domain} shape {m.shape}, the features take {shape}")


def _render_planes(cfr: np.ndarray, adcam, out: np.ndarray | None = None) -> np.ndarray:
    """The (3, n, nt, nc) stack of the CFR magnitude, CFR phase and ADCAM
    images of an (n, nt, nc) CFR stack and its (n, nt, nc) ADCAM stack,
    each plane bit for bit ``channel.render_image`` of its domain, written
    into ``out`` when it is given.

    The planes are rendered in place: |CFR| goes into plane 0 and the
    ADCAM into plane 2, and ``channel._min_max`` stretches both as one
    (2, n, nt, nc) view; the phase goes into plane 1 by ``np.arctan2``,
    as ``np.angle`` takes it, and ``channel._phase_map`` maps it there.
    """
    planes = np.empty((3, *cfr.shape)) if out is None else out
    np.abs(cfr, out=planes[0])
    planes[2] = adcam
    pair = planes[::2]
    _min_max(pair, out=pair)
    _phase_map(np.arctan2(cfr.imag, cfr.real, out=planes[1]), out=planes[1])
    return planes


def _design_matrix(parts, n: int, config: FeatureConfig, mags: np.ndarray | None = None) -> np.ndarray:
    """The (n, fused_len + 1) design matrix of n samples: the raw fused
    feature vector of each, then a one; the one loop that writes design
    rows.

    ``parts`` yields (rows, CFR stack, ADCAM stack) of nonempty runs of
    at most ``channel._CHUNK`` samples, ``rows`` the integer array of the
    design rows they go to, in their order. ``_render_planes`` renders a
    whole part's images into one plane stack and ``_image_features``
    writes their vectors into one array of vectors, both made once and
    reused by every part, and the vectors are scattered to their rows.
    When ``mags`` is given, each part's CFR magnitude images are
    scattered to their rows of it, none past its end.
    """
    design = np.empty((n, config.fused_len + 1))
    design[:, -1] = 1.0
    work = np.empty((3, _chunk_rows(n), config.nt, config.nc))
    vecs = np.empty((_chunk_rows(n), config.fused_len))
    for rows, cfr, adcam in parts:
        planes = _render_planes(cfr, adcam, work[:, : len(cfr)])
        design[rows, :-1] = _image_features(planes, vecs[: len(cfr)])
        if mags is not None:
            kept = rows < len(mags)
            mags[rows[kept]] = planes[0, kept]
    return design


def _stack_features(samples, config: FeatureConfig, mags: np.ndarray | None = None) -> np.ndarray:
    """The ``_design_matrix`` of samples, and their CFR magnitude images
    in ``mags`` (n, nt, nc) when it is given.

    The samples are checked once by ``_check_samples``, then handed on
    ``channel._CHUNK`` at a time to their own rows, their CFRs stacked
    into one reused array, with no ``render_image`` call.
    """
    _check_samples(samples, (config.nt, config.nc))
    cfrs = np.empty((_chunk_rows(len(samples)), config.nt, config.nc), dtype=complex)
    index = np.arange(len(samples))

    def parts():
        for rows in _chunks(len(samples)):
            chunk = samples[rows]
            for i, s in enumerate(chunk):
                cfrs[i] = s.cfr
            yield index[rows], cfrs[: len(chunk)], [s.adcam for s in chunk]

    return _design_matrix(parts(), len(samples), config, mags)


def sample_features(sample, config: FeatureConfig) -> np.ndarray:
    """Raw (un-normalized) fused feature vector of one dataset sample."""
    return _stack_features([sample], config)[0, :-1]


def _solve_ridge(design: np.ndarray, y: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Closed-form ridge solution of an (n, d+1) design matrix whose last
    column is ones; returns 2 x (d+1) weights."""
    d = design.shape[1]
    gram = design.T @ design
    # every diagonal entry but the bias's, the last: targets are absolute coordinates
    gram[np.diag_indices(d - 1)] += ridge_lambda
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(gram) < d:
        raise np.linalg.LinAlgError("singular system; use ridge_lambda > 0")
    w = np.linalg.solve(gram, design.T @ y)
    return w.T  # (2, d+1)


def fit_region_weights(x: np.ndarray, y: np.ndarray, ridge_lambda: float = 1e-3) -> np.ndarray:
    """Closed-form ridge solution for one region; returns 2 x (d+1) weights."""
    return _solve_ridge(np.hstack([x, np.ones((x.shape[0], 1))]), y, ridge_lambda)


@dataclass
class LocalizationModel:
    """Trained per-region regressors plus everything needed to route a
    new sample to a region.

    Whenever a model is made, each region's weights are stored once,
    column-major, as ``locate`` and ``apply_weights`` take them, and it
    keeps what ``locate`` would otherwise redo on every call: the
    founder templates as ``_corner_banks`` for the CFR image shape, a t1
    bank and a t2 bank, so ``locate`` transforms no template, and the
    founder categories as one array, in ``founders`` order. A model of
    no regions (empty ``weights``) is a ``ValueError``.
    """

    config: FeatureConfig
    weights: dict[int, np.ndarray]  # fused region id -> (2, d+1), column-major
    founders: dict[int, TemplatePair]  # cfr category -> founder templates
    adcam_centroids: np.ndarray
    adcam_standardizer: Standardizer
    pair_to_fused: dict[tuple[int, int], int]
    feature_standardizer: Standardizer
    region_feature_centroids: dict[int, np.ndarray]
    ridge_lambda: float = 1e-3
    corner_banks: tuple[_TemplateBank, _TemplateBank] = field(init=False, repr=False, compare=False)
    founder_labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a model has no regions; it needs the weights of one at least")
        self.weights = {r: np.asfortranarray(w) for r, w in self.weights.items()}
        self.corner_banks = _corner_banks(list(self.founders.values()), (self.config.nt, self.config.nc))
        self.founder_labels = np.array(list(self.founders))


def fit(
    design: np.ndarray, positions, segmentation: Segmentation, config: FeatureConfig, ridge_lambda: float = 1e-3
) -> LocalizationModel:
    """Fit one closed-form ridge regressor per retained fused region on
    the (n, fused_len + 1) design matrix of the segmented samples, in
    their order, and their (n, 2) positions.

    The features are standardized in place by the retained rows'
    constants, and each region is solved on its rows; the segmentation's
    routing state is stored so ``locate`` can route new samples. None
    retained is a ``ValueError``.
    """
    regions = segmentation.regions
    retained = regions.retained
    if not retained.any():
        raise ValueError(f"none of the {len(design)} training samples is retained; every one was cleansed")
    feats = design[:, :-1]
    # no gathered copy of the rows when every sample is retained
    feat_std = Standardizer.fit(feats if retained.all() else feats[retained])
    feat_std.apply(feats, out=feats)
    positions = np.asarray(positions, dtype=float)

    weights: dict[int, np.ndarray] = {}
    centroids: dict[int, np.ndarray] = {}
    for region in range(regions.fused_count):
        mask = regions.fused_labels == region
        if not np.any(mask):
            raise ValueError(f"region {region} has no training samples")
        # one region holding every row needs no gather
        x, y = (design, positions) if mask.all() else (design[mask], positions[mask])
        weights[region] = _solve_ridge(x, y, ridge_lambda)
        centroids[region] = x[:, :-1].mean(axis=0)

    return LocalizationModel(
        config=config,
        weights=weights,
        founders=segmentation.founders,
        adcam_centroids=np.asarray(segmentation.adcam_centroids, dtype=float),
        adcam_standardizer=segmentation.adcam_standardizer,
        pair_to_fused=regions.pair_to_fused,
        feature_standardizer=feat_std,
        region_feature_centroids=centroids,
        ridge_lambda=ridge_lambda,
    )


def train(samples, segmentation: Segmentation, ridge_lambda: float = 1e-3) -> LocalizationModel:
    """``fit`` on the ``_stack_features`` design matrix of samples. Every
    sample's CFR and ADCAM must have the shape of the first sample's CFR,
    which sets the model's (nt, nc). No samples, or none retained, are a
    ``ValueError``.
    """
    if not samples:
        raise ValueError("no training samples")
    config = FeatureConfig(nt=samples[0].cfr.shape[0], nc=samples[0].cfr.shape[1])
    return fit(_stack_features(samples, config), [s.pos for s in samples], segmentation, config, ridge_lambda)


def locate(model: LocalizationModel, samples) -> tuple[np.ndarray, list[int]]:
    """Estimated (x, y) in meters, shape (n, 2), and the region of each
    sample: ``_locate_rows`` of the samples' one ``_stack_features``
    pass, which with more than one region also fills the (n, nt, nc)
    stack of magnitude images that routing scores. Every sample's CFR and
    ADCAM must have the model's shape (nt, nc). No samples give an empty
    (0, 2) array and no regions.
    """
    if not samples:
        return np.empty((0, 2)), []
    config = model.config
    mags = np.empty((len(samples), config.nt, config.nc)) if len(model.weights) > 1 else None
    return _locate_rows(model, _stack_features(samples, config, mags), mags, samples)


def _locate_rows(model: LocalizationModel, design: np.ndarray, mags, terminals) -> tuple[np.ndarray, list[int]]:
    """The positions and regions of ``locate`` from the raw
    ``_design_matrix`` of terminals, their (n, nt, nc) CFR magnitude
    images ``mags`` (unread, and may be ``None``, for a model of one
    region) and the terminals, which give their paths.

    A model of one region sends every terminal to it, with no routing:
    it takes no ``path_descriptor``, so its terminals need no paths, and
    scores no template. With more regions, routing pairs the CFR label,
    the first best-matching founder in ``model.founders`` order, with
    the nearest clustering centroid; a terminal without paths is then a
    ``ValueError``. A pair never seen (or cleansed away, or naming a
    region without weights) falls back to the region whose training
    feature centroid is nearest, the first in order on a tie.

    The cluster decides the route when every founder gives the same
    region (``_cluster_routes``, built from ``pair_to_fused`` on each
    call): every founder's pair with the cluster reaches one region; or
    no founder has a pair, so the fallback is the region; or the pairs
    reach one region and the fallback is that region too. Such a
    terminal is routed without a CFR label. Only the others are scored:
    their CFR labels come from one ``_best_pairs`` call over the model's
    ``corner_banks``, which scores a founder's t2 only where it can
    still win, and takes the ``rfft2`` of those terminals' magnitude
    images and of no template; when every terminal is decided it is not
    called. The design matrix is standardized in place, and each
    terminal is predicted by its design row.
    """
    feats = model.feature_standardizer.apply(design[:, :-1], out=design[:, :-1])
    if len(model.weights) == 1:
        # both the pair lookup and the fallback can only give this region
        regions = list(model.weights) * len(terminals)
    else:
        kf = model.adcam_standardizer.apply([path_descriptor(s) for s in terminals])
        adcam_labels = _dist(kf, model.adcam_centroids).argmin(axis=1).tolist()
        routes = _cluster_routes(model)
        nearest = _nearest_centroid(model.region_feature_centroids)
        regions = []
        for a, feat in zip(adcam_labels, feats):
            reach, falls = routes.get(a, (set(), True))
            if falls and len(reach) <= 1:
                # the fallback can still decide the route: take it as one more region
                reach, falls = reach | {nearest(feat)}, False
            regions.append(next(iter(reach)) if len(reach) == 1 and not falls else None)
        scored = [i for i, region in enumerate(regions) if region is None]
        if scored:
            cfr_labels = model.founder_labels[_best_pairs(model.corner_banks, mags[scored])]
            for i, c in zip(scored, cfr_labels.tolist()):
                region = model.pair_to_fused.get((c, adcam_labels[i]))
                regions[i] = region if region in model.weights else nearest(feats[i])
    xy = np.empty((len(terminals), 2))
    for i, region in enumerate(regions):
        xy[i] = model.weights[region] @ design[i]
    return xy, regions


def _cluster_routes(model: LocalizationModel) -> dict[int, tuple[set[int], bool]]:
    """Where the founders send a terminal of each cluster named by a
    ``pair_to_fused`` entry: the regions with weights that the cluster's
    pairs with founders reach, and whether some founder has no such pair
    and so leaves the terminal to the nearest-centroid fallback. A
    cluster absent here sends every terminal to the fallback."""
    reach: dict[int, set[int]] = {}
    paired: dict[int, int] = {}
    for (c, a), region in model.pair_to_fused.items():
        if c in model.founders and region in model.weights:
            reach.setdefault(a, set()).add(region)
            paired[a] = paired.get(a, 0) + 1
    return {a: (regions, paired[a] < len(model.founders)) for a, regions in reach.items()}


def _nearest_centroid(centroids: dict[int, np.ndarray]):
    """The function from a feature vector to the region of the nearest
    centroid by squared distance, the first region in order on a tie:
    ``min(centroids, key=lambda r: float(np.sum((centroids[r] - feat) **
    2)))`` bit for bit, from one row-wise sum over the centroids stacked
    in region order."""
    keys, table = list(centroids), np.array(list(centroids.values()))
    return lambda feat: keys[int(np.argmin(np.sum((table - feat) ** 2, axis=1)))]


def apply_weights(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Affine map W @ [features; 1]: ``locate``'s product for one vector.

    W is taken column-major, the layout ``fit_region_weights`` returns:
    the product rounds differently for each layout, and a model read
    back from JSON must predict bit for bit as the trained one.
    """
    return np.asfortranarray(weights) @ np.hstack([features, 1.0])


def predict(model: LocalizationModel, sample) -> np.ndarray:
    """Estimated (x, y) in meters."""
    return locate(model, [sample])[0][0]
