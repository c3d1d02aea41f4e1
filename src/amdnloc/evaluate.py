"""Metrics, report generation and end-to-end pipeline orchestration."""
from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np

from . import io as dio
from .channel import _chunks, render_image
from .fusion import RegionLabels, Segmentation, cleanse, fuse_labels
from .localizer import _BLOCK_GRID, locate, train
from .scenegen import (
    _COUNT,
    _NLOS_MODES,
    _NONNEGATIVE,
    _SEED,
    SceneConfig,
    _check,
    _is_int,
    _is_real,
    _one_of,
    build_dataset,
    nlos_filter,
    scene_from_json,
    scene_to_json,
)
from .segmentation_adcam import _PATH_SELECT, _distinct_rows, build_features, select_k
from .segmentation_cfr import extract_templates, segment_cfr

__all__ = [
    "mean_error",
    "cdf_curve",
    "error_report",
    "export_region_map",
    "PipelineError",
    "segment",
    "run_pipeline",
    "default_config",
]

DEFAULT_CDF_THRESHOLDS = [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 500.0]
_CELL_PX = 4  # meters per pixel of the region-map raster, along each axis
_FRACTION = ("a number in (0, 1]", lambda v: _is_real(v) and 0 < v <= 1)
# each config key: (its default, what a value must be, its test), in config.json order
_CONFIG = {
    "scene": (scene_to_json(SceneConfig()), "a scene object", lambda v: isinstance(v, dict)),
    "nlos_mode": ("all", *_one_of(_NLOS_MODES)),
    "tau_in": (0.99, *_FRACTION),
    "tau_out": (0.99, *_FRACTION),
    "template_size": (
        [16, 16],
        "two integers >= 1",
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_int(side) and side >= 1 for side in v),
    ),
    "min_count": (2, "an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "k_max": (8, *_COUNT),
    "path_select": (_PATH_SELECT, *_one_of([_PATH_SELECT])),
    "train_fraction": (0.8, *_FRACTION),
    "ridge_lambda": (1e-3, *_NONNEGATIVE),
    "single_region": (False, "true or false", lambda v: isinstance(v, bool)),
    "seed": (0, *_SEED),
}
_CONFIG_RULES = {key: (want, ok) for key, (_, want, ok) in _CONFIG.items()}


class PipelineError(RuntimeError):
    """Pipeline failure with the stage name attached."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def mean_error(preds, truths) -> tuple[float, float]:
    """Mean Euclidean error and RMSE (both meters), as ``error_report``
    gives them."""
    report = error_report(preds, truths, np.zeros(np.shape(preds)[:1], dtype=int))
    return report["mean_error_m"], report["rmse_m"]


def cdf_curve(errors, thresholds=DEFAULT_CDF_THRESHOLDS) -> list[tuple[float, float]]:
    """Fraction of errors at or below each threshold."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("no errors to summarize")
    return [(float(t), float(np.mean(errors <= t))) for t in thresholds]


def error_report(preds, truths, regions) -> dict:
    """The error summary of predictions against their truths, from one
    pass over the Euclidean errors: ``mean_error_m``, ``rmse_m``, the
    ``cdf`` of ``cdf_curve`` and ``per_region_errors``, the mean error
    of each region a prediction was routed to (keyed by its id as a
    string). The three inputs must be of equal length and nonempty.
    """
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    regions = np.asarray(regions)
    if preds.shape != truths.shape or preds.size == 0 or regions.shape != preds.shape[:1]:
        raise ValueError("predictions, truths and regions must be equal-length and nonempty")
    errors = np.linalg.norm(preds - truths, axis=1)
    return {
        "mean_error_m": float(errors.mean()),
        "rmse_m": float(np.sqrt(np.mean(errors**2))),
        "cdf": cdf_curve(errors),
        "per_region_errors": {str(r): float(errors[regions == r].mean()) for r in sorted(set(regions.tolist()))},
    }


def _label_color(label: int) -> tuple[int, int, int]:
    """Deterministic palette; label -1 (removed) is black."""
    if label < 0:
        return (0, 0, 0)
    rng = np.random.default_rng(label + 12345)
    c = rng.integers(40, 256, size=3)
    return (int(c[0]), int(c[1]), int(c[2]))


def export_region_map(samples, labels: RegionLabels, csv_path, ppm_path):
    """Region map as CSV plus a binary PPM raster (one color per label)."""
    dio.write_region_map(csv_path, [s.id for s in samples], labels)
    xs = np.array([s.pos[0] for s in samples])
    ys = np.array([s.pos[1] for s in samples])
    w = int(np.ceil(xs.max())) + 1 if xs.size else 1
    h = int(np.ceil(ys.max())) + 1 if ys.size else 1
    gw = max(1, w // _CELL_PX)
    gh = max(1, h // _CELL_PX)
    img = np.zeros((gh, gw, 3), dtype=np.uint8)
    labs = labels.fused_labels.tolist()
    palette = {lab: _label_color(lab) for lab in set(labs)}
    for s, lab in zip(samples, labs):
        gx = min(int(s.pos[0] / w * gw), gw - 1)
        gy = min(int(s.pos[1] / h * gh), gh - 1)
        img[gh - 1 - gy, gx] = palette[lab]
    with open(ppm_path, "wb") as fh:
        fh.write(f"P6\n{gw} {gh}\n255\n".encode())
        fh.write(img.tobytes())


def default_config() -> dict:
    """Every config key with its default, a fresh copy on each call."""
    return copy.deepcopy({key: default for key, (default, _, _) in _CONFIG.items()})


def _split(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded sorted train and test indices of n >= 2 samples, both nonempty."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = min(max(1, int(round(n * train_fraction))), n - 1)
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def segment(train_samples, cfg) -> Segmentation:
    """Run both segmentations on the training set and fuse them; founder ids are sample ids.

    ``single_region`` makes one CFR category, founded by the first
    sample, and one cluster.
    """
    size = cfg["template_size"]  # checked where a template is cut or scored
    if cfg.get("single_region"):
        first = train_samples[0]
        cfr_lab = np.zeros(len(train_samples), dtype=int)
        founders = {0: extract_templates(render_image(first.cfr, "cfr_magnitude"), size, founder_id=first.id)}
        k_max = 1
    else:
        images = [
            image
            for rows in _chunks(len(train_samples))
            for image in render_image(np.array([s.cfr for s in train_samples[rows]]), "cfr_magnitude")
        ]
        labeling = segment_cfr(images, cfg["tau_in"], cfg["tau_out"], size)
        cfr_lab = labeling.labels
        founders = {
            c: dataclasses.replace(p, founder_id=train_samples[p.founder_id].id)
            for c, p in labeling.founders.items()
        }
        k_max = cfg["k_max"]
    feats, std = build_features(train_samples)
    k_max = min(k_max, _distinct_rows(feats), len(train_samples) - 1)
    _, cmodel = select_k(feats, range(2, k_max + 1) or [1], seed=cfg["seed"])
    regions = cleanse(fuse_labels(cfr_lab, cmodel.assignment), cfg["min_count"])
    return Segmentation(regions, founders, cmodel.centroids, std)


def run_pipeline(config: dict, out_dir: str | Path | None = None) -> dict:
    """Generate, segment, train and evaluate in one deterministic run.

    The train/test split happens before segmentation; segmentation is
    fit on training samples only and test samples are routed through
    the trained matchers. The config ``seed`` seeds everything, the
    scene included: it always replaces the scene's own ``seed``.
    A config that is not a dict, a top-level key that ``_CONFIG``
    lacks, a value that fails its rule there, a bad scene value, or a
    template or feature block grid larger than the scene's (nt, nc), is
    a ``[config]`` error, raised before anything runs or is written. The
    error is reported on held-out samples only, so fewer than 2 samples after
    ``nlos_filter`` is a ``[generate]`` error. Returns the report dict;
    when ``out_dir`` is given all artifacts (dataset, region map, model,
    report) are written there.
    """
    if not isinstance(config, dict):
        raise PipelineError("config", f"a config is a JSON object, not {config!r}")
    unknown = sorted(set(config) - set(_CONFIG))
    if unknown:
        raise PipelineError("config", f"unknown config keys: {', '.join(map(repr, unknown))}")
    cfg = {**default_config(), **config}
    try:
        _check(_CONFIG_RULES, cfg, "key")
        scene = scene_from_json(cfg["scene"])
        shape = (scene.nt, scene.nc)
        for name, size in (("template_size", tuple(cfg["template_size"])), ("feature block grid", _BLOCK_GRID)):
            if size[0] > shape[0] or size[1] > shape[1]:
                raise ValueError(f"{name} {size} is larger than the scene's (nt, nc) {shape}")
    except (ValueError, TypeError) as e:
        raise PipelineError("config", str(e)) from None
    try:
        scene.seed = int(cfg["seed"])
        samples = build_dataset(scene)
        samples = nlos_filter(samples, cfg["nlos_mode"])
        if len(samples) < 2:
            raise ValueError(f"{len(samples)} sample; the pipeline holds samples out to test on and needs at least 2")
    except (ValueError, TypeError) as e:
        raise PipelineError("generate", str(e)) from e

    train_idx, test_idx = _split(len(samples), cfg["train_fraction"], cfg["seed"])
    train_samples = [samples[i] for i in train_idx]
    test_samples = [samples[i] for i in test_idx]

    try:
        segmentation = segment(train_samples, cfg)
    except ValueError as e:
        raise PipelineError("segment", str(e)) from e

    try:
        model = train(train_samples, segmentation, cfg["ridge_lambda"])
    except (ValueError, np.linalg.LinAlgError) as e:
        raise PipelineError("train", str(e)) from e

    try:
        preds, assigned = locate(model, test_samples)
        errors = error_report(preds, [s.pos for s in test_samples], assigned)
    except ValueError as e:
        raise PipelineError("eval", str(e)) from e

    report = {
        **errors,
        "covering_rate": segmentation.regions.covering_rate,
        "n_train": len(train_samples),
        "n_test": len(test_samples),
        "region_count": segmentation.regions.fused_count,
        "config": cfg,
        "seed": cfg["seed"],
    }

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        dio.write_dataset(samples, out / "dataset")
        export_region_map(
            train_samples, segmentation.regions, out / "region_map.csv", out / "region_map.ppm"
        )
        dio.write_model(out / "model.json", model)
        (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    return report
