"""Metrics, report generation and end-to-end pipeline orchestration."""
from __future__ import annotations

import contextlib
import copy
import dataclasses
from pathlib import Path

import numpy as np

from . import io as dio
from .fusion import Segmentation, cleanse, fuse_labels
from .localizer import _BLOCK_GRID, FeatureConfig, _design_matrix, _locate_rows, fit
from .scenegen import (
    _COUNT,
    _NLOS_MODES,
    _NONNEGATIVE,
    _SEED,
    SceneConfig,
    Terminal,
    _check,
    _is_int,
    _is_real,
    _one_of,
    fingerprint_chunks,
    nlos_filter,
    scene_from_json,
    scene_to_json,
    trace_terminals,
)
from .segmentation_adcam import _PATH_SELECT, _distinct_rows, build_features, select_k
from .segmentation_cfr import extract_templates, segment_cfr

__all__ = [
    "cdf_curve",
    "error_report",
    "PipelineError",
    "stage",
    "check_config",
    "generate",
    "dataset_chunks",
    "split",
    "segment",
    "run_pipeline",
    "default_config",
]

DEFAULT_CDF_THRESHOLDS = [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 500.0]
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


@contextlib.contextmanager
def stage(name: str, *errors: type[Exception]):
    """Tag a stage's failure: a ``ValueError``, or one of ``errors``,
    raised in the block is a ``PipelineError(name, message)`` caused by
    it; any other exception passes through unchanged."""
    try:
        yield
    except (ValueError, *errors) as e:
        raise PipelineError(name, str(e)) from e


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


def default_config() -> dict:
    """Every config key with its default, a fresh copy on each call."""
    return copy.deepcopy({key: default for key, (default, _, _) in _CONFIG.items()})


def segment(train_samples, cfg, images) -> Segmentation:
    """Run both segmentations on the training set and fuse them; founder ids are sample ids.

    ``train_samples`` need their ids and paths, and ``images`` holds
    their CFR magnitude images (``render_image`` of each CFR), in order.
    ``single_region`` makes one CFR category, founded by the first
    sample, and one cluster; it reads the first image alone.
    """
    size = cfg["template_size"]  # checked where a template is cut or scored
    if cfg.get("single_region"):
        cfr_lab = np.zeros(len(train_samples), dtype=int)
        founders = {0: extract_templates(images[0], size, founder_id=train_samples[0].id)}
        k_max = 1
    else:
        labeling = segment_cfr(list(images), cfg["tau_in"], cfg["tau_out"], size)
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


def check_config(config) -> dict:
    """``config`` over ``default_config()``, checked, its scene with every
    ``SceneConfig`` field filled in (``scene_to_json`` of the scene read,
    its own ``seed`` kept): a config that is not a dict, a key that
    ``_CONFIG`` lacks, a value that fails its rule, a bad scene value, or
    a template or feature block grid larger than the scene's (nt, nc), is
    a ``ValueError``."""
    if not isinstance(config, dict):
        raise ValueError(f"a config is a JSON object, not {config!r}")
    unknown = sorted(set(config) - set(_CONFIG))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(map(repr, unknown))}")
    cfg = {**default_config(), **config}
    _check(_CONFIG_RULES, cfg, "key")
    scene = scene_from_json(cfg["scene"])
    shape = (scene.nt, scene.nc)
    for name, size in (("template_size", tuple(cfg["template_size"])), ("feature block grid", _BLOCK_GRID)):
        if size[0] > shape[0] or size[1] > shape[1]:
            raise ValueError(f"{name} {size} is larger than the scene's (nt, nc) {shape}")
    cfg["scene"] = scene_to_json(scene)
    return cfg


def generate(config) -> tuple[dict, SceneConfig, list[Terminal]]:
    """The checked config (``check_config``, whose error is a ``[config]``
    error), its scene, seeded by the config ``seed`` in place of its own,
    and the scene's terminals, traced and ``nlos_filter``ed, with no
    fingerprint made: ``scenegen.fingerprint_chunks`` makes them. Fewer
    than 2 terminals leave none to hold out, a ``[generate]`` error."""
    with stage("config"):
        cfg = check_config(config)
    with stage("generate", TypeError):
        scene = scene_from_json(cfg["scene"])
        scene.seed = int(cfg["seed"])
        terminals = nlos_filter(trace_terminals(scene), cfg["nlos_mode"])
        if len(terminals) < 2:
            raise ValueError(f"{len(terminals)} sample; the pipeline holds samples out to test on and needs at least 2")
    return cfg, scene, terminals


def split(samples: list, cfg: dict) -> tuple[list, list]:
    """The training and held-out samples of n >= 2, both nonempty and in
    order: a permutation drawn from the config ``seed`` picks
    ``train_fraction`` of them to train on."""
    n = len(samples)
    order = np.random.default_rng(cfg["seed"]).permutation(n)
    n_train = min(max(1, int(round(n * cfg["train_fraction"]))), n - 1)
    return [samples[i] for i in np.sort(order[:n_train])], [samples[i] for i in np.sort(order[n_train:])]


def dataset_chunks(scene: SceneConfig, terminals: list[Terminal], cfg: dict, out_dir: str | Path | None = None):
    """``scenegen.fingerprint_chunks`` of the terminals, each chunk written
    first to the dataset files of ``out_dir`` (``cfg`` as its config.json)
    through one ``io.DatasetWriter`` when ``out_dir`` is given. An error
    in making them is a ``[generate]`` error, and the writer removes what
    it wrote."""
    with stage("generate", TypeError):
        with contextlib.nullcontext() if out_dir is None else dio.DatasetWriter(out_dir, terminals, cfg) as writer:
            for rows, cfr, adcam in fingerprint_chunks(scene, terminals):
                if writer is not None:
                    writer.write(cfr, adcam)
                yield rows, cfr, adcam


def _fingerprint_pass(config: FeatureConfig, terminals: list[Terminal], cfg: dict, chunks):
    """One pass over the ``dataset_chunks`` of ``terminals``, on the
    calling thread, each chunk used once and the chunks closed when the
    pass ends, however it ends.

    ``localizer._design_matrix`` takes every terminal's fingerprints in
    one design matrix, in the row of its place in split order: the
    training terminals' rows first, then the held-out terminals'. It
    writes their CFR magnitude images into one stack in the same rows, of
    which a ``single_region`` run, which routes nothing, keeps only the
    first. The chunks are closed in a ``finally``, so a ``DatasetWriter``
    behind them removes what it wrote when the pass raises. Returns the
    training and held-out terminals, the design matrix and the images.
    """
    train_rows, held_rows = split(range(len(terminals)), cfg)
    dest = np.empty(len(terminals), dtype=int)
    dest[train_rows + held_rows] = np.arange(len(terminals))
    mags = np.empty((1 if cfg["single_region"] else len(terminals), config.nt, config.nc))
    try:
        design = _design_matrix(((dest[rows], cfr, adcam) for rows, cfr, adcam in chunks), len(terminals), config, mags)
    finally:
        chunks.close()
    return [terminals[i] for i in train_rows], [terminals[i] for i in held_rows], design, mags


def run_pipeline(config: dict, out_dir: str | Path | None = None) -> dict:
    """Generate, segment, train and evaluate in one deterministic run.

    The stages are ``generate`` (whose ``[config]`` error is raised
    before anything runs or is written), ``split``, ``segment`` and
    ``train`` on the training terminals, and the location of the
    held-out ones. The fingerprints are made ``channel._CHUNK`` terminals
    at a time and each chunk is used once: ``dataset_chunks`` writes it
    to the dataset files, and ``_fingerprint_pass`` turns it into rows of
    one design matrix and one stack of magnitude images, the training
    terminals' rows above the held-out ones'. Every stage runs on the
    calling thread, and no other thread is started. Training is
    ``localizer.fit`` on the training rows, and the held-out rows are
    routed and predicted by ``localizer._locate_rows``, as ``locate``
    would route and predict the held-out samples. Returns the report
    dict; when ``out_dir`` is given all artifacts (dataset and its
    config.json, region map, model, report) are written there.

    A ``[config]`` or ``[generate]`` error writes nothing, and neither
    does any other error raised during the pass, which passes through
    unchanged: the dataset files are removed before it leaves. Past
    ``generate`` and before the pass, the region map, model and report
    of an earlier run in ``out_dir`` are removed, so none is left beside
    a dataset of other samples; a ``[config]`` error touches nothing. The
    dataset directory is written during the pass, before segmentation, so a
    ``[segment]``, ``[train]`` or ``[eval]`` error leaves it as
    ``amdnloc generate`` writes it for the same config, byte for byte,
    and writes no region map, model or report.
    """
    cfg, scene, terminals = generate(config)
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        # an earlier run's outputs, made from the samples this run replaces
        for name in ("region_map.csv", "region_map.ppm", "model.json", "report.json"):
            (out / name).unlink(missing_ok=True)
    features = FeatureConfig(nt=scene.nt, nc=scene.nc)
    chunks = dataset_chunks(scene, terminals, cfg, None if out is None else out / "dataset")
    train_t, held, design, mags = _fingerprint_pass(features, terminals, cfg, chunks)
    n_train = len(train_t)

    with stage("segment"):
        segmentation = segment(train_t, cfg, mags[:n_train])

    with stage("train", np.linalg.LinAlgError):
        positions = np.array([t.pos for t in train_t])
        model = fit(design[:n_train], positions, segmentation, features, cfg["ridge_lambda"])

    with stage("eval"):
        preds, assigned = _locate_rows(model, design[n_train:], mags[n_train:], held)
        errors = error_report(preds, [t.pos for t in held], assigned)

    report = {
        **errors,
        "covering_rate": segmentation.regions.covering_rate,
        "n_train": n_train,
        "n_test": len(held),
        "region_count": segmentation.regions.fused_count,
        "config": cfg,
        "seed": cfg["seed"],
    }

    if out is not None:
        dio.write_region_map(out / "region_map.csv", out / "region_map.ppm", train_t, segmentation.regions)
        dio.write_model(out / "model.json", model)
        dio.write_json(out / "report.json", report)
    return report
