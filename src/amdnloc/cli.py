"""Command-line interface.

Subcommands: generate, segment, train, eval, plot, pipeline. segment
writes segmentation.json, the one file train reads besides the dataset,
and exports region_map.csv and .ppm. The environment variable AMDN_SEED
overrides the seed of generate, segment and pipeline; train takes no
seed, since its closed-form ridge fit draws nothing. Exit code 0 on
success; failures print a stage-tagged message and exit nonzero. A
pipeline stage that fails exits 2; an unreadable or malformed file,
named in the message (a file that is not JSON and a model of an unknown
fit method included), a bad scene value, a config key the pipeline does
not know, or a config value or option value of the wrong type or range
exits 1; an unknown option exits 2.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

from . import io as dio
from .evaluate import (
    _CONFIG_RULES,
    PipelineError,
    default_config,
    error_report,
    export_region_map,
    run_pipeline,
    segment,
)
from .localizer import locate, train
from .scenegen import _PAIR, _SEED, _check, _is_real, build_dataset, scene_from_json


def _seed_override(seed: int) -> int:
    """The seed AMDN_SEED holds, checked like every other seed, or
    ``seed`` when it is unset."""
    env = os.environ.get("AMDN_SEED")
    if env is None:
        return seed
    try:
        value = int(env)
    except ValueError:
        value = env
    _check({"AMDN_SEED": _SEED}, {"AMDN_SEED": value}, "environment variable")
    return value


def _cmd_generate(args) -> int:
    scene = scene_from_json(dio.read_json(args.scene))
    scene = dataclasses.replace(scene, seed=_seed_override(scene.seed))
    samples = build_dataset(scene)
    dio.write_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    # a delay past the window is clipped into its last bin
    last = sum(any(p.delay_samples == scene.nc - 1 for p in s.paths) for s in samples)
    share = last / len(samples)  # build_dataset refuses a scene of no samples
    print(f"{last} of {len(samples)} terminals ({share:.1%}) have a path in the last delay bin, {scene.nc - 1}")
    return 0


def _template_size(text: str) -> tuple[int, int]:
    try:
        h, w = (int(side) for side in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"--template {text!r} is not of the form HxW, such as 16x16") from None
    return h, w


def _cmd_segment(args) -> int:
    size = _template_size(args.template)
    cfg = {**default_config(), **vars(args), "template_size": size, "seed": _seed_override(args.seed)}
    _check(_CONFIG_RULES, cfg, "key")
    samples = dio.read_dataset(args.data)
    seg = segment(samples, cfg)
    data = Path(args.data)
    export_region_map(samples, seg.regions, data / "region_map.csv", data / "region_map.ppm")
    dio.write_segmentation(data / "segmentation.json", seg, [s.id for s in samples], cfg["min_count"])
    print(
        f"{seg.regions.fused_count} regions, covering rate {seg.regions.covering_rate:.3f}; "
        f"wrote region_map.csv and segmentation.json"
    )
    return 0


def _cmd_train(args) -> int:
    _check({"ridge_lambda": _CONFIG_RULES["ridge_lambda"]}, vars(args), "key")
    samples = dio.read_dataset(args.data)
    train_samples, segmentation = dio.read_segmentation(Path(args.data) / "segmentation.json", samples)
    model = train(train_samples, segmentation, args.ridge_lambda)
    dio.write_model(args.out, model)
    print(f"trained {len(model.weights)} region regressors; wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    samples = dio.read_dataset(args.data)
    model = dio.read_model(args.model, samples)
    preds, regions = locate(model, samples)
    report = {**error_report(preds, [s.pos for s in samples], regions), "n_samples": len(samples)}
    Path(args.out).write_text(json.dumps(report, sort_keys=True, indent=1))
    print(f"mean error {report['mean_error_m']:.3f} m over {len(samples)} samples; wrote {args.out}")
    return 0


def _cmd_plot(args) -> int:
    report = dio.read_json(args.report)
    cdf = report.get("cdf") if isinstance(report, dict) else None
    if not (isinstance(cdf, list) and all(map(_PAIR[1], cdf))):
        raise ValueError(f"{args.report}: a report is an object whose cdf is a list of [threshold, fraction] number pairs")
    errors = report.get("per_region_errors", {})
    if not (isinstance(errors, dict) and all(re.fullmatch(r"-?[0-9]+", r) and _is_real(e) for r, e in errors.items())):
        raise ValueError(f"{args.report}: per_region_errors must be an object from integer region ids to numbers")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "cdf.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["threshold_m", "fraction"])
        for t, f in cdf:
            w.writerow([t, f])
    if "per_region_errors" in report:
        with open(out / "per_region_errors.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["region", "mean_error_m"])
            for r, e in sorted(errors.items(), key=lambda kv: int(kv[0])):
                w.writerow([r, e])
    print(f"wrote plot tables to {out}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = dio.read_json(args.config)
    if isinstance(cfg, dict):  # run_pipeline rejects any other config
        cfg["seed"] = _seed_override(cfg.get("seed", default_config()["seed"]))
    report = run_pipeline(cfg, out_dir=args.out)
    print(
        f"mean error {report['mean_error_m']:.3f} m, "
        f"{report['region_count']} regions, covering rate {report['covering_rate']:.3f}"
    )
    return 0


def _config_options(parser, defaults: dict, *keys: str):
    """One option per config key, ``--tau-in`` for ``tau_in``, of the type and value of its default."""
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", type=type(defaults[key]), default=defaults[key])


def build_parser() -> argparse.ArgumentParser:
    defaults = default_config()
    p = argparse.ArgumentParser(prog="amdnloc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a fingerprint dataset from a scene")
    g.add_argument("--scene", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("segment", help="segment a dataset into regions")
    s.add_argument("--data", required=True)
    s.add_argument("--template", default="x".join(map(str, defaults["template_size"])))
    _config_options(s, defaults, "tau_in", "tau_out", "min_count", "k_max", "seed")
    s.set_defaults(func=_cmd_segment)

    t = sub.add_parser("train", help="fit per-region regressors")
    t.add_argument("--data", required=True)
    _config_options(t, defaults, "ridge_lambda")
    t.add_argument("--out", default="model.json")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a model on a dataset")
    e.add_argument("--data", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--out", default="report.json")
    e.set_defaults(func=_cmd_eval)

    pl = sub.add_parser("plot", help="emit plot-ready CDF tables from a report")
    pl.add_argument("--report", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=_cmd_plot)

    pp = sub.add_parser("pipeline", help="run the full pipeline from a config file")
    pp.add_argument("--config", required=True)
    pp.add_argument("--out", default="run_output")
    pp.set_defaults(func=_cmd_pipeline)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if e.stage == "config" else 2
    except (ValueError, OSError, KeyError) as e:
        stage = getattr(args, "command", "cli")
        print(f"error: [{stage}] {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
