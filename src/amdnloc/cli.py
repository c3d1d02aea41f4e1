"""Command-line interface.

Subcommands: generate, segment, train, eval, plot, pipeline. generate
runs run_pipeline's generate step and writes the checked config into
the dataset as config.json, from which segment and train take every
setting. segment segments run_pipeline's training split and
writes segmentation.json, the one file train reads besides the dataset,
and exports region_map.csv and .ppm; eval scores the samples that
segmentation.json does not list. Exit code 0 on success; a failure
prints a stage-tagged message. A stage that fails (tagged by
evaluate.stage) exits 2 from any command. A file or config that cannot
be read or breaks a rule exits 1: a file is named in the message (a file
that is not JSON, a config.json that breaks a config rule and a model
file of another version or with an unknown key included), and a config
is a [config] error. An unknown option exits 2.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as dio
from .channel import render_image
from .evaluate import (
    PipelineError,
    check_config,
    dataset_chunks,
    error_report,
    generate,
    run_pipeline,
    segment,
    split,
    stage,
)
from .localizer import locate, train
from .scenegen import _PAIR, _is_real


def _dataset_config(data: Path) -> dict:
    """The checked config of a dataset's config.json; one that breaks a
    config rule is a ``ValueError`` that names the file."""
    path = data / "config.json"
    config = dio.read_json(path)
    try:
        return check_config(config)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _cmd_generate(args) -> int:
    cfg, scene, terminals = generate(dio.read_json(args.config))
    for _ in dataset_chunks(scene, terminals, cfg, args.out):
        pass
    print(f"wrote {len(terminals)} samples and config.json to {args.out}")
    # a delay past the window is clipped into its last bin
    last_bin = scene.nc - 1
    last = sum(any(p.delay_samples == last_bin for p in t.paths) for t in terminals)
    print(f"{last} of {len(terminals)} terminals ({last / len(terminals):.1%}) have a path in the last delay bin, {last_bin}")
    return 0


def _cmd_segment(args) -> int:
    data = Path(args.data)
    cfg = _dataset_config(data)
    train_samples, _ = split(dio.read_dataset(data), cfg)
    with stage("segment"):
        seg = segment(train_samples, cfg, [render_image(s.cfr, "cfr_magnitude") for s in train_samples])
    dio.write_region_map(data / "region_map.csv", data / "region_map.ppm", train_samples, seg.regions)
    dio.write_segmentation(data / "segmentation.json", seg, [s.id for s in train_samples], cfg["min_count"])
    print(
        f"{seg.regions.fused_count} regions over {len(train_samples)} training samples, "
        f"covering rate {seg.regions.covering_rate:.3f}; wrote region_map.csv and segmentation.json"
    )
    return 0


def _cmd_train(args) -> int:
    data = Path(args.data)
    cfg = _dataset_config(data)
    samples = dio.read_dataset(data)
    train_samples, segmentation = dio.read_segmentation(data / "segmentation.json", samples)
    with stage("train"):
        model = train(train_samples, segmentation, cfg["ridge_lambda"])
    dio.write_model(args.out, model)
    print(f"trained {len(model.weights)} region regressors; wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    data = Path(args.data)
    samples = dio.read_dataset(data)
    model = dio.read_model(args.model, samples)
    scored = "samples"
    if (data / "segmentation.json").exists():
        trained = {s.id for s in dio.read_segmentation(data / "segmentation.json", samples)[0]}
        samples, scored = [s for s in samples if s.id not in trained], "held-out samples"
    with stage("eval"):
        preds, regions = locate(model, samples)
        report = {**error_report(preds, [s.pos for s in samples], regions), "n_samples": len(samples)}
    dio.write_json(args.out, report)
    print(f"mean error {report['mean_error_m']:.3f} m over {len(samples)} {scored}; wrote {args.out}")
    return 0


def _cmd_plot(args) -> int:
    report = dio.read_json(args.report)
    cdf = report.get("cdf") if isinstance(report, dict) else None
    if not (isinstance(cdf, list) and all(map(_PAIR[1], cdf))):
        raise ValueError(f"{args.report}: a report is an object whose cdf is a list of [threshold, fraction] number pairs")
    errors = report.get("per_region_errors", {})
    if not (isinstance(errors, dict) and all(dio._is_id(r) and _is_real(e) for r, e in errors.items())):
        raise ValueError(f"{args.report}: per_region_errors must be an object from integer region ids to numbers")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dio.write_csv(out / "cdf.csv", ["threshold_m", "fraction"], cdf)
    if "per_region_errors" in report:
        dio.write_csv(out / "per_region_errors.csv", ["region", "mean_error_m"], sorted(errors.items(), key=lambda kv: int(kv[0])))
    print(f"wrote plot tables to {out}")
    return 0


def _cmd_pipeline(args) -> int:
    report = run_pipeline(dio.read_json(args.config), out_dir=args.out)
    print(
        f"mean error {report['mean_error_m']:.3f} m, "
        f"{report['region_count']} regions, covering rate {report['covering_rate']:.3f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="amdnloc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a fingerprint dataset from a config, and write the config with it")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("segment", help="segment a dataset's training samples into regions")
    s.add_argument("--data", required=True)
    s.set_defaults(func=_cmd_segment)

    t = sub.add_parser("train", help="fit per-region regressors")
    t.add_argument("--data", required=True)
    t.add_argument("--out", default="model.json")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a model on a dataset's held-out samples")
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
    except (ValueError, OSError) as e:
        stage = getattr(args, "command", "cli")
        print(f"error: [{stage}] {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
