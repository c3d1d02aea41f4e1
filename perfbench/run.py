"""Benchmark of the segment-then-route pipeline, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload hetero-segmented --seed 1 --seconds 4 --trace 0

With ``--trace 0`` it times ``evaluate.run_pipeline``, then reads the
model back with ``io.read_model`` and runs a closed loop of
``localizer.predict`` calls, one caller, over the held-out terminals
for ``--seconds`` (whole passes, in an order drawn from ``--seed``).
With ``--trace 1`` it runs the pipeline once plain and once with every
public function of the layer modules wrapped, and reports the
per-layer split. Either way it checks the outputs (``checks.py``) and
prints one JSON object as its last line.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
SETUP_PROBES = 5  # set-up samples per plain run; their median is reported


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=4.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _setup_time(workload: str) -> float:
    """Process start to a built config, in a fresh interpreter, in
    reference seconds.

    The child runs this script up to the point where the main process
    makes its first ``run_pipeline`` call, and prints the monotonic
    clock (system-wide on Linux) there, then the machine's slowdown
    measured in the child right after (``speed.py``).
    """
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    reached, slowdown = map(float, done.stdout.split()[-2:])
    return (reached - t0) / slowdown


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "amdnloc" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'amdnloc'}", file=sys.stderr)
        return 2
    # One thread of control: BLAS pools get one thread, before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import numpy as np

    from amdnloc import evaluate, localizer, scenegen
    from amdnloc import io as dio

    import checks
    import speed
    import tracing
    import workloads

    if not Path(evaluate.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: amdnloc was imported from {evaluate.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    config = workloads.build_config(args.workload)
    if args.setup_probe:
        reached = time.monotonic()
        print(reached, speed.SpeedProbe().slowdown_now())
        return 0

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    problems: list[str] = []
    setup: list[float] = []
    pipeline_spans: list[tuple[float, float]] = []
    reports: list[dict] = []
    probe = speed.SpeedProbe()
    calls = {"ok": 0, "failed": 0}

    def timed_pipeline():
        t0 = time.perf_counter()
        reports.append(evaluate.run_pipeline(config, out_dir))
        pipeline_spans.append((t0, time.perf_counter()))

    try:
        if not args.trace:
            probe.start()
        timed_pipeline()
        # The program's own peak: imports and one pipeline call, before the
        # benchmark holds its copies of the samples and the model.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The samples run_pipeline used: the dataset files hold them only
        # to float32, and that rounding changes routing (see README).
        built = scenegen.build_dataset(scenegen.scene_from_json(config["scene"]))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                reports.append(evaluate.run_pipeline(config, out_dir))
                traced_s = time.perf_counter() - t0
                read = dio.read_dataset(out_dir / "dataset")
                model = dio.read_model(out_dir / "model.json", built)
            finally:
                tracer.uninstall()
        else:
            read = dio.read_dataset(out_dir / "dataset")
            model = dio.read_model(out_dir / "model.json", built)
        report = reports[0]
        model_json = json.loads((out_dir / "model.json").read_text())
        rows = checks.read_region_rows(out_dir / "region_map.csv")
        train_ids = {r["id"] for r in rows}
        test = [s for s in built if s.id not in train_ids]
        if (len(test), len(rows)) != (report["n_test"], report["n_train"]):
            problems.append(f"split {len(rows)}/{len(test)} differs from the report's {report['n_train']}/{report['n_test']}")
        derived: dict = {}

        def file_checks():
            problems.extend(checks.self_test())
            problems.extend(checks.check_dataset_files(read, built))
            problems.extend(checks.check_labelled(rows, [s.id for s in built], report["n_train"]))
            problems.extend(checks.check_min_count(rows, config["min_count"], report["region_count"]))
            if len(model.weights) != report["region_count"]:
                problems.append(f"model has {len(model.weights)} regions, the report {report['region_count']}")

        def model_checks():
            derived["feats"] = np.array(
                [model.feature_standardizer.apply(localizer.sample_features(s, model.config)) for s in test]
            )
            if config["single_region"]:
                train = [s for s in built if s.id in train_ids]
                x_raw = np.array([localizer.sample_features(s, model.config) for s in train])
                problems.extend(checks.check_ridge(x_raw, np.array([s.pos for s in train]), config["ridge_lambda"], model_json))
            else:
                images = {s.id: checks.magnitude_image(s.cfr) for s in built}
                scorer = checks.NccScorer(np.array([images[s.id] for s in test]))
                cluster = np.array([checks.cluster_feature(s, config["path_select"]) for s in test])
                derived["candidates"] = checks.route_candidates(model_json, scorer, images, cluster, derived["feats"])

        def global_check():
            glob = evaluate.run_pipeline({**config, "single_region": True})
            derived["global"] = glob
            problems.extend(checks.check_beats_global(report["mean_error_m"], glob["mean_error_m"]))

        # Work done between localize calls, spread evenly over the first
        # passes, so that every timing is taken over moments spread
        # across the whole run: the remaining pipeline repeats, the set-up
        # probes and the checks that need no predictions.
        repeats = [] if args.trace else [timed_pipeline] * (spec["pipeline_repeats"] - 1)

        def setup_probe():
            # Kernel samples taken while the child starts up read up to six
            # times slower than those around them, so sampling pauses.
            probe.stop()
            setup.append(_setup_time(args.workload))
            probe.start()

        probes = [] if args.trace else [setup_probe] * SETUP_PROBES
        spacers = [file_checks, *probes[:2], *repeats[:1], model_checks, *probes[2:4], *repeats[1:], *probes[4:]]
        if spec.get("beats_global"):
            spacers.append(global_check)
        min_passes = 1 if args.trace else spec["min_passes"]
        slots = [round((j + 1) * min_passes * len(test) / (len(spacers) + 1)) for j in range(len(spacers))]

        # Closed loop: one caller, whole passes over the held-out terminals,
        # each in a fresh order drawn from the seed, until the calls have
        # taken --seconds.
        order = np.random.default_rng(args.seed)
        preds: dict[int, np.ndarray] = {}
        call_spans: list[tuple[float, float]] = []
        passes = 0
        while True:
            for k in order.permutation(len(test)):
                t0 = time.perf_counter()
                try:
                    p = localizer.predict(model, test[k])
                except Exception as e:  # a failed call counts; the loop goes on
                    calls["failed"] += 1
                    problems.append(f"predict failed on terminal {test[k].id}: {e!r}")
                    continue
                call_spans.append((t0, time.perf_counter()))
                calls["ok"] += 1
                if k in preds and not np.array_equal(preds[k], p):
                    problems.append(f"predict gave two answers for terminal {test[k].id}")
                preds.setdefault(k, p)
                while slots and calls["ok"] + calls["failed"] >= slots[0]:
                    slots.pop(0)
                    spacers.pop(0)()
            passes += 1
            if passes >= min_passes and (args.trace or sum(b - a for a, b in call_spans) >= args.seconds):
                break
        probe.stop()

        if any(json.dumps(r, sort_keys=True) != json.dumps(report, sort_keys=True) for r in reports[1:]):
            problems.append("repeated run_pipeline calls gave different reports")
        if len(preds) == len(test):
            pred_arr = np.array([preds[k] for k in range(len(test))])
            problems += checks.check_error(pred_arr, [s.pos for s in test], report["mean_error_m"])
            routed = [checks.routed_region(p, f, model.weights) for p, f in zip(pred_arr, derived["feats"])]
            problems += checks.check_routed_trained(routed, model.weights)
            if "candidates" in derived:
                candidates, via = derived["candidates"]
                problems += checks.check_routing(routed, candidates)
                trained = set(model.weights)
                if all(c >= trained for c in candidates):
                    problems.append("the independent routing allows every trained region for every terminal")
                # Plant a fault in the model: send the one trained (CFR,
                # cluster) pair a terminal is routed through to another
                # region, route it again, and require the check to flag it.
                i = next((i for i, (c, v) in enumerate(zip(candidates, via)) if len(c) == len(v) == 1 and trained - c), None)
                if i is None:
                    problems.append("no held-out terminal is routed through one trained pair; no fault can be planted")
                else:
                    wrong = min(trained - candidates[i])
                    planted = dataclasses.replace(model, pair_to_fused={**model.pair_to_fused, next(iter(via[i])): wrong})
                    got = checks.routed_region(localizer.predict(planted, test[i]), derived["feats"][i], model.weights)
                    if got != wrong or not checks.check_routing([got], [candidates[i]]):
                        problems.append(f"a wrong pair_to_fused entry planted for terminal {test[i].id} was not caught")

        if args.trace:
            metrics = tracer.layer_metrics()
            plain_s = pipeline_spans[0][1] - pipeline_spans[0][0]
            metrics["trace.overhead_s"] = traced_s - plain_s
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed, "untraced_s": plain_s, "traced_s": traced_s})
            units = {"io.bytes_written": "B"}
            metrics = {k: {"value": v, "unit": units.get(k, "s" if k.endswith("_s") else "count")} for k, v in metrics.items()}
        else:
            # Timings in reference seconds (speed.py).
            latencies = [probe.scaled(a, b) for a, b in call_spans]
            latency_ms = np.array(latencies) * 1e3
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "pipeline_s": (statistics.mean(probe.scaled(a, b) for a, b in pipeline_spans), "s"),
                "localize_per_s": (len(latencies) / sum(latencies), "terminals/s"),
                "localize_ms_p50": (float(np.percentile(latency_ms, 50)), "ms"),
                "localize_ms_p95": (float(np.percentile(latency_ms, 95)), "ms"),
                "mean_error_m": (report["mean_error_m"], "m"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            wall = [b - a for a, b in call_spans]
            print(
                f"perfbench: {passes} passes; wall time: pipeline {[b - a for a, b in pipeline_spans]}, "
                f"localize {len(wall) / sum(wall):.2f}/s p50 {1e3 * np.percentile(wall, 50):.3f} ms "
                f"p95 {1e3 * np.percentile(wall, 95):.3f} ms; set-up {setup}; speed samples {len(probe.starts)}",
                file=sys.stderr,
            )
    finally:
        probe.stop()
        shutil.rmtree(out_dir, ignore_errors=True)

    for p in problems:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)
    # An operation is one run_pipeline call or one predict call.
    attempted = len(reports) + ("global" in derived) + calls["ok"] + calls["failed"]
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": calls["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
