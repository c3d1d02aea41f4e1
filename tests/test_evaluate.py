import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import amdnloc
from amdnloc import channel, evaluate, localizer
from amdnloc import io as dio
from amdnloc.cli import main
from amdnloc.evaluate import (
    _CONFIG_RULES,
    PipelineError,
    cdf_curve,
    check_config,
    default_config,
    error_report,
    run_pipeline,
    split,
    stage,
)
from amdnloc.scenegen import SceneConfig, _check, build_dataset, nlos_filter, scene_from_json, scene_to_json

from oracles import REFERENCE_SCENE


def _random_errors(seed: int, n: int, scale: float, ids: list[int]):
    """Random predictions and truths in a square of side ``scale``, each
    routed to a random one of ``ids``."""
    rng = np.random.default_rng(seed)
    return scale * rng.random((n, 2)), scale * rng.random((n, 2)), rng.choice(ids, size=n).tolist()


class TestErrorReport:
    @pytest.mark.parametrize(
        "preds, truths, regions, exact",
        [
            (*_random_errors(2, 40, 50.0, [0, 3, 11]), None),
            (*_random_errors(0, 30, 1.0, [0]), None),
            ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], [0, 0], (0.0, 0.0)),
            ([[3.0, 4.0]], [[0.0, 0.0]], [7], (5.0, 5.0)),
        ],
        ids=["three_regions", "one_region", "perfect", "pythagorean"],
    )
    def test_matches_a_loop_over_the_regions(self, preds, truths, regions, exact):
        got = error_report(preds, truths, regions)
        assert sorted(got) == ["cdf", "mean_error_m", "per_region_errors", "rmse_m"]
        errors = np.linalg.norm(np.subtract(preds, truths), axis=1)
        assert got["cdf"] == cdf_curve(errors)
        dists = [np.hypot(*np.subtract(p, t)) for p, t in zip(preds, truths)]
        assert got["mean_error_m"] == pytest.approx(np.mean(dists), abs=1e-12)
        assert got["rmse_m"] == pytest.approx(np.sqrt(np.mean(np.square(dists))), abs=1e-12)
        if exact is not None:
            assert (got["mean_error_m"], got["rmse_m"]) == exact
        ids = sorted(set(regions))
        want = {str(r): np.mean([d for d, q in zip(dists, regions) if q == r]) for r in ids}
        assert got["per_region_errors"] == pytest.approx(want, abs=1e-12)
        assert list(got["per_region_errors"]) == [str(r) for r in ids]

    @pytest.mark.parametrize("regions", [[0], [0, 0, 0]], ids=["short", "long"])
    def test_regions_of_another_length_rejected(self, regions):
        with pytest.raises(ValueError, match="equal-length"):
            error_report([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], regions)

    @pytest.mark.parametrize("points", [np.empty((0, 2)), []], ids=["no_rows", "empty_list"])
    def test_empty_rejected(self, points):
        with pytest.raises(ValueError, match="nonempty"):
            error_report(points, points, [])


class TestStage:
    @pytest.mark.parametrize(
        "errors, raised",
        [
            ((), ValueError),
            ((TypeError,), TypeError),
            ((TypeError,), ValueError),
            ((np.linalg.LinAlgError,), np.linalg.LinAlgError),
        ],
    )
    def test_tags_a_listed_error(self, errors, raised):
        cause = raised("bad input")
        with pytest.raises(PipelineError) as exc:
            with stage("train", *errors):
                raise cause
        assert str(exc.value) == "[train] bad input" and exc.value.stage == "train"
        assert exc.value.__cause__ is cause

    @pytest.mark.parametrize(
        "errors, raised",
        [((), TypeError), ((), KeyError), ((TypeError,), OSError), ((), KeyboardInterrupt)],
    )
    def test_passes_any_other_exception_through(self, errors, raised):
        cause = raised("elsewhere")
        with pytest.raises(raised) as exc:
            with stage("generate", *errors):
                raise cause
        assert exc.value is cause


class TestCdfCurve:
    def test_two_thirds(self):
        curve = cdf_curve([1.0, 2.0, 3.0], [2.0])
        assert curve == [(2.0, pytest.approx(2 / 3))]

    def test_zero_threshold(self):
        assert cdf_curve([1.0, 2.0], [0.0]) == [(0.0, 0.0)]

    def test_counting_oracle_and_monotonicity(self):
        rng = np.random.default_rng(1)
        errors = rng.exponential(2.0, size=200)
        ts = [0.5, 1.0, 2.0, 5.0, 50.0]
        curve = cdf_curve(errors, ts)
        fracs = [f for _, f in curve]
        for (t, f) in curve:
            assert f == pytest.approx(sum(e <= t for e in errors) / 200)
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0


SMALL_CONFIG = {
    "scene": {
        "area_m": [60.0, 60.0],
        "bs_pos": [8.0, 30.0],
        "buildings": [[25, 20, 8, 25]],
        "grid_spacing_m": 11.0,
        "nt": 16,
        "nc": 16,
    },
    "min_count": 0,
    "tau_in": 0.95,
    "tau_out": 0.95,
    "template_size": [8, 8],
    "k_max": 3,
    "seed": 1,
}


# the reference buildings on a coarse grid, 49 of whose 136 terminals are NLOS
COARSE_REFERENCE_SCENE = scene_to_json(SceneConfig(**REFERENCE_SCENE, grid_spacing_m=15.0, nt=16, nc=16))


def _files(directory: Path) -> dict[str, bytes]:
    """The files of a directory tree by relative path, with their bytes."""
    return {str(f.relative_to(directory)): f.read_bytes() for f in sorted(directory.rglob("*")) if f.is_file()}


class TestRunPipeline:
    def test_smoke_small_grid(self):
        report = run_pipeline(SMALL_CONFIG)
        for key in ("mean_error_m", "rmse_m", "cdf", "covering_rate", "per_region_errors", "seed"):
            assert key in report
        assert report["covering_rate"] == 1.0
        assert report["region_count"] >= 1
        assert report["cdf"][-1][1] == 1.0

    def test_the_dataset_carries_the_checked_config(self, tmp_path):
        report = run_pipeline(SMALL_CONFIG, out_dir=tmp_path)
        written = (tmp_path / "dataset" / "config.json").read_text()
        # written as report.json writes its config, every key filled in
        assert written == json.dumps(report["config"], sort_keys=True, indent=1)
        assert json.loads(written) == json.loads((tmp_path / "report.json").read_text())["config"] == check_config(SMALL_CONFIG)
        assert sorted(json.loads(written)) == sorted(default_config())

    def test_the_dataset_config_holds_the_whole_scene(self, tmp_path):
        # SMALL_CONFIG's scene gives 6 of SceneConfig's fields; config.json
        # holds every one, and reads back as the scene that ran, but for
        # the config seed that generate puts in place of the scene's own
        run_pipeline(SMALL_CONFIG, out_dir=tmp_path)
        written = json.loads((tmp_path / "dataset" / "config.json").read_text())
        assert len(SMALL_CONFIG["scene"]) == 6
        assert sorted(written["scene"]) == sorted(f.name for f in dataclasses.fields(SceneConfig))
        ran = evaluate.generate(SMALL_CONFIG)[1]
        assert scene_from_json(written["scene"]) == dataclasses.replace(ran, seed=SceneConfig().seed)
        assert scene_from_json({**written["scene"], "seed": written["seed"]}) == ran

    @pytest.mark.parametrize(
        "config",
        [
            SMALL_CONFIG,
            {**SMALL_CONFIG, "single_region": True},
            {**SMALL_CONFIG, "scene": {**SMALL_CONFIG["scene"], "snr_db": 30.0}},
        ],
        ids=["segmented", "single_region", "snr_db"],
    )
    def test_chunk_size_changes_no_artifact(self, tmp_path, config):
        # every stacked pass takes its rows channel._CHUNK at a time; the
        # region map holds every training sample's labels
        def artifacts(out):
            return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}

        run_pipeline(config, out_dir=tmp_path / "default")
        want = artifacts(tmp_path / "default")
        assert {"report.json", "model.json", "region_map.csv", "region_map.ppm", "dataset/cfr.bin"} <= set(want)
        for chunk in (1, 3, 5):
            out = tmp_path / f"chunk-{chunk}"
            spy = mock.Mock(wraps=localizer._render_planes)
            with mock.patch.object(channel, "_CHUNK", chunk), mock.patch.object(localizer, "_render_planes", spy):
                report = run_pipeline(config, out_dir=out)
            assert report["n_train"] > 5
            # the one fingerprint pass renders each chunk of terminals once,
            # its training and held-out terminals together
            assert spy.call_count == math.ceil((report["n_train"] + report["n_test"]) / chunk)
            assert artifacts(out) == want, chunk

    def test_starts_no_thread(self, tmp_path, monkeypatch):
        # every stage, the fingerprint pass and its dataset writes
        # included, runs on the calling thread
        def start(thread):
            raise AssertionError(f"run_pipeline started {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", start)
        report = run_pipeline(SMALL_CONFIG, out_dir=tmp_path)
        assert (tmp_path / "report.json").exists() and report["n_test"] > 0

    @pytest.mark.parametrize(
        "config",
        [
            SMALL_CONFIG,
            {**SMALL_CONFIG, "single_region": True},
            {**SMALL_CONFIG, "scene": {**SMALL_CONFIG["scene"], "snr_db": 30.0}},
            {**SMALL_CONFIG, "scene": COARSE_REFERENCE_SCENE, "nlos_mode": "nlos_only"},
        ],
        ids=["segmented", "single_region", "snr_db", "nlos_only"],
    )
    def test_dataset_files_are_one_write_of_the_built_dataset(self, tmp_path, config):
        # the pass writes each chunk of fingerprints as it is made; the
        # files are those of the whole dataset's stacks in one write
        report = run_pipeline(config, out_dir=tmp_path / "run")
        cfg = check_config(config)
        samples = nlos_filter(build_dataset(scene_from_json({**cfg["scene"], "seed": cfg["seed"]})), cfg["nlos_mode"])
        assert len(samples) == report["n_train"] + report["n_test"]
        with dio.DatasetWriter(tmp_path / "built", samples, cfg) as writer:
            writer.write([s.cfr for s in samples], [s.adcam for s in samples])
        assert _files(tmp_path / "run" / "dataset") == _files(tmp_path / "built")

    @pytest.mark.parametrize(
        "tag, change",
        [("segment", {"min_count": 1000}), ("train", {"single_region": True, "ridge_lambda": 0.0})],
    )
    def test_a_failure_after_the_pass_leaves_the_generated_dataset(self, tmp_path, capsys, tag, change):
        # the dataset is written before segmentation; a later stage's
        # error leaves it as generate writes it, and writes nothing else
        config = {**SMALL_CONFIG, **change}
        cfg_path, data = tmp_path / "config.json", tmp_path / "generated"
        cfg_path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == 0
        with pytest.raises(PipelineError) as exc:
            run_pipeline(config, out_dir=tmp_path / "lib")
        assert exc.value.stage == tag
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{tag}] ") and "Traceback" not in err
        for out in ("lib", "cli"):
            assert [p.name for p in (tmp_path / out).iterdir()] == ["dataset"]
            assert _files(tmp_path / out / "dataset") == _files(data)
        # the CLI's stage command fails as the pipeline does: the same
        # tag, exit 2, and nothing written
        if tag == "train":
            assert main(["segment", "--data", str(data)]) == 0
        before = _files(data)
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert main([tag, "--data", str(data), *(["--out", str(model)] if tag == "train" else [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{tag}] ") and "Traceback" not in err
        assert _files(data) == before and not model.exists()
        if tag == "segment":
            assert not list(data.glob("segmentation.json")) and not list(data.glob("region_map.*"))

    def test_a_rerun_into_a_used_directory_leaves_nothing_of_the_old_samples(self, tmp_path):
        # an earlier run's region map, model and report, and a
        # segmentation.json that segment wrote beside its dataset, describe
        # the samples a rerun replaces: a [config] error touches none of
        # them, and a rerun that fails with [segment] leaves its dataset
        # alone, as generate writes it
        out = tmp_path / "run"
        run_pipeline({**SMALL_CONFIG, "seed": 2}, out_dir=out)
        assert main(["segment", "--data", str(out / "dataset")]) == 0
        before = _files(out)
        assert {"report.json", "model.json", "region_map.csv", "dataset/segmentation.json"} < set(before)
        config = {**SMALL_CONFIG, "seed": 7, "min_count": 1000}
        with pytest.raises(PipelineError, match=r"^\[config\] "):
            run_pipeline({**config, "seed": -1}, out_dir=out)
        assert _files(out) == before
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "generated")]) == 0
        with pytest.raises(PipelineError) as exc:
            run_pipeline(config, out_dir=out)
        assert exc.value.stage == "segment"
        assert [p.name for p in out.iterdir()] == ["dataset"]
        assert _files(out / "dataset") == _files(tmp_path / "generated")

    def test_a_fingerprint_error_writes_nothing(self, tmp_path, monkeypatch):
        # a [generate] error raised while the chunks are made and written
        # removes the files and directories written so far
        real = evaluate.fingerprint_chunks

        def failing(scene, terminals):
            chunks = real(scene, terminals)
            yield next(chunks)
            raise ValueError("planted")

        monkeypatch.setattr(channel, "_CHUNK", 3)
        monkeypatch.setattr(evaluate, "fingerprint_chunks", failing)
        (tmp_path / "kept").mkdir()
        threads = threading.active_count()
        for out in (tmp_path / "new" / "run", tmp_path / "kept"):
            with pytest.raises(PipelineError, match=r"\[generate\] planted"):
                run_pipeline(SMALL_CONFIG, out_dir=out)
            assert threading.active_count() == threads
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert not any((tmp_path / "kept").iterdir())

    @pytest.mark.parametrize("error", [ValueError("planted"), KeyboardInterrupt()], ids=["ValueError", "KeyboardInterrupt"])
    def test_a_feature_error_removes_the_dataset(self, tmp_path, monkeypatch, error):
        # an error raised while the pass turns a chunk into design rows
        # passes through unchanged; the dataset files are gone before it
        # leaves run_pipeline, while its traceback still holds the pass's
        # frames, and no thread is left
        real = localizer._image_features
        calls = []

        def failing(planes, out):
            calls.append(len(out))
            if len(calls) == 2:
                raise error
            return real(planes, out)

        monkeypatch.setattr(channel, "_CHUNK", 3)
        monkeypatch.setattr(localizer, "_image_features", failing)
        (tmp_path / "kept").mkdir()
        threads = threading.active_count()
        for out in (tmp_path / "new" / "run", tmp_path / "kept"):
            calls.clear()
            with pytest.raises(type(error)) as exc:
                run_pipeline(SMALL_CONFIG, out_dir=out)
            assert exc.value is error and len(calls) == 2
            assert threading.active_count() == threads
            assert [p.name for p in tmp_path.iterdir()] == ["kept"]
            assert not any((tmp_path / "kept").iterdir())

    @pytest.mark.parametrize("name", ["config.json", "positions.csv", "paths.csv", "cfr.bin", "adcam.bin"])
    def test_a_dataset_file_that_cannot_be_made_leaves_no_other(self, tmp_path, name):
        # a directory in a dataset file's place fails the writer as it is
        # made: the files it made before are removed and closed, and the
        # directory it could not replace is left
        out = tmp_path / "run"
        (out / "dataset" / name).mkdir(parents=True)
        before = sorted(out.rglob("*"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(IsADirectoryError):
                run_pipeline(SMALL_CONFIG, out_dir=out)
            gc.collect()
        assert sorted(out.rglob("*")) == before
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_holds_no_full_fingerprint_stack(self, tmp_path):
        # a dense single-region scene: the CFR and ADCAM stacks of every
        # terminal, n * nt * nc * 24 bytes, are never held at once, nor
        # are those of the held-out terminals, which the pass turns into
        # design rows as it does the training terminals
        scene = SceneConfig(**REFERENCE_SCENE, grid_spacing_m=7.0, nt=32, nc=32)
        config = {**default_config(), "scene": scene_to_json(scene), "single_region": True, "seed": 3}
        run_pipeline({**config, "scene": {**config["scene"], "grid_spacing_m": 40.0}})  # first-call imports and caches
        tracemalloc.start()
        try:
            report = run_pipeline(config, out_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = report["n_train"] + report["n_test"]
        assert n > 600
        assert peak < n * 32 * 32 * 24
        assert peak < n * 32 * 32 * 16

    def test_default_scene_is_the_scene_config_default(self):
        # run_pipeline leaves a scene key the config lacks to SceneConfig's default
        assert scene_from_json(default_config()["scene"]) == SceneConfig()

    def test_report_covering_rate_consistency(self, tmp_path):
        # relaxed thresholds keep multi-member categories alive at min_count=1
        cfg = {**SMALL_CONFIG, "min_count": 1, "tau_in": 0.8, "tau_out": 0.8}
        report = run_pipeline(cfg, out_dir=tmp_path)
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved["covering_rate"] == report["covering_rate"]
        # recompute from the region map file
        rows = (tmp_path / "region_map.csv").read_text().strip().splitlines()[1:]
        retained = sum(int(r.rsplit(",", 1)[1]) for r in rows)
        assert report["covering_rate"] == pytest.approx(retained / len(rows))

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with it blocked, the package
        # imports and a pipeline run (clustering, k selection and routing
        # included) writes the artifacts of an ordinary run
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import amdnloc\n"
            "from amdnloc.evaluate import run_pipeline\n"
            "run_pipeline(json.loads(sys.argv[1]), sys.argv[2])\n"
        )
        src = str(Path(amdnloc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(SMALL_CONFIG), str(tmp_path / "bare")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        run_pipeline(SMALL_CONFIG, out_dir=tmp_path / "here")
        for name in ("report.json", "region_map.csv", "model.json"):
            assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "here" / name).read_bytes(), name

    def test_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy imports numpy.ma (about 1 MB) on a first np.unique call
        # with axis=0 or without return_* flags; the pipeline makes neither
        code = (
            "import json, sys\n"
            "from amdnloc.evaluate import run_pipeline\n"
            "cfg = json.loads(sys.argv[1])\n"
            "run_pipeline(cfg, sys.argv[2])\n"
            "run_pipeline({**cfg, 'single_region': True}, sys.argv[2])\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
        )
        src = str(Path(amdnloc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(SMALL_CONFIG), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("single_region", [False, True])
    @pytest.mark.parametrize("size", [(0, 8), (8, -2)])
    def test_template_side_below_one_is_a_config_error(self, tmp_path, size, single_region):
        cfg = {**SMALL_CONFIG, "template_size": list(size), "single_region": single_region}
        with pytest.raises(PipelineError, match=re.escape(f"key template_size is {list(size)!r}; it must be two integers >= 1")) as exc:
            run_pipeline(cfg, out_dir=tmp_path)
        assert exc.value.stage == "config"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("single_region", [False, True])
    @pytest.mark.parametrize("size", [[8.5, 8], ["8", 8], [8, 8, 8], 8], ids=["float", "str", "three", "scalar"])
    def test_template_size_not_two_integers_is_a_config_error(self, tmp_path, size, single_region):
        cfg = {**SMALL_CONFIG, "template_size": size, "single_region": single_region}
        with pytest.raises(PipelineError, match=re.escape(f"key template_size is {size!r}; it must be two integers >= 1")) as exc:
            run_pipeline(cfg, out_dir=tmp_path)
        assert exc.value.stage == "config"
        assert not any(tmp_path.iterdir())

    def test_config_rules_cover_every_config_key(self):
        assert set(_CONFIG_RULES) == set(default_config())

    def test_default_config_hands_out_a_fresh_copy(self):
        first = default_config()
        first["scene"]["nt"] = 3
        first["template_size"][0] = 99
        again = default_config()
        assert again["scene"]["nt"] == SceneConfig().nt == 64
        assert again["template_size"] == [16, 16]

    @pytest.mark.parametrize(
        "scene, message",
        [
            ({"nt": 0}, "scene nt is 0; it must be an integer >= 1"),
            ({"grid_spacing_m": -5}, "scene grid_spacing_m is -5; it must be a finite number > 0"),
            ({"bs_pos": [26.0, 30.0]}, "bs_pos inside a building"),
            ({"bogus": 1}, "unknown scene keys: 'bogus'"),
            ({"nt": 4, "nc": 4}, "template_size (8, 8) is larger than the scene's (nt, nc) (4, 4)"),
            ({"nt": 8, "nc": 6}, "template_size (8, 8) is larger than the scene's (nt, nc) (8, 6)"),
        ],
        ids=["nt", "grid_spacing_m", "bs_pos", "unknown", "template_4x4", "template_8x6"],
    )
    def test_bad_scene_value_is_a_config_error(self, tmp_path, capsys, scene, message):
        cfg = {**SMALL_CONFIG, "scene": {**SMALL_CONFIG["scene"], **scene}}
        with pytest.raises(PipelineError) as exc:
            run_pipeline(cfg, out_dir=tmp_path / "lib")
        assert exc.value.stage == "config" and str(exc.value) == f"[config] {message}"
        # the console script: exit 1, nothing written, no traceback
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 1
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "scene, template, message",
        [
            ({"nt": 16, "nc": 16}, [100, 100], "template_size (100, 100) is larger than the scene's (nt, nc) (16, 16)"),
            ({"nt": 16, "nc": 16}, [8, 17], "template_size (8, 17) is larger than the scene's (nt, nc) (16, 16)"),
            ({"nt": 4, "nc": 4}, [4, 4], "feature block grid (8, 8) is larger than the scene's (nt, nc) (4, 4)"),
            ({"nt": 16, "nc": 7}, [4, 4], "feature block grid (8, 8) is larger than the scene's (nt, nc) (16, 7)"),
        ],
    )
    def test_template_or_block_grid_larger_than_the_scene_is_a_config_error(self, tmp_path, scene, template, message):
        cfg = {**SMALL_CONFIG, "scene": {**SMALL_CONFIG["scene"], **scene}, "template_size": template}
        with pytest.raises(PipelineError, match=re.escape(message)) as exc:
            run_pipeline(cfg, out_dir=tmp_path)
        assert exc.value.stage == "config"
        assert not any(tmp_path.iterdir())

    def test_template_and_block_grid_as_large_as_the_scene_pass(self):
        scene = {**SMALL_CONFIG["scene"], "nt": 8, "nc": 8}
        report = run_pipeline({**SMALL_CONFIG, "scene": scene, "template_size": [8, 8], "single_region": True})
        assert report["region_count"] == 1

    # closed-form ridge is the only fit: even the old default method is unknown
    @pytest.mark.parametrize("key, value", [("tau_inn", 0.5), ("method", "sgd"), ("method", "ridge_closed_form")])
    def test_unknown_config_key_is_a_config_error(self, tmp_path, capsys, key, value):
        message = f"[config] unknown config keys: '{key}'"
        with pytest.raises(PipelineError) as exc:
            run_pipeline({**SMALL_CONFIG, key: value}, out_dir=tmp_path / "lib")
        assert exc.value.stage == "config" and str(exc.value) == message
        # the console script: exit 1, nothing written, no traceback
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**SMALL_CONFIG, key: value}))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tau_in", "0.9"), ("tau_in", 0), ("tau_in", 1.5),
            ("tau_out", "0.9"), ("tau_out", -0.1), ("tau_out", math.nan),
            ("min_count", "8"), ("min_count", 2.5), ("min_count", -1), ("min_count", True),
            ("k_max", 0), ("k_max", 3.0), ("k_max", "3"),
            ("train_fraction", "0.8"), ("train_fraction", 1.5), ("train_fraction", 0),
            ("ridge_lambda", "x"), ("ridge_lambda", -1), ("ridge_lambda", math.inf), ("ridge_lambda", False),
            ("single_region", "no"), ("single_region", 1), ("single_region", None),
            ("seed", "3"), ("seed", 2.5), ("seed", -1), ("seed", True),
            ("scene", "x"), ("scene", None), ("nlos_mode", "x"), ("nlos_mode", ["all"]),
            ("path_select", "loudest"), ("path_select", None), ("path_select", "first_arrival"),
        ],
    )
    def test_config_value_of_wrong_type_or_range_is_a_config_error(self, tmp_path, capsys, key, value):
        # the message names the rule, so path_select's names 'strongest'
        want = f"key {key} is {value!r}; it must be {_CONFIG_RULES[key][0]}"
        with pytest.raises(PipelineError, match=re.escape(want)) as exc:
            run_pipeline({**SMALL_CONFIG, key: value}, out_dir=tmp_path / "lib")
        assert exc.value.stage == "config"
        # the console script: exit 1, nothing written, no traceback
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**SMALL_CONFIG, key: value}))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 1
        assert f"error: [config] {want}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "key, value",
        [("tau_in", 1), ("tau_out", 1.0), ("min_count", 0), ("k_max", 1), ("train_fraction", 1),
         ("ridge_lambda", 0), ("single_region", False), ("seed", 0), ("seed", np.int64(3)),
         ("nlos_mode", "nlos_only"), ("template_size", (1, 1))],
    )
    def test_config_values_at_their_bounds_pass_the_check(self, key, value):
        _check(_CONFIG_RULES, {**default_config(), key: value}, "key")

    def test_config_seed_replaces_scene_seed(self):
        scenes = [{**SMALL_CONFIG["scene"], "grid_jitter": 0.5, "seed": seed} for seed in (5, 6)]
        # the scene seed alone would move the terminals
        a, b = (build_dataset(scene_from_json(s)) for s in scenes)
        assert [s.pos for s in a] != [s.pos for s in b]
        reports = [run_pipeline({**SMALL_CONFIG, "scene": s}) for s in scenes]
        for r in reports:
            del r["config"]
        assert reports[0] == reports[1]

    def test_one_sample_is_a_generate_error(self, tmp_path, capsys):
        # one terminal leaves nothing to hold out, so no error to report
        one = {
            "scene": {"area_m": [40, 40], "bs_pos": [5, 20], "grid_spacing_m": 30, "nt": 16, "nc": 16},
            "template_size": [8, 8],
            "min_count": 0,
        }
        assert len(build_dataset(scene_from_json(one["scene"]))) == 1
        message = "1 sample; the pipeline holds samples out to test on and needs at least 2"
        with pytest.raises(PipelineError, match=message) as exc:
            run_pipeline(one, out_dir=tmp_path / "lib")
        assert exc.value.stage == "generate"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(one))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 2
        assert capsys.readouterr().err == f"error: [generate] {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("config", [[1, 2], "x", None, 3])
    def test_config_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys, config):
        message = f"a config is a JSON object, not {config!r}"
        with pytest.raises(PipelineError, match=re.escape(message)) as exc:
            run_pipeline(config, out_dir=tmp_path / "lib")
        assert exc.value.stage == "config"
        # the console script: exit 1, nothing written, no traceback
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 1
        assert capsys.readouterr().err == f"error: [config] {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def _split_with_the_one_sample_case(n: int, train_fraction: float, seed: int):
    """The split's indices as it drew them while it still split one sample
    into one training sample and no test sample."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = max(1, int(round(n * train_fraction)))
    n_train = min(n_train, n - 1) if n > 1 else 1
    return np.sort(order[:n_train]), np.sort(order[n_train:])


@pytest.mark.parametrize("train_fraction", [1e-9, 0.1, 0.25, 0.5, 0.8, 0.99, 1.0])
def test_split_is_unchanged_from_two_samples_up(train_fraction):
    for n in (2, 3, 4, 5, 7, 10, 11, 63, 200, 1016):
        for seed in (0, 1, 3):
            train_idx, test_idx = split(range(n), {"train_fraction": train_fraction, "seed": seed})
            want = _split_with_the_one_sample_case(n, train_fraction, seed)
            assert np.array_equal(train_idx, want[0]) and np.array_equal(test_idx, want[1])
            assert len(train_idx) >= 1 and len(test_idx) >= 1
