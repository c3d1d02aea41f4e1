import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import amdnloc
from amdnloc import channel, localizer
from amdnloc.cli import main
from amdnloc.evaluate import (
    _CONFIG_RULES,
    PipelineError,
    _split,
    cdf_curve,
    default_config,
    error_report,
    export_region_map,
    mean_error,
    run_pipeline,
)
from amdnloc.fusion import fuse_labels
from amdnloc.scenegen import Sample, SceneConfig, _check, build_dataset, scene_from_json


class TestMeanError:
    def test_perfect_predictions(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        me, rmse = mean_error(pts, pts)
        assert me == 0.0 and rmse == 0.0

    def test_pythagorean_offset(self):
        me, rmse = mean_error([[3.0, 4.0]], [[0.0, 0.0]])
        assert me == 5.0 and rmse == 5.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        preds = rng.random((30, 2))
        truths = rng.random((30, 2))
        me, rmse = mean_error(preds, truths)
        dists = [np.hypot(*(p - t)) for p, t in zip(preds, truths)]
        assert me == pytest.approx(np.mean(dists), abs=1e-12)
        assert rmse == pytest.approx(np.sqrt(np.mean(np.square(dists))), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_error([], [])


class TestErrorReport:
    def test_matches_a_loop_over_the_regions(self):
        rng = np.random.default_rng(2)
        preds, truths = 50 * rng.random((40, 2)), 50 * rng.random((40, 2))
        regions = rng.choice([0, 3, 11], size=40).tolist()
        got = error_report(preds, truths, regions)
        assert sorted(got) == ["cdf", "mean_error_m", "per_region_errors", "rmse_m"]
        assert (got["mean_error_m"], got["rmse_m"]) == mean_error(preds, truths)
        errors = np.linalg.norm(preds - truths, axis=1)
        assert got["cdf"] == cdf_curve(errors)
        dists = [np.hypot(*(p - t)) for p, t in zip(preds, truths)]
        want = {str(r): np.mean([d for d, q in zip(dists, regions) if q == r]) for r in (0, 3, 11)}
        assert got["per_region_errors"] == pytest.approx(want, abs=1e-12)
        assert list(got["per_region_errors"]) == ["0", "3", "11"]

    @pytest.mark.parametrize("regions", [[0], [0, 0, 0]], ids=["short", "long"])
    def test_regions_of_another_length_rejected(self, regions):
        with pytest.raises(ValueError, match="equal-length"):
            error_report([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], regions)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            error_report(np.empty((0, 2)), np.empty((0, 2)), [])


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


class TestExportRegionMap:
    def _samples(self, positions):
        return [
            Sample(id=i, pos=p, paths=[], is_los=True,
                   cfr=np.zeros((2, 2), dtype=complex), adcam=np.zeros((2, 2)))
            for i, p in enumerate(positions)
        ]

    def test_single_sample_one_row(self, tmp_path):
        samples = self._samples([(5.0, 5.0)])
        labels = fuse_labels([0], [0])
        export_region_map(samples, labels, tmp_path / "m.csv", tmp_path / "m.ppm")
        rows = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + 1

    def test_two_labels_two_colors(self, tmp_path):
        samples = self._samples([(2.0, 2.0), (30.0, 30.0)])
        labels = fuse_labels([0, 1], [0, 0])
        export_region_map(samples, labels, tmp_path / "m.csv", tmp_path / "m.ppm")
        raw = (tmp_path / "m.ppm").read_bytes()
        assert raw.startswith(b"P6")
        header, body = raw.split(b"\n", 3)[:3], raw.split(b"\n", 3)[3]
        pixels = {tuple(body[i : i + 3]) for i in range(0, len(body), 3)}
        # background black plus two distinct label colors
        non_black = pixels - {(0, 0, 0)}
        assert len(non_black) == 2

    def test_removed_samples_black(self, tmp_path):
        samples = self._samples([(2.0, 2.0), (30.0, 30.0)])
        labels = fuse_labels([0, 1], [0, 0])
        labels.fused_labels[1] = -1  # cleansed
        export_region_map(samples, labels, tmp_path / "m.csv", tmp_path / "m.ppm")
        body = (tmp_path / "m.ppm").read_bytes().split(b"\n", 3)[3]
        pixels = {tuple(body[i : i + 3]) for i in range(0, len(body), 3)}
        assert len(pixels - {(0, 0, 0)}) == 1


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


class TestRunPipeline:
    def test_smoke_small_grid(self):
        report = run_pipeline(SMALL_CONFIG)
        for key in ("mean_error_m", "rmse_m", "cdf", "covering_rate", "per_region_errors", "seed"):
            assert key in report
        assert report["covering_rate"] == 1.0
        assert report["region_count"] >= 1

    def test_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(SMALL_CONFIG, out_dir=a)
        run_pipeline(SMALL_CONFIG, out_dir=b)
        for name in ("report.json", "region_map.csv", "model.json", "region_map.ppm"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for name in ("positions.csv", "paths.csv", "cfr.bin", "adcam.bin"):
            assert (a / "dataset" / name).read_bytes() == (b / "dataset" / name).read_bytes(), name

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
            # train and locate each render one plane stack per chunk
            assert spy.call_count == math.ceil(report["n_train"] / chunk) + math.ceil(report["n_test"] / chunk)
            assert artifacts(out) == want, chunk

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

    def test_stage_tagged_error(self):
        bad = {**SMALL_CONFIG, "scene": {**SMALL_CONFIG["scene"], "bs_pos": [26.0, 30.0]}}
        with pytest.raises(PipelineError, match=r"\[config\] bs_pos inside a building") as exc:
            run_pipeline(bad)
        assert exc.value.stage == "config"

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
    def test_bad_scene_value_is_a_config_error(self, tmp_path, capsys, monkeypatch, scene, message):
        cfg = {**SMALL_CONFIG, "scene": {**SMALL_CONFIG["scene"], **scene}}
        with pytest.raises(PipelineError, match=re.escape(message)) as exc:
            run_pipeline(cfg, out_dir=tmp_path / "lib")
        assert exc.value.stage == "config"
        # the console script: exit 1, nothing written, no traceback
        monkeypatch.delenv("AMDN_SEED", raising=False)
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

    def test_unknown_config_key_is_a_config_error(self, tmp_path):
        with pytest.raises(PipelineError, match="'tau_inn'") as exc:
            run_pipeline({**SMALL_CONFIG, "tau_inn": 0.5}, out_dir=tmp_path)
        assert exc.value.stage == "config"
        assert not any(tmp_path.iterdir())

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
    def test_config_value_of_wrong_type_or_range_is_a_config_error(self, tmp_path, capsys, monkeypatch, key, value):
        # the message names the rule, so path_select's names 'strongest'
        want = f"key {key} is {value!r}; it must be {_CONFIG_RULES[key][0]}"
        with pytest.raises(PipelineError, match=re.escape(want)) as exc:
            run_pipeline({**SMALL_CONFIG, key: value}, out_dir=tmp_path / "lib")
        assert exc.value.stage == "config"
        # the console script: exit 1, nothing written, no traceback
        monkeypatch.delenv("AMDN_SEED", raising=False)
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

    def test_method_key_is_a_config_error(self, tmp_path):
        # closed-form ridge is the only fit: even the old default is unknown
        for method in ("sgd", "ridge_closed_form"):
            with pytest.raises(PipelineError, match="'method'") as exc:
                run_pipeline({**SMALL_CONFIG, "method": method}, out_dir=tmp_path)
            assert exc.value.stage == "config"
        assert not any(tmp_path.iterdir())

    def test_config_seed_replaces_scene_seed(self):
        scenes = [{**SMALL_CONFIG["scene"], "grid_jitter": 0.5, "seed": seed} for seed in (5, 6)]
        # the scene seed alone would move the terminals
        a, b = (build_dataset(scene_from_json(s)) for s in scenes)
        assert [s.pos for s in a] != [s.pos for s in b]
        reports = [run_pipeline({**SMALL_CONFIG, "scene": s}) for s in scenes]
        for r in reports:
            del r["config"]  # echoes each scene as given
        assert reports[0] == reports[1]

    def test_one_sample_is_a_generate_error(self, tmp_path, capsys, monkeypatch):
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
        monkeypatch.delenv("AMDN_SEED", raising=False)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(one))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 2
        assert capsys.readouterr().err == f"error: [generate] {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("config", [[1, 2], "x", None, 3])
    @pytest.mark.parametrize("seed_env", [None, "5"])
    def test_config_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys, monkeypatch, config, seed_env):
        message = f"a config is a JSON object, not {config!r}"
        with pytest.raises(PipelineError, match=re.escape(message)) as exc:
            run_pipeline(config, out_dir=tmp_path / "lib")
        assert exc.value.stage == "config"
        # the console script: exit 1, nothing written, no traceback
        if seed_env is None:
            monkeypatch.delenv("AMDN_SEED", raising=False)
        else:
            monkeypatch.setenv("AMDN_SEED", seed_env)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 1
        assert capsys.readouterr().err == f"error: [config] {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_cdf_terminal_value(self):
        report = run_pipeline(SMALL_CONFIG)
        assert report["cdf"][-1][1] == 1.0


def _split_with_the_one_sample_case(n: int, train_fraction: float, seed: int):
    """``_split`` as it was while it still split one sample into one
    training sample and no test sample."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = max(1, int(round(n * train_fraction)))
    n_train = min(n_train, n - 1) if n > 1 else 1
    return np.sort(order[:n_train]), np.sort(order[n_train:])


@pytest.mark.parametrize("train_fraction", [1e-9, 0.1, 0.25, 0.5, 0.8, 0.99, 1.0])
def test_split_is_unchanged_from_two_samples_up(train_fraction):
    for n in (2, 3, 4, 5, 7, 10, 11, 63, 200, 1016):
        for seed in (0, 1, 3):
            train_idx, test_idx = _split(n, train_fraction, seed)
            want = _split_with_the_one_sample_case(n, train_fraction, seed)
            assert np.array_equal(train_idx, want[0]) and np.array_equal(test_idx, want[1])
            assert len(train_idx) >= 1 and len(test_idx) >= 1
