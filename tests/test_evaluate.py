import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amdnloc
from amdnloc.evaluate import (
    PipelineError,
    cdf_curve,
    export_region_map,
    mean_error,
    run_pipeline,
)
from amdnloc.fusion import fuse_labels
from amdnloc.scenegen import Sample, build_dataset, scene_from_json


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
        with pytest.raises(PipelineError) as exc:
            run_pipeline(bad)
        assert exc.value.stage == "generate"

    @pytest.mark.parametrize("single_region", [False, True])
    @pytest.mark.parametrize("size", [(0, 8), (8, -2)])
    def test_template_side_below_one_is_a_segment_error(self, tmp_path, size, single_region):
        cfg = {**SMALL_CONFIG, "template_size": list(size), "single_region": single_region}
        with pytest.raises(PipelineError, match=rf"template size \({size[0]}, {size[1]}\)") as exc:
            run_pipeline(cfg, out_dir=tmp_path)
        assert exc.value.stage == "segment"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("single_region", [False, True])
    @pytest.mark.parametrize("size", [[8.5, 8], ["8", 8], [8, 8, 8], 8], ids=["float", "str", "three", "scalar"])
    def test_template_size_not_two_integers_is_a_segment_error(self, tmp_path, size, single_region):
        cfg = {**SMALL_CONFIG, "template_size": size, "single_region": single_region}
        named = re.escape(repr(tuple(size) if isinstance(size, list) else (size,)))
        with pytest.raises(PipelineError, match=rf"template size {named} is not two integers") as exc:
            run_pipeline(cfg, out_dir=tmp_path)
        assert exc.value.stage == "segment"
        assert not (tmp_path / "model.json").exists()

    def test_unknown_config_key_is_a_config_error(self, tmp_path):
        with pytest.raises(PipelineError, match="'tau_inn'") as exc:
            run_pipeline({**SMALL_CONFIG, "tau_inn": 0.5}, out_dir=tmp_path)
        assert exc.value.stage == "config"
        assert not any(tmp_path.iterdir())

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

    def test_cdf_terminal_value(self):
        report = run_pipeline(SMALL_CONFIG)
        assert report["cdf"][-1][1] == 1.0
