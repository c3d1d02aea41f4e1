import csv
import dataclasses
import json
import math
import re
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amdnloc import io as dio
from amdnloc.channel import PathRecord
from amdnloc.cli import main
from amdnloc.evaluate import error_report
from amdnloc.localizer import FeatureConfig, locate
from amdnloc.scenegen import Rect, Sample, SceneConfig, build_dataset, scene_to_json


@pytest.fixture(scope="module")
def dataset():
    scene = SceneConfig(
        area_m=(80.0, 80.0),
        bs_pos=(10.0, 40.0),
        buildings=[Rect(35, 25, 8, 30)],
        grid_spacing_m=11.0,
        nt=16,
        nc=16,
        seed=2,
    )
    return scene, build_dataset(scene)


class TestBinaryFormat:
    def test_roundtrip(self, dataset, tmp_path):
        _, samples = dataset
        dio.write_dataset(samples, tmp_path)
        again = dio.read_dataset(tmp_path)
        assert len(again) == len(samples)
        for a, b in zip(samples, again):
            assert a.id == b.id and a.is_los == b.is_los
            assert a.pos == pytest.approx(b.pos)
            assert len(a.paths) == len(b.paths)
            np.testing.assert_allclose(a.cfr, b.cfr, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(a.adcam, b.adcam, rtol=1e-6, atol=1e-6)

    def test_paths_read_back_as_built(self, dataset, tmp_path):
        # every field of a path is a Python number, whether traced or read
        _, samples = dataset
        dio.write_dataset(samples, tmp_path)
        again = dio.read_dataset(tmp_path)

        def kinds(samples):
            return {tuple(type(getattr(p, f.name)) for f in dataclasses.fields(PathRecord)) for s in samples for p in s.paths}

        assert kinds(samples) == kinds(again) == {(float, float, complex, int, float)}
        assert [s.paths for s in again] == [s.paths for s in samples]

    def test_header_layout(self, dataset, tmp_path):
        _, samples = dataset
        dio.write_dataset(samples, tmp_path)
        raw = (tmp_path / "cfr.bin").read_bytes()
        assert raw[:4] == b"AMDN"
        version, count, nt, nc = struct.unpack("<4I", raw[4:20])
        assert (version, count, nt, nc) == (1, len(samples), 16, 16)
        assert len(raw) == 20 + count * nt * nc * 2 * 4

    def test_adcam_header(self, dataset, tmp_path):
        _, samples = dataset
        dio.write_dataset(samples, tmp_path)
        raw = (tmp_path / "adcam.bin").read_bytes()
        version, count, nt, nc = struct.unpack("<4I", raw[4:20])
        assert len(raw) == 20 + count * nt * nc * 4

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "cfr.bin").write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            dio._read_bin(tmp_path / "cfr.bin", complex_data=True)


# float32 values the widening must keep bit for bit: signed zeros, the
# smallest and largest subnormals, the smallest normal and +-max float32
_EDGES = [0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 1.1754944e-38, 3.4028235e38, -3.4028235e38]
_f32_or_edge = st.one_of(st.sampled_from(_EDGES), st.floats(width=32, allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(1, 4), st.integers(1, 4), st.data())
def test_read_bin_widens_each_stored_float32_exactly(count, nt, nc, data):
    size = count * nt * nc
    stored = np.array(data.draw(st.lists(_f32_or_edge, min_size=2 * size, max_size=2 * size)), dtype="<f4")
    wide = stored.astype(np.float64)  # exact: every float32 is a float64
    header = dio.MAGIC + np.array([dio.FORMAT_VERSION, count, nt, nc], dtype="<u4").tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.bin"
        path.write_bytes(header + stored.tobytes())
        dims, cfr = dio._read_bin(path, complex_data=True)
        # float64 (re, im) pairs are the bytes of complex128
        assert dims == (nt, nc) and cfr.dtype == np.complex128 and cfr.tobytes() == wide.tobytes()
        path.write_bytes(header + stored[:size].tobytes())
        dims, adcam = dio._read_bin(path, complex_data=False)
        assert dims == (nt, nc) and adcam.dtype == np.float64 and adcam.tobytes() == wide[:size].tobytes()


def write_bin_oracle(path, arrays, complex_data):
    """The per-sample writer: one interleave copy and ``tobytes`` per sample."""
    count = len(arrays)
    nt, nc = arrays[0].shape if count else (0, 0)
    with open(path, "wb") as fh:
        fh.write(dio.MAGIC + np.array([dio.FORMAT_VERSION, count, nt, nc], dtype="<u4").tobytes())
        for a in arrays:
            if complex_data:
                inter = np.empty((a.shape[0], a.shape[1], 2), dtype="<f4")
                inter[..., 0] = a.real
                inter[..., 1] = a.imag
                fh.write(inter.tobytes())
            else:
                fh.write(np.asarray(a, dtype="<f4").tobytes())


# values float32 rounds to nearest even, overflows, flushes or keeps signed
_SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 1e-46, 7e-46, 1e39, -3.4028236e38, 1.0 + 2.0**-24, 1.0 + 3 * 2.0**-25]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([0, 1, 63, 64, 65, 128, 129]), st.integers(0, 200)),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1.0, 1e-42, 1e38]),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(_SPECIAL), max_size=6),
)
def test_write_bin_matches_the_per_sample_writer(count, nt, nc, scale, seed, specials):
    rng = np.random.default_rng(seed)
    values = scale * rng.normal(size=(count, nt, nc, 2))
    flat = values.reshape(-1)  # a view, so the specials land in values
    if flat.size:
        flat[rng.integers(0, flat.size, len(specials))] = specials
    cfr = list(values.view(complex)[..., 0])  # re and im exactly as drawn
    adcam = list(values[..., 0])
    # the planted overflows and infinities warn in both writers
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore", invalid="ignore"):
        for arrays, complex_data in ((cfr, True), (adcam, False)):
            got, want = Path(tmp) / "got.bin", Path(tmp) / "want.bin"
            dio._write_bin(got, arrays, complex_data)
            write_bin_oracle(want, arrays, complex_data)
            assert got.read_bytes() == want.read_bytes()


# float32 values, so a dataset reads back exactly as written
_f32 = st.floats(-1e6, 1e6, width=32)
_angle = st.floats(0.0625, 3.125, width=32)


@st.composite
def _tiny_dataset(draw):
    nt, nc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=4, unique=True))

    def grid():
        return np.array(draw(st.lists(_f32, min_size=nt * nc, max_size=nt * nc))).reshape(nt, nc)

    samples = []
    for sid in ids:
        paths = [
            PathRecord(
                aoa=draw(_angle), aod=draw(_angle), gain=complex(draw(_f32), draw(_f32)),
                delay_samples=draw(st.integers(0, 50)), pathloss_db=draw(st.floats(0, 200, width=32)),
            )
            for _ in range(draw(st.integers(0, 2)))
        ]
        pos = (draw(_f32), draw(_f32))
        samples.append(Sample(id=sid, pos=pos, paths=paths, is_los=draw(st.booleans()), cfr=grid() + 1j * grid(), adcam=grid()))
    return samples


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1:] = edit(rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# a valid paths.csv row of a terminal that no drawn dataset holds
_PATH_ROW = [str(10**6 + 1), "0", "1", "1", "1", "0", "0", "0"]


def _plant_fault(fault, d, bin_name, data):
    """Break one file of the dataset in ``d``; returns the file's name."""
    bin_path = d / bin_name
    raw = bytearray(bin_path.read_bytes())
    if fault == "short header":
        bin_path.write_bytes(raw[: data.draw(st.integers(0, 19))])
    elif fault == "truncated payload":
        bin_path.write_bytes(raw[: -data.draw(st.integers(1, len(raw) - 20))])
    elif fault == "overlong payload":  # 1-3 and 5-7 bytes are not a whole float
        bin_path.write_bytes(raw + bytes(data.draw(st.integers(1, 7))))
    elif fault == "non-finite payload":
        k = data.draw(st.integers(0, (len(raw) - 20) // 4 - 1))
        struct.pack_into("<f", raw, 20 + 4 * k, data.draw(st.sampled_from([np.nan, np.inf, -np.inf])))
        bin_path.write_bytes(raw)
    else:
        name = "paths.csv" if "path" in fault else "positions.csv"
        k = data.draw(st.integers(0, 1))

        def edit(rows):
            if fault == "non-finite position":
                rows[k][data.draw(st.sampled_from([1, 2]))] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
            elif fault == "non-finite path value":
                rows = rows or [list(_PATH_ROW)]
                rows[k % len(rows)][data.draw(st.sampled_from([2, 3, 4, 5, 7]))] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
            elif fault in _BAD_PATH_FIELDS:
                rows = rows or [list(_PATH_ROW)]
                column, values = _BAD_PATH_FIELDS[fault]
                rows[k % len(rows)][data.draw(st.sampled_from(column))] = data.draw(st.sampled_from(values))
            elif fault == "repeated id":
                rows[1][0] = rows[0][0]
            elif fault == "missing row":
                del rows[k]
            else:
                rows.append(list(_PATH_ROW))
            return rows

        _rewrite_csv(d / name, edit)
        return name
    return bin_name


# paths.csv faults that PathRecord rejects: (columns, values) to write
_BAD_PATH_FIELDS = {
    "out-of-range path angle": ([2, 3], ["0", "-0.5", "3.1416", "4"]),
    "negative path delay": ([6], ["-1", "-7"]),
    "non-integer path delay": ([6], ["2.5", "x"]),
    "negative path loss": ([7], ["-0.5", "-30"]),
}

_FAULTS = [
    "short header", "truncated payload", "overlong payload", "non-finite payload",
    "non-finite position", "repeated id", "missing row", "unknown path id", "non-finite path value",
    *_BAD_PATH_FIELDS,
]


@settings(max_examples=200, deadline=None)
@given(_tiny_dataset(), st.sampled_from([None, *_FAULTS]), st.sampled_from(["cfr.bin", "adcam.bin"]), st.data())
def test_read_dataset_rejects_malformed_files(samples, fault, bin_name, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        dio.write_dataset(samples, d)
        if fault is None:
            again = dio.read_dataset(d)
            assert [(s.id, s.pos, s.paths, s.is_los) for s in again] == [(s.id, s.pos, s.paths, s.is_los) for s in samples]
            for a, b in zip(again, samples):
                assert np.array_equal(a.cfr, b.cfr) and np.array_equal(a.adcam, b.adcam)
            return
        name = _plant_fault(fault, d, bin_name, data)
        with pytest.raises(ValueError, match=re.escape(name)):
            dio.read_dataset(d)


class TestCliWorkflow:
    def test_full_command_sequence(self, dataset, tmp_path, capsys):
        scene, _ = dataset
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene_to_json(scene)))
        data = tmp_path / "data"

        assert main(["generate", "--scene", str(scene_path), "--out", str(data)]) == 0
        assert (data / "positions.csv").exists()

        assert main([
            "segment", "--data", str(data), "--tau-in", "0.95", "--tau-out", "0.95",
            "--template", "8x8", "--min-count", "0", "--k-max", "3",
        ]) == 0
        assert (data / "region_map.csv").exists()
        assert (data / "segmentation.json").exists()

        model_path = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--regions", str(data / "region_map.csv"),
            "--out", str(model_path),
        ]) == 0
        assert json.loads(model_path.read_text())["format"] == "amdnloc-model"

        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--data", str(data), "--model", str(model_path), "--out", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["mean_error_m"] >= 0.0

        plots = tmp_path / "plots"
        assert main(["plot", "--report", str(report_path), "--out", str(plots)]) == 0
        cdf = (plots / "cdf.csv").read_text().splitlines()
        assert cdf[0] == "threshold_m,fraction"

    def test_eval_report_is_the_error_report_of_its_predictions(self, trained_chain, tmp_path):
        data, model_path = trained_chain
        out = tmp_path / "report.json"
        assert main(["eval", "--data", str(data), "--model", str(model_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        samples = dio.read_dataset(data)
        preds, regions = locate(dio.read_model(model_path, samples), samples)
        # through JSON, as eval writes it: its cdf pairs become lists
        want = json.loads(json.dumps(error_report(preds, [s.pos for s in samples], regions)))
        assert report == {**want, "n_samples": len(samples)}
        assert len(report["per_region_errors"]) > 1
        plots = tmp_path / "plots"
        assert main(["plot", "--report", str(out), "--out", str(plots)]) == 0
        rows = (plots / "per_region_errors.csv").read_text().splitlines()
        assert rows[0] == "region,mean_error_m" and len(rows) == len(report["per_region_errors"]) + 1

    def test_eval_of_a_global_model_needs_no_paths(self, tmp_path):
        cfg = {
            "scene": {
                "area_m": [60.0, 60.0], "bs_pos": [8.0, 30.0],
                "buildings": [[25, 20, 8, 25]], "grid_spacing_m": 11.0,
                "nt": 16, "nc": 16,
            },
            "template_size": [8, 8], "single_region": True, "seed": 1,
        }
        cfg_path, run = tmp_path / "config.json", tmp_path / "run"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(run)]) == 0
        paths = run / "dataset" / "paths.csv"
        paths.write_text(paths.read_text().splitlines()[0] + "\n")
        assert all(s.paths == [] for s in dio.read_dataset(run / "dataset"))
        out = tmp_path / "report.json"
        assert main(["eval", "--data", str(run / "dataset"), "--model", str(run / "model.json"), "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["per_region_errors"]) == ["0"]

    def test_pipeline_command(self, tmp_path):
        cfg = {
            "scene": {
                "area_m": [60.0, 60.0], "bs_pos": [8.0, 30.0],
                "buildings": [[25, 20, 8, 25]], "grid_spacing_m": 11.0,
                "nt": 16, "nc": 16,
            },
            "min_count": 0, "tau_in": 0.95, "tau_out": 0.95,
            "template_size": [8, 8], "k_max": 3, "seed": 1,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        cfg = {
            "scene": {
                "area_m": [60.0, 60.0], "bs_pos": [8.0, 30.0],
                "buildings": [[25, 20, 8, 25]], "grid_spacing_m": 11.0,
                "nt": 16, "nc": 16,
            },
            "min_count": 0, "tau_in": 0.95, "tau_out": 0.95,
            "template_size": [8, 8], "k_max": 3, "seed": 1,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.setenv("AMDN_SEED", "99")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99

    @pytest.mark.parametrize("value, shown", [("x", "'x'"), ("-1", "-1"), ("2.5", "'2.5'"), ("", "''")])
    def test_bad_seed_env_is_an_error_of_every_seeded_command(self, trained_chain, tmp_path, capsys, monkeypatch, value, shown):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        (data / "region_map.csv").unlink()
        cfg_path = tmp_path / "config.json"
        scene = json.loads((trained_chain[0].parent / "scene.json").read_text())
        cfg_path.write_text(json.dumps({"scene": scene, "template_size": [8, 8], "min_count": 0}))
        monkeypatch.setenv("AMDN_SEED", value)
        runs = {
            "generate": ["generate", "--scene", str(trained_chain[0].parent / "scene.json"), "--out", str(tmp_path / "gen")],
            "segment": ["segment", "--data", str(data), "--template", "8x8"],
            "pipeline": ["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
        }
        for command, argv in runs.items():
            assert main(argv) == 1
            want = f"error: [{command}] environment variable AMDN_SEED is {shown}; it must be an integer >= 0\n"
            assert capsys.readouterr().err == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data"]
        assert not (data / "region_map.csv").exists()

    @pytest.mark.parametrize("nc, last", [(16, 0), (8, 17)])
    def test_generate_counts_the_last_delay_bin(self, dataset, tmp_path, capsys, nc, last):
        # 6 m per delay bin: the 80 m scene fits a window of 16 bins, and
        # 17 of its 29 terminals have a path clipped into the last of 8
        scene = dataclasses.replace(dataset[0], nc=nc)
        samples = build_dataset(scene)
        assert last == sum(max((p.delay_samples for p in s.paths), default=-1) == nc - 1 for s in samples)
        (tmp_path / "scene.json").write_text(json.dumps(scene_to_json(scene)))
        data = tmp_path / "data"
        assert main(["generate", "--scene", str(tmp_path / "scene.json"), "--out", str(data)]) == 0
        share = f"{100 * last / len(samples):.1f}%"
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {len(samples)} samples to {data}",
            f"{last} of {len(samples)} terminals ({share}) have a path in the last delay bin, {nc - 1}",
        ]
        # only standard output tells of it: the files are write_dataset's
        dio.write_dataset(samples, tmp_path / "direct")
        names = sorted(p.name for p in data.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "direct").iterdir())
        assert all((data / n).read_bytes() == (tmp_path / "direct" / n).read_bytes() for n in names)

    def test_seed_env_seeds_the_generated_scene(self, dataset, tmp_path, monkeypatch):
        scene = dataclasses.replace(dataset[0], grid_jitter=0.5)
        (tmp_path / "scene.json").write_text(json.dumps(scene_to_json(scene)))
        monkeypatch.setenv("AMDN_SEED", "7")
        assert main(["generate", "--scene", str(tmp_path / "scene.json"), "--out", str(tmp_path / "d")]) == 0
        got = [s.pos for s in dio.read_dataset(tmp_path / "d")]
        assert got == [s.pos for s in build_dataset(dataclasses.replace(scene, seed=7))]
        assert got != [s.pos for s in build_dataset(scene)]

    def test_pipeline_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"tau_inn": 0.5, "seed": 1}))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[config]" in err and "tau_inn" in err
        assert not out.exists()

    def test_missing_scene_file_nonzero_exit(self, tmp_path, capsys):
        rc = main(["generate", "--scene", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")])
        assert rc != 0
        assert "generate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("grid_spacing_m", 0), ("nt", "16"), ("nc", 2.5), ("snr_db", "x"), ("buildings", [[1, 2, 3]]),
         ("grid_jitter", 5), ("grid_spacing_m", -5), ("bogus", 1)],
    )
    def test_bad_scene_value_is_a_generate_error(self, dataset, tmp_path, capsys, key, value):
        scene, _ = dataset
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({**scene_to_json(scene), key: value}))
        assert main(["generate", "--scene", str(path), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [generate] ") and repr(key)[1:-1] in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "option, value, named",
        [("--k-max", "0", "k_max is 0"), ("--tau-in", "1.5", "tau_in is 1.5"), ("--tau-out", "nan", "tau_out is nan"),
         ("--min-count", "-1", "min_count is -1"), ("--seed", "-2", "seed is -2")],
    )
    def test_segment_option_out_of_range_is_a_segment_error(self, trained_chain, tmp_path, capsys, option, value, named):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        (data / "region_map.csv").unlink()
        assert main(["segment", "--data", str(data), "--template", "8x8", option, value]) == 1
        assert f"error: [segment] key {named}; it must be" in capsys.readouterr().err
        assert not (data / "region_map.csv").exists()
        # the options are checked before the dataset is read
        assert main(["segment", "--data", str(tmp_path / "no_data"), "--template", "8x8", option, value]) == 1
        assert f"error: [segment] key {named}; it must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_train_ridge_lambda_out_of_range_is_a_train_error(self, trained_chain, tmp_path, capsys, value):
        data, out = trained_chain[0], tmp_path / "model.json"
        argv = ["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--ridge-lambda", value, "--out", str(out)]
        assert main(argv) == 1
        assert f"error: [train] key ridge_lambda is {float(value)!r}; it must be" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_scene_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps({"bs_pos": [50, 50], "buildings": [[40, 40, 20, 20]]}))
        rc = main(["generate", "--scene", str(bad), "--out", str(tmp_path / "d")])
        assert rc != 0


FUSED = FeatureConfig(16, 16).fused_len  # the features of trained_chain's 16x16 scene


def _put(obj, where: list, value):
    """Set the entry of a nested JSON object that ``where`` leads to."""
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = value


def _read_edited_routing(trained_chain, tmp_path, capsys, command, edit) -> tuple[Path, str]:
    """Run ``command``, train or eval, on a copy of the chain whose
    segmentation.json or model.json ``edit`` changed in place; it must
    exit 1 and write nothing. The edited file and the error printed."""
    data = shutil.copytree(trained_chain[0], tmp_path / "data")
    path = data / "segmentation.json" if command == "train" else tmp_path / "model.json"
    obj = json.loads((data / "segmentation.json" if command == "train" else trained_chain[1]).read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    if command == "train":
        argv = ["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(out)]
    else:
        argv = ["eval", "--data", str(data), "--model", str(path), "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    return path, capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_chain(dataset, tmp_path_factory):
    """A dataset directory after generate and segment, plus a trained model."""
    scene, _ = dataset
    root = tmp_path_factory.mktemp("chain")
    (root / "scene.json").write_text(json.dumps(scene_to_json(scene)))
    data, model = root / "data", root / "model.json"
    assert main(["generate", "--scene", str(root / "scene.json"), "--out", str(data)]) == 0
    assert main(["segment", "--data", str(data), "--template", "8x8", "--tau-in", "0.95", "--tau-out", "0.95", "--min-count", "0"]) == 0
    assert main(["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(model)]) == 0
    return data, model


class TestBoundaryErrors:
    def test_segment_names_both_fingerprint_files_of_other_dims(self, dataset, tmp_path, capsys):
        # 16x16 CFRs with the 8x8 ADCAMs of another dataset of the same terminals
        _, samples = dataset
        data, other = tmp_path / "data", tmp_path / "other"
        dio.write_dataset(samples, data)
        dio.write_dataset([dataclasses.replace(s, adcam=s.adcam[:8, :8]) for s in samples], other)
        shutil.copy(other / "adcam.bin", data / "adcam.bin")
        want = f"{data / 'cfr.bin'} holds 16x16 matrices, but {data / 'adcam.bin'} 8x8"
        with pytest.raises(ValueError, match=re.escape(want)):
            dio.read_dataset(data)
        rc = main(["segment", "--data", str(data), "--template", "8x8", "--min-count", "1", "--k-max", "3"])
        assert rc == 1
        assert f"[segment] {want}" in capsys.readouterr().err
        assert not (data / "region_map.csv").exists()

    def test_train_names_a_founder_missing_from_the_dataset(self, trained_chain, tmp_path, capsys):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = json.loads((data / "segmentation.json").read_text())
        seg["founders"]["1"]["founder_sample_id"] = 9999
        (data / "segmentation.json").write_text(json.dumps(seg))
        rc = main(["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[train]" in err and "9999" in err

    @pytest.mark.parametrize("fault", ["missing id", "repeated id"])
    def test_train_names_a_bad_region_map_id(self, trained_chain, tmp_path, capsys, fault):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        region_map = data / "region_map.csv"
        bad = []

        def edit(rows):
            if fault == "missing id":
                rows[2][0] = "99999"
            else:
                rows.append(list(rows[3]))
            bad.append(rows[-1][0] if fault == "repeated id" else "99999")
            return rows

        _rewrite_csv(region_map, edit)
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--regions", str(region_map), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[train]" in err and str(region_map) in err and f"id {bad[0]} " in err
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["old format", "not an object"])
    def test_train_rejects_a_segmentation_file_of_the_old_format(self, trained_chain, tmp_path, capsys, fault):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = json.loads((data / "segmentation.json").read_text())
        # the format before the routing state had one codec: bare founder ids, one template size
        old = {k: v for k, v in seg.items() if k != "format"}
        old["founders"] = {c: f["founder_sample_id"] for c, f in seg["founders"].items()}
        old["template_size"] = [8, 8]
        (data / "segmentation.json").write_text(json.dumps(old if fault == "old format" else [old]))
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[train]" in err and str(data / "segmentation.json") in err and "amdnloc segment" in err
        assert not out.exists()

    def test_train_rejects_a_region_map_of_another_segment_run(self, tmp_path, capsys):
        # the scene of CI's console-script step
        scene = {"area_m": [80, 80], "bs_pos": [10, 40], "buildings": [[35, 25, 8, 30]],
                 "grid_spacing_m": 6, "nt": 16, "nc": 16, "seed": 2}
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        data, old_map = tmp_path / "data", tmp_path / "old_region_map.csv"
        assert main(["generate", "--scene", str(tmp_path / "scene.json"), "--out", str(data)]) == 0
        options = ["--template", "8x8", "--min-count", "1", "--k-max", "3"]
        assert main(["segment", "--data", str(data), *options, "--tau-in", "0.99", "--tau-out", "0.99"]) == 0
        shutil.copy(data / "region_map.csv", old_map)
        assert main(["segment", "--data", str(data), *options, "--tau-in", "0.8", "--tau-out", "0.8"]) == 0
        founders = json.loads((data / "segmentation.json").read_text())["founders"]
        _, old = dio.read_region_map(old_map)
        assert old.cfr_labels[old.retained].max() >= len(founders)  # the old map names categories the new file lacks
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--regions", str(old_map), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[train]" in err and str(old_map) in err and str(data / "segmentation.json") in err
        assert re.search(r"id \d+ has cfr_label \d+,", err)
        assert not out.exists()
        # the map that segment run wrote trains
        assert main(["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(out)]) == 0

    @pytest.mark.parametrize("fault", ["header only", "every row cleansed"])
    def test_train_rejects_a_region_map_with_no_retained_sample(self, trained_chain, tmp_path, capsys, fault):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        region_map = data / "region_map.csv"
        if fault == "header only":
            _rewrite_csv(region_map, lambda rows: [])
            want = "no training samples"
        else:
            _rewrite_csv(region_map, lambda rows: [[sid, cfr, adcam, "-1", "0"] for sid, cfr, adcam, *_ in rows])
            want = "none of the"
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--regions", str(region_map), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"[train] {want}" in err
        assert not out.exists()

    def test_train_rejects_an_adcam_label_without_a_centroid(self, trained_chain, tmp_path, capsys):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        centroids = json.loads((data / "segmentation.json").read_text())["adcam_centroids"]
        edited = []

        def edit(rows):
            row = next(r for r in rows if r[4] == "1")
            row[2] = str(len(centroids))
            edited.append(row[0])
            return rows

        _rewrite_csv(data / "region_map.csv", edit)
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[train]" in err and str(data / "region_map.csv") in err and str(data / "segmentation.json") in err
        assert f"id {edited[0]} has adcam_label {len(centroids)}," in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "entry",
        [None, 3, {"size": [8, 8]}, {"founder_sample_id": "3", "size": [8, 8]}, {"founder_sample_id": 3, "size": [8]},
         {"founder_sample_id": 3, "size": [8, 8.5]}, {"founder_sample_id": True, "size": [8, 8]}, {"founder_sample_id": 3},
         {"founder_sample_id": 3, "size": [64, 64]}, {"founder_sample_id": 3, "size": [0, 8]}],
    )
    def test_founder_entries_are_checked(self, trained_chain, tmp_path, capsys, command, entry):
        category = max(json.loads(trained_chain[1].read_text())["founders"], key=int)
        path, err = _read_edited_routing(
            trained_chain, tmp_path, capsys, command, lambda obj: _put(obj, ["founders", category], entry)
        )
        assert f"[{command}]" in err and str(path) in err and f"founder of category {category}, " in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "founders",
        [[], "0", None, {}, {"zero": "founder"}, {"1.0": "founder"}, {"01": "founder"}],
        ids=["list", "string", "null", "empty", "word key", "decimal key", "leading zero key"],
    )
    def test_founders_must_map_integer_categories(self, trained_chain, tmp_path, capsys, command, founders):
        bad_key = isinstance(founders, dict) and bool(founders)

        def edit(obj):
            if bad_key:  # a valid entry under a key that is not an integer
                obj["founders"].update(dict.fromkeys(founders, next(iter(obj["founders"].values()))))
            else:
                obj["founders"] = founders

        path, err = _read_edited_routing(trained_chain, tmp_path, capsys, command, edit)
        assert f"[{command}] {path}: " in err
        if bad_key:
            assert f"founders key {next(iter(founders))!r} is not an integer" in err
        else:
            assert "founders must be a nonempty object keyed by integer ids" in err

    def test_train_rejects_a_pair_with_two_fused_labels(self, trained_chain, tmp_path, capsys):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        edited = []

        def edit(rows):
            # the later of two retained rows of one pair moves to another region
            retained = [r for r in rows if r[4] == "1"]
            seen = {}
            for r in retained:
                first = seen.setdefault((r[1], r[2]), r)
                if first is not r:
                    other = next(x[3] for x in retained if x[3] != r[3])
                    edited.append((r[1], r[2], r[3], other))
                    r[3] = other
                    return rows
            raise AssertionError("no retained pair has two rows")

        _rewrite_csv(data / "region_map.csv", edit)
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        c, a, f, other = edited[0]
        assert "[train]" in err and str(data / "region_map.csv") in err
        assert f"pair (cfr_label {c}, adcam_label {a}) has fused labels {f} and {other}" in err
        assert not out.exists()

    def test_segment_rejects_a_template_side_below_one(self, trained_chain, tmp_path, capsys):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = (data / "segmentation.json").read_bytes()
        assert main(["segment", "--data", str(data), "--template", "0x16"]) == 1
        err = capsys.readouterr().err
        assert "[segment] key template_size is (0, 16); it must be two integers >= 1" in err
        assert (data / "segmentation.json").read_bytes() == seg

    @pytest.mark.parametrize("template", ["16", "16x", "x16", "16x16x16", "axb", ""])
    def test_segment_names_a_template_not_of_the_form_hxw(self, trained_chain, tmp_path, capsys, template):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = (data / "segmentation.json").read_bytes()
        assert main(["segment", "--data", str(data), "--template", template]) == 1
        err = capsys.readouterr().err
        assert f"[segment] --template {template!r} is not of the form HxW" in err
        assert (data / "segmentation.json").read_bytes() == seg

    def test_segment_has_no_path_select_option(self, trained_chain, tmp_path, capsys):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = (data / "segmentation.json").read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--data", str(data), "--template", "8x8", "--path-select", "strongest"])
        assert exc.value.code == 2  # argparse's exit for an unknown option
        assert "--path-select" in capsys.readouterr().err
        assert (data / "segmentation.json").read_bytes() == seg

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_path_select_other_than_strongest_is_rejected(self, trained_chain, tmp_path, capsys, command):
        # segmentation.json for train, model.json for eval
        path, err = _read_edited_routing(
            trained_chain, tmp_path, capsys, command, lambda obj: _put(obj, ["path_select"], "first_arrival")
        )
        assert f"error: [{command}] {path}: path_select is 'first_arrival'; it must be one of 'strongest'" in err
        assert "Traceback" not in err

    def test_eval_rejects_unknown_path_select(self, trained_chain, tmp_path, capsys):
        data, model_path = trained_chain
        obj = json.loads(model_path.read_text())
        obj["path_select"] = "loudest"
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        rc = main(["eval", "--data", str(data), "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[eval]" in err and "loudest" in err

    def test_eval_rejects_a_model_fit_by_sgd(self, trained_chain, tmp_path, capsys):
        data, model_path = trained_chain
        obj = json.loads(model_path.read_text())
        obj["method"] = "sgd"
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        rc = main(["eval", "--data", str(data), "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[eval]" in err and "'sgd'" in err and str(bad) in err
        assert not (tmp_path / "r.json").exists()

    def test_eval_rejects_a_model_file_that_is_not_an_object(self, trained_chain, tmp_path, capsys):
        data, model_path = trained_chain
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps([json.loads(model_path.read_text())]))
        rc = main(["eval", "--data", str(data), "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[eval]" in err and str(bad) in err and "not a model file" in err

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (["weights", "0", 0, 0], math.nan, f"weights of region 0 must be 2 x {FUSED + 1} finite numbers"),
            (["weights", "0", 1], [0.0], f"weights of region 0 must be 2 x {FUSED + 1} finite numbers"),
            (["weights", "0", 0, 0], "1.5", f"weights of region 0 must be 2 x {FUSED + 1} finite numbers"),
            (["weights"], {}, "weights must be a nonempty object keyed by integer ids"),
            (["weights", "01"], [[0.0] * (FUSED + 1)] * 2, "weights key '01' is not an integer"),
            (["feature_standardizer", "mean"], [0.0], f"feature_standardizer mean must be {FUSED} finite numbers"),
            (["feature_standardizer", "scale", 3], 0.0, "feature_standardizer scale must be > 0"),
            (["feature_standardizer", "scale", 3], math.inf, f"feature_standardizer scale must be {FUSED} finite numbers"),
            (["region_feature_centroids", "0"], [0.0], f"region_feature_centroids of region 0 must be {FUSED} finite numbers"),
            (["region_feature_centroids", "99"], [0.0] * FUSED, ", 99], but the weights [0, 1, "),
            (["region_feature_centroids", "r1"], [0.0] * FUSED, "region_feature_centroids key 'r1' is not an integer"),
            (["pair_to_fused", 0, 2], 99, "names region 99, which has no weights"),
            (["pair_to_fused", 0], [0, 1], "pair_to_fused entry [0, 1] is not three integers"),
            (["pair_to_fused", 0, 0], 0.5, "is not three integers"),
            (["ridge_lambda"], "x", "ridge_lambda is 'x'; it must be a finite number >= 0"),
            (["ridge_lambda"], -1.0, "ridge_lambda is -1.0; it must be a finite number >= 0"),
            (["nt"], "16", "nt is '16'; it must be an integer >= 1"),
            (["adcam_centroids", 0], [0.0, 1.0, 2.0], "adcam_centroids must be k x 4 finite numbers"),
            (["adcam_centroids"], [], "adcam_centroids must be k x 4 finite numbers"),
            (["adcam_standardizer", "mean", 0], None, "adcam_standardizer mean must be 4 finite numbers"),
            (["adcam_standardizer", "scale", 1], -1.0, "adcam_standardizer scale must be > 0"),
            (["adcam_standardizer"], [1, 2], "adcam_standardizer must be an object with a mean and a scale"),
        ],
        ids=[
            "nan-weight", "short-weight-row", "string-weight", "no-weights", "zero-led-weight-key", "short-mean",
            "zero-scale", "inf-scale", "short-centroid", "extra-centroid", "word-centroid-key", "pair-to-untrained",
            "pair-of-two", "pair-float", "lambda-string", "lambda-negative", "nt-string", "centroid-row-of-3",
            "no-centroids", "adcam-mean-null", "adcam-scale-negative", "adcam-std-list",
        ],
    )
    def test_eval_rejects_a_model_value_it_cannot_use(self, trained_chain, tmp_path, capsys, where, value, message):
        data, model_path = trained_chain
        obj = json.loads(model_path.read_text())
        assert "0" in obj["weights"] and "99" not in obj["weights"]
        _put(obj, where, value)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        rc = main(["eval", "--data", str(data), "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [eval] {bad}: ") and message in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (["adcam_centroids", 1], [0.0, math.nan, 0.0, 0.0], "adcam_centroids must be k x 4 finite numbers"),
            (["adcam_standardizer", "scale"], [1.0, 1.0, 1.0], "adcam_standardizer scale must be 4 finite numbers"),
            (["adcam_standardizer", "scale", 0], 0, "adcam_standardizer scale must be > 0"),
        ],
        ids=["nan-centroid", "short-scale", "zero-scale"],
    )
    def test_train_rejects_a_segmentation_value_it_cannot_use(self, trained_chain, tmp_path, capsys, where, value, message):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = json.loads((data / "segmentation.json").read_text())
        _put(seg, where, value)
        (data / "segmentation.json").write_text(json.dumps(seg))
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [train] {data / 'segmentation.json'}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("version", [99, 0, "1", 1.0, True, None, "missing"])
    def test_eval_rejects_a_model_of_another_version(self, trained_chain, tmp_path, capsys, version):
        data, model_path = trained_chain
        obj = json.loads(model_path.read_text())
        assert obj["version"] == dio.MODEL_VERSION == 1
        if version == "missing":
            del obj["version"]
        else:
            obj["version"] = version
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        rc = main(["eval", "--data", str(data), "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        found = "no version" if version == "missing" else f"version {version!r}"
        assert f"[eval] {bad}: a model file of {found}; this release reads version 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_founders_of_mixed_sizes_name_their_file(self, trained_chain, tmp_path, capsys, command):
        def edit(obj):
            assert len(obj["founders"]) >= 2
            obj["founders"][min(obj["founders"])]["size"] = [6, 6]

        path, err = _read_edited_routing(trained_chain, tmp_path, capsys, command, edit)
        assert f"[{command}] {path}: founders of more than one shape: [(6, 6), (8, 8)]" in err

    @pytest.mark.parametrize("content", [b"nope", b"AMDN\x01\x00\x00\x00\xff\xfe"], ids=["text", "binary"])
    @pytest.mark.parametrize("command", ["generate", "train", "eval", "plot", "pipeline"])
    def test_a_file_that_is_not_json_names_itself(self, trained_chain, tmp_path, capsys, command, content):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        path = data / "segmentation.json" if command == "train" else tmp_path / "input.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--scene", str(path), "--out", str(out)],
            "train": ["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(out)],
            "eval": ["eval", "--data", str(data), "--model", str(path), "--out", str(out)],
            "plot": ["plot", "--report", str(path), "--out", str(out)],
            "pipeline": ["pipeline", "--config", str(path), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{command}] {path} is not a JSON file: ") and "Traceback" not in err
        assert not out.exists()

    def test_eval_names_a_truncated_fingerprint_file(self, trained_chain, tmp_path, capsys):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        raw = (data / "cfr.bin").read_bytes()
        (data / "cfr.bin").write_bytes(raw[:-3])
        rc = main(["eval", "--data", str(data), "--model", str(trained_chain[1]), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[eval]" in err and "cfr.bin" in err and "payload" in err

    def test_eval_names_the_paths_file_and_row_it_rejects(self, trained_chain, tmp_path, capsys):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        rejected = []

        def edit(rows):
            rows[1][3] = "4.0"  # aod_rad outside (0, pi)
            rejected.append(rows[1][0])
            return rows

        _rewrite_csv(data / "paths.csv", edit)
        rc = main(["eval", "--data", str(data), "--model", str(trained_chain[1]), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[eval]" in err and "paths.csv" in err and f"id {rejected[0]} " in err and "aod" in err


class TestPlotReport:
    def _plot(self, tmp_path, capsys, report) -> str:
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["plot", "--report", str(path), "--out", str(tmp_path / "plots")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [plot] {path}: ") and "Traceback" not in err
        assert not (tmp_path / "plots").exists()
        return err

    @pytest.mark.parametrize(
        "report",
        [[1], {"cdf": 5}, {}, {"cdf": [[1.0]]}, {"cdf": [[1.0, "x"]]}, {"cdf": [1.0, 0.5]}, {"cdf": [[True, 0.5]]}],
    )
    def test_a_report_without_a_cdf_of_number_pairs_is_a_plot_error(self, tmp_path, capsys, report):
        assert "[threshold, fraction] number pairs" in self._plot(tmp_path, capsys, report)

    @pytest.mark.parametrize("errors", [[1.0], {"x": 1.0}, {"1.5": 1.0}, {"0": "2.5"}, {"0": None}])
    def test_per_region_errors_not_from_integer_ids_to_numbers_is_a_plot_error(self, tmp_path, capsys, errors):
        report = {"cdf": [[1.0, 0.5]], "per_region_errors": errors}
        assert "per_region_errors must be an object from integer region ids to numbers" in self._plot(tmp_path, capsys, report)


class TestCsvFields:
    """A CSV field that does not parse, or a missing column, is an error
    that names the file (and the line): exit 1, nothing written."""

    @staticmethod
    def _run(command, data, tmp_path, capsys) -> str:
        out = tmp_path / "out.json"
        argv = ["--model", str(data.parent / "model.json")] if command == "eval" else ["--regions", str(data / "region_map.csv")]
        assert main([command, "--data", str(data), *argv, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @staticmethod
    def _rewrite(path, edit):
        """Rewrite a CSV file with ``edit`` of its rows, header included."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))

    def _set_line_4(self, path, column, value):
        def edit(rows):
            rows[3][rows[0].index(column)] = value
            return rows

        self._rewrite(path, edit)

    @pytest.fixture
    def data(self, trained_chain, tmp_path):
        shutil.copy(trained_chain[1], tmp_path / "model.json")
        return shutil.copytree(trained_chain[0], tmp_path / "data")

    @pytest.mark.parametrize(
        "column, value, want",
        [("is_los", "yes", "0 or 1"), ("is_los", "7", "0 or 1"), ("x", "abc", "a number"), ("id", "2.0", "an integer")],
    )
    def test_eval_names_the_positions_line_of_a_field_that_does_not_parse(self, data, tmp_path, capsys, column, value, want):
        self._set_line_4(data / "positions.csv", column, value)
        err = self._run("eval", data, tmp_path, capsys)
        assert err == f"error: [eval] {data / 'positions.csv'}: line 4: {column} is {value!r}; it must be {want}\n"

    @pytest.mark.parametrize("column, value", [("id", "x"), ("cfr_label", "1.5"), ("fused_label", ""), ("retained", "yes")])
    def test_train_names_the_region_map_line_of_a_field_that_does_not_parse(self, data, tmp_path, capsys, column, value):
        self._set_line_4(data / "region_map.csv", column, value)
        err = self._run("train", data, tmp_path, capsys)
        assert err == f"error: [train] {data / 'region_map.csv'}: line 4: {column} is {value!r}; it must be an integer\n"

    @pytest.mark.parametrize(
        "command, name, column",
        [("eval", "positions.csv", "is_los"), ("eval", "paths.csv", "delay_samples"), ("train", "region_map.csv", "retained")],
    )
    def test_a_missing_column_names_the_file(self, data, tmp_path, capsys, command, name, column):
        def drop(rows):
            k = rows[0].index(column)
            return [row[:k] + row[k + 1 :] for row in rows]

        self._rewrite(data / name, drop)
        err = self._run(command, data, tmp_path, capsys)
        assert err == f"error: [{command}] {data / name}: no {column} column in the header\n"


class TestRegionMap:
    def _labels(self):
        from amdnloc.fusion import cleanse, fuse_labels

        return cleanse(fuse_labels([3, 0, 3, 1, 3, 0], [0, 2, 0, 0, 0, 2]), 1)

    def test_roundtrip(self, tmp_path):
        labels = self._labels()
        assert list(labels.fused_labels) == [1, 0, 1, -1, 1, 0]
        ids = [7, 3, 11, 5, 2, 9]
        dio.write_region_map(tmp_path / "m.csv", ids, labels)
        rows = (tmp_path / "m.csv").read_text().splitlines()
        assert rows[:2] == ["id,cfr_label,adcam_label,fused_label,retained", "7,3,0,1,1"]
        assert rows[4] == "5,1,0,-1,0"
        got_ids, got = dio.read_region_map(tmp_path / "m.csv")
        assert got_ids == ids
        for name in ("cfr_labels", "adcam_labels", "fused_labels", "retained"):
            assert np.array_equal(getattr(got, name), getattr(labels, name))
        assert (got.fused_count, got.pair_to_fused) == (labels.fused_count, labels.pair_to_fused) == (2, {(0, 2): 0, (3, 0): 1})

    def test_a_retained_pair_has_one_fused_label(self, tmp_path):
        dio.write_region_map(tmp_path / "m.csv", [7, 3, 11, 5, 2, 9], self._labels())

        def edit(rows):
            rows[2][3] = "0"  # id 11, the second row of pair (3, 0), which is region 1
            return rows

        _rewrite_csv(tmp_path / "m.csv", edit)
        with pytest.raises(ValueError, match=r"m\.csv: pair \(cfr_label 3, adcam_label 0\) has fused labels 1 and 0 \(id 11\)"):
            dio.read_region_map(tmp_path / "m.csv")

    def test_a_cleansed_row_may_share_a_retained_pair(self, tmp_path):
        dio.write_region_map(tmp_path / "m.csv", [7, 3, 11, 5, 2, 9], self._labels())

        def edit(rows):
            rows[2][3:] = ["-1", "0"]  # id 11 of pair (3, 0), cleansed
            return rows

        _rewrite_csv(tmp_path / "m.csv", edit)
        _, labels = dio.read_region_map(tmp_path / "m.csv")
        assert labels.fused_labels.tolist() == [1, 0, -1, -1, 1, 0]

    @pytest.mark.parametrize(
        "fused, retained",
        [("-1", "1"), ("1", "0"), ("-2", "0"), ("-2", "1"), ("1", "2")],
    )
    def test_malformed_row_rejected(self, tmp_path, fused, retained):
        dio.write_region_map(tmp_path / "m.csv", [7, 3, 11, 5, 2, 9], self._labels())

        def edit(rows):
            rows[3][3:] = [fused, retained]
            return rows

        _rewrite_csv(tmp_path / "m.csv", edit)
        with pytest.raises(ValueError, match=rf"m\.csv: id 5 has fused label {fused} and retained {retained};"):
            dio.read_region_map(tmp_path / "m.csv")


def test_segment_option_defaults_are_the_config_defaults():
    from amdnloc.cli import build_parser
    from amdnloc.evaluate import default_config

    defaults = default_config()
    args = build_parser().parse_args(["segment", "--data", "d"])
    for key in ("tau_in", "tau_out", "min_count", "k_max", "seed"):
        assert getattr(args, key) == defaults[key], key
    assert [int(side) for side in args.template.split("x")] == defaults["template_size"]
    assert build_parser().parse_args(["train", "--data", "d", "--regions", "r"]).ridge_lambda == defaults["ridge_lambda"]


def test_config_options_parse_to_the_config_types():
    from amdnloc.cli import build_parser
    from amdnloc.evaluate import default_config

    defaults = default_config()
    segment = vars(build_parser().parse_args(["segment", "--data", "d"]))
    train = vars(build_parser().parse_args(["train", "--data", "d", "--regions", "r"]))
    parsed = {**{key: segment[key] for key in ("tau_in", "tau_out", "min_count", "k_max", "seed")},
              "ridge_lambda": train["ridge_lambda"]}
    assert [(key, value, type(value)) for key, value in parsed.items()] == [
        (key, defaults[key], type(defaults[key])) for key in parsed
    ]
    tau_in = build_parser().parse_args(["segment", "--data", "d", "--tau-in", "1"]).tau_in
    assert tau_in == 1.0 and type(tau_in) is float


class TestTrainOptions:
    def test_removed_fit_options_are_unknown(self, trained_chain, tmp_path, capsys):
        data = trained_chain[0]
        out = tmp_path / "model.json"
        for option in (["--method", "sgd"], ["--method", "ridge"], ["--seed", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(["train", "--data", str(data), "--regions", str(data / "region_map.csv"), *option, "--out", str(out)])
            assert exc.value.code == 2  # argparse's exit for an unknown option
            assert option[0] in capsys.readouterr().err
        assert not out.exists()

    def test_ridge_lambda_reaches_train(self, trained_chain, tmp_path):
        from amdnloc.localizer import train

        data, default_model = trained_chain
        out = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--regions", str(data / "region_map.csv"),
            "--ridge-lambda", "30", "--out", str(out),
        ]) == 0
        samples = dio.read_dataset(data)
        train_samples, segmentation = dio.read_segmentation(data / "segmentation.json", samples, data / "region_map.csv")
        model = train(train_samples, segmentation, ridge_lambda=30)
        written = json.loads(out.read_text())
        assert written["ridge_lambda"] == 30
        assert written["weights"] == {str(r): w.tolist() for r, w in model.weights.items()}
        assert written["weights"] != json.loads(default_model.read_text())["weights"]


@pytest.fixture(scope="module")
def trained_model(dataset):
    """A model trained in memory on the dataset's own samples."""
    from amdnloc.channel import render_image
    from amdnloc.fusion import Segmentation, cleanse, fuse_labels
    from amdnloc.localizer import train
    from amdnloc.segmentation_adcam import build_features, kmeans
    from amdnloc.segmentation_cfr import extract_templates, segment_cfr

    _, samples = dataset
    images = [render_image(s.cfr, "cfr_magnitude") for s in samples]
    labeling = segment_cfr(images, 0.95, 0.95, (8, 8))
    founders = {
        c: extract_templates(images[p.founder_id], (8, 8), founder_id=samples[p.founder_id].id)
        for c, p in labeling.founders.items()
    }
    feats, std = build_features(samples)
    cm = kmeans(feats, 2, seed=0)
    regions = cleanse(fuse_labels(labeling.labels, cm.assignment), 0)
    return train(samples, Segmentation(regions, founders, cm.centroids, std))


class TestModelRoundtrip:
    def test_model_json_roundtrip(self, dataset, trained_model, tmp_path):
        from amdnloc.localizer import locate, predict

        _, samples = dataset
        model = trained_model
        path = tmp_path / "model.json"
        dio.write_model(path, model)
        again = dio.read_model(path, samples)
        for s in samples[:5]:
            np.testing.assert_allclose(predict(model, s), predict(again, s), atol=1e-12)
        # routing breaks ties by founder order, so the read-back model keeps
        # the trained order (0, 1, 2, ..., not the file's "0", "1", "10", ...)
        assert len(model.founders) >= 11 and len(model.weights) >= 11
        assert list(again.founders) == list(model.founders)
        # and so do the regions, by which the nearest-centroid fallback breaks ties
        assert list(again.weights) == list(model.weights)
        assert list(again.region_feature_centroids) == list(model.region_feature_centroids)
        assert locate(again, samples)[1] == locate(model, samples)[1]
        # terminals between the training grid's points predict bit for bit alike
        held_out = build_dataset(dataclasses.replace(dataset[0], grid_spacing_m=7.0))
        assert np.array_equal(locate(again, held_out)[0], locate(model, held_out)[0])

    def test_model_file_naming_ridge_still_reads(self, dataset, trained_model, tmp_path):
        from amdnloc.localizer import FeatureConfig, locate

        _, samples = dataset
        path = tmp_path / "model.json"
        dio.write_model(path, trained_model)
        obj = json.loads(path.read_text())
        assert "method" not in obj
        # the format of files that still name the fit method
        obj["method"] = "ridge_closed_form"
        path.write_text(json.dumps(obj, sort_keys=True, indent=1))
        again = dio.read_model(path, samples)
        held_out = build_dataset(dataclasses.replace(dataset[0], grid_spacing_m=7.0))
        for batch in (samples, held_out):
            got, want = locate(again, batch), locate(trained_model, batch)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_drawn_models_roundtrip_bit_for_bit(self, dataset, trained_model, data):
        from amdnloc.segmentation_adcam import Standardizer

        _, samples = dataset
        model = trained_model
        width = model.config.fused_len
        # region ids in the trained (ascending) order, with gaps, so that
        # their order as numbers and as the file's strings differ
        regions = sorted(data.draw(st.sets(st.integers(0, 40), min_size=1, max_size=12), label="regions"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        spread = 10.0 ** data.draw(st.integers(-3, 3), label="exponent")

        def values(*shape):
            return rng.standard_normal(shape) * spread

        weights = {r: values(2, width + 1) for r in regions}
        # and values hypothesis picks itself: zeros, subnormals, round numbers
        specials = data.draw(st.lists(st.floats(-1e3, 1e3), max_size=8), label="specials")
        weights[regions[0]].flat[: len(specials)] = specials
        cells = st.tuples(st.sampled_from(list(model.founders)), st.integers(0, len(model.adcam_centroids) - 1))
        drawn = dataclasses.replace(
            model,
            weights=weights,
            feature_standardizer=Standardizer(mean=values(width), scale=10.0 ** rng.uniform(-3, 3, width)),
            region_feature_centroids={r: values(width) for r in regions},
            pair_to_fused=data.draw(st.dictionaries(cells, st.sampled_from(regions), max_size=20), label="pairs"),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            dio.write_model(path, drawn)
            again = dio.read_model(path, samples)
            dio.write_model(Path(tmp) / "again.json", again)
            assert (Path(tmp) / "again.json").read_bytes() == path.read_bytes()
        assert list(again.weights) == list(again.region_feature_centroids) == regions
        for r in regions:
            for got, want in ((again.weights[r], drawn.weights[r]), (again.region_feature_centroids[r], drawn.region_feature_centroids[r])):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for name in ("mean", "scale"):
            assert getattr(again.feature_standardizer, name).tobytes() == getattr(drawn.feature_standardizer, name).tobytes()
        assert again.pair_to_fused == drawn.pair_to_fused
        got, want = locate(again, samples), locate(drawn, samples)
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


class TestSegmentationRecord:
    @pytest.mark.parametrize("single_region", [False, True])
    def test_segmentation_roundtrip(self, dataset, tmp_path, single_region):
        from amdnloc.evaluate import default_config, segment

        _, samples = dataset
        cfg = {
            **default_config(), "tau_in": 0.95, "tau_out": 0.95, "template_size": (8, 8), "min_count": 0,
            "k_max": 3, "single_region": single_region,
        }
        seg = segment(samples, cfg)
        dio.write_region_map(tmp_path / "region_map.csv", [s.id for s in samples], seg.regions)
        dio.write_segmentation(tmp_path / "segmentation.json", seg)
        obj = json.loads((tmp_path / "segmentation.json").read_text())
        assert sorted(obj) == ["adcam_centroids", "adcam_standardizer", "format", "founders", "path_select"]
        assert obj["format"] == "amdnloc-segmentation" and obj["path_select"] == "strongest"
        read, again = dio.read_segmentation(tmp_path / "segmentation.json", samples, tmp_path / "region_map.csv")
        assert [s.id for s in read] == [s.id for s in samples]
        for name in ("cfr_labels", "adcam_labels", "fused_labels", "retained"):
            assert np.array_equal(getattr(again.regions, name), getattr(seg.regions, name))
        assert again.regions.fused_count == seg.regions.fused_count
        assert again.regions.pair_to_fused == seg.regions.pair_to_fused
        # routing breaks ties by founder order, so the order is kept too
        assert list(again.founders) == sorted(seg.founders)
        for c, pair in seg.founders.items():
            got = again.founders[c]
            assert (got.founder_id, got.size) == (pair.founder_id, pair.size)
            assert np.array_equal(got.t1, pair.t1) and np.array_equal(got.t2, pair.t2)
        assert np.array_equal(again.adcam_centroids, seg.adcam_centroids)
        assert np.array_equal(again.adcam_standardizer.mean, seg.adcam_standardizer.mean)
        assert np.array_equal(again.adcam_standardizer.scale, seg.adcam_standardizer.scale)

    def test_cli_segment_and_train_write_the_model_of_the_library_calls(self, trained_chain, tmp_path, monkeypatch):
        from amdnloc.evaluate import default_config, segment
        from amdnloc.localizer import train

        monkeypatch.delenv("AMDN_SEED", raising=False)
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        assert main([
            "segment", "--data", str(data), "--tau-in", "0.95", "--tau-out", "0.93", "--template", "8x8",
            "--min-count", "1", "--k-max", "3", "--seed", "4",
        ]) == 0
        out = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--ridge-lambda", "0.5", "--out", str(out),
        ]) == 0
        samples = dio.read_dataset(data)
        cfg = {
            **default_config(), "tau_in": 0.95, "tau_out": 0.93, "template_size": (8, 8), "min_count": 1,
            "k_max": 3, "seed": 4,
        }
        dio.write_model(tmp_path / "library.json", train(samples, segment(samples, cfg), 0.5))
        assert out.read_bytes() == (tmp_path / "library.json").read_bytes()
        # segmentation.json holds model.json's routing state, key for key
        seg, model = (json.loads(p.read_text()) for p in (data / "segmentation.json", out))
        assert {k: v for k, v in seg.items() if k != "format"} == {k: model[k] for k in seg if k != "format"}
