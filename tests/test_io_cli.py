import csv
import dataclasses
import json
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

    def test_invalid_scene_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "scene.json"
        bad.write_text(json.dumps({"bs_pos": [50, 50], "buildings": [[40, 40, 20, 20]]}))
        rc = main(["generate", "--scene", str(bad), "--out", str(tmp_path / "d")])
        assert rc != 0


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
         {"founder_sample_id": 3, "size": [8, 8.5]}, {"founder_sample_id": True, "size": [8, 8]}, {"founder_sample_id": 3}],
    )
    def test_founder_entries_are_checked(self, trained_chain, tmp_path, capsys, command, entry):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        path = data / "segmentation.json" if command == "train" else tmp_path / "model.json"
        obj = json.loads((data / "segmentation.json" if command == "train" else trained_chain[1]).read_text())
        category = max(obj["founders"], key=int)
        obj["founders"][category] = entry
        path.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        if command == "train":
            argv = ["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(out)]
        else:
            argv = ["eval", "--data", str(data), "--model", str(path), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"[{command}]" in err and str(path) in err and f"founder of category {category}, " in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "founders",
        [[], "0", None, {"zero": "founder"}, {"1.0": "founder"}],
        ids=["list", "string", "null", "word key", "decimal key"],
    )
    def test_founders_must_map_integer_categories(self, trained_chain, tmp_path, capsys, command, founders):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        path = data / "segmentation.json" if command == "train" else tmp_path / "model.json"
        obj = json.loads((data / "segmentation.json" if command == "train" else trained_chain[1]).read_text())
        if isinstance(founders, dict):
            # a valid entry under a key that is not an integer
            (key,) = founders
            founders = {**obj["founders"], key: next(iter(obj["founders"].values()))}
        obj["founders"] = founders
        path.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        if command == "train":
            argv = ["train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--out", str(out)]
        else:
            argv = ["eval", "--data", str(data), "--model", str(path), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"[{command}]" in err and str(path) in err
        if isinstance(founders, dict):
            assert f"founder category {key!r} is not an integer" in err
        else:
            assert f"founders must be an object from category to founder, not a {type(founders).__name__}" in err
        assert not out.exists()

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
        assert "[segment]" in err and "template size (0, 16)" in err
        assert (data / "segmentation.json").read_bytes() == seg

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

    def test_eval_rejects_founders_of_mixed_sizes(self, trained_chain, tmp_path, capsys):
        data, model_path = trained_chain
        obj = json.loads(model_path.read_text())
        assert len(obj["founders"]) >= 2
        obj["founders"][min(obj["founders"])]["size"] = [6, 6]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        rc = main(["eval", "--data", str(data), "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[eval]" in err and "more than one shape" in err

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
    for key in ("tau_in", "tau_out", "min_count", "k_max", "path_select", "seed"):
        assert getattr(args, key) == defaults[key], key
    assert [int(side) for side in args.template.split("x")] == defaults["template_size"]
    assert build_parser().parse_args(["train", "--data", "d", "--regions", "r"]).ridge_lambda == defaults["ridge_lambda"]


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
    return train(samples, Segmentation(regions, founders, cm.centroids, std, "strongest"))


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
        assert len(model.founders) >= 11
        assert list(again.founders) == list(model.founders)
        assert locate(again, samples)[1] == locate(model, samples)[1]
        # terminals between the training grid's points predict bit for bit alike
        held_out = build_dataset(dataclasses.replace(dataset[0], grid_spacing_m=7.0))
        assert np.array_equal(locate(again, held_out)[0], locate(model, held_out)[0])

    def test_model_file_naming_ridge_still_reads(self, dataset, trained_model, tmp_path):
        from amdnloc.localizer import locate

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


class TestSegmentationRecord:
    @pytest.mark.parametrize("single_region", [False, True])
    def test_segmentation_roundtrip(self, dataset, tmp_path, single_region):
        from amdnloc.evaluate import default_config, segment

        _, samples = dataset
        cfg = {
            **default_config(), "tau_in": 0.95, "tau_out": 0.95, "template_size": (8, 8), "min_count": 0,
            "k_max": 3, "path_select": "first_arrival", "single_region": single_region,
        }
        seg = segment(samples, cfg)
        dio.write_region_map(tmp_path / "region_map.csv", [s.id for s in samples], seg.regions)
        dio.write_segmentation(tmp_path / "segmentation.json", seg)
        obj = json.loads((tmp_path / "segmentation.json").read_text())
        assert sorted(obj) == ["adcam_centroids", "adcam_standardizer", "format", "founders", "path_select"]
        assert obj["format"] == "amdnloc-segmentation"
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
        assert again.path_select == seg.path_select == "first_arrival"

    def test_cli_segment_and_train_write_the_model_of_the_library_calls(self, trained_chain, tmp_path, monkeypatch):
        from amdnloc.evaluate import default_config, segment
        from amdnloc.localizer import train

        monkeypatch.delenv("AMDN_SEED", raising=False)
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        assert main([
            "segment", "--data", str(data), "--tau-in", "0.95", "--tau-out", "0.93", "--template", "8x8",
            "--min-count", "1", "--k-max", "3", "--path-select", "first_arrival", "--seed", "4",
        ]) == 0
        out = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--regions", str(data / "region_map.csv"), "--ridge-lambda", "0.5", "--out", str(out),
        ]) == 0
        samples = dio.read_dataset(data)
        cfg = {
            **default_config(), "tau_in": 0.95, "tau_out": 0.93, "template_size": (8, 8), "min_count": 1,
            "k_max": 3, "path_select": "first_arrival", "seed": 4,
        }
        dio.write_model(tmp_path / "library.json", train(samples, segment(samples, cfg), 0.5))
        assert out.read_bytes() == (tmp_path / "library.json").read_bytes()
        # segmentation.json holds model.json's routing state, key for key
        seg, model = (json.loads(p.read_text()) for p in (data / "segmentation.json", out))
        assert {k: v for k, v in seg.items() if k != "format"} == {k: model[k] for k in seg if k != "format"}
