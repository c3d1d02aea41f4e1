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

from amdnloc import cli
from amdnloc import io as dio
from amdnloc.channel import PathRecord
from amdnloc.cli import main
from amdnloc.evaluate import check_config, error_report, segment, split
from amdnloc.localizer import FeatureConfig, locate
from amdnloc.scenegen import Rect, Sample, SceneConfig, Terminal, build_dataset, scene_from_json, scene_to_json

from oracles import magnitude_images


def write_samples(samples, out_dir, config=None):
    """The dataset files of samples, written by one ``DatasetWriter.write`` of all their rows."""
    with dio.DatasetWriter(out_dir, samples, config) as writer:
        writer.write([s.cfr for s in samples], [s.adcam for s in samples])


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
        write_samples(samples, tmp_path)
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
        write_samples(samples, tmp_path)
        again = dio.read_dataset(tmp_path)

        def kinds(samples):
            return {tuple(type(getattr(p, f.name)) for f in dataclasses.fields(PathRecord)) for s in samples for p in s.paths}

        assert kinds(samples) == kinds(again) == {(float, float, complex, int, float)}
        assert [s.paths for s in again] == [s.paths for s in samples]

    def test_header_layout(self, dataset, tmp_path):
        _, samples = dataset
        write_samples(samples, tmp_path)
        raw = (tmp_path / "cfr.bin").read_bytes()
        assert raw[:4] == b"AMDN"
        version, count, nt, nc = struct.unpack("<4I", raw[4:20])
        assert (version, count, nt, nc) == (1, len(samples), 16, 16)
        assert len(raw) == 20 + count * nt * nc * 2 * 4

    def test_adcam_header(self, dataset, tmp_path):
        _, samples = dataset
        write_samples(samples, tmp_path)
        raw = (tmp_path / "adcam.bin").read_bytes()
        version, count, nt, nc = struct.unpack("<4I", raw[4:20])
        assert len(raw) == 20 + count * nt * nc * 4

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "cfr.bin").write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            dio._read_bin(tmp_path / "cfr.bin", dio._BIN_DTYPES["cfr.bin"])


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
        dims, cfr = dio._read_bin(path, dio._BIN_DTYPES["cfr.bin"])
        # float64 (re, im) pairs are the bytes of complex128
        assert dims == (nt, nc) and cfr.dtype == np.complex128 and cfr.tobytes() == wide.tobytes()
        path.write_bytes(header + stored[:size].tobytes())
        dims, adcam = dio._read_bin(path, dio._BIN_DTYPES["adcam.bin"])
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
    terminals = [Terminal(id=i, pos=(0.0, 0.0), paths=[], is_los=False) for i in range(count)]
    # the rows arrive in chunks of any sizes, empty ones included
    parts = np.split(np.arange(count), np.sort(rng.integers(0, count + 1, 3)))
    # the planted overflows and infinities warn in both writers
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore", invalid="ignore"):
        with dio.DatasetWriter(Path(tmp) / "got", terminals) as writer:
            for part in parts:
                writer.write([cfr[i] for i in part], [adcam[i] for i in part])
        for name, arrays, complex_data in (("cfr.bin", cfr, True), ("adcam.bin", adcam, False)):
            want = Path(tmp) / name
            write_bin_oracle(want, arrays, complex_data)
            assert (Path(tmp) / "got" / name).read_bytes() == want.read_bytes()


@pytest.mark.parametrize("bad", ["cfr.bin", "adcam.bin"])
def test_writer_rejects_a_chunk_of_other_dims_before_writing_any_of_it(tmp_path, bad):
    # a 2x8 chunk after 4x4 rows, in either stack, would read back as a
    # wrong 4x4 matrix; the error leaves both files as they were
    terminals = [Terminal(id=i, pos=(0.0, 0.0), paths=[], is_los=False) for i in range(3)]
    rows = [np.full((1, 4, 4), float(i)) for i in range(3)]
    with dio.DatasetWriter(tmp_path, terminals) as writer:
        writer.write(rows[0], rows[0])
        other = {name: rows[1] for name in ("cfr.bin", "adcam.bin")} | {bad: np.ones((1, 2, 8))}
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / bad}: a chunk of (2, 8) matrices after rows of (4, 4)")):
            writer.write(other["cfr.bin"], other["adcam.bin"])
        writer.write(rows[1], rows[1])
        writer.write(rows[2], rows[2])
    again = dio.read_dataset(tmp_path)
    assert [s.cfr.tolist() for s in again] == [s.adcam.tolist() for s in again] == [r[0].tolist() for r in rows]


def _written(out, calls):
    """The .bin files a writer for 3 terminals makes of ``calls``, each
    a ``(cfr, adcam)`` chunk or a ``(cfr, adcam, message)`` chunk that
    must raise exactly that ``ValueError``; checks the files read back."""
    terminals = [Terminal(id=i, pos=(0.0, 0.0), paths=[], is_los=False) for i in range(3)]
    with dio.DatasetWriter(out, terminals) as writer:
        for cfr, adcam, *message in calls:
            if message:
                with pytest.raises(ValueError, match="^" + re.escape(message[0]) + "$"):
                    writer.write(cfr, adcam)
            else:
                writer.write(cfr, adcam)
    assert [s.cfr.tolist() for s in dio.read_dataset(out)] == [[[float(i)] * 4] * 4 for i in range(3)]
    return {name: (out / name).read_bytes() for name in ("cfr.bin", "adcam.bin")}


_ROWS = [(np.full((1, 4, 4), float(i)), np.full((1, 4, 4), float(i))) for i in range(3)]


@pytest.mark.parametrize("at", [0, 1], ids=["first", "after-rows"])
@pytest.mark.parametrize("shape", [(2, 4), (3,), (1, 4, 4, 1), ()], ids=str)
@pytest.mark.parametrize("bad", ["cfr.bin", "adcam.bin"])
def test_writer_rejects_a_chunk_that_is_not_a_stack_of_matrices(tmp_path, bad, shape, at):
    # a 2-D chunk wrote a header of (count, nt) and no nc, which
    # read_dataset read as a garbled shape; the error names the file, and
    # both files end as those of a writer that never got the chunk
    stacks = {"cfr.bin": _ROWS[at][0], "adcam.bin": _ROWS[at][1], bad: np.ones(shape)}
    message = f"{tmp_path / 'bad' / bad}: a chunk of shape {shape}, not an (n, nt, nc) stack of matrices"
    calls = [*_ROWS[:at], (stacks["cfr.bin"], stacks["adcam.bin"], message), *_ROWS[at:]]
    assert _written(tmp_path / "bad", calls) == _written(tmp_path / "good", _ROWS)


@pytest.mark.parametrize("at", [0, 1], ids=["first", "after-rows"])
@pytest.mark.parametrize("kind", ["cfr-longer", "adcam-longer", "past-the-count"])
def test_writer_rejects_unequal_stacks_and_rows_past_the_count(tmp_path, kind, at):
    # two stacks of different lengths, or rows past the terminals the
    # headers count, wrote both files and failed only in read_dataset;
    # the error leaves both files as a writer that never got the chunk
    # makes them
    cfr_rows, adcam_rows = {"cfr-longer": (2, 1), "adcam-longer": (1, 2), "past-the-count": (4 - at, 4 - at)}[kind]
    out = tmp_path / "bad"
    if kind == "past-the-count":
        message = f"{out}: a chunk of {cfr_rows} rows after {at} of its 3 terminals"
    else:
        message = f"{out}: a chunk of {cfr_rows} CFR and {adcam_rows} ADCAM matrices"
    chunk = (np.ones((cfr_rows, 4, 4)), np.ones((adcam_rows, 4, 4)), message)
    assert _written(out, [*_ROWS[:at], chunk, *_ROWS[at:]]) == _written(tmp_path / "good", _ROWS)


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
        write_samples(samples, d)
        if fault is None:
            again = dio.read_dataset(d)
            assert [(s.id, s.pos, s.paths, s.is_los) for s in again] == [(s.id, s.pos, s.paths, s.is_los) for s in samples]
            for a, b in zip(again, samples):
                assert np.array_equal(a.cfr, b.cfr) and np.array_equal(a.adcam, b.adcam)
            return
        name = _plant_fault(fault, d, bin_name, data)
        with pytest.raises(ValueError, match=re.escape(name)):
            dio.read_dataset(d)


@pytest.fixture(scope="module")
def chain_config(dataset):
    """The config of the CLI chain on the dataset's scene and seed: 8x8
    templates at 0.95 and no cleansing."""
    scene, _ = dataset
    return {
        "scene": scene_to_json(scene), "seed": scene.seed, "template_size": [8, 8],
        "tau_in": 0.95, "tau_out": 0.95, "min_count": 0,
    }


def _edit_config(data, **values) -> Path:
    """Set ``values`` in a dataset directory's config.json; its path."""
    path = data / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **values}))
    return path


class TestCliWorkflow:
    def test_eval_report_is_the_error_report_of_its_held_out_predictions(self, trained_chain, tmp_path, capsys):
        data, model_path = trained_chain
        out = tmp_path / "report.json"
        assert main(["eval", "--data", str(data), "--model", str(model_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        samples = dio.read_dataset(data)
        trained = {sid for sid, _, _ in json.loads((data / "segmentation.json").read_text())["samples"]}
        held_out = [s for s in samples if s.id not in trained]
        assert 0 < len(held_out) < len(samples)
        preds, regions = locate(dio.read_model(model_path, samples), held_out)
        # through JSON, as eval writes it: its cdf pairs become lists
        want = json.loads(json.dumps(error_report(preds, [s.pos for s in held_out], regions)))
        assert report == {**want, "n_samples": len(held_out)}
        assert capsys.readouterr().out == (
            f"mean error {report['mean_error_m']:.3f} m over {len(held_out)} held-out samples; wrote {out}\n"
        )
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

    def test_eval_of_a_segmented_model_needs_the_paths(self, trained_chain, tmp_path, capsys):
        # a segmented model routes each sample by its paths: with none,
        # locate fails, an [eval] stage error that exits 2
        data, model_path = trained_chain
        shutil.copytree(data, tmp_path / "data")
        paths = tmp_path / "data" / "paths.csv"
        paths.write_text(paths.read_text().splitlines()[0] + "\n")
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["eval", "--data", str(tmp_path / "data"), "--model", str(model_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \[eval\] sample [0-9]+ has no paths\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("value", [-1, "x", 2.5, True])
    def test_a_bad_seed_is_an_error_of_every_command_that_reads_a_config(self, trained_chain, chain_config, tmp_path, capsys, value):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        for name in ("region_map.csv", "segmentation.json"):
            (data / name).unlink()
        config = _edit_config(data, seed=value)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**chain_config, "seed": value}))
        rule = f"key seed is {value!r}; it must be an integer >= 0\n"
        runs = {
            "generate": (["generate", "--config", str(cfg_path), "--out", str(tmp_path / "gen")], f"[config] {rule}"),
            "segment": (["segment", "--data", str(data)], f"[segment] {config}: {rule}"),
            "train": (["train", "--data", str(data), "--out", str(tmp_path / "model.json")], f"[train] {config}: {rule}"),
            "pipeline": (["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")], f"[config] {rule}"),
        }
        for command, (argv, want) in runs.items():
            assert main(argv) == 1, command
            assert capsys.readouterr().err == f"error: {want}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data"]
        assert not (data / "region_map.csv").exists()

    @pytest.mark.parametrize("nc, last", [(16, 0), (8, 17)])
    def test_generate_counts_the_last_delay_bin(self, dataset, chain_config, tmp_path, capsys, nc, last):
        # 6 m per delay bin: the 80 m scene fits a window of 16 bins, and
        # 17 of its 29 terminals have a path clipped into the last of 8
        scene = dataclasses.replace(dataset[0], nc=nc)
        samples = build_dataset(scene)
        assert last == sum(max((p.delay_samples for p in s.paths), default=-1) == nc - 1 for s in samples)
        config = {**chain_config, "scene": scene_to_json(scene)}
        (tmp_path / "config.json").write_text(json.dumps(config))
        data = tmp_path / "data"
        assert main(["generate", "--config", str(tmp_path / "config.json"), "--out", str(data)]) == 0
        share = f"{100 * last / len(samples):.1f}%"
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {len(samples)} samples and config.json to {data}",
            f"{last} of {len(samples)} terminals ({share}) have a path in the last delay bin, {nc - 1}",
        ]
        # only standard output tells of it: the files are the samples' own
        write_samples(samples, tmp_path / "direct", check_config(config))
        names = sorted(p.name for p in data.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "direct").iterdir())
        assert all((data / n).read_bytes() == (tmp_path / "direct" / n).read_bytes() for n in names)

    def test_generate_into_a_segmented_dataset_removes_its_segmentation(self, trained_chain, chain_config, tmp_path, capsys):
        # segmentation.json and the region map were made from the samples
        # a new generate replaces: train finds no segmentation to fit
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        config = {**chain_config, "seed": 5, "scene": {**chain_config["scene"], "snr_db": 20.0}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        for out in (data, tmp_path / "fresh"):
            assert main(["generate", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
        files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (data, tmp_path / "fresh")]
        assert files[0] == files[1]
        capsys.readouterr()
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--out", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [train] ") and str(data / "segmentation.json") in err and "Traceback" not in err
        assert not model.exists()

    def test_config_seed_seeds_the_generated_scene(self, dataset, chain_config, tmp_path):
        scene = dataclasses.replace(dataset[0], grid_jitter=0.5)
        (tmp_path / "config.json").write_text(json.dumps({**chain_config, "scene": scene_to_json(scene), "seed": 7}))
        assert main(["generate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "d")]) == 0
        got = [s.pos for s in dio.read_dataset(tmp_path / "d")]
        assert got == [s.pos for s in build_dataset(dataclasses.replace(scene, seed=7))]
        assert got != [s.pos for s in build_dataset(scene)]

    def test_generate_keeps_the_nlos_mode_of_its_config(self, tmp_path):
        scene = {"area_m": [120, 120], "bs_pos": [60, 2], "buildings": [[30, 30, 18, 20], [70, 60, 20, 15]],
                 "grid_spacing_m": 5, "nt": 16, "nc": 16}
        (tmp_path / "config.json").write_text(json.dumps({"scene": scene, "seed": 2, "nlos_mode": "nlos_only"}))
        assert main(["generate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "d")]) == 0
        built = build_dataset(scene_from_json({**scene, "seed": 2}))
        nlos = [s.id for s in built if not s.is_los]
        assert [s.id for s in dio.read_dataset(tmp_path / "d")] == nlos and 2 <= len(nlos) < len(built)

    @pytest.mark.parametrize("command", ["generate", "pipeline"])
    def test_missing_config_file_nonzero_exit(self, tmp_path, capsys, command):
        missing = tmp_path / "nope.json"
        assert main([command, "--config", str(missing), "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == f"error: [{command}] [Errno 2] No such file or directory: '{missing}'\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("grid_spacing_m", 0), ("nt", "16"), ("nc", 2.5), ("snr_db", "x"), ("buildings", [[1, 2, 3]]),
         ("grid_jitter", 5), ("grid_spacing_m", -5), ("bogus", 1), ("bs_pos", [38, 40])],
    )
    def test_bad_scene_value_is_a_config_error_of_generate(self, chain_config, tmp_path, capsys, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**chain_config, "scene": {**chain_config["scene"], key: value}}))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [config] ") and repr(key)[1:-1] in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_one_sample_is_a_generate_error(self, chain_config, tmp_path, capsys):
        scene = {"area_m": [40, 40], "bs_pos": [5, 20], "grid_spacing_m": 30, "nt": 16, "nc": 16}
        (tmp_path / "config.json").write_text(json.dumps({**chain_config, "scene": scene}))
        assert main(["generate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "d")]) == 2
        want = "error: [generate] 1 sample; the pipeline holds samples out to test on and needs at least 2\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [("k_max", 0, "k_max is 0"), ("tau_in", 1.5, "tau_in is 1.5"), ("tau_out", math.nan, "tau_out is nan"),
         ("min_count", -1, "min_count is -1"), ("seed", -2, "seed is -2"), ("template_size", [0, 16], "template_size is [0, 16]"),
         ("ridge_lambda", -1, "ridge_lambda is -1"), ("ridge_lambda", math.inf, "ridge_lambda is inf")],
    )
    @pytest.mark.parametrize("command", ["segment", "train"])
    def test_a_dataset_config_value_out_of_range_names_the_file(self, trained_chain, tmp_path, capsys, command, key, value, named):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = (data / "segmentation.json").read_bytes()
        (data / "region_map.csv").unlink()
        config = _edit_config(data, **{key: value})
        out = tmp_path / "model.json"
        argv = ["segment", "--data", str(data)] if command == "segment" else ["train", "--data", str(data), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: [{command}] {config}: key {named}; it must be")
        assert not (data / "region_map.csv").exists() and not out.exists()
        assert (data / "segmentation.json").read_bytes() == seg
        # the config is checked before the dataset is read
        (data / "cfr.bin").unlink()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: [{command}] {config}: key {named}; it must be")

    @pytest.mark.parametrize("fault", ["missing", "unknown key", "not an object"])
    @pytest.mark.parametrize("command", ["segment", "train"])
    def test_a_dataset_without_a_usable_config_is_an_error_that_names_it(self, trained_chain, tmp_path, capsys, command, fault):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        config = data / "config.json"
        if fault == "missing":
            config.unlink()
            message = f"[Errno 2] No such file or directory: '{config}'"
        elif fault == "unknown key":
            _edit_config(data, tau_inn=0.5)
            message = "unknown config keys: 'tau_inn'"
        else:
            config.write_text("[1, 2]")
            message = "a config is a JSON object, not [1, 2]"
        out = tmp_path / "model.json"
        argv = ["segment", "--data", str(data)] if command == "segment" else ["train", "--data", str(data), "--out", str(out)]
        assert main(argv) == 1
        want = message if fault == "missing" else f"{config}: {message}"
        assert capsys.readouterr().err == f"error: [{command}] {want}\n"
        assert not out.exists()


# The console-script scene of CI, given as a config
CI_CONFIG = {
    "scene": {"area_m": [80, 80], "bs_pos": [10, 40], "buildings": [[35, 25, 8, 30]], "grid_spacing_m": 6, "nt": 16, "nc": 16},
    "seed": 2, "template_size": [8, 8], "tau_in": 0.95, "tau_out": 0.95, "min_count": 1, "k_max": 3,
}


def test_the_cli_chain_runs_the_pipelines_stages(tmp_path, capsys):
    cfg_path, data, run = tmp_path / "config.json", tmp_path / "data", tmp_path / "run"
    cfg_path.write_text(json.dumps(CI_CONFIG))
    assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert json.loads((data / "config.json").read_text()) == check_config(CI_CONFIG)
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(run)]) == 0
    # generate writes the pipeline's dataset directory, byte for byte
    names = sorted(p.name for p in data.iterdir())
    assert names == ["adcam.bin", "cfr.bin", "config.json", "paths.csv", "positions.csv"]
    assert names == sorted(p.name for p in (run / "dataset").iterdir())
    assert all((data / n).read_bytes() == (run / "dataset" / n).read_bytes() for n in names)
    # segment segments the pipeline's training samples, in its order
    assert main(["segment", "--data", str(data)]) == 0
    with open(run / "region_map.csv", newline="") as fh:
        train_ids = [int(row["id"]) for row in csv.DictReader(fh)]
    assert len(train_ids) == 82
    assert [sid for sid, _, _ in json.loads((data / "segmentation.json").read_text())["samples"]] == train_ids
    assert (data / "region_map.csv").read_bytes() == (run / "region_map.csv").read_bytes()
    # eval scores the held-out samples alone: the report's n_test of them
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "model.json")]) == 0
    out = tmp_path / "eval.json"
    assert main(["eval", "--data", str(data), "--model", str(tmp_path / "model.json"), "--out", str(out)]) == 0
    report, pipeline_report = (json.loads(p.read_text()) for p in (out, run / "report.json"))
    assert report["n_samples"] == pipeline_report["n_test"] == 21
    samples = dio.read_dataset(data)
    held_out = [s for s in samples if s.id not in set(train_ids)]
    preds, regions = locate(dio.read_model(tmp_path / "model.json", samples), held_out)
    assert report == json.loads(json.dumps({**error_report(preds, [s.pos for s in held_out], regions), "n_samples": 21}))
    # plot writes the report's cdf as a table
    assert main(["plot", "--report", str(out), "--out", str(tmp_path / "plots")]) == 0
    with open(tmp_path / "plots" / "cdf.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["threshold_m", "fraction"] and [[float(v) for v in row] for row in rows] == report["cdf"]
    # with no segmentation.json, eval scores every sample
    every = shutil.copytree(data, tmp_path / "every", ignore=shutil.ignore_patterns("segmentation.json"))
    assert main(["eval", "--data", str(every), "--model", str(tmp_path / "model.json"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n_samples"] == len(samples) == 103
    assert capsys.readouterr().out.splitlines()[-1] == f"mean error {json.loads(out.read_text())['mean_error_m']:.3f} m over 103 samples; wrote {out}"
    # a flag that set a config value is gone
    with pytest.raises(SystemExit) as exc:
        main(["segment", "--data", str(data), "--tau-in", "0.9"])
    assert exc.value.code == 2 and "--tau-in" in capsys.readouterr().err


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
        argv = ["train", "--data", str(data), "--out", str(out)]
    else:
        argv = ["eval", "--data", str(data), "--model", str(path), "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    return path, capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_chain(chain_config, tmp_path_factory):
    """A dataset directory after generate and segment, plus a trained model."""
    root = tmp_path_factory.mktemp("chain")
    (root / "config.json").write_text(json.dumps(chain_config))
    data, model = root / "data", root / "model.json"
    assert main(["generate", "--config", str(root / "config.json"), "--out", str(data)]) == 0
    assert main(["segment", "--data", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(model)]) == 0
    return data, model


def test_a_program_fault_leaves_main_with_its_traceback(tmp_path, monkeypatch):
    # main turns a stage error, a ValueError or an OSError into an exit
    # code; any other exception is a fault of the program, not of its input
    def faulty(args):
        raise KeyError("planted")

    monkeypatch.setattr(cli, "_cmd_plot", faulty)
    with pytest.raises(KeyError, match="planted"):
        main(["plot", "--report", str(tmp_path / "report.json"), "--out", str(tmp_path / "plots")])
    assert not (tmp_path / "plots").exists()


class TestBoundaryErrors:
    def test_segment_names_both_fingerprint_files_of_other_dims(self, dataset, chain_config, tmp_path, capsys):
        # 16x16 CFRs with the 8x8 ADCAMs of another dataset of the same terminals
        _, samples = dataset
        data, other = tmp_path / "data", tmp_path / "other"
        write_samples(samples, data, check_config(chain_config))
        write_samples([dataclasses.replace(s, adcam=s.adcam[:8, :8]) for s in samples], other)
        shutil.copy(other / "adcam.bin", data / "adcam.bin")
        want = f"{data / 'cfr.bin'} holds 16x16 matrices, but {data / 'adcam.bin'} 8x8"
        with pytest.raises(ValueError, match=re.escape(want)):
            dio.read_dataset(data)
        rc = main(["segment", "--data", str(data)])
        assert rc == 1
        assert f"[segment] {want}" in capsys.readouterr().err
        assert not (data / "region_map.csv").exists()

    def test_train_names_a_founder_missing_from_the_dataset(self, trained_chain, tmp_path, capsys):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = json.loads((data / "segmentation.json").read_text())
        seg["founders"]["1"]["founder_sample_id"] = 9999
        (data / "segmentation.json").write_text(json.dumps(seg))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[train]" in err and "9999" in err

    @pytest.mark.parametrize(
        "fault",
        ["repeated id", "id not in the dataset", "entry of two", "string label", "bool label",
         "cfr_label without a founder", "cleansed row without a founder", "label beyond 64 bits",
         "negative adcam_label", "not a list", "dict", "min_count negative", "min_count float", "min_count null"],
    )
    def test_train_rejects_a_samples_entry_or_min_count_it_cannot_use(self, trained_chain, tmp_path, capsys, fault):
        seg = json.loads((trained_chain[0] / "segmentation.json").read_text())
        sid, cfr, adcam = seg["samples"][3]
        unfounded = max(map(int, seg["founders"])) + 1
        no_founder = f"sample {sid} has cfr_label {unfounded}, but no founder of category {unfounded}"
        edits, message = {
            "repeated id": ({("samples", 5, 0): sid}, f"sample {sid} is repeated"),
            "id not in the dataset": ({("samples", 3, 0): 99999}, "sample 99999 is not in the dataset"),
            "entry of two": (
                {("samples", 3): [sid, cfr]}, f"samples entry [{sid}, {cfr}] is not three integers [id, cfr_label, adcam_label]"
            ),
            "string label": ({("samples", 3, 1): str(cfr)}, f"samples entry [{sid}, '{cfr}', {adcam}] is not three integers"),
            "bool label": ({("samples", 3, 2): True}, f"samples entry [{sid}, {cfr}, True] is not three integers"),
            "cfr_label without a founder": ({("samples", 3, 1): unfounded}, no_founder),
            # its pair has one member, which min_count 1 would cleanse
            "cleansed row without a founder": ({("samples", 3, 1): unfounded, ("min_count",): 1}, no_founder),
            "label beyond 64 bits": ({("samples", 3, 1): 2**70}, f"sample {sid} has cfr_label {2**70}, but no founder"),
            "negative adcam_label": ({("samples", 3, 2): -1}, f"sample {sid} has adcam_label -1, but "),
            "not a list": ({("samples",): 3}, "samples must be a nonempty list of [id, cfr_label, adcam_label] entries"),
            "dict": ({("samples",): {str(sid): [cfr, adcam]}}, "samples must be a nonempty list of"),
            "min_count negative": ({("min_count",): -1}, "min_count is -1; it must be an integer >= 0"),
            "min_count float": ({("min_count",): 1.0}, "min_count is 1.0; it must be an integer >= 0"),
            "min_count null": ({("min_count",): None}, "min_count is None; it must be an integer >= 0"),
        }[fault]

        def edit(obj):
            for where, value in edits.items():
                _put(obj, list(where), value)

        path, err = _read_edited_routing(trained_chain, tmp_path, capsys, "train", edit)
        assert err.startswith(f"error: [train] {path}: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("fault", ["old format", "not an object", "routing state only"])
    def test_train_rejects_a_segmentation_file_of_the_old_format(self, trained_chain, tmp_path, capsys, fault):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = json.loads((data / "segmentation.json").read_text())
        # the format before the routing state had one codec: bare founder ids, one template size
        old = {k: v for k, v in seg.items() if k != "format"}
        old["founders"] = {c: f["founder_sample_id"] for c, f in seg["founders"].items()}
        old["template_size"] = [8, 8]
        # and the format before the labels moved in from the region map
        routing = {k: v for k, v in seg.items() if k not in ("samples", "min_count")}
        (data / "segmentation.json").write_text(json.dumps({"old format": old, "not an object": [old]}.get(fault, routing)))
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[train]" in err and str(data / "segmentation.json") in err and "amdnloc segment" in err
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["no samples", "every sample cleansed"])
    def test_train_rejects_a_segmentation_with_no_retained_sample(self, trained_chain, tmp_path, capsys, fault):
        n = len(json.loads((trained_chain[0] / "segmentation.json").read_text())["samples"])
        if fault == "no samples":
            where, value, want = ["samples"], [], "samples must be a nonempty list"
        else:  # no (cfr, adcam) pair has more than n members
            where, value, want = ["min_count"], n, f"min_count={n} removes every sample"
        path, err = _read_edited_routing(trained_chain, tmp_path, capsys, "train", lambda obj: _put(obj, where, value))
        assert err.startswith(f"error: [train] {path}: {want}") and "Traceback" not in err

    def test_train_rejects_an_adcam_label_without_a_centroid(self, trained_chain, tmp_path, capsys):
        seg = json.loads((trained_chain[0] / "segmentation.json").read_text())
        sid, k = seg["samples"][2][0], len(seg["adcam_centroids"])
        path, err = _read_edited_routing(trained_chain, tmp_path, capsys, "train", lambda obj: _put(obj, ["samples", 2, 2], k))
        assert err == f"error: [train] {path}: sample {sid} has adcam_label {k}, but {k} centroids\n"

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

    @pytest.mark.parametrize(
        "option",
        [["--path-select", "strongest"], ["--template", "8x8"], ["--tau-in", "0.9"], ["--tau-out", "0.9"],
         ["--min-count", "1"], ["--k-max", "3"], ["--seed", "3"]],
        ids=lambda option: option[0],
    )
    def test_segment_has_no_config_option(self, trained_chain, tmp_path, capsys, option):
        # every setting comes from the dataset's config.json
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        seg = (data / "segmentation.json").read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--data", str(data), *option])
        assert exc.value.code == 2  # argparse's exit for an unknown option
        assert option[0] in capsys.readouterr().err
        assert (data / "segmentation.json").read_bytes() == seg

    @pytest.mark.parametrize("value", ["first_arrival", "loudest"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_path_select_other_than_strongest_is_rejected(self, trained_chain, tmp_path, capsys, command, value):
        # segmentation.json for train, model.json for eval
        path, err = _read_edited_routing(
            trained_chain, tmp_path, capsys, command, lambda obj: _put(obj, ["path_select"], value)
        )
        assert f"error: [{command}] {path}: path_select is {value!r}; it must be one of 'strongest'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "extra",
        [{"ridge_lambda": 0.001}, {"method": "ridge_closed_form"}, {"method": "sgd"}, {"bias": 0.0},
         {"bias": 0.0, "method": "ridge_closed_form"}],
        ids=["ridge_lambda", "method", "sgd", "made-up", "two"],
    )
    def test_eval_rejects_a_key_that_write_model_does_not_write(self, trained_chain, tmp_path, capsys, extra):
        # model.json holds what locate reads: a version-2 file with the
        # ridge_lambda or method of version 1, or any other key, is
        # rejected; closed-form ridge is the one fit, and no method is named
        data, model_path = trained_chain
        obj = {**json.loads(model_path.read_text()), **extra}
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        rc = main(["eval", "--data", str(data), "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: [eval] {bad}: unknown model keys: {', '.join(repr(k) for k in sorted(extra))}\n"
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
            "pair-of-two", "pair-float", "nt-string", "centroid-row-of-3",
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
        assert main(["train", "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [train] {data / 'segmentation.json'}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("version", [99, 0, 1, "2", 2.0, True, None, "missing"])
    def test_eval_rejects_a_model_of_another_version(self, trained_chain, tmp_path, capsys, version):
        data, model_path = trained_chain
        obj = json.loads(model_path.read_text())
        assert obj["version"] == dio.MODEL_VERSION == 2
        if version == "missing":
            del obj["version"]
        else:
            obj["version"] = version
        if version == 1:  # as a file of version 1 holds it: the version is named first
            obj["ridge_lambda"] = 0.001
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj))
        rc = main(["eval", "--data", str(data), "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        found = "no version" if version == "missing" else f"version {version!r}"
        assert f"[eval] {bad}: a model file of {found}; this release reads version 2" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_founders_of_mixed_sizes_name_their_file(self, trained_chain, tmp_path, capsys, command):
        def edit(obj):
            assert len(obj["founders"]) >= 2
            obj["founders"][min(obj["founders"])]["size"] = [6, 6]

        path, err = _read_edited_routing(trained_chain, tmp_path, capsys, command, edit)
        assert f"[{command}] {path}: founders of more than one shape: [(6, 6), (8, 8)]" in err

    @pytest.mark.parametrize("content", [b"nope", b"AMDN\x01\x00\x00\x00\xff\xfe"], ids=["text", "binary"])
    @pytest.mark.parametrize("command", ["generate", "segment", "train", "eval", "plot", "pipeline"])
    def test_a_file_that_is_not_json_names_itself(self, trained_chain, tmp_path, capsys, command, content):
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        path = {"segment": data / "config.json", "train": data / "segmentation.json"}.get(command, tmp_path / "input.json")
        path.write_bytes(content)
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--config", str(path), "--out", str(out)],
            "segment": ["segment", "--data", str(data)],
            "train": ["train", "--data", str(data), "--out", str(out)],
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

    @pytest.mark.parametrize(
        "column, value, reason",
        [(3, "4.0", "aod must lie in (0, pi), got 4.0"), (7, "nan", "pathloss_db must be finite and >= 0, got nan")],
        ids=["aod_rad", "pathloss_db"],
    )
    def test_eval_names_the_paths_file_and_row_it_rejects(self, trained_chain, tmp_path, capsys, column, value, reason):
        # PathRecord checks each value once; read_dataset names the file and the id
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        rejected = []

        def edit(rows):
            rows[1][column] = value
            rejected.append(rows[1][0])
            return rows

        _rewrite_csv(data / "paths.csv", edit)
        rc = main(["eval", "--data", str(data), "--model", str(trained_chain[1]), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: [eval] {data / 'paths.csv'}: a path of id {rejected[0]} is rejected: {reason}\n"
        )


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

    @pytest.mark.parametrize(
        "errors", [[1.0], {"x": 1.0}, {"1.5": 1.0}, {"01": 1.0}, {"-0": 1.0}, {"0": "2.5"}, {"0": None}]
    )
    def test_per_region_errors_not_from_integer_ids_to_numbers_is_a_plot_error(self, tmp_path, capsys, errors):
        report = {"cdf": [[1.0, 0.5]], "per_region_errors": errors}
        assert "per_region_errors must be an object from integer region ids to numbers" in self._plot(tmp_path, capsys, report)


class TestCsvFields:
    """A CSV field that does not parse, or a missing column, is an error
    that names the file (and the line): exit 1, nothing written."""

    @staticmethod
    def _run(data, tmp_path, capsys) -> str:
        out = tmp_path / "out.json"
        assert main(["eval", "--data", str(data), "--model", str(data.parent / "model.json"), "--out", str(out)]) == 1
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
        err = self._run(data, tmp_path, capsys)
        assert err == f"error: [eval] {data / 'positions.csv'}: line 4: {column} is {value!r}; it must be {want}\n"

    @pytest.mark.parametrize("name, column", [("positions.csv", "is_los"), ("paths.csv", "delay_samples")])
    def test_a_missing_column_names_the_file(self, data, tmp_path, capsys, name, column):
        def drop(rows):
            k = rows[0].index(column)
            return [row[:k] + row[k + 1 :] for row in rows]

        self._rewrite(data / name, drop)
        err = self._run(data, tmp_path, capsys)
        assert err == f"error: [eval] {data / name}: no {column} column in the header\n"


class TestRegionMap:
    @staticmethod
    def _samples(positions, ids=None):
        return [
            Sample(id=i, pos=p, paths=[], is_los=True,
                   cfr=np.zeros((2, 2), dtype=complex), adcam=np.zeros((2, 2)))
            for i, p in zip(ids or range(len(positions)), positions)
        ]

    def test_roundtrip(self, tmp_path):
        from amdnloc.fusion import cleanse, fuse_labels

        labels = cleanse(fuse_labels([3, 0, 3, 1, 3, 0], [0, 2, 0, 0, 0, 2]), 1)
        assert (labels.fused_count, labels.pair_to_fused) == (2, {(0, 2): 0, (3, 0): 1})
        samples = self._samples([(float(i), 2.0 * i) for i in range(6)], ids=[7, 3, 11, 5, 2, 9])
        dio.write_region_map(tmp_path / "m.csv", tmp_path / "m.ppm", samples, labels)
        with open(tmp_path / "m.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["id", "cfr_label", "adcam_label", "fused_label", "retained"]
        # sample 5's pair (1, 0) has one member, so min_count 1 cleanses it
        assert [[int(field) for field in row] for row in rows] == [
            [7, 3, 0, 1, 1], [3, 0, 2, 0, 1], [11, 3, 0, 1, 1], [5, 1, 0, -1, 0], [2, 3, 0, 1, 1], [9, 0, 2, 0, 1],
        ]

    def test_single_sample_one_row(self, tmp_path):
        from amdnloc.fusion import fuse_labels

        samples = self._samples([(5.0, 5.0)])
        labels = fuse_labels([0], [0])
        dio.write_region_map(tmp_path / "m.csv", tmp_path / "m.ppm", samples, labels)
        rows = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + 1

    def test_two_labels_two_colors(self, tmp_path):
        from amdnloc.fusion import fuse_labels

        samples = self._samples([(2.0, 2.0), (30.0, 30.0)])
        labels = fuse_labels([0, 1], [0, 0])
        dio.write_region_map(tmp_path / "m.csv", tmp_path / "m.ppm", samples, labels)
        raw = (tmp_path / "m.ppm").read_bytes()
        assert raw.startswith(b"P6")
        header, body = raw.split(b"\n", 3)[:3], raw.split(b"\n", 3)[3]
        pixels = {tuple(body[i : i + 3]) for i in range(0, len(body), 3)}
        # background black plus two distinct label colors
        non_black = pixels - {(0, 0, 0)}
        assert len(non_black) == 2

    def test_removed_samples_black(self, tmp_path):
        from amdnloc.fusion import fuse_labels

        samples = self._samples([(2.0, 2.0), (30.0, 30.0)])
        labels = fuse_labels([0, 1], [0, 0])
        labels.fused_labels[1] = -1  # cleansed
        dio.write_region_map(tmp_path / "m.csv", tmp_path / "m.ppm", samples, labels)
        body = (tmp_path / "m.ppm").read_bytes().split(b"\n", 3)[3]
        pixels = {tuple(body[i : i + 3]) for i in range(0, len(body), 3)}
        assert len(pixels - {(0, 0, 0)}) == 1


class TestTrainOptions:
    def test_removed_fit_options_are_unknown(self, trained_chain, tmp_path, capsys):
        data = trained_chain[0]
        out = tmp_path / "model.json"
        for option in (["--method", "sgd"], ["--method", "ridge"], ["--seed", "3"], ["--ridge-lambda", "30"]):
            with pytest.raises(SystemExit) as exc:
                main(["train", "--data", str(data), *option, "--out", str(out)])
            assert exc.value.code == 2  # argparse's exit for an unknown option
            assert option[0] in capsys.readouterr().err
        assert not out.exists()

    def test_ridge_lambda_reaches_train(self, trained_chain, tmp_path):
        from amdnloc.localizer import train

        default_model = trained_chain[1]
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        _edit_config(data, ridge_lambda=30)
        out = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--out", str(out),
        ]) == 0
        samples = dio.read_dataset(data)
        train_samples, segmentation = dio.read_segmentation(data / "segmentation.json", samples)
        model = train(train_samples, segmentation, ridge_lambda=30)
        written = json.loads(out.read_text())
        assert "ridge_lambda" not in written
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
    return train(samples, Segmentation(regions, founders, cm.centroids, std), 1e-3)


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

    def test_model_file_holds_what_locate_reads(self, trained_model, tmp_path):
        path = tmp_path / "model.json"
        dio.write_model(path, trained_model)
        obj = json.loads(path.read_text())
        assert sorted(obj) == [
            "adcam_centroids", "adcam_standardizer", "feature_standardizer", "format", "founders", "nc", "nt",
            "pair_to_fused", "path_select", "region_feature_centroids", "version", "weights",
        ]
        assert (obj["format"], obj["version"]) == ("amdnloc-model", dio.MODEL_VERSION) == ("amdnloc-model", 2)

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


@pytest.fixture(scope="module")
def segmented(dataset):
    """The dataset's samples and their segmentation, of several founders and clusters."""
    from amdnloc.evaluate import default_config, segment

    _, samples = dataset
    cfg = {**default_config(), "tau_in": 0.95, "tau_out": 0.95, "template_size": (8, 8), "min_count": 0, "k_max": 3}
    return samples, segment(samples, cfg, magnitude_images(samples))


class TestSegmentationRecord:
    @pytest.mark.parametrize("single_region", [False, True])
    def test_segmentation_roundtrip(self, dataset, tmp_path, single_region):
        from amdnloc.evaluate import default_config, segment

        _, samples = dataset
        cfg = {
            **default_config(), "tau_in": 0.95, "tau_out": 0.95, "template_size": (8, 8), "min_count": 0,
            "k_max": 3, "single_region": single_region,
        }
        seg = segment(samples, cfg, magnitude_images(samples))
        ids = [s.id for s in samples]
        dio.write_segmentation(tmp_path / "segmentation.json", seg, ids, cfg["min_count"])
        obj = json.loads((tmp_path / "segmentation.json").read_text())
        keys = ["adcam_centroids", "adcam_standardizer", "format", "founders", "min_count", "path_select", "samples"]
        assert sorted(obj) == keys
        assert obj["format"] == "amdnloc-segmentation" and obj["path_select"] == "strongest" and obj["min_count"] == 0
        labels = zip(seg.regions.cfr_labels.tolist(), seg.regions.adcam_labels.tolist())
        assert obj["samples"] == [[sid, c, a] for sid, (c, a) in zip(ids, labels)]
        read, again = dio.read_segmentation(tmp_path / "segmentation.json", samples)
        assert [s.id for s in read] == ids
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

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_drawn_labels_roundtrip(self, segmented, data):
        from amdnloc.fusion import cleanse, fuse_labels

        samples, seg = segmented
        # a subset of the samples in a drawn order, labelled from a few
        # founders and clusters: one of each makes a single region
        ids = data.draw(st.permutations([s.id for s in samples]), label="order")
        ids = ids[: data.draw(st.integers(1, len(ids)), label="count")]

        def labels(values, name):
            pool = data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True), label=f"{name} pool")
            return data.draw(st.lists(st.sampled_from(pool), min_size=len(ids), max_size=len(ids)), label=name)

        fused = fuse_labels(labels(sorted(seg.founders), "cfr"), labels(range(len(seg.adcam_centroids)), "adcam"))
        largest = int(np.bincount(fused.fused_labels).max())
        # min_count 0 keeps every row; a larger one cleanses the smaller pairs
        min_count = data.draw(st.integers(0, largest - 1), label="min_count")
        regions = cleanse(fused, min_count)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "segmentation.json"
            dio.write_segmentation(path, dataclasses.replace(seg, regions=regions), ids, min_count)
            read, again = dio.read_segmentation(path, samples)
            assert [s.id for s in read] == ids
            for name in ("cfr_labels", "adcam_labels", "fused_labels"):
                assert np.array_equal(getattr(again.regions, name), getattr(regions, name))
            assert again.regions.pair_to_fused == regions.pair_to_fused
            # a min_count edited by hand to cleanse every sample
            obj = json.loads(path.read_text())
            obj["min_count"] = largest
            path.write_text(json.dumps(obj))
            with pytest.raises(ValueError, match=re.escape(f"{path}: min_count={largest} removes every sample")):
                dio.read_segmentation(path, samples)

    def test_cli_segment_and_train_write_the_model_of_the_library_calls(self, trained_chain, tmp_path):
        from amdnloc.localizer import train

        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        # the seed draws both the split and the clusters
        config = _edit_config(data, tau_out=0.93, min_count=1, k_max=3, seed=4, ridge_lambda=0.5)
        assert main(["segment", "--data", str(data)]) == 0
        out = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--out", str(out)]) == 0
        cfg = check_config(json.loads(config.read_text()))
        train_samples, _ = split(dio.read_dataset(data), cfg)
        dio.write_model(tmp_path / "library.json", train(train_samples, segment(train_samples, cfg, magnitude_images(train_samples)), 0.5))
        assert out.read_bytes() == (tmp_path / "library.json").read_bytes()
        # segmentation.json holds model.json's routing state, key for key
        seg, model = (json.loads(p.read_text()) for p in (data / "segmentation.json", out))
        routing = set(seg) - {"format", "samples", "min_count"}
        assert {k: seg[k] for k in routing} == {k: model[k] for k in routing}

    def test_train_reads_no_region_map(self, trained_chain, tmp_path):
        # region_map.csv and region_map.ppm are exports: train fits the same model without them
        data = shutil.copytree(trained_chain[0], tmp_path / "data")
        for name in ("region_map.csv", "region_map.ppm"):
            (data / name).unlink()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "model.json")]) == 0
        assert (tmp_path / "model.json").read_bytes() == trained_chain[1].read_bytes()

    def test_train_fits_the_labels_of_the_last_segment_run(self, tmp_path, capsys):
        from amdnloc.localizer import train

        # two segment runs that differ only in their k_max segment the same
        # training samples, keep the founders and move the centroids; the
        # labels train fits are the last run's
        scene = {"area_m": [120, 120], "bs_pos": [60, 2], "buildings": [[30, 30, 18, 20], [70, 60, 20, 15]],
                 "grid_spacing_m": 5, "nt": 16, "nc": 16}
        config = {"scene": scene, "seed": 2, "template_size": [8, 8], "tau_in": 0.95, "tau_out": 0.95, "min_count": 1}
        (tmp_path / "config.json").write_text(json.dumps(config))
        data, out = tmp_path / "data", tmp_path / "model.json"
        assert main(["generate", "--config", str(tmp_path / "config.json"), "--out", str(data)]) == 0
        runs, k_maxes = [], (2, 6)  # select_k picks 2 and 3 clusters
        for k_max in k_maxes:
            _edit_config(data, k_max=k_max)
            assert main(["segment", "--data", str(data)]) == 0
            runs.append(json.loads((data / "segmentation.json").read_text()))
        assert [[sid for sid, _, _ in run["samples"]] for run in runs] == [[sid for sid, _, _ in runs[0]["samples"]]] * 2
        assert runs[0]["founders"] == runs[1]["founders"] and runs[0]["adcam_centroids"] != runs[1]["adcam_centroids"]
        assert main(["train", "--data", str(data), "--out", str(out)]) == 0
        cfg = check_config(config)
        train_samples, _ = split(dio.read_dataset(data), cfg)
        fits = [train(train_samples, segment(train_samples, {**cfg, "k_max": k_max}, magnitude_images(train_samples)), cfg["ridge_lambda"]) for k_max in k_maxes]
        written = {int(r): np.array(w) for r, w in json.loads(out.read_text())["weights"].items()}
        assert sorted(written) == sorted(fits[1].weights)
        assert all(written[r].tobytes() == w.tobytes() for r, w in fits[1].weights.items())
        for k_max, fit in zip(k_maxes, fits):
            dio.write_model(tmp_path / f"library_{k_max}.json", fit)
        assert out.read_bytes() == (tmp_path / f"library_{k_maxes[1]}.json").read_bytes()
        # the first run clusters otherwise, so its model maps the
        # (cfr, adcam) pairs to other regions
        assert out.read_bytes() != (tmp_path / f"library_{k_maxes[0]}.json").read_bytes()
        # and the region map option is gone: an unknown option exits 2
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--regions", "x", "--out", str(tmp_path / "other.json")])
        assert exc.value.code == 2 and "--regions" in capsys.readouterr().err
        assert not (tmp_path / "other.json").exists()
