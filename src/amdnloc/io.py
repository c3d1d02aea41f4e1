"""Dataset and model persistence: every artifact file is written here.

``write_json`` writes each JSON file (config.json, segmentation.json,
model.json and report.json) and ``write_csv`` each CSV file. A dataset
directory holds positions.csv, paths.csv, cfr.bin, adcam.bin and
config.json, the config of its samples; ``write_chunks`` writes it as
its fingerprint chunks pass through, every matrix of the one (nt, nc)
its caller gives. The .bin files start with the magic bytes "AMDN"
followed by little-endian u32 fields (version, count, nt, nc) and then
per-sample row-major entries of the file's ``_BIN_DTYPES`` dtype:
little-endian complex64 (interleaved float32 re/im) for the CFR file
and float32 for the angle-delay file.

segmentation.json, the one file segment hands to train, lists the
samples eval does not score; region_map.csv and .ppm are exports no
command reads.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import re
from pathlib import Path

import numpy as np

from .channel import PathRecord, render_image
from .fusion import RegionLabels, Segmentation, cleanse, fuse_labels
from .localizer import FeatureConfig, LocalizationModel
from .scenegen import _COUNT, _SEED, Sample, _check, _is_int, _one_of
from .segmentation_adcam import _PATH_SELECT, Standardizer
from .segmentation_cfr import extract_templates

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "MODEL_VERSION",
    "read_json",
    "write_json",
    "write_csv",
    "write_chunks",
    "read_dataset",
    "write_region_map",
    "write_segmentation",
    "read_segmentation",
    "write_model",
    "read_model",
]

MAGIC = b"AMDN"
FORMAT_VERSION = 1  # of the .bin files
MODEL_VERSION = 2  # of model.json
# the payload dtype of each .bin file, in the order of a chunk's stacks
_BIN_DTYPES = {"cfr.bin": "<c8", "adcam.bin": "<f4"}
_CELL_PX = 4  # meters per pixel of the region-map raster, along each axis


def read_json(path: str | Path):
    """The value a JSON file holds; a file that is not UTF-8 JSON is a
    ``ValueError`` that names it."""
    try:
        return json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValueError(f"{path} is not a JSON file: {e}") from None


def write_json(path: str | Path, obj):
    """A JSON file of ``obj``, its keys sorted and indented by 1."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1))


def write_csv(path: str | Path, header: list[str], rows):
    """A CSV file of the ``header`` row and then ``rows``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# CSV column rules: (what a field must be, its parser)
_INT = ("an integer", int)
_NUMBER = ("a number", float)
_BIT = ("0 or 1", {"0": False, "1": True}.__getitem__)
# each dataset CSV's columns, in order, with their rules
_POSITIONS = {"id": _INT, "x": _NUMBER, "y": _NUMBER, "is_los": _BIT}
_PATHS = {
    "id": _INT, "path_id": _INT, "aoa_rad": _NUMBER, "aod_rad": _NUMBER,
    "gain_re": _NUMBER, "gain_im": _NUMBER, "delay_samples": _INT, "pathloss_db": _NUMBER,
}


def _csv_rows(path, columns: dict):
    """Each row of a CSV file as a dict of its ``columns``, every field
    parsed by its column's rule. A column the header lacks, or a field
    that does not parse, is a ``ValueError`` that names the file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: no {', '.join(missing)} column in the header")
        for row in reader:
            parsed = {}
            for key, (want, parse) in columns.items():
                try:
                    parsed[key] = parse(row[key])
                except (ValueError, TypeError, KeyError):
                    raise ValueError(f"{path}: line {reader.line_num}: {key} is {row[key]!r}; it must be {want}") from None
            yield parsed


def _read_bin(path: Path, dtype) -> tuple[tuple[int, int], np.ndarray]:
    """The (nt, nc) of the header and the samples of a .bin file whose
    payload is of ``dtype``, one of ``_BIN_DTYPES``, as one (count, nt,
    nc) float64 or complex128 stack, each stored value widened exactly."""
    raw = Path(path).read_bytes()
    if len(raw) < 20:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 20-byte header")
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic bytes {raw[:4]!r}")
    version, count, nt, nc = (int(v) for v in np.frombuffer(raw, dtype="<u4", count=4, offset=4))
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if nt < 1 or nc < 1:
        raise ValueError(f"{path}: a header of {nt}x{nc} matrices; nt and nc must be >= 1")
    size = np.dtype(dtype).itemsize * count * nt * nc
    if len(raw) - 20 != size:
        raise ValueError(f"{path}: payload of {len(raw) - 20} bytes, but {count} samples of {nt}x{nc} take {size}")
    data = np.frombuffer(raw, dtype=dtype, offset=20)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite values in the payload")
    return (nt, nc), data.reshape(count, nt, nc).astype(np.promote_types(dtype, np.float64))


def write_chunks(out_dir: str | Path, terminals, shape: tuple[int, int], config: dict | None, chunks):
    """Each ``(rows, cfr, adcam)`` chunk of the dataset of ``terminals``
    (or samples), written to the dataset directory ``out_dir`` and then
    yielded, so no writer holds every sample's matrices.

    Before the first chunk it removes segmentation.json and region_map.csv
    and .ppm, made from the samples of the dataset it replaces, writes
    config.json when given a config, positions.csv and paths.csv, and
    starts cfr.bin and adcam.bin with headers of every terminal and the
    dataset's one (nt, nc) ``shape``. Each chunk's stacks are appended in
    their ``_BIN_DTYPES``. A stack that is not exactly (n, nt, nc), n the
    CFR stack's length, is a ``ValueError`` that names its file; rows past
    the terminal count, or chunks that end before every terminal's rows,
    one that names the directory. On any exception, closing the generator
    early included, the files and directories it made are removed.
    """
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]
    paths, rows, count = [], 0, len(terminals)

    def made_file(path: Path) -> Path:
        paths.append(path)
        return path

    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in ("segmentation.json", "region_map.csv", "region_map.ppm"):
            (out / name).unlink(missing_ok=True)
        if config is not None:
            write_json(made_file(out / "config.json"), config)
        positions = ([t.id, repr(float(t.pos[0])), repr(float(t.pos[1])), int(t.is_los)] for t in terminals)
        write_csv(made_file(out / "positions.csv"), list(_POSITIONS), positions)
        path_rows = (
            [t.id, pid, repr(float(p.aoa)), repr(float(p.aod)), repr(float(p.gain.real)), repr(float(p.gain.imag)), int(p.delay_samples), repr(float(p.pathloss_db))]
            for t in terminals for pid, p in enumerate(t.paths)
        )
        write_csv(made_file(out / "paths.csv"), list(_PATHS), path_rows)
        with contextlib.ExitStack() as files:
            bins = [files.enter_context(open(made_file(out / name), "wb")) for name in _BIN_DTYPES]
            for fh in bins:
                fh.write(MAGIC + np.array([FORMAT_VERSION, count, *shape], dtype="<u4").tobytes())
            for chunk in chunks:
                data = [np.asarray(stack, dtype=dtype, order="C") for stack, dtype in zip(chunk[1:], _BIN_DTYPES.values())]
                want = (len(data[0]) if data[0].ndim else 0, *shape)
                for fh, stack in zip(bins, data):
                    if stack.shape != want:
                        raise ValueError(f"{fh.name}: a chunk of shape {stack.shape}, not {want}")
                if rows + want[0] > count:
                    raise ValueError(f"{out}: a chunk of {want[0]} rows after {rows} of its {count} terminals")
                rows += want[0]
                for fh, stack in zip(bins, data):
                    fh.write(stack)  # C-ordered, so the buffer protocol writes it with no bytes copy
                del data, stack  # the cast copies, freed before the chunk's consumer runs
                yield chunk
        if rows < count:
            raise ValueError(f"{out}: the chunks ended after {rows} of its {count} terminals' rows")
    except BaseException:
        for path in paths:
            if not path.is_dir():  # a directory in a file's place is not the writer's
                path.unlink(missing_ok=True)
        for d in made:
            d.rmdir()
        raise


def read_dataset(data_dir: str | Path) -> list[Sample]:
    """Samples in positions.csv order, each holding its row of one CFR
    stack and one ADCAM stack; the files must agree on the samples they
    hold, cfr.bin and adcam.bin on the matrix shape (nt, nc), every CSV
    field must parse (``_csv_rows``), positions must be finite, each path
    a ``PathRecord``, ``is_los`` 0 or 1 and ids unique."""
    d = Path(data_dir)
    (cfr_dims, cfrs), (adcam_dims, adcams) = (_read_bin(d / name, dtype) for name, dtype in _BIN_DTYPES.items())
    if cfr_dims != adcam_dims:
        raise ValueError(
            f"{d / 'cfr.bin'} holds {cfr_dims[0]}x{cfr_dims[1]} matrices, "
            f"but {d / 'adcam.bin'} {adcam_dims[0]}x{adcam_dims[1]}"
        )
    paths_by_id: dict[int, list[PathRecord]] = {}
    for row in _csv_rows(d / "paths.csv", _PATHS):
        try:
            path = PathRecord(
                aoa=row["aoa_rad"], aod=row["aod_rad"], gain=complex(row["gain_re"], row["gain_im"]),
                delay_samples=row["delay_samples"], pathloss_db=row["pathloss_db"],
            )
        except ValueError as e:
            raise ValueError(f"{d / 'paths.csv'}: a path of id {row['id']} is rejected: {e}") from None
        paths_by_id.setdefault(row["id"], []).append(path)
    rows = list(_csv_rows(d / "positions.csv", _POSITIONS))
    if not len(rows) == len(cfrs) == len(adcams):
        raise ValueError(
            f"{d / 'positions.csv'}: {len(rows)} rows, but cfr.bin holds {len(cfrs)} "
            f"and adcam.bin {len(adcams)} samples"
        )
    samples: dict[int, Sample] = {}
    for row, cfr, adcam in zip(rows, cfrs, adcams):
        sid, pos = row["id"], (row["x"], row["y"])
        if not all(map(math.isfinite, pos)):
            raise ValueError(f"{d / 'positions.csv'}: sample {sid} has a non-finite position {pos}")
        if sid in samples:
            raise ValueError(f"{d / 'positions.csv'}: id {sid} is repeated")
        samples[sid] = Sample(id=sid, pos=pos, paths=paths_by_id.get(sid, []), is_los=row["is_los"], cfr=cfr, adcam=adcam)
    unknown = sorted(set(paths_by_id) - set(samples))
    if unknown:
        raise ValueError(f"{d / 'paths.csv'}: {len(unknown)} ids not in positions.csv, such as {unknown[:5]}")
    return list(samples.values())


def write_region_map(csv_path: str | Path, ppm_path: str | Path, samples, labels: RegionLabels):
    """The region map of ``samples``, in order: a CSV of each sample's id
    and labels, and a binary PPM raster of their positions, one color per
    fused label, drawn from a generator seeded by it, and black for a
    cleansed sample."""
    columns = (labels.cfr_labels, labels.adcam_labels, labels.fused_labels, labels.retained.astype(int))
    rows = zip([s.id for s in samples], *(c.tolist() for c in columns))
    write_csv(csv_path, ["id", "cfr_label", "adcam_label", "fused_label", "retained"], rows)
    pos = np.array([s.pos for s in samples], dtype=float).reshape(-1, 2)
    w, h = (int(np.ceil(v.max())) + 1 if v.size else 1 for v in pos.T)
    gw, gh = max(1, w // _CELL_PX), max(1, h // _CELL_PX)
    img = np.zeros((gh, gw, 3), dtype=np.uint8)
    labs = labels.fused_labels.tolist()
    palette = {lab: np.random.default_rng(lab + 12345).integers(40, 256, size=3) if lab >= 0 else 0 for lab in set(labs)}
    for s, lab in zip(samples, labs):
        gx = min(int(s.pos[0] / w * gw), gw - 1)
        gy = min(int(s.pos[1] / h * gh), gh - 1)
        img[gh - 1 - gy, gx] = palette[lab]
    Path(ppm_path).write_bytes(f"P6\n{gw} {gh}\n255\n".encode() + img.tobytes())


def _is_id(key: str) -> bool:
    """Whether a JSON object key is an integer id as ``str`` writes it."""
    return re.fullmatch(r"0|-?[1-9][0-9]*", key) is not None


def _by_id(path, key: str, obj) -> list[tuple[int, object]]:
    """The entries of a nonempty object keyed by integer ids, each id
    written as ``str`` writes it, in ascending id order; else a
    ``ValueError`` that names the file and the key."""
    if not (isinstance(obj, dict) and obj):
        raise ValueError(f"{path}: {key} must be a nonempty object keyed by integer ids")
    for k in obj:
        if not _is_id(k):
            raise ValueError(f"{path}: {key} key {k!r} is not an integer")
    return sorted((int(k), v) for k, v in obj.items())


def _std_to_json(s: Standardizer) -> dict:
    return {"mean": s.mean.tolist(), "scale": s.scale.tolist()}


def _array(path, key: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape``, every entry finite, where
    ``None`` in ``shape`` is any length >= 1; else a ``ValueError`` that
    names the file and the key."""
    try:
        arr = np.array(value)
    except ValueError:  # lists of unequal lengths
        arr = np.array(None)
    fits = arr.ndim == len(shape) and all(n == want or want is None and n >= 1 for n, want in zip(arr.shape, shape))
    if not (fits and arr.dtype.kind in "iuf" and np.isfinite(arr).all()):
        dims = " x ".join("k" if n is None else str(n) for n in shape)
        raise ValueError(f"{path}: {key} must be {dims} finite numbers")
    return arr.astype(float)


def _std_from_json(path, key: str, obj, length: int) -> Standardizer:
    """A standardizer of ``length`` dims: finite means and scales > 0."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {key} must be an object with a mean and a scale")
    mean = _array(path, f"{key} mean", obj.get("mean"), (length,))
    scale = _array(path, f"{key} scale", obj.get("scale"), (length,))
    if not np.all(scale > 0):
        raise ValueError(f"{path}: {key} scale must be > 0")
    return Standardizer(mean=mean, scale=scale)


def _routing_to_json(state: Segmentation | LocalizationModel) -> dict:
    """The routing state, the keys segmentation.json and model.json share."""
    return {
        "path_select": _PATH_SELECT,
        "founders": {str(c): {"founder_sample_id": p.founder_id, "size": list(p.size)} for c, p in state.founders.items()},
        "adcam_centroids": state.adcam_centroids.tolist(),
        "adcam_standardizer": _std_to_json(state.adcam_standardizer),
    }


def _routing_from_json(path: str | Path, obj: dict, by_id: dict[int, Sample]) -> dict:
    """The routing fields of a ``Segmentation`` or ``LocalizationModel``,
    founder templates re-cut in ascending category order: the trained
    model's order, by which routing breaks ties. ``path_select`` must be
    ``_PATH_SELECT``, ``adcam_centroids`` k >= 1 rows of the
    four ``path_descriptor`` values and ``adcam_standardizer`` four
    values, all finite and its scales > 0. ``founders`` is read by
    ``_by_id``, its templates of one size that fits the images."""
    _check({"path_select": _one_of([_PATH_SELECT])}, {"path_select": obj.get("path_select")}, f"{path}:")
    founders = {}
    for c, f in _by_id(path, "founders", obj.get("founders")):
        shaped = isinstance(f, dict) and isinstance(f.get("size"), list) and len(f["size"]) == 2
        if not (shaped and all(map(_is_int, (f.get("founder_sample_id"), *f["size"])))):
            raise ValueError(
                f"{path}: the founder of category {c}, {f!r}, is not an object with an integer founder_sample_id and a size of two integers"
            )
        sid = f["founder_sample_id"]
        if sid not in by_id:
            raise ValueError(f"{path}: founder sample {sid} of category {c} is not in the dataset")
        img = render_image(by_id[sid].cfr, "cfr_magnitude")
        try:
            founders[c] = extract_templates(img, tuple(f["size"]), founder_id=sid)
        except ValueError as e:  # a size below 1 or larger than the images
            raise ValueError(f"{path}: the founder of category {c}, {f!r}, does not fit the dataset: {e}") from None
    sizes = {p.size for p in founders.values()}
    if len(sizes) > 1:
        raise ValueError(f"{path}: founders of more than one shape: {sorted(sizes)}")
    return {
        "founders": founders,
        "adcam_centroids": _array(path, "adcam_centroids", obj.get("adcam_centroids"), (None, 4)),
        "adcam_standardizer": _std_from_json(path, "adcam_standardizer", obj.get("adcam_standardizer"), 4),
    }


def write_segmentation(path: str | Path, segmentation: Segmentation, sample_ids, min_count: int):
    """segmentation.json: the routing state, the segmented samples' ids
    with their CFR and cluster labels, in order, and the ``min_count``
    their fused labels were cleansed at."""
    labels = (segmentation.regions.cfr_labels.tolist(), segmentation.regions.adcam_labels.tolist())
    obj = {
        "format": "amdnloc-segmentation",
        **_routing_to_json(segmentation),
        "samples": list(zip(sample_ids, *labels)),
        "min_count": min_count,
    }
    write_json(path, obj)


def read_segmentation(path: str | Path, samples: list[Sample]) -> tuple[list[Sample], Segmentation]:
    """The segmented samples, in the file's order, and their
    segmentation, its founder templates re-cut from ``samples`` and its
    regions ``cleanse(fuse_labels(cfr, adcam), min_count)``, as
    ``evaluate.segment`` computed them. ``samples`` is a nonempty list
    of [id, cfr_label, adcam_label] integers, each id unique and in the
    dataset, each label a founder's category and a centroid's index, as
    segment gives every sample; ``min_count`` is an integer >= 0 that
    leaves a region. Anything else is a ``ValueError`` that names the
    file."""
    obj = read_json(path)
    if not (isinstance(obj, dict) and obj.get("format") == "amdnloc-segmentation" and "samples" in obj):
        raise ValueError(f"{path}: not a segmentation file of this version; run amdnloc segment again")
    rows = obj["samples"]
    if not (isinstance(rows, list) and rows):
        raise ValueError(f"{path}: samples must be a nonempty list of [id, cfr_label, adcam_label] entries")
    _check({"min_count": _SEED}, {"min_count": obj.get("min_count")}, f"{path}:")
    by_id = {s.id: s for s in samples}
    routing = _routing_from_json(path, obj, by_id)
    n_centroids = len(routing["adcam_centroids"])
    seen = set()
    for entry in rows:
        if not (isinstance(entry, list) and len(entry) == 3 and all(map(_is_int, entry))):
            raise ValueError(f"{path}: samples entry {entry!r} is not three integers [id, cfr_label, adcam_label]")
        sid, c, a = entry
        if sid in seen:
            raise ValueError(f"{path}: sample {sid} is repeated")
        if sid not in by_id:
            raise ValueError(f"{path}: sample {sid} is not in the dataset")
        if c not in routing["founders"]:
            raise ValueError(f"{path}: sample {sid} has cfr_label {c}, but no founder of category {c}")
        if not 0 <= a < n_centroids:
            raise ValueError(f"{path}: sample {sid} has adcam_label {a}, but {n_centroids} centroids")
        seen.add(sid)
    ids, cfr, adcam = zip(*rows)
    try:
        regions = cleanse(fuse_labels(cfr, adcam), obj["min_count"])
    except ValueError as e:  # a min_count that cleanses every sample
        raise ValueError(f"{path}: {e}") from None
    return [by_id[sid] for sid in ids], Segmentation(regions, **routing)


# every key of model.json, as write_model writes it
_MODEL_KEYS = {
    "format", "version", "nt", "nc", "weights", "path_select", "founders", "adcam_centroids",
    "adcam_standardizer", "feature_standardizer", "pair_to_fused", "region_feature_centroids",
}


def write_model(path: str | Path, model: LocalizationModel):
    """model.json: what ``locate`` reads of the model, the keys of
    ``_MODEL_KEYS``; the founder templates are re-cut on reading."""
    obj = {
        "format": "amdnloc-model",
        "version": MODEL_VERSION,
        "nt": model.config.nt,
        "nc": model.config.nc,
        "weights": {str(r): w.tolist() for r, w in model.weights.items()},
        **_routing_to_json(model),
        "feature_standardizer": _std_to_json(model.feature_standardizer),
        "pair_to_fused": [[c, a, f] for (c, a), f in sorted(model.pair_to_fused.items())],
        "region_feature_centroids": {
            str(r): c.tolist() for r, c in model.region_feature_centroids.items()
        },
    }
    write_json(path, obj)


def read_model(path: str | Path, samples: list[Sample]) -> LocalizationModel:
    """Load a model; founder templates are re-cut from the given dataset.

    The file must be of ``MODEL_VERSION``, and every field must fit the
    model's own (nt, nc): each region's weights are (2, fused_len + 1)
    finite values; the feature standardizer's mean and scale are
    fused_len finite values, scales > 0; ``region_feature_centroids``
    holds exactly the weights' regions, each fused_len finite values;
    each ``pair_to_fused`` entry is three integers whose region has
    weights. A key that ``write_model`` does not write, such as the
    ``ridge_lambda`` and ``method`` of older files, or anything else, is
    a ``ValueError`` that names the file and the key.
    """
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("format") != "amdnloc-model":
        raise ValueError(f"{path}: not a model file")
    version = obj.get("version")
    if not (_is_int(version) and version == MODEL_VERSION):
        found = f"version {version!r}" if "version" in obj else "no version"
        raise ValueError(f"{path}: a model file of {found}; this release reads version {MODEL_VERSION}")
    unknown = sorted(set(obj) - _MODEL_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown model keys: {', '.join(map(repr, unknown))}")
    rules = {"nt": _COUNT, "nc": _COUNT}
    _check(rules, {key: obj.get(key) for key in rules}, f"{path}:")
    config = FeatureConfig(nt=obj["nt"], nc=obj["nc"])
    weights, centroids = (
        {r: _array(path, f"{key} of region {r}", values, shape) for r, values in _by_id(path, key, obj.get(key))}
        for key, shape in (("weights", (2, config.fused_len + 1)), ("region_feature_centroids", (config.fused_len,)))
    )
    if set(centroids) != set(weights):
        raise ValueError(
            f"{path}: region_feature_centroids holds regions {sorted(centroids)}, but the weights {sorted(weights)}"
        )
    pairs = obj.get("pair_to_fused")
    if not isinstance(pairs, list):
        raise ValueError(f"{path}: pair_to_fused must be a list of [cfr_label, adcam_label, region] entries")
    for entry in pairs:
        if not (isinstance(entry, list) and len(entry) == 3 and all(map(_is_int, entry))):
            raise ValueError(f"{path}: pair_to_fused entry {entry!r} is not three integers [cfr_label, adcam_label, region]")
        if entry[2] not in weights:
            raise ValueError(f"{path}: pair_to_fused entry {entry!r} names region {entry[2]}, which has no weights")
    return LocalizationModel(
        config=config,
        weights=weights,
        **_routing_from_json(path, obj, {s.id: s for s in samples}),
        pair_to_fused={(c, a): f for c, a, f in pairs},
        feature_standardizer=_std_from_json(path, "feature_standardizer", obj.get("feature_standardizer"), config.fused_len),
        region_feature_centroids=centroids,
    )
