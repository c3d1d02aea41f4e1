"""Dataset and model persistence.

A dataset directory holds positions.csv, paths.csv, cfr.bin and
adcam.bin. The .bin files start with the magic bytes "AMDN" followed by
little-endian u32 fields (version, count, nt, nc) and then per-sample
row-major entries as little-endian float32 (interleaved re/im for the
CFR file, plain values for the angle-delay file).
"""
from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

from .channel import PathRecord, _chunks, render_image
from .fusion import RegionLabels, Segmentation
from .localizer import FeatureConfig, LocalizationModel
from .scenegen import _COUNT, _NONNEGATIVE, Sample, _check, _is_int, _one_of
from .segmentation_adcam import _PATH_SELECT, Standardizer
from .segmentation_cfr import extract_templates

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "MODEL_VERSION",
    "read_json",
    "write_dataset",
    "read_dataset",
    "write_region_map",
    "read_region_map",
    "write_segmentation",
    "read_segmentation",
    "write_model",
    "read_model",
]

MAGIC = b"AMDN"
FORMAT_VERSION = 1  # of the .bin files
MODEL_VERSION = 1  # of model.json


def read_json(path: str | Path):
    """The value a JSON file holds; a file that is not UTF-8 JSON is a
    ``ValueError`` that names it."""
    try:
        return json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValueError(f"{path} is not a JSON file: {e}") from None


# CSV column rules: (what a field must be, its parser)
_INT = ("an integer", int)
_NUMBER = ("a number", float)
_BIT = ("0 or 1", {"0": False, "1": True}.__getitem__)


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


def _write_bin(path: Path, arrays: list[np.ndarray], complex_data: bool):
    """Header, then the samples as float32, ``channel._CHUNK`` at a time;
    complex64 stores each entry as its real and imaginary float32."""
    count = len(arrays)
    nt, nc = arrays[0].shape if count else (0, 0)
    header = MAGIC + np.array([FORMAT_VERSION, count, nt, nc], dtype="<u4").tobytes()
    dtype = "<c8" if complex_data else "<f4"
    with open(path, "wb") as fh:
        fh.write(header)
        for rows in _chunks(count):
            fh.write(np.array(arrays[rows], dtype=dtype).tobytes())


def _read_bin(path: Path, complex_data: bool) -> tuple[tuple[int, int], np.ndarray]:
    """The (nt, nc) of the header and the samples of a .bin file, as one
    (count, nt, nc) float64 or complex128 stack, each stored float32
    widened exactly."""
    raw = Path(path).read_bytes()
    if len(raw) < 20:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 20-byte header")
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic bytes {raw[:4]!r}")
    version, count, nt, nc = (int(v) for v in np.frombuffer(raw, dtype="<u4", count=4, offset=4))
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    per = nt * nc * (2 if complex_data else 1)
    if len(raw) - 20 != 4 * count * per:
        raise ValueError(
            f"{path}: payload of {len(raw) - 20} bytes, but {count} samples of {nt}x{nc} take {4 * count * per}"
        )
    data = np.frombuffer(raw, dtype="<c8" if complex_data else "<f4", offset=20)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite values in the payload")
    return (nt, nc), data.reshape(count, nt, nc).astype(np.complex128 if complex_data else np.float64)


def write_dataset(samples: list[Sample], out_dir: str | Path):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "positions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "x", "y", "is_los"])
        for s in samples:
            w.writerow([s.id, repr(float(s.pos[0])), repr(float(s.pos[1])), int(s.is_los)])
    with open(out / "paths.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["id", "path_id", "aoa_rad", "aod_rad", "gain_re", "gain_im", "delay_samples", "pathloss_db"]
        )
        for s in samples:
            for pid, p in enumerate(s.paths):
                w.writerow(
                    [s.id, pid, repr(float(p.aoa)), repr(float(p.aod)), repr(float(p.gain.real)), repr(float(p.gain.imag)), int(p.delay_samples), repr(float(p.pathloss_db))]
                )
    _write_bin(out / "cfr.bin", [s.cfr for s in samples], complex_data=True)
    _write_bin(out / "adcam.bin", [s.adcam for s in samples], complex_data=False)


def read_dataset(data_dir: str | Path) -> list[Sample]:
    """Samples in positions.csv order, each holding its row of one CFR
    stack and one ADCAM stack; the files must agree on the samples they
    hold, cfr.bin and adcam.bin on the matrix shape (nt, nc), every CSV
    field must parse (``_csv_rows``), values must be finite, ``is_los``
    0 or 1 and ids unique."""
    d = Path(data_dir)
    cfr_dims, cfrs = _read_bin(d / "cfr.bin", complex_data=True)
    adcam_dims, adcams = _read_bin(d / "adcam.bin", complex_data=False)
    if cfr_dims != adcam_dims:
        raise ValueError(
            f"{d / 'cfr.bin'} holds {cfr_dims[0]}x{cfr_dims[1]} matrices, "
            f"but {d / 'adcam.bin'} {adcam_dims[0]}x{adcam_dims[1]}"
        )
    paths_by_id: dict[int, list[PathRecord]] = {}
    values = ("aoa_rad", "aod_rad", "gain_re", "gain_im", "pathloss_db")
    for row in _csv_rows(d / "paths.csv", {"id": _INT, **dict.fromkeys(values, _NUMBER), "delay_samples": _INT}):
        try:
            if not all(math.isfinite(row[k]) for k in values):
                raise ValueError("a value is not finite")
            path = PathRecord(
                aoa=row["aoa_rad"], aod=row["aod_rad"], gain=complex(row["gain_re"], row["gain_im"]),
                delay_samples=row["delay_samples"], pathloss_db=row["pathloss_db"],
            )
        except ValueError as e:
            raise ValueError(f"{d / 'paths.csv'}: a path of id {row['id']} is rejected: {e}") from None
        paths_by_id.setdefault(row["id"], []).append(path)
    rows = list(_csv_rows(d / "positions.csv", {"id": _INT, "x": _NUMBER, "y": _NUMBER, "is_los": _BIT}))
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


def write_region_map(path: str | Path, sample_ids, labels: RegionLabels):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "cfr_label", "adcam_label", "fused_label", "retained"])
        columns = (labels.cfr_labels, labels.adcam_labels, labels.fused_labels, labels.retained.astype(int))
        w.writerows(zip(sample_ids, *(c.tolist() for c in columns)))


def read_region_map(path: str | Path) -> tuple[list[int], RegionLabels]:
    """Sample ids and their labels, in file order; every field must be
    an integer (``_csv_rows``), ids must be unique, a row is retained
    exactly when its fused label is not -1, and the retained rows of one
    (cfr, adcam) pair share one fused label."""
    ids, cfr, ad, fused = [], [], [], []
    seen = set()
    region_of = {}  # the fused label of each retained pair
    for row in _csv_rows(path, dict.fromkeys(("id", "cfr_label", "adcam_label", "fused_label", "retained"), _INT)):
        sid, f = row["id"], row["fused_label"]
        if sid in seen:
            raise ValueError(f"{path}: id {sid} is repeated")
        if f < -1 or row["retained"] != int(f >= 0):
            raise ValueError(
                f"{path}: id {sid} has fused label {f} and retained {row['retained']}; "
                "a label is -1 (cleansed, retained 0) or a region (retained 1)"
            )
        pair = row["cfr_label"], row["adcam_label"]
        if f >= 0 and region_of.setdefault(pair, f) != f:
            raise ValueError(
                f"{path}: pair (cfr_label {pair[0]}, adcam_label {pair[1]}) has fused labels "
                f"{region_of[pair]} and {f} (id {sid}); the retained rows of a pair share one"
            )
        seen.add(sid)
        ids.append(sid)
        cfr.append(pair[0])
        ad.append(pair[1])
        fused.append(f)
    return ids, RegionLabels(np.array(cfr, dtype=int), np.array(ad, dtype=int), np.array(fused, dtype=int))


def _by_id(path, key: str, obj) -> list[tuple[int, object]]:
    """The entries of a nonempty object keyed by integer ids, each id
    written as ``str`` writes it, in ascending id order; else a
    ``ValueError`` that names the file and the key."""
    if not (isinstance(obj, dict) and obj):
        raise ValueError(f"{path}: {key} must be a nonempty object keyed by integer ids")
    for k in obj:
        if not re.fullmatch(r"0|-?[1-9][0-9]*", k):
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


def write_segmentation(path: str | Path, segmentation: Segmentation):
    """segmentation.json: the routing state; the regions go to the region map."""
    obj = {"format": "amdnloc-segmentation", **_routing_to_json(segmentation)}
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1))


def read_segmentation(path: str | Path, samples: list[Sample], region_map: str | Path) -> tuple[list[Sample], Segmentation]:
    """The samples of a region map, in its order, and their segmentation,
    its founder templates re-cut from ``samples``. Every retained row's
    labels must name a founder and a centroid of the segmentation file."""
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("format") != "amdnloc-segmentation":
        raise ValueError(f"{path}: not a segmentation file of this version; run amdnloc segment again")
    ids, regions = read_region_map(region_map)
    by_id = {s.id: s for s in samples}
    missing = [sid for sid in ids if sid not in by_id]
    if missing:
        raise ValueError(f"{region_map}: id {missing[0]} is not in the dataset")
    routing = _routing_from_json(path, obj, by_id)
    n_centroids = len(routing["adcam_centroids"])
    columns = (regions.cfr_labels, regions.adcam_labels, regions.retained)
    for sid, c, a, kept in zip(ids, *(col.tolist() for col in columns)):
        if kept and c not in routing["founders"]:
            problem = f"cfr_label {c}, but {path} has no founder of category {c}"
        elif kept and not 0 <= a < n_centroids:
            problem = f"adcam_label {a}, but {path} has {n_centroids} centroids"
        else:
            continue
        raise ValueError(f"{region_map}: id {sid} has {problem}; pass the region map of the segment run that wrote it")
    return [by_id[sid] for sid in ids], Segmentation(regions, **routing)


def write_model(path: str | Path, model: LocalizationModel):
    obj = {
        "format": "amdnloc-model",
        "version": MODEL_VERSION,
        "nt": model.config.nt,
        "nc": model.config.nc,
        "ridge_lambda": model.ridge_lambda,
        "weights": {str(r): w.tolist() for r, w in model.weights.items()},
        **_routing_to_json(model),
        "feature_standardizer": _std_to_json(model.feature_standardizer),
        "pair_to_fused": [[c, a, f] for (c, a), f in sorted(model.pair_to_fused.items())],
        "region_feature_centroids": {
            str(r): c.tolist() for r, c in model.region_feature_centroids.items()
        },
    }
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1))


def read_model(path: str | Path, samples: list[Sample]) -> LocalizationModel:
    """Load a model; founder templates are re-cut from the given dataset.

    The file must be of ``MODEL_VERSION``, and every field must fit the
    model's own (nt, nc): each region's weights are (2, fused_len + 1)
    finite values; the feature standardizer's mean and scale are
    fused_len finite values, scales > 0; ``region_feature_centroids``
    holds exactly the weights' regions, each fused_len finite values;
    each ``pair_to_fused`` entry is three integers whose region has
    weights; ``ridge_lambda`` is a finite number >= 0. Anything else is
    a ``ValueError`` that names the file and the key.
    """
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("format") != "amdnloc-model":
        raise ValueError(f"{path}: not a model file")
    version = obj.get("version")
    if not (_is_int(version) and version == MODEL_VERSION):
        found = f"version {version!r}" if "version" in obj else "no version"
        raise ValueError(f"{path}: a model file of {found}; this release reads version {MODEL_VERSION}")
    # Older files name the fit method; closed-form ridge is the only one.
    if obj.get("method", "ridge_closed_form") != "ridge_closed_form":
        raise ValueError(f"{path}: fit method {obj['method']!r} is not supported; models are fit by closed-form ridge")
    rules = {"nt": _COUNT, "nc": _COUNT, "ridge_lambda": _NONNEGATIVE}
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
        ridge_lambda=obj["ridge_lambda"],
    )
