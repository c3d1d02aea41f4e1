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
from pathlib import Path

import numpy as np

from .channel import PathRecord, render_image
from .fusion import RegionLabels, Segmentation
from .localizer import FeatureConfig, LocalizationModel
from .scenegen import Sample
from .segmentation_adcam import Standardizer
from .segmentation_cfr import extract_templates

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
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
FORMAT_VERSION = 1


# Samples converted and written per ``tobytes`` call; bounds the copy.
_WRITE_CHUNK = 64


def _write_bin(path: Path, arrays: list[np.ndarray], complex_data: bool):
    """Header, then the samples as float32, ``_WRITE_CHUNK`` at a time;
    complex64 stores each entry as its real and imaginary float32."""
    count = len(arrays)
    nt, nc = arrays[0].shape if count else (0, 0)
    header = MAGIC + np.array([FORMAT_VERSION, count, nt, nc], dtype="<u4").tobytes()
    dtype = "<c8" if complex_data else "<f4"
    with open(path, "wb") as fh:
        fh.write(header)
        for i in range(0, count, _WRITE_CHUNK):
            fh.write(np.array(arrays[i : i + _WRITE_CHUNK], dtype=dtype).tobytes())


def _read_bin(path: Path, complex_data: bool) -> list[np.ndarray]:
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
    data = np.frombuffer(raw, dtype="<f4", offset=20)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite values in the payload")
    out = []
    for i in range(count):
        block = data[i * per : (i + 1) * per].astype(np.float64)
        if complex_data:
            block = block.reshape(nt, nc, 2)
            out.append((block[..., 0] + 1j * block[..., 1]).astype(np.complex128))
        else:
            out.append(block.reshape(nt, nc))
    return out


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
    """Samples in positions.csv order; the files must agree on the
    samples they hold, values must be finite and ids unique."""
    d = Path(data_dir)
    cfrs = _read_bin(d / "cfr.bin", complex_data=True)
    adcams = _read_bin(d / "adcam.bin", complex_data=False)
    paths_by_id: dict[int, list[PathRecord]] = {}
    with open(d / "paths.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                aoa, aod, re, im, loss = (float(row[k]) for k in ("aoa_rad", "aod_rad", "gain_re", "gain_im", "pathloss_db"))
                if not all(map(math.isfinite, (aoa, aod, re, im, loss))):
                    raise ValueError("a value is not finite")
                path = PathRecord(
                    aoa=aoa, aod=aod, gain=complex(re, im), delay_samples=int(row["delay_samples"]), pathloss_db=loss
                )
                sid = int(row["id"])
            except ValueError as e:
                raise ValueError(f"{d / 'paths.csv'}: a path of id {row['id']} is rejected: {e}") from None
            paths_by_id.setdefault(sid, []).append(path)
    with open(d / "positions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not len(rows) == len(cfrs) == len(adcams):
        raise ValueError(
            f"{d / 'positions.csv'}: {len(rows)} rows, but cfr.bin holds {len(cfrs)} "
            f"and adcam.bin {len(adcams)} samples"
        )
    samples: dict[int, Sample] = {}
    for row, cfr, adcam in zip(rows, cfrs, adcams):
        sid = int(row["id"])
        pos = (float(row["x"]), float(row["y"]))
        if not all(map(math.isfinite, pos)):
            raise ValueError(f"{d / 'positions.csv'}: sample {sid} has a non-finite position {pos}")
        if sid in samples:
            raise ValueError(f"{d / 'positions.csv'}: id {sid} is repeated")
        samples[sid] = Sample(
            id=sid,
            pos=pos,
            paths=paths_by_id.get(sid, []),
            is_los=bool(int(row["is_los"])),
            cfr=cfr,
            adcam=adcam,
        )
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
    """Sample ids and their labels, in file order; ids must be unique,
    a row is retained exactly when its fused label is not -1, and the
    retained rows of one (cfr, adcam) pair share one fused label."""
    ids, cfr, ad, fused = [], [], [], []
    seen = set()
    region_of = {}  # the fused label of each retained pair
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            sid, f = int(row["id"]), int(row["fused_label"])
            if sid in seen:
                raise ValueError(f"{path}: id {sid} is repeated")
            if f < -1 or int(row["retained"]) != int(f >= 0):
                raise ValueError(
                    f"{path}: id {sid} has fused label {f} and retained {row['retained']}; "
                    "a label is -1 (cleansed, retained 0) or a region (retained 1)"
                )
            pair = int(row["cfr_label"]), int(row["adcam_label"])
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


def _std_to_json(s: Standardizer) -> dict:
    return {"mean": s.mean.tolist(), "scale": s.scale.tolist()}


def _std_from_json(obj: dict) -> Standardizer:
    return Standardizer(mean=np.array(obj["mean"]), scale=np.array(obj["scale"]))


def _routing_to_json(state: Segmentation | LocalizationModel) -> dict:
    """The routing state, the keys segmentation.json and model.json share."""
    return {
        "path_select": state.path_select,
        "founders": {str(c): {"founder_sample_id": p.founder_id, "size": list(p.size)} for c, p in state.founders.items()},
        "adcam_centroids": state.adcam_centroids.tolist(),
        "adcam_standardizer": _std_to_json(state.adcam_standardizer),
    }


def _routing_from_json(path: str | Path, obj: dict, by_id: dict[int, Sample]) -> dict:
    """The routing fields of a ``Segmentation`` or ``LocalizationModel``,
    founder templates re-cut in ascending category order: the trained
    model's order, by which routing breaks ties."""
    entries = obj["founders"]
    if not isinstance(entries, dict):
        raise ValueError(f"{path}: founders must be an object from category to founder, not a {type(entries).__name__}")
    for c in entries:
        try:
            int(c)
        except ValueError:
            raise ValueError(f"{path}: founder category {c!r} is not an integer") from None
    founders = {}
    for c, f in sorted(entries.items(), key=lambda item: int(item[0])):
        shaped = isinstance(f, dict) and isinstance(f.get("size"), list) and len(f["size"]) == 2
        if not (shaped and all(type(v) is int for v in (f.get("founder_sample_id"), *f["size"]))):
            raise ValueError(
                f"{path}: the founder of category {c}, {f!r}, is not an object with an integer founder_sample_id and a size of two integers"
            )
        sid = f["founder_sample_id"]
        if sid not in by_id:
            raise ValueError(f"{path}: founder sample {sid} of category {c} is not in the dataset")
        img = render_image(by_id[sid].cfr, "cfr_magnitude")
        founders[int(c)] = extract_templates(img, tuple(f["size"]), founder_id=sid)
    return {
        "founders": founders,
        "adcam_centroids": np.array(obj["adcam_centroids"]),
        "adcam_standardizer": _std_from_json(obj["adcam_standardizer"]),
        "path_select": obj["path_select"],
    }


def write_segmentation(path: str | Path, segmentation: Segmentation):
    """segmentation.json: the routing state; the regions go to the region map."""
    obj = {"format": "amdnloc-segmentation", **_routing_to_json(segmentation)}
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1))


def read_segmentation(path: str | Path, samples: list[Sample], region_map: str | Path) -> tuple[list[Sample], Segmentation]:
    """The samples of a region map, in its order, and their segmentation,
    its founder templates re-cut from ``samples``. Every retained row's
    labels must name a founder and a centroid of the segmentation file."""
    obj = json.loads(Path(path).read_text())
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
        "version": FORMAT_VERSION,
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
    """Load a model; founder templates are re-cut from the given dataset."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict) or obj.get("format") != "amdnloc-model":
        raise ValueError(f"{path}: not a model file")
    # Older files name the fit method; closed-form ridge is the only one.
    if obj.get("method", "ridge_closed_form") != "ridge_closed_form":
        raise ValueError(f"{path}: fit method {obj['method']!r} is not supported; models are fit by closed-form ridge")
    return LocalizationModel(
        config=FeatureConfig(nt=obj["nt"], nc=obj["nc"]),
        weights={int(r): np.array(w) for r, w in obj["weights"].items()},
        **_routing_from_json(path, obj, {s.id: s for s in samples}),
        pair_to_fused={(c, a): f for c, a, f in obj["pair_to_fused"]},
        feature_standardizer=_std_from_json(obj["feature_standardizer"]),
        region_feature_centroids={
            int(r): np.array(c) for r, c in obj["region_feature_centroids"].items()
        },
        ridge_lambda=obj["ridge_lambda"],
    )
