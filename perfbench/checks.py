"""Correctness checks computed apart from the program.

Each check takes plain arrays and returns a list of problems; an empty
list means it passed. ``self_test`` runs every check on inputs with a
known answer, and again with a planted fault that it must catch.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

TIE = 1e-9  # scores or distances this close count as a tie
BEATS_GLOBAL = 0.8  # largest segmented-to-global error ratio allowed


# ---------------------------------------------------------------------------
# held-out error


def mean_error(preds: np.ndarray, truths: np.ndarray) -> float:
    """Mean Euclidean distance between predicted and true positions."""
    d = np.asarray(preds, dtype=float) - np.asarray(truths, dtype=float)
    return float(np.sqrt((d * d).sum(axis=1)).mean())


def check_error(preds, truths, reported: float) -> list[str]:
    """The held-out error recomputed from ``predict`` outputs matches the report.

    The match is to 1e-12 of the value, not bit for bit: a model read
    back from its file holds C-ordered weight arrays where the trained
    model holds transposed views, and the matrix-vector product rounds
    the last bit differently for some terminals.
    """
    got = mean_error(preds, truths)
    if abs(got - reported) > 1e-12 * abs(reported):
        return [f"held-out error {got!r} differs from the report's {reported!r}"]
    return []


# ---------------------------------------------------------------------------
# region map and model file


def read_region_rows(path: str | Path) -> list[dict[str, int]]:
    """Rows of a region_map.csv as ints."""
    with open(path, newline="") as fh:
        return [{k: int(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_labelled(rows, dataset_ids, n_train: int) -> list[str]:
    """Every training sample has one row, a CFR and a cluster label, and a
    fused label exactly when it is retained."""
    problems = []
    ids = [r["id"] for r in rows]
    if len(set(ids)) != n_train or len(ids) != n_train or not set(ids) <= set(dataset_ids):
        problems.append(f"region map lists {len(ids)} ids, not {n_train} distinct training samples")
    for r in rows:
        if r["cfr_label"] < 0 or r["adcam_label"] < 0:
            problems.append(f"training sample {r['id']} is unlabelled")
        if (r["fused_label"] >= 0) != bool(r["retained"]):
            problems.append(f"training sample {r['id']}: fused label {r['fused_label']} but retained={r['retained']}")
    return problems


def check_min_count(rows, min_count: int, region_count: int) -> list[str]:
    """Retained regions are 0..region_count-1 and each holds more than
    ``min_count`` samples (cleansing drops those with at most that many)."""
    fused = [r["fused_label"] for r in rows if r["retained"]]
    counts = np.bincount(fused, minlength=region_count) if fused else np.zeros(region_count, int)
    problems = []
    if len(counts) != region_count:
        problems.append(f"retained labels reach {len(counts) - 1}, but the report has {region_count} regions")
    for region, n in enumerate(counts):
        if n <= min_count:
            problems.append(f"retained region {region} holds {n} samples, min_count is {min_count}")
    return problems


def _f32(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float32).astype(np.float64)


def check_dataset_files(read, built) -> list[str]:
    """The dataset files hold the built samples: ids, positions and paths
    exactly, CFR and angle-delay values as their float32 rounding."""
    if len(read) != len(built):
        return [f"dataset files hold {len(read)} samples, the scene has {len(built)}"]
    for r, b in zip(read, built):
        same = (
            r.id == b.id
            and r.pos == b.pos
            and r.is_los == b.is_los
            and r.paths == b.paths
            and np.array_equal(r.cfr, _f32(b.cfr.real) + 1j * _f32(b.cfr.imag))
            and np.array_equal(r.adcam, _f32(b.adcam))
        )
        if not same:
            return [f"sample {b.id} reads back differently from the dataset files"]
    return []


def check_routed_trained(routed, trained) -> list[str]:
    """Every routed region is one the model has weights for."""
    bad = sorted({int(r) for r in routed} - {int(t) for t in trained})
    return [f"terminals routed to untrained regions {bad}"] if bad else []


def routed_region(pred, feat, weights: dict[int, np.ndarray]) -> int:
    """The region whose affine map turns ``feat`` into ``pred``, or -1.

    ``predict`` returns ``W[region] @ [feat; 1]``, so exactly one
    region's weights reproduce it, to rounding.
    """
    x = np.append(feat, 1.0)
    best, best_d = -1, np.inf
    for r, w in weights.items():
        d = float(np.max(np.abs(w @ x - pred)))
        if d < best_d:
            best, best_d = r, d
    return best if best_d <= 1e-9 * max(1.0, float(np.max(np.abs(pred)))) else -1


# ---------------------------------------------------------------------------
# routing re-derived with an independent NCC scorer


def magnitude_image(cfr: np.ndarray) -> np.ndarray:
    """|H| min-max normalized to [0, 1]; a constant matrix renders to zeros."""
    m = np.abs(cfr)
    lo, hi = m.min(), m.max()
    return np.zeros_like(m) if hi - lo == 0.0 else (m - lo) / (hi - lo)


def window_energy(stack: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Energy of every placement window, from 2-D cumulative sums of I^2."""
    n, h, w = stack.shape
    a, b = shape
    s = np.zeros((n, h + 1, w + 1))
    s[:, 1:, 1:] = np.cumsum(np.cumsum(stack * stack, axis=1), axis=2)
    e = s[:, a:, b:] - s[:, :-a, b:] - s[:, a:, :-b] + s[:, :-a, :-b]
    return np.maximum(e, 0.0)


class NccScorer:
    """Placement-maximized NCC of templates against a fixed image stack.

    The numerator is a circular correlation through the 2-D FFT (every
    valid placement lies inside the image, so nothing wraps); window
    energies come from cumulative sums. Windows with energy at or below
    1e-12 of the image's largest window are skipped, an image with no
    valid window and an all-zero template score 0, and scores clip to
    [0, 1].
    """

    def __init__(self, images: np.ndarray):
        self.stack = np.asarray(images, dtype=float)
        self._spectra = np.fft.rfft2(self.stack)
        self._energy: dict[tuple[int, int], np.ndarray] = {}

    def scores(self, template: np.ndarray) -> np.ndarray:
        t = np.asarray(template, dtype=float)
        n, h, w = self.stack.shape
        a, b = t.shape
        t_energy = float(np.sum(t * t))
        if t_energy == 0.0:
            return np.zeros(n)
        if (a, b) not in self._energy:
            self._energy[a, b] = window_energy(self.stack, (a, b))
        win = self._energy[a, b]
        padded = np.zeros((h, w))
        padded[:a, :b] = t
        corr = np.fft.irfft2(self._spectra * np.conj(np.fft.rfft2(padded)), s=(h, w))
        num = corr[:, : h - a + 1, : w - b + 1]
        top = win.max(axis=(1, 2), keepdims=True)
        valid = win > 1e-12 * top
        ratio = np.where(valid, num / np.sqrt(t_energy * np.where(valid, win, 1.0)), -np.inf)
        return np.clip(ratio.max(axis=(1, 2)), 0.0, 1.0)


def cluster_feature(sample, path_select: str) -> list[float]:
    """[aod, aoa, |gain|, pathloss_db] of the strongest or first-arriving path."""
    key = (lambda p: p.pathloss_db) if path_select == "strongest" else (lambda p: p.delay_samples)
    p = min(sample.paths, key=key)
    return [p.aod, p.aoa, abs(p.gain), p.pathloss_db]


def ties(values: np.ndarray, largest: bool) -> np.ndarray:
    """Indices whose value is within TIE of the best."""
    v = np.asarray(values, dtype=float)
    best = v.max() if largest else v.min()
    return np.flatnonzero(np.abs(v - best) <= TIE * max(1.0, abs(best)))


def route_candidates(model: dict, scorer: NccScorer, founder_images: dict[int, np.ndarray],
                     cluster_feats: np.ndarray, feats: np.ndarray) -> tuple[list[set[int]], list[set[tuple[int, int]]]]:
    """The regions each terminal may be routed to, ties included, and the
    trained (CFR, cluster) pairs that lead there.

    ``model`` is the parsed model.json; ``founder_images`` maps each
    founder sample id to its magnitude image. The CFR label is the
    founder whose worse corner scores best; the cluster label is the
    nearest standardized centroid. An unseen (CFR, cluster) pair falls
    back to the region whose feature centroid is nearest to the
    standardized features ``feats``.
    """
    cats = sorted(int(c) for c in model["founders"])
    per_cat = []
    for c in cats:
        info = model["founders"][str(c)]
        a, b = info["size"]
        img = founder_images[info["founder_sample_id"]]
        h, w = img.shape
        per_cat.append(np.minimum(scorer.scores(img[:a, :b]), scorer.scores(img[h - a :, w - b :])))
    cfr_scores = np.array(per_cat).T  # (terminals, categories)

    ast = model["adcam_standardizer"]
    kf = (cluster_feats - np.array(ast["mean"])) / np.array(ast["scale"])
    cents = np.array(model["adcam_centroids"])
    dist = np.sqrt(((kf[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2))

    pair_to_fused = {(c, a): f for c, a, f in model["pair_to_fused"]}
    trained = {int(r) for r in model["weights"]}
    regions = sorted(int(r) for r in model["region_feature_centroids"])
    rcent = np.array([model["region_feature_centroids"][str(r)] for r in regions])

    out, via = [], []
    for i in range(len(cfr_scores)):
        found, pairs = set(), set()
        for ci in ties(cfr_scores[i], largest=True):
            for a in ties(dist[i], largest=False):
                f = pair_to_fused.get((cats[ci], int(a)))
                if f is not None and f in trained:
                    found.add(f)
                    pairs.add((cats[ci], int(a)))
                else:
                    d2 = ((rcent - feats[i]) ** 2).sum(axis=1)
                    found.update(regions[j] for j in ties(d2, largest=False))
        out.append(found)
        via.append(pairs)
    return out, via


def check_routing(routed, candidates) -> list[str]:
    """Each terminal's routed region is one the independent routing allows."""
    bad = [i for i, (r, c) in enumerate(zip(routed, candidates)) if int(r) not in c]
    if bad:
        i = bad[0]
        return [f"{len(bad)} terminals routed apart from the independent routing "
                f"(first: terminal #{i} to {routed[i]}, expected one of {sorted(candidates[i])})"]
    return []


# ---------------------------------------------------------------------------
# whole-model checks


def ridge_weights(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Ridge with an unpenalized bias, as one least-squares problem.

    Minimizes |[x 1] w - y|^2 + lam |w[:-1]|^2 by stacking sqrt(lam) I
    under the feature rows; returns (targets, d+1) like the model.
    """
    n, d = x.shape
    a = np.vstack([np.hstack([x, np.ones((n, 1))]), np.hstack([np.sqrt(lam) * np.eye(d), np.zeros((d, 1))])])
    rhs = np.vstack([y, np.zeros((d, y.shape[1]))])
    w, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return w.T


def check_ridge(x_raw, y, lam: float, model: dict, region: str = "0") -> list[str]:
    """The model's standardizer and weights match an independent fit."""
    problems = []
    std = model["feature_standardizer"]
    mean, scale = np.array(std["mean"]), np.array(std["scale"])
    if not np.allclose(mean, x_raw.mean(axis=0), rtol=1e-9, atol=1e-12):
        problems.append("feature standardizer mean differs from the training mean")
    spread = x_raw.std(axis=0)
    moving = scale != 1.0
    if not np.allclose(scale[moving], spread[moving], rtol=1e-9, atol=0.0):
        problems.append("feature standardizer scale differs from the training std")
    ref = ridge_weights((x_raw - mean) / scale, y, lam)
    got = np.array(model["weights"][region])
    err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    if not err <= 1e-8:
        problems.append(f"ridge weights differ from the lstsq solve by {err:.3g} (relative)")
    return problems


def check_beats_global(segmented: float, global_: float) -> list[str]:
    """The segmented error is at most ``BEATS_GLOBAL`` times the global model's."""
    if not segmented <= BEATS_GLOBAL * global_:
        return [f"segmented error {segmented:.3f} m is not at most {BEATS_GLOBAL} x global {global_:.3f} m"]
    return []


# ---------------------------------------------------------------------------
# self-test


def _ncc_brute(t: np.ndarray, img: np.ndarray) -> float:
    """The NCC definition, one placement at a time."""
    a, b = t.shape
    te = float(np.sum(t * t))
    if te == 0.0:
        return 0.0
    wins = [[img[i : i + a, j : j + b] for j in range(img.shape[1] - b + 1)] for i in range(img.shape[0] - a + 1)]
    energy = np.array([[float(np.sum(w * w)) for w in row] for row in wins])
    best = -np.inf
    for i, row in enumerate(wins):
        for j, w in enumerate(row):
            if energy[i, j] > 1e-12 * energy.max():
                best = max(best, float(np.sum(w * t)) / np.sqrt(te * energy[i, j]))
    return 0.0 if best == -np.inf else min(max(best, 0.0), 1.0)


def self_test() -> list[str]:
    """Run every check on known inputs, then with a planted fault."""
    problems = []
    rng = np.random.default_rng(0)

    # the scorer against the definition, zero windows and templates included
    imgs = rng.random((6, 12, 10))
    imgs[1, :7, :] = 0.0
    imgs[2] = 0.0
    imgs[3] *= 1e-7
    scorer = NccScorer(imgs)
    for t in (rng.random((5, 4)), np.zeros((3, 3)), imgs[0, 2:8, 3:9].copy(), rng.random((12, 10))):
        got = scorer.scores(t)
        want = np.array([_ncc_brute(t, im) for im in imgs])
        if not np.allclose(got, want, rtol=0.0, atol=1e-9):
            problems.append(f"NccScorer differs from the brute-force NCC for a {t.shape} template")

    truths = rng.random((20, 2)) * 100
    preds = truths + rng.normal(size=(20, 2))
    if check_error(preds, truths, mean_error(preds, truths)):
        problems.append("check_error rejects a correct error")
    planted = preds.copy()
    planted[3, 0] += 1e-6
    if not check_error(planted, truths, mean_error(preds, truths)):
        problems.append("check_error misses a shifted prediction")

    rows = [{"id": i, "cfr_label": i % 2, "adcam_label": 0, "fused_label": i % 2, "retained": 1} for i in range(8)]
    if check_labelled(rows, range(10), 8) or check_min_count(rows, 3, 2):
        problems.append("region-map checks reject a correct map")
    if not check_labelled([{**rows[0], "cfr_label": -1}] + rows[1:], range(10), 8):
        problems.append("check_labelled misses an unlabelled sample")
    if not check_labelled(rows[1:], range(10), 8):
        problems.append("check_labelled misses a missing sample")
    if not check_min_count(rows, 4, 2):
        problems.append("check_min_count misses an undersized region")

    if check_routed_trained([0, 1, 1], [0, 1]) or not check_routed_trained([0, 2], [0, 1]):
        problems.append("check_routed_trained is wrong")
    weights = {0: rng.normal(size=(2, 4)), 1: rng.normal(size=(2, 4))}
    feat = rng.normal(size=3)
    if routed_region(weights[1] @ np.append(feat, 1.0), feat, weights) != 1:
        problems.append("routed_region does not find the region")
    if routed_region(weights[1] @ np.append(feat, 1.0) + 1e-3, feat, weights) != -1:
        problems.append("routed_region accepts an output no region gives")

    cands = [{0}, {1, 2}, {2}]
    if check_routing([0, 2, 2], cands):
        problems.append("check_routing rejects a correct routing")
    if not check_routing([0, 2, 1], cands):
        problems.append("check_routing misses a wrong routing label")

    x = rng.normal(size=(40, 5))
    y = x @ rng.normal(size=(5, 2)) + rng.normal(size=(40, 2))
    mean, scale = x.mean(axis=0), x.std(axis=0)
    xs = (x - mean) / scale
    xb = np.hstack([xs, np.ones((40, 1))])
    pen = 3.0 * np.eye(6)
    pen[-1, -1] = 0.0
    w = np.linalg.solve(xb.T @ xb + pen, xb.T @ y).T
    model = {"feature_standardizer": {"mean": mean.tolist(), "scale": scale.tolist()}, "weights": {"0": w.tolist()}}
    if check_ridge(x, y, 3.0, model):
        problems.append("check_ridge rejects the normal-equation solve")
    w_bad = w.copy()
    w_bad[0, -1] += 1e-3
    if not check_ridge(x, y, 3.0, {**model, "weights": {"0": w_bad.tolist()}}):
        problems.append("check_ridge misses a perturbed weight")
    if not check_ridge(x, y, 1.0, model):
        problems.append("check_ridge misses a wrong lambda")

    if check_beats_global(7.9, 10.0) or not check_beats_global(8.1, 10.0):
        problems.append("check_beats_global is wrong")
    return problems
