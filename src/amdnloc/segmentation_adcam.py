"""Power/angle/delay-domain segmentation via centroid clustering.

Per-sample path descriptors (departure angle, arrival angle, gain
magnitude, pathloss) are standardized and clustered with Lloyd's
algorithm; the cluster count is selected automatically by combining the
silhouette and Calinski-Harabasz indices. Every point-to-point distance
comes from one numpy kernel, ``_dist``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _chunks

__all__ = [
    "ClusterModel",
    "Standardizer",
    "path_descriptor",
    "build_features",
    "kmeans",
    "silhouette",
    "calinski_harabasz",
    "select_k",
]

_MAX_ITER = 100  # Lloyd iterations of k-means, at most
_TOL = 1e-6  # k-means stops once no centroid coordinate moves this far


@dataclass
class Standardizer:
    """Per-dimension z-score constants; zero-variance dims pass through."""

    mean: np.ndarray
    scale: np.ndarray  # std where positive, 1 where degenerate

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean = x.mean(axis=0)
        # x.std(axis=0) in blocks of about 64 columns, so no temporary is
        # the size of x; each column is summed row by row either way, which
        # keeps the spread bit for bit. A lone column is summed pairwise,
        # so np.linspace cuts no one-column block unless x is one column.
        std = np.empty(x.shape[1])
        edges = np.linspace(0, x.shape[1], -(-x.shape[1] // 64) + 1).astype(int)
        for a, b in zip(edges[:-1], edges[1:]):
            std[a:b] = x[:, a:b].std(axis=0)
        # dims whose spread is pure float noise count as constant too,
        # otherwise unseen data divided by a ~1e-16 std explodes
        floor = 1e-12 * np.maximum(np.abs(mean), 1.0)
        scale = np.where(std > floor, std, 1.0)
        return cls(mean=mean, scale=scale)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(x - mean) / scale, written into ``out`` when it is given;
        ``out=x`` standardizes ``x`` in place."""
        out = np.subtract(np.asarray(x, dtype=float), self.mean, out=out)
        return np.divide(out, self.scale, out=out)


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray
    assignment: np.ndarray
    wcss: float


# the name of path_descriptor's rule, which configs, segmentation.json
# and model.json still carry as their path_select
_PATH_SELECT = "strongest"


def path_descriptor(sample) -> list[float]:
    """[aod, aoa, |gain|, pathloss_db] of a sample's strongest path, the
    one of lowest pathloss."""
    if not sample.paths:
        raise ValueError(f"sample {sample.id} has no paths")
    p = min(sample.paths, key=lambda path: path.pathloss_db)
    return [p.aod, p.aoa, abs(p.gain), p.pathloss_db]


def build_features(samples) -> tuple[np.ndarray, Standardizer]:
    """One standardized ``path_descriptor`` row per sample."""
    raw = np.asarray([path_descriptor(s) for s in samples], dtype=float)
    std = Standardizer.fit(raw)
    return std.apply(raw, out=raw), std


def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of ``a`` to every row of ``b``, (n, m).

    Squared differences are summed one coordinate at a time, in column
    order, before the square root: the order of scipy's ``cdist``, whose
    values it reproduces bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"need two 2-D arrays with equal columns, got {a.shape} and {b.shape}")
    total = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        total += diff * diff
    return np.sqrt(total)


def _distinct_rows(points: np.ndarray) -> int:
    """Number of distinct rows of a 2-D array: its rows in lexicographic
    order, counted where a row differs from the one before."""
    points = np.asarray(points)
    ordered = points[np.lexsort(points.T[::-1])]
    return min(len(points), 1) + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))


def _init_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-weighted (k-means++ style) seeding."""
    n = points.shape[0]
    centroids = [points[rng.integers(n)]]
    for _ in range(1, k):
        d2 = _dist(points, centroids).min(axis=1) ** 2
        total = d2.sum()
        if total == 0:
            # every point is a centroid or too near one for its squared distance to be above 0
            centroids.append(points[rng.integers(n)])
            continue
        centroids.append(points[rng.choice(n, p=d2 / total)])
    return np.asarray(centroids)


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> ClusterModel:
    """Seeded Lloyd iterations; empty clusters are reseeded from the farthest point."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    n_distinct = _distinct_rows(points)
    if k > n_distinct:
        raise ValueError(f"k={k} exceeds the {n_distinct} distinct points")
    rng = np.random.default_rng(seed)
    centroids = _init_centroids(points, k, rng)
    prev_wcss = np.inf
    assignment = np.zeros(n, dtype=int)
    for _ in range(_MAX_ITER):
        d = _dist(points, centroids)
        assignment = d.argmin(axis=1)
        for c in range(k):
            if not np.any(assignment == c):
                far = d.min(axis=1).argmax()
                centroids[c] = points[far]
                assignment[far] = c
        new_centroids = np.array(
            [points[assignment == c].mean(axis=0) for c in range(k)]
        )
        wcss = float(np.sum((points - new_centroids[assignment]) ** 2))
        if not wcss <= prev_wcss + 1e-9:
            raise ValueError(f"within-cluster scatter rose from {prev_wcss} to {wcss}")
        move = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        prev_wcss = wcss
        if move < _TOL:
            break
    d = _dist(points, centroids)
    assignment = d.argmin(axis=1)
    wcss = float(np.sum((points - centroids[assignment]) ** 2))
    return ClusterModel(k=k, centroids=centroids, assignment=assignment, wcss=wcss)


def _silhouettes(points: np.ndarray, assignments) -> list[float]:
    """Mean silhouette score of each assignment of the same points; see
    ``silhouette``.

    The distances come in blocks of ``channel._CHUNK`` rows of
    ``_dist``, each made once and read by every assignment. Each
    cluster's distances in a row are summed as one contiguous block of
    columns in point order, which adds in the order of summing that
    point's row of the cluster, so every score is that of the per-point
    loop bit for bit.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    labeled = [np.unique(np.asarray(a), return_inverse=True, return_counts=True)[1:] for a in assignments]
    if any(counts.size < 2 for _, counts in labeled):
        raise ValueError("silhouette needs at least 2 clusters")
    sums = [np.empty((n, counts.size)) for _, counts in labeled]
    for rows in _chunks(n):
        d = _dist(points[rows], points)
        for (own, counts), cluster_sums in zip(labeled, sums):
            for c in range(counts.size):
                cluster_sums[rows, c] = np.ascontiguousarray(d[:, own == c]).sum(axis=1)
    scores = []
    for (own, counts), cluster_sums in zip(labeled, sums):
        means = cluster_sums / counts
        means[np.arange(n), own] = np.inf
        b = means.min(axis=1)
        live = np.flatnonzero(counts[own] > 1)
        a = cluster_sums[live, own[live]] / (counts[own[live]] - 1)
        point_scores = np.zeros(n)
        point_scores[live] = (b[live] - a) / np.maximum(a, b[live])
        scores.append(float(point_scores.mean()))
    return scores


def silhouette(points: np.ndarray, assignment: np.ndarray) -> float:
    """Mean silhouette score; singleton clusters contribute 0.

    For each point, a is the mean distance to the other members of its
    cluster and b the smallest mean distance to the members of another
    cluster.
    """
    return _silhouettes(points, [assignment])[0]


def calinski_harabasz(points: np.ndarray, assignment: np.ndarray) -> float:
    """Between/within scatter ratio scaled by degrees of freedom.

    Returns +inf when the within-cluster scatter is exactly zero.
    """
    points = np.asarray(points, dtype=float)
    assignment = np.asarray(assignment)
    q = points.shape[0]
    clusters, own = np.unique(assignment, return_inverse=True)
    k = clusters.size
    if not (2 <= k < q):
        raise ValueError(f"need 2 <= k < n, got k={k}, n={q}")
    global_c = points.mean(axis=0)
    tr_b = 0.0
    tr_w = 0.0
    for c in range(k):
        members = points[own == c]
        cc = members.mean(axis=0)
        tr_b += members.shape[0] * float(np.sum((cc - global_c) ** 2))
        tr_w += float(np.sum((members - cc) ** 2))
    if tr_w == 0.0:
        return np.inf
    return (tr_b * (q - k)) / (tr_w * (k - 1))


def select_k(points: np.ndarray, k_range=range(2, 9), seed: int = 0) -> tuple[int, ClusterModel]:
    """Pick the cluster count maximizing the mean of the min-max
    normalized silhouette and Calinski-Harabasz scores; ties break
    toward smaller k."""
    ks = [int(k) for k in k_range]
    if not ks:
        raise ValueError("empty k range")
    models = {k: kmeans(points, k, seed=seed) for k in ks}
    if len(ks) == 1:
        k = ks[0]
        return k, models[k]
    sc = np.array(_silhouettes(points, [models[k].assignment for k in ks]))
    ch = np.array([calinski_harabasz(points, models[k].assignment) for k in ks])

    def norm(v: np.ndarray) -> np.ndarray:
        finite = np.isfinite(v)
        out = np.ones_like(v, dtype=float)  # +inf entries normalize to 1
        if finite.sum() == 0:
            return out
        lo, hi = v[finite].min(), v[finite].max()
        out[finite] = 0.5 if hi == lo else (v[finite] - lo) / (hi - lo)
        return out

    combined = (norm(sc) + norm(ch)) / 2.0
    best = ks[int(np.argmax(combined))]  # argmax takes the first (smallest) max
    return best, models[best]
