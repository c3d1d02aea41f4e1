import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from amdnloc import segmentation_adcam
from amdnloc.channel import PathRecord
from amdnloc.scenegen import Sample
from amdnloc.segmentation_adcam import (
    Standardizer,
    _dist,
    _distinct_rows,
    _silhouettes,
    build_features,
    calinski_harabasz,
    kmeans,
    path_descriptor,
    select_k,
    silhouette,
)


def ch_oracle(points, assignment):
    q = len(points)
    clusters = sorted(set(assignment))
    k = len(clusters)
    g = np.mean(points, axis=0)
    tr_b = sum(
        np.sum(assignment == c) * np.sum((np.mean(points[assignment == c], axis=0) - g) ** 2)
        for c in clusters
    )
    tr_w = sum(
        np.sum((points[assignment == c] - np.mean(points[assignment == c], axis=0)) ** 2)
        for c in clusters
    )
    if tr_w == 0:
        return np.inf
    return (tr_b * (q - k)) / (tr_w * (k - 1))


def mk_sample(sid, *paths):
    return Sample(id=sid, pos=(0.0, 0.0), paths=list(paths), is_los=True,
                  cfr=np.zeros((2, 2), dtype=complex), adcam=np.zeros((2, 2)))


def mk_path(aoa=1.0, aod=1.0, gain=1 + 0j, delay=0, loss=10.0):
    return PathRecord(aoa=aoa, aod=aod, gain=gain, delay_samples=delay, pathloss_db=loss)


class TestStandardizer:
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)), elements=st.floats(-1e6, 1e6)),
        st.lists(st.integers(0, 5), min_size=1, max_size=3),
    )
    def test_apply_in_place_equals_apply(self, x, constant):
        constant = sorted({c % x.shape[1] for c in constant})
        x[:, constant] = x[:1, constant]  # no spread, so a scale of 1
        std = Standardizer.fit(x)
        assert np.all(std.scale[constant] == 1.0)
        want = std.apply(x)
        assert want.tobytes() == ((x - std.mean) / std.scale).tobytes()
        before = x.tobytes()
        assert std.apply(x, out=np.empty_like(x)).tobytes() == want.tobytes()
        assert x.tobytes() == before
        assert std.apply(x, out=x) is x
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("view", [False, True], ids=["contiguous", "view"])
    @pytest.mark.parametrize("rows", [1, 2, 64, 65, 2034])
    @pytest.mark.parametrize("cols", [1, 2, 64, 65, 129, 335])
    def test_scale_is_the_whole_matrix_std_bit_for_bit(self, cols, rows, view):
        # fit takes the spread a block of columns at a time; its scale is
        # that of x.std(axis=0) over the whole matrix, constant columns
        # and a non-contiguous [:, :-1] view included
        rng = np.random.default_rng([cols, rows])
        width = cols + view
        x = rng.normal(rng.uniform(-1e3, 1e3, width), rng.uniform(0.1, 10.0, width), size=(rows, width))
        x[:, 1::5] = x[:1, 1::5]
        if view:
            x = x[:, :-1]
        std = x.std(axis=0)
        want = np.where(std > 1e-12 * np.maximum(np.abs(x.mean(axis=0)), 1.0), std, 1.0)
        fitted = Standardizer.fit(x)
        assert fitted.mean.tobytes() == x.mean(axis=0).tobytes()
        assert fitted.scale.tobytes() == want.tobytes()


class TestBuildFeatures:
    def test_single_sample_all_zero(self):
        feats, _ = build_features([mk_sample(0, mk_path())])
        np.testing.assert_array_equal(feats, np.zeros((1, 4)))

    def test_two_samples_plus_minus_one(self):
        s0 = mk_sample(0, mk_path(aoa=0.5, loss=10))
        s1 = mk_sample(1, mk_path(aoa=2.5, loss=30))
        feats, _ = build_features([s0, s1])
        np.testing.assert_allclose(np.abs(feats[:, 1]), 1.0)
        np.testing.assert_allclose(np.abs(feats[:, 3]), 1.0)
        # aod and gain identical across samples: degenerate dims pass through as 0
        np.testing.assert_allclose(feats[:, 0], 0.0)
        np.testing.assert_allclose(feats[:, 2], 0.0)

    def test_standardized_moments(self):
        rng = np.random.default_rng(0)
        samples = [
            mk_sample(
                i,
                mk_path(aoa=rng.uniform(0.1, 3.0), aod=rng.uniform(0.1, 3.0),
                        gain=complex(rng.normal(), rng.normal()), loss=rng.uniform(1, 50)),
            )
            for i in range(40)
        ]
        feats, _ = build_features(samples)
        np.testing.assert_allclose(feats.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(feats.var(axis=0), 1.0, atol=1e-9)

    def test_the_strongest_path_describes_a_sample(self):
        # not the first to arrive: a weak early path is passed over
        weak_early = mk_path(aoa=2.0, aod=0.5, gain=0.5j, delay=0, loss=30.0)
        strong_late = mk_path(aoa=1.0, aod=0.25, gain=-2 + 0j, delay=5, loss=5.0)
        for paths in ((weak_early, strong_late), (strong_late, weak_early)):
            assert path_descriptor(mk_sample(0, *paths)) == [0.25, 1.0, 2.0, 5.0]

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            build_features([mk_sample(0)])


class TestKmeans:
    def test_k_equals_n_zero_wcss(self):
        pts = np.array([[0.0], [1.0], [5.0], [9.0]])
        m = kmeans(pts, 4, seed=0)
        assert m.wcss == pytest.approx(0.0, abs=1e-12)

    def test_two_exact_clusters(self):
        pts = np.array([[0.0], [0.0], [10.0], [10.0]])
        m = kmeans(pts, 2, seed=1)
        assert m.wcss == pytest.approx(0.0, abs=1e-12)
        assert sorted(m.centroids.ravel().tolist()) == [0.0, 10.0]

    def test_three_blobs_recover_partition(self):
        rng = np.random.default_rng(2)
        centers = np.array([[0, 0, 0, 0], [8, 8, 0, 0], [0, 8, 8, 8]], dtype=float)
        pts = np.vstack([rng.normal(c, 0.3, (20, 4)) for c in centers])
        m = kmeans(pts, 3, seed=3)
        truth = np.repeat([0, 1, 2], 20)
        oracle = np.linalg.norm(pts[:, None, :] - centers[None], axis=2).argmin(axis=1)
        np.testing.assert_array_equal(oracle, truth)
        # same partition up to label permutation
        for c in range(3):
            got = m.assignment[truth == c]
            assert len(set(got.tolist())) == 1

    def test_k_exceeding_distinct_points_rejected(self):
        pts = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(ValueError):
            kmeans(pts, 3, seed=0)

    def test_distinct_points_whose_squared_distance_underflows(self):
        # 1e-300 apart the two points are distinct, so k=2 is allowed, but
        # their squared distance underflows to 0: every k-means++ weight
        # is 0, and the seeding draws its next centroid from all points
        pts = np.array([[0.0], [1e-300]])
        assert segmentation_adcam._dist(pts, pts[:1]).max() ** 2 == 0.0
        m = kmeans(pts, 2, seed=0)
        assert m.centroids.shape == (2, 1) and np.isfinite(m.centroids).all()

    def test_rising_scatter_raises(self, monkeypatch):
        # from the second Lloyd step on (the seeding asks about fewer than
        # three centroids), every point joins its farthest centroid, so the
        # within-cluster scatter rises
        steps = []
        dist = segmentation_adcam._dist

        def farthest_after_first(a, b):
            d = dist(a, b)
            if len(b) < 3:
                return d
            steps.append(None)
            return d if len(steps) == 1 else -d

        monkeypatch.setattr(segmentation_adcam, "_dist", farthest_after_first)
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.normal(c, 0.3, (20, 2)) for c in ([0, 0], [8, 8], [0, 8])])
        with pytest.raises(ValueError, match="scatter rose"):
            kmeans(pts, 3, seed=3)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 4))
        a = kmeans(pts, 5, seed=9)
        b = kmeans(pts, 5, seed=9)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.centroids, b.centroids)


# coordinates of a few magnitudes, with exact zeros and repeats drawn often
_coords = st.one_of(st.just(0.0), st.just(1.5), st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def _two_point_sets(draw):
    """Two point sets of equal dimension, 0-5 rows each, sometimes sharing points."""
    dim = draw(st.integers(1, 6))
    a = draw(arrays(float, (draw(st.integers(0, 5)), dim), elements=_coords))
    b = draw(arrays(float, (draw(st.integers(0, 5)), dim), elements=_coords))
    if len(a) and len(b) and draw(st.booleans()):
        b[draw(st.integers(0, len(b) - 1))] = a[draw(st.integers(0, len(a) - 1))]
    return a, b


class TestDist:
    @settings(max_examples=300, deadline=None)
    @given(_two_point_sets())
    def test_equals_cdist_bit_for_bit(self, case):
        a, b = case
        got = _dist(a, b)
        assert got.shape == (len(a), len(b))
        assert np.array_equal(got, cdist(a, b))

    def test_equals_cdist_on_clustering_sized_input(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(300, 4)) * np.array([1.0, 3.0, 1e-3, 40.0])
        assert np.array_equal(_dist(pts, pts), cdist(pts, pts))
        assert np.array_equal(_dist(pts, pts[:7]), cdist(pts, pts[:7]))

    def test_coincident_points_are_zero_apart(self):
        pts = np.array([[1.0, -2.0, 3.0]] * 3)
        assert np.array_equal(_dist(pts, pts), np.zeros((3, 3)))

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            _dist(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            _dist(np.zeros(3), np.zeros((2, 3)))


def silhouette_loop(points, assignment):
    """The per-point loop ``silhouette`` replaced, over scipy distances."""
    clusters = np.unique(assignment)
    d = cdist(points, points)
    scores = np.zeros(len(points))
    for i in range(len(points)):
        own = assignment == assignment[i]
        n_own = own.sum()
        if n_own == 1:
            continue
        a = d[i, own].sum() / (n_own - 1)
        b = min(d[i, assignment == c].mean() for c in clusters if c != assignment[i])
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


@st.composite
def _clustered_points(draw):
    """3-400 points in 1-6 dimensions with 2-8 clusters, singletons and
    coincident points included."""
    n = draw(st.integers(3, 400))
    k = draw(st.integers(2, min(8, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, draw(st.integers(1, 6)))) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    assignment = rng.integers(0, k, size=n)
    assignment[:2] = [0, 1]  # at least two clusters
    if draw(st.booleans()):
        assignment[2] = k + 5  # a singleton cluster
    if draw(st.booleans()):
        pts[1:3] = pts[0] + 1.0  # coincident points, split over clusters
    return pts, assignment


class TestSilhouette:
    @settings(max_examples=150, deadline=None)
    @given(_clustered_points())
    def test_equals_per_point_loop_bit_for_bit(self, case):
        pts, assignment = case
        got = silhouette(pts, assignment)
        assert np.array_equal(got, silhouette_loop(pts, assignment), equal_nan=True)
        assert -1.0 <= got <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(_clustered_points(), st.integers(0, 2**32 - 1))
    def test_one_pass_scores_every_assignment_as_the_loop_does(self, case, seed):
        # several assignments of the same points share each block of distance rows
        pts, assignment = case
        rng = np.random.default_rng(seed)
        others = [rng.permutation(assignment) for _ in range(rng.integers(0, 4))]
        others.append(np.where(np.arange(len(pts)) < len(pts) // 2, -3, 9))
        got = _silhouettes(pts, [assignment, *others])
        assert len(got) == len(others) + 1
        for score, asg in zip(got, [assignment, *others]):
            assert np.array_equal(score, silhouette_loop(pts, asg), equal_nan=True)

    def test_one_pass_rejects_a_single_cluster_anywhere(self):
        pts = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match="at least 2 clusters"):
            _silhouettes(pts, [np.array([0, 0, 1, 1]), np.zeros(4, dtype=int)])

    def test_perfectly_separated_pairs(self):
        pts = np.array([[0.0], [0.0], [10.0], [10.0]])
        assert silhouette(pts, np.array([0, 0, 1, 1])) == pytest.approx(1.0)

    def test_worked_value(self):
        pts = np.array([[0.0], [1.0], [9.0], [10.0]])
        got = silhouette(pts, np.array([0, 0, 1, 1]))
        assert got == pytest.approx(0.8885, abs=1e-3)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(20, 4))
        asg = rng.integers(0, 3, size=20)
        perm = np.array([2, 0, 1])
        assert silhouette(pts, asg) == pytest.approx(silhouette(pts, perm[asg]), abs=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))


class TestCalinskiHarabasz:
    def test_worked_value(self):
        pts = np.array([[0.0], [1.0], [9.0], [10.0]])
        assert calinski_harabasz(pts, np.array([0, 0, 1, 1])) == pytest.approx(162.0, abs=1e-3)

    def test_zero_within_scatter_is_inf(self):
        pts = np.array([[0.0], [0.0], [10.0], [10.0]])
        assert calinski_harabasz(pts, np.array([0, 0, 1, 1])) == np.inf

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(5, 31))
            pts = rng.normal(size=(n, 4))
            k = int(rng.integers(2, min(n - 1, 6)))
            asg = rng.integers(0, k, size=n)
            while len(set(asg.tolist())) < 2:
                asg = rng.integers(0, k, size=n)
            got = calinski_harabasz(pts, asg)
            assert got == pytest.approx(ch_oracle(pts, asg), abs=1e-9)

    def test_degenerate_k_rejected(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ValueError):
            calinski_harabasz(pts, np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            calinski_harabasz(pts, np.arange(4))


class TestSelectK:
    def _blobs(self, rng, centers, n_per=20, scale=0.3):
        return np.vstack([rng.normal(c, scale, (n_per, 4)) for c in centers])

    def test_three_blobs(self):
        rng = np.random.default_rng(8)
        centers = [[0, 0, 0, 0], [8, 8, 0, 0], [0, 8, 8, 8]]
        hits = sum(
            select_k(self._blobs(np.random.default_rng(s), np.array(centers, float)),
                     range(2, 9), seed=s)[0] == 3
            for s in range(10)
        )
        assert hits >= 9

    def test_two_blobs(self):
        centers = [[0, 0, 0, 0], [9, 9, 9, 9]]
        hits = sum(
            select_k(self._blobs(np.random.default_rng(s), np.array(centers, float)),
                     range(2, 9), seed=s)[0] == 2
            for s in range(10)
        )
        assert hits >= 9

    def test_single_candidate(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(20, 4))
        k, model = select_k(pts, [4], seed=0)
        assert k == 4 and model.k == 4


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 120),
    st.integers(1, 5),
    st.sampled_from([[0.0], [0.0, -0.0, 1.0], [-1.5, 0.0, 2.0, 1e-300], [np.inf, -np.inf, 3.0]]),
    st.integers(0, 2**32 - 1),
)
def test_distinct_rows_counts_as_unique_along_rows(n, d, values, seed):
    # few values per coordinate, so that rows repeat; -0.0 equals 0.0
    pts = np.random.default_rng(seed).choice(values, size=(n, d))
    assert _distinct_rows(pts) == np.unique(pts, axis=0).shape[0]
