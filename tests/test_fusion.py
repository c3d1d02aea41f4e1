import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from amdnloc.fusion import cleanse, fuse_labels


class TestFuseLabels:
    def test_two_pairs_enumerated(self):
        labels = fuse_labels([0, 0], [0, 5])
        assert list(labels.fused_labels) == [0, 1]
        assert labels.fused_count == 2
        assert labels.pair_to_fused == {(0, 0): 0, (0, 5): 1}

    def test_identical_pairs_collapse(self):
        labels = fuse_labels([2] * 5, [3] * 5)
        assert labels.fused_count == 1
        assert np.all(labels.fused_labels == 0)

    def test_count_matches_set_oracle(self):
        rng = np.random.default_rng(0)
        cfr = rng.integers(0, 5, size=100)
        ad = rng.integers(0, 4, size=100)
        labels = fuse_labels(cfr, ad)
        assert labels.fused_count == len(set(zip(cfr.tolist(), ad.tolist())))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_labels([0, 1], [0])

    def test_lexicographic_order(self):
        labels = fuse_labels([1, 0, 1, 0], [0, 1, 1, 0])
        # pairs sorted: (0,0) (0,1) (1,0) (1,1)
        assert labels.pair_to_fused == {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}

    def test_refinement_property(self):
        rng = np.random.default_rng(1)
        cfr = rng.integers(0, 4, size=60)
        ad = rng.integers(0, 3, size=60)
        labels = fuse_labels(cfr, ad)
        f = labels.fused_labels
        for i in range(60):
            for j in range(60):
                if f[i] == f[j]:
                    assert cfr[i] == cfr[j] and ad[i] == ad[j]


class TestCleanse:
    def test_min_count_zero_keeps_all(self):
        labels = cleanse(fuse_labels([0, 0, 1], [0, 0, 1]), 0)
        assert labels.covering_rate == 1.0
        assert np.all(labels.retained)

    def test_small_category_removed(self):
        labels = fuse_labels([0] * 5 + [1], [0] * 5 + [1])
        out = cleanse(labels, 2)
        assert out.covering_rate == pytest.approx(5 / 6)
        assert not out.retained[5]
        assert out.fused_count == 1

    def test_reindexed_contiguous(self):
        labels = fuse_labels([0] * 1 + [1] * 5 + [2] * 5, [0] * 11)
        out = cleanse(labels, 2)
        kept = sorted(set(out.fused_labels[out.retained].tolist()))
        assert kept == [0, 1]

    def test_all_removed_errors(self):
        with pytest.raises(ValueError):
            cleanse(fuse_labels([0], [0]), 5)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        labels = fuse_labels(rng.integers(0, 6, 50), rng.integers(0, 3, 50))
        once = cleanse(labels, 3)
        twice = cleanse(once, 3)
        np.testing.assert_array_equal(once.retained, twice.retained)
        np.testing.assert_array_equal(once.fused_labels, twice.fused_labels)

    def test_covering_rate_monotone_in_min_count(self):
        rng = np.random.default_rng(3)
        labels = fuse_labels(rng.integers(0, 4, 120), rng.integers(0, 2, 120))
        rates = [cleanse(labels, m).covering_rate for m in (0, 2, 10)]
        assert rates == sorted(rates, reverse=True)


def _assert_same_labels(got, want):
    np.testing.assert_array_equal(got.fused_labels, want.fused_labels)
    np.testing.assert_array_equal(got.retained, want.retained)
    assert got.fused_count == want.fused_count
    assert got.pair_to_fused == want.pair_to_fused
    assert list(got.pair_to_fused) == sorted(want.pair_to_fused)  # sorted pair order


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(-2, 9), st.sampled_from([0, 3, 7, 40])), min_size=1, max_size=40),
    min_counts=st.lists(st.integers(0, 5), max_size=4),
)
def test_fuse_and_chained_cleanse_match_the_stored_oracle(pairs, min_counts):
    """Unsorted, repeated labels and chained cleanses, each step equal
    to the dict-based fusion that stored every fact; the same calls
    raise."""
    cfr, ad = (list(column) for column in zip(*pairs))
    got, want = fuse_labels(cfr, ad), oracles.fuse_labels(cfr, ad)
    _assert_same_labels(got, want)
    for m in min_counts:
        try:
            want = oracles.cleanse(want, m)
        except ValueError:
            with pytest.raises(ValueError, match="removes every sample"):
                cleanse(got, m)
            return
        got = cleanse(got, m)
        _assert_same_labels(got, want)
        np.testing.assert_array_equal(got.cfr_labels, cfr)
        np.testing.assert_array_equal(got.adcam_labels, ad)
