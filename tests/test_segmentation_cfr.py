import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from amdnloc.channel import render_image
from amdnloc import segmentation_cfr
from amdnloc.scenegen import Rect, SceneConfig, build_dataset
from amdnloc.segmentation_cfr import (
    UNLABELED,
    CfrLabeling,
    TemplatePair,
    _best_pairs,
    _corner_banks,
    _ImageStacks,
    _TemplateBank,
    _pruned_irfft2,
    _reindex,
    extract_templates,
    match_between,
    match_within,
    segment_cfr,
)
from oracles import ncc, pair_score, pair_scores


def ncc_oracle(template, source):
    """Exhaustive double-loop placement scan."""
    th, tw = template.shape
    sh, sw = source.shape
    t_energy = np.sum(template**2)
    if t_energy == 0:
        return 0.0
    best = 0.0
    for y in range(sh - th + 1):
        for x in range(sw - tw + 1):
            win = source[y : y + th, x : x + tw]
            e = np.sum(win**2)
            if e == 0:
                continue
            best = max(best, np.sum(template * win) / np.sqrt(t_energy * e))
    return min(best, 1.0)


class TestNcc:
    def test_exact_subregion_scores_one(self):
        rng = np.random.default_rng(0)
        src = rng.random((32, 32)) + 0.1
        tpl = src[5:13, 9:17].copy()
        assert ncc(tpl, src) == pytest.approx(1.0, abs=1e-9)

    def test_one_pixel_template(self):
        src = np.zeros((4, 4))
        src[2, 2] = 3.0
        assert ncc(np.array([[1.0]]), src) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            tpl = rng.random((16, 16))
            src = rng.random((64, 64))
            assert ncc(tpl, src) == pytest.approx(ncc_oracle(tpl, src), abs=1e-9)

    def test_oversize_template_rejected(self):
        with pytest.raises(ValueError):
            ncc(np.ones((5, 5)), np.ones((4, 6)))

    def test_zero_template_scores_zero(self):
        assert ncc(np.zeros((2, 2)), np.ones((4, 4))) == 0.0

    def test_zero_source_scores_zero(self):
        assert ncc(np.ones((2, 2)), np.zeros((4, 4))) == 0.0

    # pixels are either exactly zero or comfortably normal floats; squaring
    # denormals underflows and makes the zero-energy mask scale-dependent
    _pixels = st.floats(0, 1).map(lambda x: 0.0 if x < 1e-6 else x)

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(float, (4, 4), elements=_pixels),
        arrays(float, (9, 9), elements=_pixels),
        st.floats(0.1, 10.0),
    )
    def test_range_and_scale_invariance(self, tpl, src, c):
        v = ncc(tpl, src)
        assert 0.0 <= v <= 1.0
        assert ncc(c * tpl, src) == pytest.approx(v, abs=1e-9)
        assert ncc(tpl, c * src) == pytest.approx(v, abs=1e-9)


class TestExtractTemplates:
    def test_whole_image(self):
        img = np.arange(64, dtype=float).reshape(8, 8)
        pair = extract_templates(img, (8, 8))
        np.testing.assert_array_equal(pair.t1, img)
        np.testing.assert_array_equal(pair.t2, img)

    def test_corner_blocks(self):
        img = np.arange(36, dtype=float).reshape(6, 6)
        pair = extract_templates(img, (2, 2))
        np.testing.assert_array_equal(pair.t1, img[:2, :2])
        np.testing.assert_array_equal(pair.t2, img[4:, 4:])

    def test_slicing_oracle(self):
        rng = np.random.default_rng(2)
        img = rng.random((10, 14))
        a, b = 3, 5
        pair = extract_templates(img, (a, b))
        np.testing.assert_array_equal(pair.t1, img[:a, :b])
        np.testing.assert_array_equal(pair.t2, img[10 - a :, 14 - b :])

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            extract_templates(np.ones((4, 4)), (5, 2))


def shifted(img, dy, dx):
    return np.roll(img, (dy, dx), axis=(0, 1))


class TestMatchWithin:
    def test_single_image_single_category(self):
        lab = match_within([np.random.default_rng(0).random((8, 8))], 0.99, (4, 4))
        assert lab.class_count == 1
        assert list(lab.labels) == [0]

    def test_identical_images_share_category(self):
        img = np.random.default_rng(1).random((8, 8))
        lab = match_within([img, img.copy()], 0.99, (4, 4))
        assert list(lab.labels) == [0, 0]
        assert lab.class_count == 1

    def test_shifted_pair_plus_outlier(self):
        rng = np.random.default_rng(3)
        founder, shifted_copy = rng.random((10, 10)) + 0.5, rng.random((10, 10)) + 0.5
        # both founder corner blocks occur verbatim in the second image,
        # shifted away from its corners
        _plant_founder_corners(shifted_copy, founder)
        imgs = [founder, shifted_copy, rng.random((10, 10))]
        lab = match_within(imgs, 0.99, (3, 3))
        assert lab.labels[0] == lab.labels[1]
        assert lab.labels[2] != lab.labels[0]
        assert lab.class_count == 2

    def test_every_sample_labeled(self):
        rng = np.random.default_rng(4)
        imgs = [rng.random((12, 12)) for _ in range(10)]
        lab = match_within(imgs, 0.999, (6, 6))
        assert np.all(lab.labels != UNLABELED)
        assert np.all(lab.labels < lab.class_count)
        assert set(lab.founders) == set(range(lab.class_count))

    def test_fallback_adopts_earlier_category(self):
        # founder 2 matches nobody later but matches image 0: it adopts 0's label
        rng = np.random.default_rng(5)
        a = rng.random((10, 10)) + 0.5
        b = rng.random((10, 10))
        imgs = [a, b, a.copy()]
        lab = match_within(imgs, 0.999, (10, 10))
        assert lab.labels[2] == lab.labels[0]
        assert lab.class_count == 2


    def test_fallback_adopts_first_of_several_matches(self):
        # founder 2 recruits nobody; both corner blocks of it are planted in
        # images 0 and 1, which are in different categories: it takes 0's
        rng = np.random.default_rng(15)
        a, b, c = (rng.random((10, 10)) for _ in range(3))
        a[4:7, 1:4], a[1:4, 5:8] = c[:3, :3], c[7:, 7:]
        b[6:9, 6:9], b[0:3, 2:5] = c[:3, :3], c[7:, 7:]
        lab = match_within([a, b, c], 0.999, (3, 3))
        assert lab.labels[0] != lab.labels[1]
        assert lab.labels[2] == lab.labels[0]
        assert lab.class_count == 2


class TestMatchBetween:
    def test_no_merge_below_threshold(self):
        rng = np.random.default_rng(6)
        imgs = [rng.random((10, 10)) for _ in range(4)]
        lab = match_within(imgs, 0.9999, (6, 6))
        merged = match_between(lab, imgs, 0.9999)
        np.testing.assert_array_equal(merged.labels, lab.labels)

    def test_near_identical_founders_merge(self):
        rng = np.random.default_rng(7)
        a = rng.random((10, 10)) + 0.5
        # perturbation keeps founder similarity just below the strict stage-one
        # threshold but above the looser stage-two one
        a2 = a + 0.2 * rng.random((10, 10))
        b = rng.random((10, 10))
        lab = match_within([a, b, a2], 0.999, (4, 4))
        assert lab.labels[0] != lab.labels[2]
        merged = match_between(lab, [a, b, a2], 0.99)
        assert merged.labels[0] == merged.labels[2]
        assert merged.class_count == lab.class_count - 1

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        imgs = [rng.random((12, 12)) + 0.2 for _ in range(8)]
        lab = match_within(imgs, 0.995, (6, 6))
        once = match_between(lab, imgs, 0.98)
        twice = match_between(once, imgs, 0.98)
        np.testing.assert_array_equal(once.labels, twice.labels)
        assert once.class_count == twice.class_count


class TestSegmentCfr:
    def _two_cluster_images(self, n_per=6):
        rng = np.random.default_rng(9)
        a = rng.random((16, 16)) + 1.0
        b = rng.random((16, 16)) * 0.1
        b[0, 0] = 1.0  # distinct corner energy
        imgs = []
        for i in range(n_per):
            imgs.append(a)
            imgs.append(b)
        return imgs

    def test_single_sample(self):
        lab = segment_cfr([np.random.default_rng(0).random((8, 8))], size=(4, 4))
        assert lab.class_count == 1

    def test_duplicates_share_labels(self):
        rng = np.random.default_rng(10)
        base = [rng.random((12, 12)) for _ in range(4)]
        imgs = [im for im in base for _ in range(2)]
        lab = segment_cfr(imgs, 0.99, 0.99, (6, 6))
        for i in range(0, len(imgs), 2):
            assert lab.labels[i] == lab.labels[i + 1]

    def test_two_geometry_clusters_match_components_oracle(self):
        imgs = self._two_cluster_images()
        tau = 0.99
        size = (8, 8)
        lab = segment_cfr(imgs, tau, tau, size)
        # oracle: connected components of the pairwise dual-template NCC graph
        n = len(imgs)
        pairs = [extract_templates(im, size) for im in imgs]
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                if i != j:
                    s = min(ncc_oracle(pairs[i].t1, imgs[j]), ncc_oracle(pairs[i].t2, imgs[j]))
                    adj[i, j] = s >= tau
        from scipy.sparse.csgraph import connected_components

        n_comp, comp = connected_components(adj, directed=False)
        assert lab.class_count == n_comp == 2
        # identical partitions up to relabeling
        for i in range(n):
            for j in range(n):
                assert (lab.labels[i] == lab.labels[j]) == (comp[i] == comp[j])

    def test_determinism(self):
        rng = np.random.default_rng(11)
        imgs = [rng.random((12, 12)) for _ in range(12)]
        a = segment_cfr(imgs, 0.98, 0.98, (6, 6))
        b = segment_cfr(imgs, 0.98, 0.98, (6, 6))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tau_out_monotonicity(self):
        imgs = self._two_cluster_images()
        rng = np.random.default_rng(12)
        imgs = imgs + [rng.random((16, 16)) for _ in range(4)]
        counts = []
        for tau_out in (0.99, 0.98, 0.95, 0.9):
            counts.append(segment_cfr(imgs, 0.99, tau_out, (8, 8)).class_count)
        assert counts == sorted(counts, reverse=True)

    def test_labels_first_occurrence_ascending(self):
        rng = np.random.default_rng(13)
        imgs = [rng.random((10, 10)) for _ in range(10)]
        lab = segment_cfr(imgs, 0.97, 0.97, (5, 5))
        seen = []
        for l in lab.labels:
            if l not in seen:
                seen.append(int(l))
        assert seen == sorted(seen)


# ---------------------------------------------------------------------------
# the bank scorer against the scalar reference


@st.composite
def _bank_and_stack(draw):
    """A bank of same-shape templates and a stack of same-shape images
    they fit, with all-zero and faint templates, all-zero images and
    zero windows drawn often."""
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        a, b = h, w  # templates as large as the image
    else:
        a, b = draw(st.integers(1, h)), draw(st.integers(1, w))
    pixels = TestNcc._pixels
    templates = draw(arrays(float, (draw(st.integers(1, 4)), a, b), elements=pixels))
    for tpl in templates:
        kind = draw(st.sampled_from(["as drawn", "zero", "faint"]))
        if kind == "zero":
            tpl[:] = 0.0
        elif kind == "faint":
            tpl *= 1e-7
    stack = draw(arrays(float, (draw(st.integers(1, 4)), h, w), elements=pixels))
    for img in stack:
        kind = draw(st.sampled_from(["as drawn", "zero", "zero block", "faint"]))
        if kind == "zero":
            img[:] = 0.0
        elif kind == "faint":
            img *= 1e-7  # the zero-energy mask must scale per image
        elif kind == "zero block":
            y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
            img[y : y + a, x : x + b] = 0.0
    return templates, stack


@settings(max_examples=200, deadline=None)
@given(_bank_and_stack(), st.integers(1, 5))
def test_ncc_bank_matches_ncc(case, planes):
    templates, stack = case
    # few planes per temporary, so the chunking over images and templates runs
    with mock.patch.object(segmentation_cfr, "_PLANES", planes):
        stacks = _ImageStacks(list(stack), templates.shape[1:])
        got = stacks._score(_TemplateBank(templates, stack.shape[1:]), np.arange(len(stack)))
        pairs = [
            TemplatePair(t1=t, t2=t[::-1, ::-1].copy(), size=t.shape, founder_id=k)
            for k, t in enumerate(templates)
        ]
        indices = np.arange(len(stack))[::-1]
        scores = pair_scores(stacks, pairs, indices)
    assert got.shape == (len(templates), len(stack))
    for tpl, row in zip(templates, got):
        for score, img in zip(row, stack):
            assert score == pytest.approx(ncc(tpl, img), abs=1e-9)
    # the full-scoring routing oracle gives the scalar pair score, in the
    # order of the listed indices
    assert scores.shape == (len(pairs), len(indices))
    for pair, row in zip(pairs, scores):
        assert row == pytest.approx([pair_score(pair, stack[i]) for i in indices], abs=1e-9)


def test_stacks_and_banks_reject_mixed_shapes():
    rng = np.random.default_rng(16)
    images = [rng.random(shape) for shape in [(16, 16), (12, 18), (16, 16)]]
    with pytest.raises(ValueError, match=r"one shape.*\(12, 18\), \(16, 16\)"):
        _ImageStacks(images, (8, 8))
    pairs = [extract_templates(images[i], size, founder_id=i) for i, size in [(0, (8, 8)), (2, (5, 7)), (2, (8, 8))]]
    with pytest.raises(ValueError, match=r"more than one shape.*\(5, 7\), \(8, 8\)"):
        _corner_banks(pairs, (16, 16))
    # banks of one image shape score a stack of another image shape not at all
    stacks = _ImageStacks([images[0], images[2]], (8, 8))
    with pytest.raises(ValueError, match=r"\(12, 18\) images"):
        stacks.pair_hits(_corner_banks([pairs[0]], (12, 18)), np.array([0, 1]), 0.5)
    with pytest.raises(ValueError, match=r"\(12, 18\) images"):
        _best_pairs(_corner_banks([pairs[0], pairs[2]], (12, 18)), [images[0], images[2]])


def test_ncc_bank_oversize_template_rejected():
    # neither a stack nor a bank is built for templates larger than the images
    with pytest.raises(ValueError):
        _ImageStacks(list(np.ones((2, 4, 6))), (5, 5))
    with pytest.raises(ValueError):
        _TemplateBank(np.ones((1, 5, 5)), (4, 6))


def test_ncc_bank_rejects_images_of_another_shape():
    # (4, 6) and (4, 7) images have spectra of one shape; their windows differ
    bank = _TemplateBank(np.ones((1, 2, 2)), (4, 6))
    stacks = _ImageStacks([np.ones((4, 7))], (2, 2))
    with pytest.raises(ValueError, match="do not fit"):
        stacks._score(bank, np.arange(1))


@pytest.mark.parametrize(
    "image_shape, template_shape, bank_image_shape, bank_template_shape",
    [
        ((8, 8), (4, 4), (8, 8), (3, 3)),
        # spectra (5, 4) and windows (4, 6) either way: only the shapes differ
        ((5, 6), (2, 1), (5, 7), (2, 2)),
    ],
)
def test_image_stacks_reject_a_bank_of_another_template_shape(
    image_shape, template_shape, bank_image_shape, bank_template_shape
):
    rng = np.random.default_rng(22)
    stacks = _ImageStacks([rng.random(image_shape) for _ in range(3)], template_shape)
    bank = _TemplateBank(rng.random((2, *bank_template_shape)), bank_image_shape)
    with pytest.raises(ValueError, match="do not fit"):
        stacks._score(bank, np.arange(3))
    with pytest.raises(ValueError, match="do not fit"):
        stacks._score_pairs(bank, np.array([0, 1]), np.array([2, 0]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.data(), st.sampled_from([1.0, 1e-7]), st.integers(0, 2**32 - 1))
def test_pruned_inverse_equals_full_irfft2_crop(h, w, data, scale, seed):
    # odd and even sides, templates from 1x1 up to the whole image, faint images
    a, b = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
    rng = np.random.default_rng(seed)
    bank = _TemplateBank(rng.random((3, a, b)), (h, w))
    spec = bank.spectra[:, None] * np.fft.rfft2(scale * rng.random((2, h, w)))
    full = np.fft.irfft2(spec, s=(h, w))[..., : h - a + 1, : w - b + 1]
    assert np.array_equal(_pruned_irfft2(spec, (h, w), (a, b)), full)


@st.composite
def _images_and_pairs(draw):
    """Images of one shape, with all-zero, faint and zero-block images
    drawn often, template pairs of one shape that fits them, and the
    listed image indices in a drawn order."""
    pixels = TestNcc._pixels
    h, w = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    size = draw(st.integers(1, h)), draw(st.integers(1, w))
    images = []
    for _ in range(draw(st.integers(1, 9))):
        img = draw(arrays(float, (h, w), elements=pixels))
        kind = draw(st.sampled_from(["as drawn", "zero", "zero block", "faint"]))
        if kind == "zero":
            img[:] = 0.0
        elif kind == "faint":
            img *= 1e-7
        elif kind == "zero block":
            y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
            img[y : y + size[0], x : x + size[1]] = 0.0
        images.append(img)
    pairs = []
    for k in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):  # cut from an image, so some scores reach 1
            pairs.append(extract_templates(draw(st.sampled_from(images)), size, founder_id=k))
        else:
            t1, t2 = (draw(arrays(float, size, elements=pixels)) for _ in range(2))
            pairs.append(TemplatePair(t1=t1, t2=t2, size=size, founder_id=k))
    indices = draw(st.lists(st.integers(0, len(images) - 1), unique=True))
    return images, pairs, np.array(indices, dtype=int)


@settings(max_examples=200, deadline=None)
@given(_images_and_pairs(), st.integers(1, 5), st.sampled_from([0.5, 0.9, 0.99, 1.0]))
def test_image_stacks_match_pair_score(case, planes, tau):
    images, pairs, indices = case
    # few images per chunk, so the spectrum and energy builds cross chunks
    with mock.patch.object(segmentation_cfr, "_PLANES", planes):
        stacks = _ImageStacks(images, pairs[0].size)
        scores = pair_scores(stacks, pairs, indices)
        banks = [_corner_banks([pair], stacks.shape) for pair in pairs]
        hits = [stacks.pair_hits(b, indices, tau) for b in banks]
        firsts = [stacks.first_hit(b, indices, tau) for b in banks]
    for n, img in enumerate(images):
        assert np.array_equal(stacks._spectra[n], np.fft.rfft2(img))
    assert scores.shape == (len(pairs), len(indices))
    for pair, row, hit, first in zip(pairs, scores, hits, firsts):
        # the run-by-run scan stops at the first image the full scan holds
        assert first == (int(indices[hit][0]) if hit.any() else None)
        want = np.array([pair_score(pair, images[i]) for i in indices])
        assert row == pytest.approx(want, abs=1e-9)
        # a score within the bound of tau may fall on either side of it
        clear = np.abs(want - tau) > 1e-9
        np.testing.assert_array_equal(hit[clear], (want >= tau)[clear])


@st.composite
def _routing_case(draw):
    """Images as ``_images_and_pairs`` draws them, and founders among
    which some repeat an earlier founder exactly, so their scores tie,
    and some have an all-zero corner or two."""
    images, pairs, _ = draw(_images_and_pairs())
    founders = list(pairs)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["repeat", "zero t1", "zero t2", "zero"]))
        base = draw(st.sampled_from(founders))
        zero = np.zeros(base.size)
        t1 = zero if kind in ("zero t1", "zero") else base.t1
        t2 = zero if kind in ("zero t2", "zero") else base.t2
        at = draw(st.integers(0, len(founders)))
        founders.insert(at, TemplatePair(t1=t1, t2=t2, size=base.size, founder_id=len(founders)))
    return images, founders


@settings(max_examples=200, deadline=None)
@given(_routing_case(), st.integers(1, 5))
def test_best_pairs_equal_argmax_of_full_scores(case, planes):
    images, founders = case
    # few planes per temporary, so both the t1 bank and the pair scoring chunk
    with mock.patch.object(segmentation_cfr, "_PLANES", planes):
        got = _best_pairs(_corner_banks(founders, images[0].shape), images)
        stacks = _ImageStacks(images, founders[0].size)
        cols = np.arange(len(images))
        full = pair_scores(stacks, founders, cols)
        # the pairwise scores are bit-equal to the whole-bank ones, so
        # exact ties between founders fall the same way
        t2 = _corner_banks(founders, stacks.shape)[1]
        f, i = np.divmod(np.arange(len(founders) * len(images)), len(images))
        assert np.array_equal(stacks._score_pairs(t2, f, i), stacks._score(t2, cols)[f, i])
    assert np.array_equal(got, np.argmax(full, axis=0))


def test_best_pairs_tie_goes_to_the_first_founder():
    rng = np.random.default_rng(19)
    images = [rng.random((12, 12)) for _ in range(4)]
    pairs = [extract_templates(img, (5, 5), founder_id=k) for k, img in enumerate(images)]
    # founders 1 and 3 repeat founders 0 and 2, so each pair of copies ties
    founders = [pairs[0], pairs[0], pairs[2], pairs[2], pairs[1], pairs[3]]
    assert _best_pairs(_corner_banks(founders, (12, 12)), images).tolist() == [0, 4, 2, 5]


def test_best_pairs_score_a_second_corner_only_where_it_can_win():
    rng = np.random.default_rng(20)
    images = [rng.random((12, 12)) for _ in range(6)]
    founders = [extract_templates(img, (5, 5), founder_id=k) for k, img in enumerate(images)]
    images.append(np.zeros((12, 12)))  # every founder scores 0 on it and ties
    scored = []
    score_pairs = _ImageStacks._score_pairs

    def counted(self, bank, templates, rows):
        scored.extend(zip(templates.tolist(), rows.tolist()))
        return score_pairs(self, bank, templates, rows)

    with mock.patch.object(_ImageStacks, "_score_pairs", counted):
        got = _best_pairs(_corner_banks(founders, (12, 12)), images)
    # each image's own founder scores about 1 and no other t1 comes near;
    # on the zero image no later founder can beat the first one's tie
    assert got.tolist() == [0, 1, 2, 3, 4, 5, 0]
    assert sorted(scored) == sorted([(k, k) for k in range(6)] + [(0, 6)])


def test_best_pairs_of_one_founder_score_nothing():
    rng = np.random.default_rng(21)
    images = [rng.random((8, 8)) for _ in range(3)]
    banks = _corner_banks([extract_templates(images[0], (4, 4))], (8, 8))
    with mock.patch.object(segmentation_cfr, "_ImageStacks") as stacks:
        got = _best_pairs(banks, images)
    assert got.tolist() == [0, 0, 0] and got.dtype.kind == "i"
    stacks.assert_not_called()


def test_image_stacks_keep_spectra_not_images():
    rng = np.random.default_rng(17)
    images = [rng.random((32, 32)) for _ in range(300)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stacks = _ImageStacks(images, (16, 16))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = stacks._spectra.nbytes + stacks._windows.nbytes + stacks._valid.nbytes
    # a stacked copy of the images next to these would add about 70 %
    assert kept <= 1.1 * arrays


# ---------------------------------------------------------------------------
# the two stages against the pair-by-pair scans they replace


def match_within_oracle(images, tau_in, size):
    """Stage one scored one (founder, image) pair at a time."""
    m = len(images)
    labels = np.full(m, UNLABELED, dtype=int)
    founders = {}
    class_num = 0
    for i in range(m):
        if labels[i] != UNLABELED:
            continue
        pair = extract_templates(images[i], size, founder_id=i)
        labels[i] = class_num
        recruited = False
        for j in range(i + 1, m):
            if labels[j] != UNLABELED:
                continue
            if pair_score(pair, images[j]) >= tau_in:
                labels[j] = class_num
                recruited = True
        if not recruited:
            for k in range(i):
                if pair_score(pair, images[k]) >= tau_in:
                    labels[i] = labels[k]
                    break
        if labels[i] == class_num:
            founders[class_num] = pair
            class_num += 1
    return CfrLabeling(labels=labels, founders=founders, class_count=class_num)


def match_between_oracle(labeling, images, tau_out, memo):
    """Stage two scored one founder pair at a time. ``memo`` caches each
    (founder, founder image) score by founder ids, so several thresholds
    can share the scan."""
    k = labeling.class_count
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    cats = sorted(labeling.founders)
    for i in cats:
        for j in cats:
            if i == j:
                continue
            key = (labeling.founders[i].founder_id, labeling.founders[j].founder_id)
            if key not in memo:
                memo[key] = pair_score(labeling.founders[i], images[key[1]])
            if memo[key] >= tau_out:
                union(i, j)

    merged = np.array([find(int(lab)) for lab in labeling.labels])
    root_founders = {find(c): labeling.founders[find(c)] for c in cats}
    new_labels, new_founders = _reindex(merged, root_founders)
    return CfrLabeling(labels=new_labels, founders=new_founders, class_count=len(new_founders))


def _assert_same_labeling(got, want):
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.class_count == want.class_count
    assert sorted(got.founders) == sorted(want.founders)
    for c, pair in want.founders.items():
        assert got.founders[c].founder_id == pair.founder_id
        np.testing.assert_array_equal(got.founders[c].t1, pair.t1)
        np.testing.assert_array_equal(got.founders[c].t2, pair.t2)


@pytest.fixture(scope="module")
def invariants_scene_images():
    """CFR magnitude images of the scene in test_segmentation_invariants."""
    scene = SceneConfig(
        area_m=(100.0, 100.0),
        bs_pos=(5.0, 50.0),
        buildings=[Rect(30.0, 20.0, 15.0, 20.0), Rect(60.0, 55.0, 20.0, 15.0)],
        grid_spacing_m=5.7,
        nt=16,
        nc=16,
        seed=11,
    )
    return [render_image(s.cfr, "cfr_magnitude") for s in build_dataset(scene)]


def test_stages_match_pairwise_scan_on_scene(invariants_scene_images):
    images = invariants_scene_images
    within = match_within(images, 0.97, (8, 8))
    within_ref = match_within_oracle(images, 0.97, (8, 8))
    _assert_same_labeling(within, within_ref)
    assert within.class_count > 100  # most founders recruit nobody here
    memo = {}
    for tau_out in (0.99, 0.98, 0.95, 0.9):
        merged = match_between(within, images, tau_out)
        _assert_same_labeling(merged, match_between_oracle(within_ref, images, tau_out, memo))
        again = match_between(merged, images, tau_out)
        _assert_same_labeling(again, match_between_oracle(merged, images, tau_out, memo))
    want = match_between_oracle(within_ref, images, 0.99, memo)
    _assert_same_labeling(segment_cfr(images, 0.97, 0.99, (8, 8)), want)


def test_stages_match_pairwise_scan_on_shifted_views():
    rng = np.random.default_rng(14)
    big = rng.random((20, 20)) + 0.5
    other = rng.random((16, 16)) + 0.5
    images = []
    for n in range(24):
        kind = n % 4
        if kind == 0:
            images.append(big[2:18, 2:18] + 0.05 * rng.random((16, 16)))
        elif kind == 1:
            images.append(big[:16, 4:] + 0.05 * rng.random((16, 16)))
        elif kind == 2:
            images.append(other + 0.3 * rng.random((16, 16)))
        else:
            images.append(rng.random((16, 16)))
    for tau_in in (0.999, 0.97, 0.9):
        within = match_within(images, tau_in, (6, 6))
        _assert_same_labeling(within, match_within_oracle(images, tau_in, (6, 6)))
        memo = {}
        for tau_out in (0.99, 0.95, 0.85):
            want = match_between_oracle(within, images, tau_out, memo)
            _assert_same_labeling(match_between(within, images, tau_out), want)


def test_match_within_rejects_mixed_shapes():
    rng = np.random.default_rng(14)
    images = [rng.random((16, 16)), rng.random((20, 20)), rng.random((16, 16))]
    with pytest.raises(ValueError, match=r"one shape.*\(16, 16\), \(20, 20\)"):
        match_within(images, 0.99, (6, 6))
    with pytest.raises(ValueError, match="one shape"):
        segment_cfr(images, 0.99, 0.99, (6, 6))


def _plant_founder_corners(image, founder):
    """Copy the 3x3 corner blocks of ``founder`` inside ``image``, away
    from its own lower-right corner, so the founder's pair matches the
    image while the image's own pair does not match the founder."""
    image[4:7, 1:4] = founder[:3, :3]
    image[1:4, 5:8] = founder[7:, 7:]


def test_fallback_hit_past_the_first_run():
    # runs of 1, 2, 4 and 8 images: the first hit, image 4, lies in the
    # third run with image 6, and image 8 in the fourth matches too
    rng = np.random.default_rng(18)
    images = [rng.random((10, 10)) for _ in range(11)]
    for k in (4, 6, 8):
        _plant_founder_corners(images[k], images[10])
    with mock.patch.object(segmentation_cfr, "_PLANES", 1):
        got = match_within(images, 0.999, (3, 3))
    _assert_same_labeling(got, match_within_oracle(images, 0.999, (3, 3)))
    assert got.labels[10] == got.labels[4]
    assert len({got.labels[4], got.labels[6], got.labels[8]}) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 3), st.data())
def test_fallback_takes_first_hit_in_runs(planes, n, trailing, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    images = [rng.random((10, 10)) for _ in range(n + 1 + trailing)]
    # image n recruits none of the trailing images and falls back to the
    # first of the planted earlier ones
    planted = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4))
    for k in planted:
        _plant_founder_corners(images[k], images[n])
    with mock.patch.object(segmentation_cfr, "_PLANES", planes):
        got = match_within(images, 0.999, (3, 3))
    _assert_same_labeling(got, match_within_oracle(images, 0.999, (3, 3)))
    if planted:
        assert got.labels[n] == got.labels[min(planted)]
