import contextlib
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from amdnloc import channel, segmentation_cfr
from amdnloc.channel import render_image
from amdnloc.scenegen import Rect, SceneConfig, build_dataset
from amdnloc.segmentation_cfr import (
    UNLABELED,
    CfrLabeling,
    TemplatePair,
    _best_pairs,
    _corner_banks,
    _ImageStacks,
    _TemplateBank,
    _band_matrices,
    _ncc_planes,
    _pruned_irfft2,
    _window_energy,
    extract_templates,
    match_between,
    match_within,
    segment_cfr,
)
from oracles import (
    masked_scores,
    match_within_sequential,
    ncc,
    pair_score,
    pair_scores,
    refuse_numpy_inverse_ffts,
    reindex,
    valid_windows,
    window_energy,
)


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
    with mock.patch.object(channel, "_CHUNK", planes):
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
    t1, t2 = _corner_banks([pairs[0]], (12, 18))
    with pytest.raises(ValueError, match=r"\(12, 18\) images"):
        stacks._score(t1, np.array([0, 1]))
    with pytest.raises(ValueError, match=r"\(12, 18\) images"):
        stacks._score_pairs(t2, np.array([0, 0]), np.array([0, 1]))
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
    # spectra with their axes swapped, as banks and stacks keep them
    spec = bank.spectra[:, None] * np.fft.rfft2(scale * rng.random((2, h, w))).swapaxes(-2, -1)
    full = np.fft.irfft2(spec.swapaxes(-2, -1), s=(h, w))[..., : h - a + 1, : w - b + 1]
    # placements come back with their axes swapped too; the matrices round
    # apart from pocketfft (largest difference seen: 1.1e-16 of max|spec|)
    got = _pruned_irfft2(spec, (h, w), (a, b)).swapaxes(-2, -1)
    assert got.shape == full.shape
    assert np.max(np.abs(got - full)) <= 1e-12 * np.max(np.abs(spec))


@st.composite
def _wide_range_images(draw):
    """A stack of images whose pixels span 16 decades, with zero blocks
    and faint halves drawn often, and a window shape that fits them."""
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    a, b = draw(st.integers(1, h)), draw(st.integers(1, w))
    n = draw(st.integers(1, 4))
    mantissas = draw(arrays(float, (n, h, w), elements=st.floats(1.0, 10.0, exclude_max=True)))
    decades = draw(arrays(int, (n, h, w), elements=st.integers(-16, 0)))
    stack = mantissas * 10.0**decades
    for img in stack:
        kind = draw(st.sampled_from(["as drawn", "zero block", "faint half"]))
        y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        if kind == "zero block":
            img[y : y + a, x : x + b] = 0.0
        elif kind == "faint half":
            img[y:] *= 1e-8
    return stack, (a, b)


@settings(max_examples=300, deadline=None)
@given(_wide_range_images())
def test_window_energy_box_sums_equal_the_einsum(case):
    stack, shape = case
    got, want = _window_energy(stack, shape), window_energy(stack, shape)
    assert got.shape == want.shape
    # sums of nonnegative terms in another order: a few eps apart, relative
    # to every window, faint ones too (4.4 eps the largest seen), and exact
    # where every term is 0
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * want)
    assert np.all(got[want == 0.0] == 0.0)
    assert np.array_equal(segmentation_cfr._valid_windows(got), segmentation_cfr._valid_windows(want))


def _fresh_bands(source_shape, shape):
    (h, w), (a, b) = source_shape, shape
    y = np.arange(h) - np.arange(h - a + 1)[:, None]
    x = np.arange(w)[:, None] - np.arange(w - b + 1)
    return ((0 <= y) & (y < a)).astype(float), ((0 <= x) & (x < b)).astype(float)


@settings(max_examples=200, deadline=None)
@given(_wide_range_images())
def test_window_energy_equals_it_with_fresh_bands(case):
    stack, shape = case
    rows, cols = _fresh_bands(stack.shape[-2:], shape)
    assert _window_energy(stack, shape).tobytes() == (rows @ (stack * stack) @ cols).tobytes()
    cached = _band_matrices(stack.shape[-2:], shape)
    assert cached is _band_matrices(stack.shape[-2:], shape)
    for band, fresh in zip(cached, (rows, cols)):
        assert not band.flags.writeable and band.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            band[0, 0] = 2.0


def _gathered_scores(stacks, bank, rows):
    """``_ImageStacks._score`` with each chunk's template spectra and
    ``rnorm`` gathered by index, the gather form the slices replace."""
    count, n = len(bank.rnorm), len(rows)
    scores = np.zeros((count, n))
    n_step = max(1, min(n, channel._CHUNK))
    t_step = max(1, channel._CHUNK // n_step)
    for i in range(0, n, n_step):
        img = rows[i : i + n_step]
        for j in range(0, count, t_step):
            t = np.arange(j, min(j + t_step, count))[:, None]
            scores[t[:, 0], i : i + n_step] = _ncc_planes(
                bank.spectra[t], bank.rnorm[t], stacks._spectra[img], stacks._rwin[img], bank.image_shape, bank.shape
            )
    return scores


@pytest.mark.parametrize("count", [channel._CHUNK - 1, channel._CHUNK, channel._CHUNK + 1])
@pytest.mark.parametrize("n", [1, channel._CHUNK - 1, channel._CHUNK + 1])
def test_scores_of_sliced_templates_equal_the_gather_form(count, n):
    rng = np.random.default_rng(count * 1000 + n)
    images = list(rng.random((n, 6, 7)) ** 3)
    templates = rng.random((count, 3, 4)) ** 2
    templates[count // 2] = 0.0  # an all-zero template scores 0
    stacks = _ImageStacks(images, (3, 4))
    bank = _TemplateBank(templates, stacks.shape)
    rows = rng.permutation(n)
    passed = []
    kernel = segmentation_cfr._ncc_planes

    def seen(template_spectra, *args):
        passed.append(template_spectra)
        return kernel(template_spectra, *args)

    with mock.patch.object(segmentation_cfr, "_ncc_planes", seen):
        got = stacks._score(bank, rows)
    # every chunk's templates are a view of the bank's spectra, not a copy
    assert passed and all(ts.base is not None and np.shares_memory(ts, bank.spectra) for ts in passed)
    want = _gathered_scores(stacks, bank, rows)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[count // 2] == 0.0) and not np.any(np.signbit(got))
    picks = rng.integers(0, count, size=n)
    assert stacks._score_pairs(bank, picks, rows).tobytes() == want[picks, np.arange(n)].tobytes()


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
@given(_images_and_pairs(), st.integers(1, 5))
def test_image_stacks_match_pair_score(case, planes):
    images, pairs, indices = case
    # few images per chunk, so the spectrum and energy builds cross chunks
    with mock.patch.object(channel, "_CHUNK", planes):
        stacks = _ImageStacks(images, pairs[0].size)
        scores = pair_scores(stacks, pairs, indices)
    for n, img in enumerate(images):
        assert np.array_equal(stacks._spectra[n], np.fft.rfft2(img).swapaxes(-2, -1))
    assert scores.shape == (len(pairs), len(indices))
    for pair, row in zip(pairs, scores):
        want = np.array([pair_score(pair, images[i]) for i in indices])
        assert row == pytest.approx(want, abs=1e-9)


def _exact_zeros_and_bounds(templates, images, indices):
    """Where the scores of templates against the listed images must be
    exactly +0.0, (T, len(indices)): an all-zero template, or an image
    with no scored window. And how far the scores of two roundings of
    the FFT numerator may lie apart, per listed image: 1e-12, or more
    where a faint scored window magnifies the rounding. The rounding of
    an inverse DFT is a few eps times the image's norm, and a window of
    energy E_w turns it into a score error of that many eps times
    sqrt(E_img / E_w); the faintest scored window (energy down to 1e-12
    of the largest) bounds every placement. 2e-15 is about 9 eps; the
    largest error seen in a random search of faint windows was 2.6 eps."""
    stack = np.array(images, dtype=float)[indices]
    win = window_energy(stack, templates.shape[1:])
    scored = valid_windows(win)
    faintest = np.min(np.where(scored, win, np.inf), axis=(1, 2))
    bounds = np.maximum(1e-12, 2e-15 * np.sqrt(np.sum(stack * stack, axis=(1, 2)) / faintest))
    zeros = (np.sum(templates * templates, axis=(1, 2)) == 0.0)[:, None] | ~np.any(scored, axis=(1, 2))
    return zeros, bounds


def _assert_exact_zeros(scores, zeros):
    assert np.all(scores[zeros] == 0.0) and not np.any(np.signbit(scores[zeros]))


@settings(max_examples=200, deadline=None)
@given(_images_and_pairs(), st.integers(1, 5), st.data())
def test_scores_equal_the_masked_kernel(case, planes, data):
    images, pairs, indices = case
    # the pairs' templates and an all-zero one, which must score 0
    templates = np.stack([t for pair in pairs for t in (pair.t1, pair.t2)] + [np.zeros(pairs[0].size)])
    picks = np.array(data.draw(st.lists(st.integers(0, len(templates) - 1), min_size=len(indices), max_size=len(indices))), dtype=int)
    # few planes per temporary, so the per-chunk gathers cross chunks
    with mock.patch.object(channel, "_CHUNK", planes):
        stacks = _ImageStacks(images, pairs[0].size)
        bank = _TemplateBank(templates, stacks.shape)
        got = stacks._score(bank, indices)
        got_pairs = stacks._score_pairs(bank, picks, indices)
    # the inverse DFT rounds apart from the oracle's pocketfft
    zeros, bounds = _exact_zeros_and_bounds(templates, images, indices)
    want = masked_scores(templates, images, indices)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bounds)
    _assert_exact_zeros(got, zeros)
    k = np.arange(len(indices))
    want = masked_scores(templates, images, indices, picks)
    assert got_pairs.shape == want.shape
    assert np.all(np.abs(got_pairs - want) <= bounds)
    _assert_exact_zeros(got_pairs, zeros[picks, k])


@settings(max_examples=200, deadline=None)
@given(_images_and_pairs(), st.integers(1, 5), st.data())
def test_a_score_does_not_depend_on_its_call(case, planes, data):
    images, pairs, _ = case
    templates = np.stack([t for pair in pairs for t in (pair.t1, pair.t2)] + [np.zeros(pairs[0].size)])
    n, count = len(images), len(templates)
    rows = np.array(data.draw(st.permutations(range(n))))[: data.draw(st.integers(1, n))]
    keep = sorted(data.draw(st.sets(st.integers(0, count - 1), min_size=1)))
    t, i = np.divmod(np.array(data.draw(st.permutations(range(count * n))), dtype=int), n)
    # few planes per temporary, so calls chunk differently
    with mock.patch.object(channel, "_CHUNK", planes):
        stacks = _ImageStacks(images, pairs[0].size)
        bank = _TemplateBank(templates, stacks.shape)
        full = stacks._score(bank, np.arange(n))
        for k in range(n):
            assert np.array_equal(stacks._score(bank, np.array([k])), full[:, [k]])
        # any subset of the images in any order, and any subset of the bank
        assert np.array_equal(stacks._score(bank, rows), full[:, rows])
        sub = _TemplateBank(templates[keep], stacks.shape)
        assert np.array_equal(stacks._score(sub, rows), full[np.ix_(keep, rows)])
        # every (template, image) pair, in a drawn order
        assert np.array_equal(stacks._score_pairs(bank, t, i), full[t, i])
    _assert_exact_zeros(full, _exact_zeros_and_bounds(templates, images, np.arange(n))[0])


@pytest.mark.parametrize("side", [64, 128])
def test_a_score_does_not_depend_on_its_call_at_large_shapes(side):
    # 16x16 templates on 64x64 images, the scene default, and on 128x128
    # images, whose per-plane products OpenBLAS splits across two threads
    rng = np.random.default_rng(29)
    images = list(rng.random((12, side, side)) ** 4)
    templates = np.stack([images[k][:16, :16] for k in (0, 5)] + list(rng.random((4, 16, 16))))
    n, count = len(images), len(templates)
    stacks = _ImageStacks(images, (16, 16))
    bank = _TemplateBank(templates, stacks.shape)
    full = stacks._score(bank, np.arange(n))
    assert full[[0, 1], [0, 5]] == pytest.approx(1.0, abs=1e-12)
    for k in range(n):
        assert np.array_equal(stacks._score(bank, np.array([k])), full[:, [k]])
    rows = rng.permutation(n)
    assert np.array_equal(stacks._score(bank, rows), full[:, rows])
    assert np.array_equal(stacks._score(bank, rows[:5]), full[:, rows[:5]])
    t, i = np.divmod(rng.permutation(count * n), n)
    assert np.array_equal(stacks._score_pairs(bank, t, i), full[t, i])


@settings(max_examples=200, deadline=None)
@given(_images_and_pairs(), st.integers(1, 5), st.integers(1, 5), st.data())
def test_stacks_keep_one_spectrum_and_window_row_per_image(case, planes, sub_planes, data):
    # stage two reads scores stage one took on another stack, so an image's
    # spectrum and 1/sqrt window energies must not depend on its stack
    images, pairs, _ = case
    n = len(images)
    rows = np.array(data.draw(st.permutations(range(n))))[: data.draw(st.integers(1, n))]
    with mock.patch.object(channel, "_CHUNK", planes):
        full = _ImageStacks(images, pairs[0].size)
    with mock.patch.object(channel, "_CHUNK", sub_planes):
        sub = _ImageStacks([images[r] for r in rows], pairs[0].size)
    for k, r in enumerate(rows):
        assert np.array_equal(sub._spectra[k], full._spectra[r])
        assert np.array_equal(sub._rwin[k], full._rwin[r])


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
    with mock.patch.object(channel, "_CHUNK", planes):
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


def test_scoring_takes_no_numpy_inverse_fft(monkeypatch):
    rng = np.random.default_rng(23)
    images = [rng.random((12, 12)) for _ in range(10)]
    images += [img.copy() for img in images[:3]]
    refuse_numpy_inverse_ffts(monkeypatch)
    lab = segment_cfr(images, 0.95, 0.9, (5, 5))
    pairs = [lab.founders[c] for c in sorted(lab.founders)]
    assert len(pairs) > 1
    assert len(_best_pairs(_corner_banks(pairs, (12, 12)), images)) == len(images)


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
    arrays = stacks._spectra.nbytes + stacks._rwin.nbytes
    # a stacked copy of the images next to these would add about 75 %
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
    new_labels, new_founders = reindex(merged, root_founders)
    return CfrLabeling(labels=new_labels, founders=new_founders, class_count=len(new_founders))


def _assert_same_labeling(got, want):
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.class_count == want.class_count
    assert sorted(got.founders) == sorted(want.founders)
    for c, pair in want.founders.items():
        assert got.founders[c].founder_id == pair.founder_id
        np.testing.assert_array_equal(got.founders[c].t1, pair.t1)
        np.testing.assert_array_equal(got.founders[c].t2, pair.t2)


def _assert_same_stage_one(got, want):
    """Labels, founders and category count, and the scores table bit
    for bit, NaN entries included."""
    _assert_same_labeling(got, want)
    assert got.labels.dtype == want.labels.dtype
    assert got.scores.shape == want.scores.shape
    assert got.scores.tobytes() == want.scores.tobytes()


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


def test_stage_one_equals_the_sequential_scan_on_scene(invariants_scene_images):
    images = invariants_scene_images
    for tau_in in (0.97, 0.9):
        _assert_same_stage_one(match_within(images, tau_in, (8, 8)), match_within_sequential(images, tau_in, (8, 8)))


def _corner_scoring(name=int):
    """A patch of ``segmentation_cfr._corner_bank``,
    ``_ImageStacks._score`` and ``_ImageStacks._score_pairs``, and the two
    lists it fills: every score taken, as (template, side, row) triples,
    and the (template, side) of the templates of each bank built. A
    template is told by ``name`` of the index of the image
    ``_corner_bank`` cuts it from, and by its side (0 for t1, 1 for t2),
    not by its pixels, which may repeat."""
    taken, built = [], []
    templates = {}  # id of each bank -> (bank, its templates' images and sides); the bank keeps its id unique
    corner_bank, score, score_pairs = segmentation_cfr._corner_bank, _ImageStacks._score, _ImageStacks._score_pairs

    def recorded_bank(images, rows, side, stacks):
        bank = corner_bank(images, rows, side, stacks)
        templates[id(bank)] = (bank, [(name(int(i)), ("t1", "t2").index(side)) for i in rows])
        built.append(templates[id(bank)][1])
        return bank

    def recorded_score(self, bank, rows):
        taken.extend((*t, int(r)) for t in templates[id(bank)][1] for r in rows)
        return score(self, bank, rows)

    def recorded_pairs(self, bank, picks, rows):
        taken.extend((*templates[id(bank)][1][t], int(r)) for t, r in zip(picks, rows))
        return score_pairs(self, bank, picks, rows)

    @contextlib.contextmanager
    def patch():
        with mock.patch.object(segmentation_cfr, "_corner_bank", recorded_bank), mock.patch.object(
            _ImageStacks, "_score", recorded_score
        ), mock.patch.object(_ImageStacks, "_score_pairs", recorded_pairs):
            yield

    return patch(), taken, built


def test_stage_one_scores_no_pair_twice(invariants_scene_images):
    images = invariants_scene_images
    patch, scored, _ = _corner_scoring()
    with patch:
        got = match_within(images, 0.97, (8, 8))
    assert scored and len(set(scored)) == len(scored)
    # and no template scores its own image
    assert all(i != r for i, _, r in scored)
    _assert_same_stage_one(got, match_within_sequential(images, 0.97, (8, 8)))


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
        _assert_same_stage_one(within, match_within_sequential(images, tau_in, (6, 6)))
        memo = {}
        for tau_out in (0.99, 0.95, 0.85):
            want = match_between_oracle(within, images, tau_out, memo)
            _assert_same_labeling(match_between(within, images, tau_out), want)


def _fresh_scores(labeling, images):
    """Every (K, K, 2) score of ``labeling.scores``, scored afresh on a
    stack of the founder images."""
    k = labeling.class_count
    pairs = [labeling.founders[c] for c in range(k)]
    stacks = _ImageStacks([images[pair.founder_id] for pair in pairs], pairs[0].size)
    banks = _corner_banks(pairs, stacks.shape)
    return np.stack([stacks._score(bank, np.arange(k)) for bank in banks], axis=-1)


def _assert_scores_were_taken(labeling, images):
    """Every entry of ``labeling.scores`` that is not NaN is the score
    its category's founder template takes on the other category's
    founder image, bit for bit, scored afresh on a stack of the founder
    images."""
    k = labeling.class_count
    fresh = _fresh_scores(labeling, images)
    assert labeling.scores.shape == (k, k, 2)
    taken = ~np.isnan(labeling.scores)
    assert np.array_equal(labeling.scores[taken], fresh[taken])
    return taken


def _stage_two_scoring(labeling):
    """``_corner_scoring`` for ``match_between`` on ``labeling``: a
    template is told by its category, whose founder image it is cut
    from, and a stack's rows are the categories."""
    category = {pair.founder_id: c for c, pair in labeling.founders.items()}
    return _corner_scoring(category.__getitem__)


def test_stage_two_scores_only_what_stage_one_left(invariants_scene_images):
    images = invariants_scene_images[::2]
    for tau_in, tau_outs in ((0.97, (0.99, 0.95, 0.9)), (0.9, (0.95, 0.85))):
        within = match_within(images, tau_in, (8, 8))
        kept = _assert_scores_were_taken(within, images)
        # stage one scored t1 of every kept founder on each later founder
        later = np.triu(np.ones((within.class_count,) * 2, dtype=bool), 1)
        assert kept[..., 0][later].all()
        blank = dataclasses.replace(within, scores=np.full_like(within.scores, np.nan))
        memo = {}
        for tau_out in tau_outs:
            patch, taken, _ = _stage_two_scoring(within)
            with patch:
                got = match_between(within, images, tau_out)
            # stage two scores only entries the table lacks, each once
            assert taken and len(set(taken)) == len(taken)
            assert all(np.isnan(within.scores[c, r, side]) for c, side, r in taken)
            patch, taken_blank, _ = _stage_two_scoring(blank)
            with patch:
                want = match_between(blank, images, tau_out)
            assert len(taken) < len(taken_blank)
            _assert_same_labeling(got, want)
            _assert_same_labeling(got, match_between_oracle(within, images, tau_out, memo))
            _assert_scores_were_taken(got, images)
            _assert_scores_were_taken(want, images)
            # the surviving founders were scored against each other while
            # apart, so a second pass takes no score at all
            patch, taken, _ = _stage_two_scoring(got)
            with patch:
                again = match_between(got, images, tau_out)
            assert taken == []
            _assert_same_labeling(again, got)


def test_stage_two_completes_the_table_in_two_listed_passes(invariants_scene_images):
    images = invariants_scene_images
    within = match_within(images, 0.97, (8, 8))
    k = within.class_count
    fresh = _fresh_scores(within, images)
    missing = np.isnan(within.scores) & ~np.eye(k, dtype=bool)[..., None]
    for tau_out in (0.95, 0.85):
        # t1 where the table lacks it, then t2 where it lacks it and t1 reaches tau_out
        need = missing & np.stack([np.ones((k, k), dtype=bool), fresh[..., 0] >= tau_out], axis=-1)
        want = [(c, side, r) for c, r, side in zip(*np.nonzero(need))]
        assert {side for _, side, _ in want} == {0, 1}
        # banks of up to channel._CHUNK founders, and of at most 5
        for chunk in (channel._CHUNK, 5):
            patch, taken, built = _stage_two_scoring(within)
            with patch, mock.patch.object(channel, "_CHUNK", chunk):
                got = match_between(within, images, tau_out)
            assert len(set(taken)) == len(taken)
            assert sorted(taken) == sorted(want)
            # every bank holds templates of one side, at most chunk founders each
            sides = [{s for _, s in bank} for bank in built]
            assert all(len(s) == 1 for s in sides) and all(len(bank) <= chunk for bank in built)
            for side in (0, 1):
                founders = np.count_nonzero(need[..., side].any(axis=1))
                assert sides.count({side}) <= -(-founders // chunk)
            _assert_same_stage_one(got, match_between(within, images, tau_out))
            _assert_scores_were_taken(got, images)


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
    # runs of one image: the first hit, image 4, lies in the fifth run,
    # and images 6 and 8 in later runs match too
    rng = np.random.default_rng(18)
    images = [rng.random((10, 10)) for _ in range(11)]
    for k in (4, 6, 8):
        _plant_founder_corners(images[k], images[10])
    with mock.patch.object(channel, "_CHUNK", 1):
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
    with mock.patch.object(channel, "_CHUNK", planes):
        got = match_within(images, 0.999, (3, 3))
    _assert_same_labeling(got, match_within_oracle(images, 0.999, (3, 3)))
    if planted:
        assert got.labels[n] == got.labels[min(planted)]


def _assert_stage_one_as_both_scans(images, tau_in, size, planes, block):
    """``match_within`` with ``channel._CHUNK`` and the block size
    patched equals the image-by-image scan and the sequential one."""
    with mock.patch.object(channel, "_CHUNK", planes), mock.patch.object(segmentation_cfr, "_BLOCK", block):
        got = match_within(images, tau_in, size)
    _assert_same_labeling(got, match_within_oracle(images, tau_in, size))
    _assert_same_stage_one(got, match_within_sequential(images, tau_in, size))
    return got


@pytest.mark.parametrize("planes", [1, 2, 3, 64])
@pytest.mark.parametrize("block", [1, 2, 3, 16])
def test_fallback_copies_an_earlier_adoption(planes, block):
    # image 7 recruits nobody and first hits image 4, a founder that
    # recruited nobody either and adopted the category of image 1; so
    # image 7 takes image 1's category only if image 4's adoption is
    # settled first
    rng = np.random.default_rng(30)
    images = [rng.random((10, 10)) for _ in range(10)]
    _plant_founder_corners(images[1], images[4])
    _plant_founder_corners(images[4], images[7])
    got = _assert_stage_one_as_both_scans(images, 0.999, (3, 3), planes, block)
    assert got.labels[7] == got.labels[4] == got.labels[1]
    assert got.class_count == 8


@pytest.mark.parametrize("block", [1, 2, 3, 16])
def test_fallback_hit_on_the_last_image_of_a_run(block):
    # runs of three images: image 9's first hit, image 5, ends the second
    # run, and image 6, which starts the third, matches too; image 10
    # hits images 7 and 8 of the third run, the last just before image 9
    rng = np.random.default_rng(31)
    images = [rng.random((10, 10)) for _ in range(12)]
    for k in (5, 6):
        _plant_founder_corners(images[k], images[9])
    for k in (7, 8):
        _plant_founder_corners(images[k], images[10])
    got = _assert_stage_one_as_both_scans(images, 0.999, (3, 3), 3, block)
    assert got.labels[9] == got.labels[5] != got.labels[6]
    assert got.labels[10] == got.labels[7] != got.labels[8]


@pytest.mark.parametrize("planes", [1, 3, 64])
@pytest.mark.parametrize("block", [2, 3, 5, 16])
def test_block_member_recruited_by_an_earlier_one(planes, block):
    # images 0 and 1 share every block: image 0 recruits image 1, whose
    # own pair would recruit image 3 and must not, since image 1 founds
    # nothing; image 3 founds its own category
    rng = np.random.default_rng(32)
    images = [rng.random((10, 10)) for _ in range(8)]
    _plant_founder_corners(images[1], images[0])
    _plant_founder_corners(images[3], images[1])
    got = _assert_stage_one_as_both_scans(images, 0.999, (3, 3), planes, block)
    assert got.labels[1] == got.labels[0] != got.labels[3]
    assert [pair.founder_id for pair in got.founders.values()] == [0, 2, 3, 4, 5, 6, 7]


@st.composite
def _stage_one_case(draw):
    """Images as ``_images_and_pairs`` draws them, some copied later in
    the list and some holding the corner templates of a later image, so
    that founders recruit and fall back; and the template size."""
    images, pairs, _ = draw(_images_and_pairs())
    size = pairs[0].size
    (h, w), (a, b) = images[0].shape, size
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(images)))
        images.insert(at, draw(st.sampled_from(images)).copy())
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(images) - 1))
        later = extract_templates(images[draw(st.integers(k, len(images) - 1))], size)
        for t in (later.t1, later.t2):
            y, x = draw(st.integers(0, h - a)), draw(st.integers(0, w - b))
            images[k][y : y + a, x : x + b] = t
    return images, size


@settings(max_examples=200, deadline=None)
@given(_stage_one_case(), st.integers(1, 5), st.integers(1, 5), st.sampled_from([0.5, 0.9, 0.99, 1.0]))
def test_stage_one_equals_the_sequential_scan(case, planes, block, tau):
    images, size = case
    with mock.patch.object(channel, "_CHUNK", planes), mock.patch.object(segmentation_cfr, "_BLOCK", block):
        got = match_within(images, tau, size)
    _assert_same_stage_one(got, match_within_sequential(images, tau, size))
