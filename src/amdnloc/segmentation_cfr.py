"""Frequency-domain region segmentation by dual-template matching.

Every CFR magnitude image is assigned to a category by a two-stage
matched filter: stage one grows categories sequentially from founder
images whose corner templates are slid over candidate images; stage two
merges categories whose founders match each other. Similarity is
placement-maximized normalized cross-correlation over nonnegative
pixels, so values live in [0, 1].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "UNLABELED",
    "TemplatePair",
    "CfrLabeling",
    "extract_templates",
    "match_within",
    "match_between",
    "segment_cfr",
]

# Sentinel for "no category yet"; any value larger than every valid label works.
UNLABELED = -1


@dataclass(frozen=True)
class TemplatePair:
    """Corner templates cut from a founder image."""

    t1: np.ndarray  # upper-left block
    t2: np.ndarray  # lower-right block
    size: tuple[int, int]
    founder_id: int


@dataclass
class CfrLabeling:
    """Per-sample category labels plus the founder template of each category."""

    labels: np.ndarray  # int array, one label per sample
    founders: dict[int, TemplatePair]
    class_count: int


def _window_energy(source: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Energy of every placement window over the last two axes of ``source``."""
    windows = sliding_window_view(source, shape, axis=(-2, -1))
    e = np.einsum("...ijkl,...ijkl->...ij", windows, windows)
    np.maximum(e, 0.0, out=e)
    return e


def _check_fits(template_shape: tuple[int, ...], source_shape: tuple[int, ...]):
    if template_shape[0] > source_shape[-2] or template_shape[1] > source_shape[-1]:
        raise ValueError(
            f"template {template_shape} larger than source {source_shape}"
        )


# Image planes in one FFT temporary of ``_ImageStacks._score``, and images
# per chunk when ``_ImageStacks`` is built; bounds their memory.
_PLANES = 64


def _valid_windows(win: np.ndarray) -> np.ndarray:
    """The zero-energy mask of each image's window energies (n, p, q):
    the windows above 1e-12 of the image's largest window energy, or
    above 0 when every window is empty."""
    scale = np.max(win, axis=(1, 2), keepdims=True)
    return win > np.where(scale > 0, 1e-12 * scale, 0.0)


class _TemplateBank:
    """Templates of one shape, kept as their spectra for images of one shape.

    The counterpart of ``_ImageStacks`` on the template side: the
    conjugated ``rfft2`` of every template, zero-padded to
    ``image_shape``, is taken once, when the bank is built, with each
    template's energy.
    """

    def __init__(self, templates: np.ndarray, image_shape: tuple[int, int]):
        templates = np.asarray(templates, dtype=float)
        _check_fits(templates.shape[1:], image_shape)
        flat = templates.reshape(len(templates), -1)
        self.shape = templates.shape[1:]
        self.image_shape = tuple(image_shape)
        self.energy = np.sum(flat * flat, axis=1)
        self.spectra = np.conj(np.fft.rfft2(templates, s=self.image_shape))


def _pruned_irfft2(spec: np.ndarray, image_shape: tuple[int, int], template_shape: tuple[int, ...]) -> np.ndarray:
    """``np.fft.irfft2(spec, s=(H, W))[..., :H - a + 1, :W - b + 1]``, bit
    for bit, for an (H, W) image and an (a, b) template.

    ``irfft2`` takes an ``ifft`` along the rows and then an ``irfft``
    along the columns; here the ``irfft`` runs on the kept rows only.
    """
    (h, w), (a, b) = image_shape, template_shape
    rows = np.fft.ifft(spec, axis=-2)[..., : h - a + 1, :]
    return np.fft.irfft(rows, n=w, axis=-1)[..., : w - b + 1]


def _ncc_planes(
    bank: _TemplateBank, templates: np.ndarray, spectra: np.ndarray, win: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Normalized cross-correlation of templates ``bank.spectra[templates]``
    against images, maximized over placements, one correlation plane
    per broadcast (template, image) pair: ``templates`` of shape (T, 1)
    against n images give (T, n) scores, and ``templates`` of shape (n,)
    one score per image.

    A placement scores sum(T*I) / sqrt(sum(T^2) * sum(I^2)), the sums
    running over the template window. The images are given as
    ``_ImageStacks`` keeps them: by their spectra ``np.fft.rfft2(image)``,
    by their window energies ``win`` for the bank's template shape and
    by the windows ``valid`` (``_valid_windows(win)``) that are scored.
    The numerator is a circular cross-correlation taken from FFTs
    (J. P. Lewis, "Fast Normalized Cross-Correlation", 1995); every
    valid placement lies inside the image, so it never wraps, and the
    inverse transform (``_pruned_irfft2``) computes only those
    placements. Windows outside ``valid`` are skipped, an all-zero
    template scores 0, and scores are clipped to [0, 1].
    """
    num = _pruned_irfft2(bank.spectra[templates] * spectra, bank.image_shape, bank.shape)
    energy = bank.energy[templates][..., None, None]
    denom = np.sqrt(energy * win)
    # Masked windows score -inf, so an image with no valid window, or an
    # all-zero template, clips to 0.
    ratio = np.divide(num, denom, out=np.full(num.shape, -np.inf), where=valid & (energy > 0.0))
    return np.clip(np.max(ratio, axis=(-2, -1)), 0.0, 1.0)


def extract_templates(image: np.ndarray, size: tuple[int, int], founder_id: int = -1) -> TemplatePair:
    """Cut the upper-left and lower-right blocks of the given size."""
    a, b = size
    h, w = image.shape
    if a > h or b > w:
        raise ValueError(f"template size {size} exceeds image {image.shape}")
    return TemplatePair(
        t1=np.array(image[:a, :b]),
        t2=np.array(image[h - a :, w - b :]),
        size=(a, b),
        founder_id=founder_id,
    )


def _corner_banks(pairs: list[TemplatePair], image_shape: tuple[int, int]) -> tuple[_TemplateBank, _TemplateBank]:
    """The t1 templates of ``pairs`` as one bank for images of
    ``image_shape``, and their t2 templates as another. Every template
    must have one shape."""
    shapes = {t.shape for pair in pairs for t in (pair.t1, pair.t2)}
    if len(shapes) > 1:
        raise ValueError(f"founder templates of more than one shape: {sorted(shapes)}")
    return (
        _TemplateBank(np.stack([pair.t1 for pair in pairs]), image_shape),
        _TemplateBank(np.stack([pair.t2 for pair in pairs]), image_shape),
    )


class _ImageStacks:
    """Images of one shape, kept as what templates of one shape score.

    Every image's ``rfft2``, its window energies for ``template_shape``
    and their zero-energy mask are taken once, when the stack is built,
    ``_PLANES`` images at a time, and take the place of a stacked copy
    of the images.
    """

    def __init__(self, images: list[np.ndarray], template_shape: tuple[int, int]):
        shapes = {np.shape(img) for img in images}
        if len(shapes) != 1:
            raise ValueError(f"images must have one shape, got {sorted(shapes)}")
        self.shape = shapes.pop()
        self.template_shape = tuple(template_shape)
        _check_fits(self.template_shape, self.shape)
        (h, w), (a, b) = self.shape, self.template_shape
        self._spectra = np.empty((len(images), h, w // 2 + 1), dtype=complex)
        self._windows = np.empty((len(images), h - a + 1, w - b + 1))
        self._valid = np.empty(self._windows.shape, dtype=bool)
        for i in range(0, len(images), _PLANES):
            chunk = np.array(images[i : i + _PLANES], dtype=float)
            rows = slice(i, i + len(chunk))
            self._spectra[rows] = np.fft.rfft2(chunk)
            self._windows[rows] = _window_energy(chunk, self.template_shape)
            self._valid[rows] = _valid_windows(self._windows[rows])

    def _check(self, bank: _TemplateBank):
        if (bank.image_shape, bank.shape) != (self.shape, self.template_shape):
            raise ValueError(
                f"{self.shape} images kept for {self.template_shape} templates do not fit "
                f"a bank of {bank.shape} templates for {bank.image_shape} images"
            )

    def _score(self, bank: _TemplateBank, rows: np.ndarray) -> np.ndarray:
        """``_ncc_planes`` of every template of a bank against every
        listed image, (templates, len(rows)), taken in chunks of about
        ``_PLANES`` correlation planes."""
        self._check(bank)
        # One gather of all listed rows, not one per chunk: a process's
        # first scans then reuse the heap instead of faulting it in anew.
        spectra, win, valid = self._spectra[rows], self._windows[rows], self._valid[rows]
        count, n = len(bank.energy), len(rows)
        scores = np.zeros((count, n))
        n_step = max(1, min(n, _PLANES))
        t_step = max(1, _PLANES // n_step)
        for i in range(0, n, n_step):
            img = slice(i, i + n_step)
            for j in range(0, count, t_step):
                templates = np.arange(j, min(j + t_step, count))
                scores[templates, img] = _ncc_planes(bank, templates[:, None], spectra[img], win[img], valid[img])
        return scores

    def _score_pairs(self, bank: _TemplateBank, templates: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The ``_score`` of template ``templates[k]`` of a bank against
        listed image ``rows[k]``, for each k, ``_PLANES`` pairs at a time."""
        self._check(bank)
        scores = np.zeros(len(rows))
        for j in range(0, len(rows), _PLANES):
            k = slice(j, j + _PLANES)
            r = rows[k]
            scores[k] = _ncc_planes(bank, templates[k], self._spectra[r], self._windows[r], self._valid[r])
        return scores

    def pair_hits(
        self, banks: tuple[_TemplateBank, _TemplateBank], indices: np.ndarray, tau: float
    ) -> np.ndarray:
        """Whether a pair's score, the smaller of its two template
        scores, reaches ``tau`` for each listed image, the pair given by
        its ``_corner_banks``.

        t2 is only scored on the images where t1 already reaches ``tau``.
        """
        hits = np.zeros(len(indices), dtype=bool)
        here = np.arange(len(indices))
        for bank in banks:
            if here.size == 0:
                break
            here = here[self._score(bank, indices[here])[0] >= tau]
        hits[here] = True
        return hits

    def first_hit(
        self, banks: tuple[_TemplateBank, _TemplateBank], indices: np.ndarray, tau: float
    ) -> int | None:
        """The first listed image that ``pair_hits`` holds, or None.

        The images are scored in list order, in runs of ``_PLANES``
        images that double in length, and the scan stops after the first
        run that holds a hit, so an early hit skips scoring the rest.
        """
        start, step = 0, _PLANES
        while start < len(indices):
            run = indices[start : start + step]
            hits = np.flatnonzero(self.pair_hits(banks, run, tau))
            if hits.size:
                return int(run[hits[0]])
            start, step = start + step, 2 * step
        return None


def _best_pairs(banks: tuple[_TemplateBank, _TemplateBank], images: list[np.ndarray]) -> np.ndarray:
    """For each image, the first founder with the best pair score,
    ``min(t1 score, t2 score)``, the founders given by their
    ``_corner_banks``: ``np.argmax`` of the full pair scores along the
    founders, without scoring them all.

    A founder's t1 score bounds its pair score from above (Mattoccia
    et al., "Fast full-search equivalent template matching by enhanced
    bounded correlation", TIP 2008). Every t1 is scored; t2 is scored
    in descending t1 order, founder order breaking ties, one founder
    per image per round. An image stops at the first founder whose t1
    score can neither beat the best pair score found so far nor tie it
    from an earlier founder; no later founder can either, so the first
    maximum is that of the full scores. With one founder nothing is
    scored, not even the images' spectra, and every image gets
    founder 0.
    """
    t1, t2 = banks
    if len(t1.energy) == 1:
        return np.zeros(len(images), dtype=int)
    stacks = _ImageStacks(images, t1.shape)
    cols = np.arange(len(images))
    s1 = stacks._score(t1, cols)
    order = np.argsort(-s1, axis=0, kind="stable")
    choice = order[0].copy()
    best = np.minimum(s1[choice, cols], stacks._score_pairs(t2, choice, cols))
    live = cols
    for rank in order[1:]:
        bound = s1[rank[live], live]
        live = live[(bound > best[live]) | ((bound == best[live]) & (rank[live] < choice[live]))]
        if live.size == 0:
            break
        f = rank[live]
        pair = np.minimum(s1[f, live], stacks._score_pairs(t2, f, live))
        wins = (pair > best[live]) | ((pair == best[live]) & (f < choice[live]))
        best[live[wins]], choice[live[wins]] = pair[wins], f[wins]
    return choice


def match_within(
    images: list[np.ndarray], tau_in: float, size: tuple[int, int]
) -> CfrLabeling:
    """Stage one: grow categories sequentially from founder images.

    Each still-unlabeled image founds a tentative new category and its
    corner templates are matched against all later unlabeled images;
    matches at or above ``tau_in`` join the category. A founder that
    recruits nobody is matched back against earlier (already labeled)
    images and adopts the first matching image's category instead of
    keeping a fresh one.

    Scoring is batched per founder: its template banks are built once,
    its pair is scored once against all later unlabeled images, and the
    fallback scores earlier images in runs until one holds a match
    (``_ImageStacks.first_hit``).
    Recruitment order and results are those of the image-by-image scan.
    """
    if not images:
        raise ValueError("no images to segment")
    if not (0.0 < tau_in <= 1.0):
        raise ValueError(f"tau_in must lie in (0, 1], got {tau_in}")
    stacks = _ImageStacks(images, size)
    m = len(images)
    labels = np.full(m, UNLABELED, dtype=int)
    founders: dict[int, TemplatePair] = {}
    class_num = 0
    for i in range(m):
        if labels[i] != UNLABELED:
            continue
        pair = extract_templates(images[i], size, founder_id=i)
        banks = _corner_banks([pair], stacks.shape)
        labels[i] = class_num
        later = i + 1 + np.flatnonzero(labels[i + 1 :] == UNLABELED)
        recruits = later[stacks.pair_hits(banks, later, tau_in)]
        labels[recruits] = class_num
        if recruits.size == 0:
            first = stacks.first_hit(banks, np.arange(i), tau_in)
            if first is not None:
                labels[i] = labels[first]
        if labels[i] == class_num:
            founders[class_num] = pair
            class_num += 1
    return CfrLabeling(labels=labels, founders=founders, class_count=class_num)


def _reindex(labels: np.ndarray, founders: dict[int, TemplatePair]) -> tuple[np.ndarray, dict[int, TemplatePair]]:
    """Relabel to 0..K-1 in order of first occurrence in sample order."""
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for idx, lab in enumerate(labels):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[idx] = mapping[lab]
    new_founders = {mapping[old]: pair for old, pair in founders.items() if old in mapping}
    return out, new_founders


def match_between(labeling: CfrLabeling, images: list[np.ndarray], tau_out: float) -> CfrLabeling:
    """Stage two: merge categories whose founders match each other.

    The founder templates of category i are matched against the founder
    image of category j, ``images[founder_id]`` of the images the
    labeling was made from; a score at or above ``tau_out`` links the two.
    Merging is the symmetric-transitive closure of those links (smaller
    id survives), which is already the fixpoint of repeated scanning.

    Scoring is batched per founder: each category's pair is scored once
    against the stacked images of the founders outside its current
    component. A link inside one component cannot change the closure,
    and the surviving root is the smallest id whatever the link order,
    so the result is that of the pair-by-pair scan.
    """
    if not (0.0 < tau_out <= 1.0):
        raise ValueError(f"tau_out must lie in (0, 1], got {tau_out}")
    k = labeling.class_count
    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    cats = sorted(labeling.founders)
    founder_images = [images[labeling.founders[c].founder_id] for c in cats]
    stacks = _ImageStacks(founder_images, labeling.founders[cats[0]].size)
    for i in cats:
        root = find(i)
        others = np.flatnonzero([find(c) != root for c in cats])
        banks = _corner_banks([labeling.founders[i]], stacks.shape)
        for b in others[stacks.pair_hits(banks, others, tau_out)]:
            union(i, cats[b])

    merged = np.array([find(int(lab)) for lab in labeling.labels])
    root_founders = {find(c): labeling.founders[find(c)] for c in cats}
    new_labels, new_founders = _reindex(merged, root_founders)
    return CfrLabeling(labels=new_labels, founders=new_founders, class_count=len(new_founders))


def segment_cfr(
    images: list[np.ndarray],
    tau_in: float = 0.99,
    tau_out: float = 0.99,
    size: tuple[int, int] = (16, 16),
) -> CfrLabeling:
    """Full two-stage segmentation of CFR magnitude images."""
    return match_between(match_within(images, tau_in, size), images, tau_out)
