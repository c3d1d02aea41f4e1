"""Frequency-domain region segmentation by dual-template matching.

Every CFR magnitude image is assigned to a category by a two-stage
matched filter: stage one grows categories sequentially from founder
images whose corner templates are slid over candidate images; stage two
merges categories whose founders match each other. Similarity is
placement-maximized normalized cross-correlation over nonnegative
pixels, so values live in [0, 1].
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    """Per-sample category labels plus the founder template of each category.

    ``scores``, (K, K, 2), holds the t1 and t2 scores of category c's
    founder templates against category d's founder image at [c, d],
    NaN where they were not taken; None stands for all NaN.
    """

    labels: np.ndarray  # int array, one label per sample
    founders: dict[int, TemplatePair]
    class_count: int
    scores: np.ndarray | None = None


def _window_energy(source: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Energy of every placement window over the last two axes of
    ``source``: the squares summed over the window's rows, then over its
    columns, as two products with 0/1 band matrices. The terms are
    nonnegative, so nothing cancels, and ``np.matmul`` makes one BLAS
    call per plane, so a plane's sums do not depend on its stack."""
    (h, w), (a, b) = source.shape[-2:], shape
    y = np.arange(h) - np.arange(h - a + 1)[:, None]
    x = np.arange(w)[:, None] - np.arange(w - b + 1)
    return ((0 <= y) & (y < a)).astype(float) @ (source * source) @ ((0 <= x) & (x < b)).astype(float)


def _check_fits(template_shape: tuple[int, ...], source_shape: tuple[int, ...]):
    size = tuple(template_shape) if np.iterable(template_shape) else (template_shape,)
    if len(size) != 2 or not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in size):
        raise ValueError(f"template size {size!r} is not two integers")
    if min(size) < 1:
        raise ValueError(f"template size {size} has a side below 1")
    if size[0] > source_shape[-2] or size[1] > source_shape[-1]:
        raise ValueError(f"template size {size} larger than source {tuple(source_shape)}")


# Image planes in one FFT temporary of ``_ImageStacks._score``, and images
# per chunk when ``_ImageStacks`` is built; bounds their memory.
_PLANES = 64


def _valid_windows(win: np.ndarray) -> np.ndarray:
    """Which of each image's window energies (n, p, q), in either order
    of the last two axes, are scored: the windows above 1e-12 of the
    image's largest window energy, or above 0 when every window is
    empty."""
    scale = np.max(win, axis=(1, 2), keepdims=True)
    return win > np.where(scale > 0, 1e-12 * scale, 0.0)


class _TemplateBank:
    """Templates of one shape, kept as their spectra for images of one shape.

    The counterpart of ``_ImageStacks`` on the template side: the
    conjugated ``rfft2`` of every template, zero-padded to
    ``image_shape`` and stored with its two axes swapped, (W//2+1, H),
    is taken once, when the bank is built, with each template's
    ``1/sqrt(energy)``, 0 for an all-zero template so that it scores 0.
    """

    def __init__(self, templates: np.ndarray, image_shape: tuple[int, int]):
        templates = np.asarray(templates, dtype=float)
        _check_fits(templates.shape[1:], image_shape)
        flat = templates.reshape(len(templates), -1)
        self.shape = templates.shape[1:]
        self.image_shape = tuple(image_shape)
        energy = np.sum(flat * flat, axis=1)
        self.rnorm = np.divide(1.0, np.sqrt(energy), out=np.zeros_like(energy), where=energy > 0.0)
        self.spectra = np.conj(np.fft.rfft2(templates, s=self.image_shape)).swapaxes(-2, -1).copy()


@lru_cache(maxsize=16)
def _inverse_matrices(image_shape: tuple[int, int], template_shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The pruned inverse DFT of ``_pruned_irfft2`` as two real
    matrices, for an (H, W) image and an (a, b) template. Built once per
    shape pair and shared between calls, so both are read-only.

    The first, (2H, 2(H-a+1)), is the inverse DFT along H, 1/H included,
    kept to its first H-a+1 outputs. It acts on a spectrum's interleaved
    real view, (W//2+1, 2H), and gives per row the real parts of the
    outputs, then their imaginary parts. The second, stored transposed
    as (W-b+1, 2(W//2+1)), is the inverse real DFT along W kept to its
    first W-b+1 outputs: Hermitian weights of 1 for DC and Nyquist and
    2 otherwise, each entry divided by W, and no imaginary part taken
    from DC or Nyquist, as ``irfft`` takes none.
    """
    (h, w), (a, b) = image_shape, template_shape
    p, q, u = h - a + 1, w - b + 1, w // 2 + 1
    # exact phase indices keep the angles in [0, 2 pi)
    angle = 2.0 * np.pi * (np.arange(h)[:, None] * np.arange(p) % h) / h
    cos, sin = np.cos(angle) / h, np.sin(angle) / h
    along_h = np.empty((h, 2, 2, p))  # (k, re/im in, re/im out, y)
    along_h[:, 0, 0], along_h[:, 1, 0] = cos, -sin
    along_h[:, 0, 1], along_h[:, 1, 1] = sin, cos
    k = np.arange(u)[:, None]
    angle = 2.0 * np.pi * (k * np.arange(q) % w) / w
    edge = (k == 0) | (2 * k == w)
    along_w = np.empty((u, 2, q))  # (column, re/im in, x)
    along_w[:, 0] = np.where(edge, 1.0, 2.0) * np.cos(angle) / w
    along_w[:, 1] = np.where(edge, 0.0, -2.0 * np.sin(angle) / w)
    along_h, along_w = along_h.reshape(2 * h, 2 * p), along_w.reshape(2 * u, q).T.copy()
    along_h.flags.writeable = along_w.flags.writeable = False
    return along_h, along_w


def _pruned_irfft2(spec: np.ndarray, image_shape: tuple[int, int], template_shape: tuple[int, ...]) -> np.ndarray:
    """``np.fft.irfft2(spec.swapaxes(-2, -1), s=(H, W))[..., :H - a + 1,
    :W - b + 1]`` with its last two axes swapped, (..., W-b+1, H-a+1),
    to rounding, for an (H, W) image, an (a, b) template and a spectrum
    kept with its axes swapped, (..., W//2+1, H).

    Both inverse transforms are products with the ``_inverse_matrices``
    of the two shapes, which compute only the valid placements: first
    the spectrum's interleaved real view times the one along H, then
    the one along W times that. ``np.matmul`` makes one BLAS call per
    plane, each of one shape, so a plane's result does not depend on
    how many planes share the call.
    """
    along_h, along_w = _inverse_matrices(image_shape, template_shape)
    half = spec.view(float) @ along_h  # (..., W//2+1, 2(H-a+1))
    return along_w @ half.reshape(*half.shape[:-2], -1, half.shape[-1] // 2)


def _ncc_planes(bank: _TemplateBank, templates: np.ndarray, spectra: np.ndarray, rwin: np.ndarray) -> np.ndarray:
    """Normalized cross-correlation of templates ``bank.spectra[templates]``
    against images, maximized over placements, one correlation plane
    per broadcast (template, image) pair: ``templates`` of shape (T, 1)
    against n images give (T, n) scores, and ``templates`` of shape (n,)
    one score per image.

    A placement scores sum(T*I) / sqrt(sum(T^2) * sum(I^2)), the sums
    running over the template window. The images are given as
    ``_ImageStacks`` keeps them: by their spectra ``np.fft.rfft2(image)``
    with the axes swapped, and by ``rwin``, the ``1/sqrt`` of their
    window energies for the bank's template shape, also with the axes
    swapped, and 0 where a window is not scored. The numerator is a
    circular cross-correlation taken from FFTs (J. P. Lewis, "Fast
    Normalized Cross-Correlation", 1995); every valid placement lies
    inside the image, so it never wraps, and the inverse transform
    (``_pruned_irfft2``) computes only those placements. A score is
    ``max(num * rwin) * rnorm``, clipped to [0, 1]: a zero ``rwin``
    or a zero ``bank.rnorm`` (an all-zero template) scores 0.
    """
    num = _pruned_irfft2(bank.spectra[templates] * spectra, bank.image_shape, bank.shape)
    num *= rwin
    scores = np.clip(np.max(num, axis=(-2, -1)) * bank.rnorm[templates], 0.0, 1.0)
    # np.clip passes a -0.0 (a zero factor times a negative numerator)
    # through; adding +0.0 makes every zero score +0.0
    scores += 0.0
    return scores


def extract_templates(image: np.ndarray, size: tuple[int, int], founder_id: int = -1) -> TemplatePair:
    """Cut the upper-left and lower-right blocks of the given size."""
    _check_fits(size, image.shape)
    (a, b), (h, w) = size, image.shape
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

    Every image's ``rfft2``, stored with its two axes swapped,
    (W//2+1, H), and the ``1/sqrt`` of its window energies for
    ``template_shape``, also with the axes swapped, (W-b+1, H-a+1), and
    0 where ``_valid_windows`` leaves a window out, are taken once, when
    the stack is built, ``_PLANES`` images at a time, and take the place
    of a stacked copy of the images.
    """

    def __init__(self, images: list[np.ndarray], template_shape: tuple[int, int]):
        shapes = {np.shape(img) for img in images}
        if len(shapes) != 1:
            raise ValueError(f"images must have one shape, got {sorted(shapes)}")
        self.shape = shapes.pop()
        _check_fits(template_shape, self.shape)
        self.template_shape = tuple(template_shape)
        (h, w), (a, b) = self.shape, self.template_shape
        self._spectra = np.empty((len(images), w // 2 + 1, h), dtype=complex)
        self._rwin = np.zeros((len(images), w - b + 1, h - a + 1))
        for i in range(0, len(images), _PLANES):
            chunk = np.array(images[i : i + _PLANES], dtype=float)
            rows = slice(i, i + len(chunk))
            self._spectra[rows] = np.fft.rfft2(chunk).swapaxes(-2, -1)
            win = _window_energy(chunk, self.template_shape).swapaxes(-2, -1)
            np.divide(1.0, np.sqrt(win), out=self._rwin[rows], where=_valid_windows(win))

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
        count, n = len(bank.rnorm), len(rows)
        scores = np.zeros((count, n))
        n_step = max(1, min(n, _PLANES))
        t_step = max(1, _PLANES // n_step)
        for i in range(0, n, n_step):
            img = slice(i, i + n_step)
            spectra, rwin = self._spectra[rows[img]], self._rwin[rows[img]]
            for j in range(0, count, t_step):
                templates = np.arange(j, min(j + t_step, count))
                scores[templates, img] = _ncc_planes(bank, templates[:, None], spectra, rwin)
        return scores

    def _score_pairs(self, bank: _TemplateBank, templates: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The ``_score`` of template ``templates[k]`` of a bank against
        listed image ``rows[k]``, for each k, ``_PLANES`` pairs at a time."""
        self._check(bank)
        scores = np.zeros(len(rows))
        for j in range(0, len(rows), _PLANES):
            k = slice(j, j + _PLANES)
            r = rows[k]
            scores[k] = _ncc_planes(bank, templates[k], self._spectra[r], self._rwin[r])
        return scores

    def pair_hits(self, banks, indices: np.ndarray, tau: float, table: np.ndarray | None = None) -> np.ndarray:
        """Whether a pair's score, the smaller of its two template
        scores, reaches ``tau`` for each listed image, the pair given by
        its ``_corner_banks`` or by a function that builds them.

        ``table``, (2, images in the stack), holds the t1 and t2 score
        of each image, NaN where not taken yet. Only the NaN entries
        needed are scored and written into it: t1 on every listed image,
        t2 where t1 reaches ``tau``. The banks are built, if given as a
        function, only when an entry is scored.
        """
        if table is None:
            table = np.full((2, len(self._spectra)), np.nan)
        here = np.arange(len(indices))
        for side, row in enumerate(table):
            img = indices[here]
            gaps = img[np.isnan(row[img])]
            if gaps.size:
                banks = banks() if callable(banks) else banks
                row[gaps] = self._score(banks[side], gaps)[0]
            here = here[row[img] >= tau]
        hits = np.zeros(len(indices), dtype=bool)
        hits[here] = True
        return hits

    def first_hit(self, banks, indices: np.ndarray, tau: float, table: np.ndarray | None = None) -> int | None:
        """The first listed image that ``pair_hits`` holds, or None.

        The images are scored in list order, in runs of ``_PLANES``
        images that double in length, and the scan stops after the first
        run that holds a hit, so an early hit skips scoring the rest.
        ``table`` is read and written as ``pair_hits`` does.
        """
        start, step = 0, _PLANES
        while start < len(indices):
            run = indices[start : start + step]
            hits = np.flatnonzero(self.pair_hits(banks, run, tau, table))
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
    if len(t1.rnorm) == 1:
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
    Every score a kept founder took is returned in ``scores``; a
    founder that adopts another category drops its scores.
    """
    if not images:
        raise ValueError("no images to segment")
    if not (0.0 < tau_in <= 1.0):
        raise ValueError(f"tau_in must lie in (0, 1], got {tau_in}")
    stacks = _ImageStacks(images, size)
    m = len(images)
    labels = np.full(m, UNLABELED, dtype=int)
    founders: dict[int, TemplatePair] = {}
    ids: list[int] = []  # the kept founders' images
    rows = []  # each kept founder's columns, and its t1 and t2 scores on them
    class_num = 0
    for i in range(m):
        if labels[i] != UNLABELED:
            continue
        pair = extract_templates(images[i], size, founder_id=i)
        banks = _corner_banks([pair], stacks.shape)
        row = np.full((2, m), np.nan)
        labels[i] = class_num
        later = i + 1 + np.flatnonzero(labels[i + 1 :] == UNLABELED)
        recruits = later[stacks.pair_hits(banks, later, tau_in, row)]
        labels[recruits] = class_num
        if recruits.size == 0:
            first = stacks.first_hit(banks, np.arange(i), tau_in, row)
            if first is not None:
                labels[i] = labels[first]
        if labels[i] == class_num:
            founders[class_num] = pair
            ids.append(i)
            # only the images that may still found a category keep their scores
            cols = np.concatenate([ids, later[labels[later] == UNLABELED]])
            rows.append((cols, row[:, cols]))
            class_num += 1
    scores = np.array([kept[:, np.searchsorted(cols, ids)].T for cols, kept in rows])
    return CfrLabeling(labels=labels, founders=founders, class_count=class_num, scores=scores)


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
    so the result is that of the pair-by-pair scan. Only the scores
    missing from ``labeling.scores`` are taken, and a category's banks
    are built only when one of its scores is missing; the labeling
    returned carries the scores forward, re-indexed.
    """
    if not (0.0 < tau_out <= 1.0):
        raise ValueError(f"tau_out must lie in (0, 1], got {tau_out}")
    k = labeling.class_count
    pairs = [labeling.founders[c] for c in range(k)]
    table = np.full((k, k, 2), np.nan) if labeling.scores is None else labeling.scores.copy()
    stacks = _ImageStacks([images[pair.founder_id] for pair in pairs], pairs[0].size)
    roots = np.arange(k)  # each category's component, by its smallest id
    for i in range(k):
        others = np.flatnonzero(roots != roots[i])
        hits = stacks.pair_hits(lambda: _corner_banks([pairs[i]], stacks.shape), others, tau_out, table[i].T)
        for b in others[hits]:
            lo, hi = sorted((roots[i], roots[b]))
            roots[roots == hi] = lo

    # the result then reuses the stack's memory, not the heap above it
    del stacks
    merged = roots[labeling.labels]
    new_labels, new_founders = _reindex(merged, dict(enumerate(pairs)))  # keeps the roots' pairs
    order = merged[np.sort(np.unique(merged, return_index=True)[1])]  # old root of each new id
    return CfrLabeling(
        labels=new_labels, founders=new_founders, class_count=len(new_founders), scores=table[np.ix_(order, order)]
    )


def segment_cfr(
    images: list[np.ndarray],
    tau_in: float = 0.99,
    tau_out: float = 0.99,
    size: tuple[int, int] = (16, 16),
) -> CfrLabeling:
    """Full two-stage segmentation of CFR magnitude images."""
    return match_between(match_within(images, tau_in, size), images, tau_out)
