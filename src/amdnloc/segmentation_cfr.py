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
from functools import lru_cache

import numpy as np

from . import channel
from .scenegen import _is_int

__all__ = [
    "UNLABELED",
    "TemplatePair",
    "CfrLabeling",
    "extract_templates",
    "match_within",
    "match_between",
    "segment_cfr",
]

# Sentinel for "no category yet"; any value that is not a valid label works.
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
    NaN where they were not taken; None stands for all NaN. Stage two's
    table holds every off-diagonal t1, and t2 wherever t1 reaches
    ``tau_out``.
    """

    labels: np.ndarray  # int array, one label per sample
    founders: dict[int, TemplatePair]
    class_count: int
    scores: np.ndarray | None = None


@lru_cache(maxsize=16)
def _band_matrices(source_shape: tuple[int, int], shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 band matrices of ``_window_energy`` for (H, W) sources and
    (a, b) windows: (H-a+1, H), which sums a window's rows, and
    (W, W-b+1), which sums its columns. Built once per shape pair and
    shared between calls, so both are read-only."""
    (h, w), (a, b) = source_shape, shape
    y = np.arange(h) - np.arange(h - a + 1)[:, None]
    x = np.arange(w)[:, None] - np.arange(w - b + 1)
    rows, cols = ((0 <= y) & (y < a)).astype(float), ((0 <= x) & (x < b)).astype(float)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _window_energy(source: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Energy of every placement window over the last two axes of
    ``source``: the squares summed over the window's rows, then over its
    columns, as two products with the 0/1 ``_band_matrices``. The terms
    are nonnegative, so nothing cancels, and ``np.matmul`` makes one
    BLAS call per plane, so a plane's sums do not depend on its stack."""
    rows, cols = _band_matrices(source.shape[-2:], tuple(shape))
    return rows @ (source * source) @ cols


def _check_fits(template_shape: tuple[int, ...], source_shape: tuple[int, ...]):
    size = tuple(template_shape) if np.iterable(template_shape) else (template_shape,)
    if len(size) != 2 or not all(map(_is_int, size)):
        raise ValueError(f"template size {size!r} is not two integers")
    if min(size) < 1:
        raise ValueError(f"template size {size} has a side below 1")
    if size[0] > source_shape[-2] or size[1] > source_shape[-1]:
        raise ValueError(f"template size {size} larger than source {tuple(source_shape)}")


def _valid_windows(win: np.ndarray) -> np.ndarray:
    """Which of each image's window energies (n, p, q), in either order
    of the last two axes, are scored: the windows above 1e-12 of the
    image's largest window energy, or above 0 when every window is
    empty."""
    # an image with a NaN pixel has a NaN maximum, which fmax makes 0
    scale = np.fmax(win.reshape(len(win), -1).max(axis=1), 0.0)
    return win > 1e-12 * scale[:, None, None]


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


def _ncc_planes(
    template_spectra: np.ndarray,
    rnorm: np.ndarray,
    spectra: np.ndarray,
    rwin: np.ndarray,
    image_shape: tuple[int, int],
    template_shape: tuple[int, int],
) -> np.ndarray:
    """Normalized cross-correlation of templates against images,
    maximized over placements, one correlation plane per broadcast
    (template, image) pair: templates of shape (T, 1, W//2+1, H) against
    n images give (T, n) scores, and n templates one score per image.

    The templates are given as a ``_TemplateBank`` keeps them: by their
    conjugated spectra and by ``rnorm``, the ``1/sqrt`` of their
    energies, broadcast as the spectra are without their last two axes;
    a slice of a bank's rows passes them with no copy. The images are
    given as ``_ImageStacks`` keeps them: by their spectra
    ``np.fft.rfft2(image)`` with the axes swapped, and by ``rwin``, the
    ``1/sqrt`` of their window energies for ``template_shape``, also with
    the axes swapped, and 0 where a window is not scored.

    A placement scores sum(T*I) / sqrt(sum(T^2) * sum(I^2)), the sums
    running over the template window. The numerator is a circular
    cross-correlation taken from FFTs (J. P. Lewis, "Fast Normalized
    Cross-Correlation", 1995); every valid placement lies inside the
    image, so it never wraps, and the inverse transform
    (``_pruned_irfft2``) computes only those placements. A score is
    ``max(num * rwin) * rnorm``, clipped to [0, 1]: a zero ``rwin`` or a
    zero ``rnorm`` (an all-zero template) scores 0.
    """
    num = _pruned_irfft2(template_spectra * spectra, image_shape, template_shape)
    num *= rwin
    scores = np.clip(np.max(num, axis=(-2, -1)) * rnorm, 0.0, 1.0)
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
    the stack is built, ``channel._CHUNK`` images at a time, and take the
    place of a stacked copy of the images.
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
        for rows in channel._chunks(len(images)):
            chunk = np.asarray(images[rows], dtype=float)  # no copy of a float array
            self._spectra[rows] = np.fft.rfft2(chunk).swapaxes(-2, -1)
            win = _window_energy(chunk, self.template_shape)
            valid = _valid_windows(win)
            np.divide(1.0, np.sqrt(win, out=win), out=self._rwin[rows].swapaxes(-2, -1), where=valid)

    def _check(self, bank: _TemplateBank):
        if (bank.image_shape, bank.shape) != (self.shape, self.template_shape):
            raise ValueError(
                f"{self.shape} images kept for {self.template_shape} templates do not fit "
                f"a bank of {bank.shape} templates for {bank.image_shape} images"
            )

    def _score(self, bank: _TemplateBank, rows: np.ndarray) -> np.ndarray:
        """``_ncc_planes`` of every template of a bank against every
        listed image, (templates, len(rows)), taken in chunks of about
        ``channel._CHUNK`` correlation planes; each chunk's templates are
        a slice of the bank's rows, so no template spectrum is copied."""
        self._check(bank)
        count, n = len(bank.rnorm), len(rows)
        scores = np.zeros((count, n))
        n_step = max(1, min(n, channel._CHUNK))
        t_step = max(1, channel._CHUNK // n_step)
        for i in range(0, n, n_step):
            img = slice(i, i + n_step)
            spectra, rwin = self._spectra[rows[img]], self._rwin[rows[img]]
            for j in range(0, count, t_step):
                t = slice(j, j + t_step)
                scores[t, img] = _ncc_planes(
                    bank.spectra[t, None], bank.rnorm[t, None], spectra, rwin, bank.image_shape, bank.shape
                )
        return scores

    def _score_pairs(self, bank: _TemplateBank, templates: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The ``_score`` of template ``templates[k]`` of a bank against
        listed image ``rows[k]``, for each k, one chunk of pairs at a time."""
        self._check(bank)
        scores = np.zeros(len(rows))
        for k in channel._chunks(len(rows)):
            r, t = rows[k], templates[k]
            scores[k] = _ncc_planes(
                bank.spectra[t], bank.rnorm[t], self._spectra[r], self._rwin[r], bank.image_shape, bank.shape
            )
        return scores


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
    maximum is that of the full scores.
    """
    t1, t2 = banks
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


# Stage one's forward pass scores the t1 templates of this many unlabeled
# images as one bank. On the 813 training images of the reference scene,
# blocks of 1, 4, 8, 16, 32 and 64 scored 149,555, 156,914, 160,590,
# 166,203, 180,950 and 204,517 correlation planes, and match_within took
# 1.15, 1.00, 1.01, 1.03, 1.04 and 1.16 s of CPU time (medians of 9
# interleaved runs, one BLAS thread): a block shares each call's image
# gathers among its templates, but wastes the row of every member that an
# earlier member recruits. Blocks of 4 to 32 lie within noise of each other.
_BLOCK = 16


def _corner_bank(images: list[np.ndarray], rows, side: str, stacks: _ImageStacks) -> _TemplateBank:
    """The ``side`` ("t1" or "t2") corner templates of the listed images
    as one bank for the images of ``stacks``."""
    pairs = [extract_templates(images[i], stacks.template_shape) for i in rows]
    return _TemplateBank(np.stack([getattr(pair, side) for pair in pairs]), stacks.shape)


def _listed_scores(stacks: _ImageStacks, images: list[np.ndarray], founders: np.ndarray, side: str, f, r) -> np.ndarray:
    """The ``side`` score of founder image ``founders[f[k]]`` on image
    ``r[k]`` of ``stacks``, for each k, with banks of at most
    ``channel._CHUNK`` founders, each built only for founders that have
    a pair listed."""
    need, f = np.unique(f, return_inverse=True)
    scores = np.empty(len(f))
    for rows in channel._chunks(len(need)):
        part = (rows.start <= f) & (f < rows.stop)
        bank = _corner_bank(images, founders[need[rows]], side, stacks)
        scores[part] = stacks._score_pairs(bank, f[part] - rows.start, r[part])
    return scores


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

    The scan runs as two batched passes, with the results of the
    image-by-image scan. A founder that recruits nobody (a lonely one)
    changes no label but its own, to that of an earlier image, so whether
    it adopts one never changes the forward scan, and every fallback can
    wait for its end. The forward pass takes the next ``_BLOCK`` unlabeled
    images as one bank of t1 templates, scored once against the unlabeled
    images after the block and once on the pairs inside it, then walks the
    block in order: a member an earlier one recruited is skipped, and a
    member scores t2 only where its t1 reaches ``tau_in``. The fallback
    pass then goes over the images in runs of ``channel._CHUNK``, in
    order, scoring every lonely founder still looking past the run's start
    in banks of at most ``channel._CHUNK`` templates; a founder stops at
    the run that holds its first pair hit. The adoptions are settled in
    founder order, so an earlier founder's is settled before a later one
    copies it. A score does not depend on the call it was taken in.

    Every score a kept founder took is returned in ``scores``; a
    founder that adopts another category drops its scores.
    """
    if not images:
        raise ValueError("no images to segment")
    if not (0.0 < tau_in <= 1.0):
        raise ValueError(f"tau_in must lie in (0, 1], got {tau_in}")
    stacks = _ImageStacks(images, size)
    m = len(images)
    labels = np.full(m, UNLABELED, dtype=int)  # the image of each image's founder
    lonely = []
    # each founder's t1 and t2 scores on the images still unlabeled after
    # its turn: the later images that a later founder takes
    ahead = {}
    free = np.arange(m)
    while free.size:
        block, rest = free[:_BLOCK], free[_BLOCK:]
        bank = _corner_bank(images, block, "t1", stacks)
        t1 = np.full((len(block), m), np.nan)
        t1[:, rest] = stacks._score(bank, rest)
        above, below = np.triu_indices(len(block), 1)
        t1[above, block[below]] = stacks._score_pairs(bank, above, block[below])
        for k, i in enumerate(block.tolist()):
            if labels[i] != UNLABELED:
                continue
            labels[i] = i
            later = free[k + 1 :][labels[free[k + 1 :]] == UNLABELED]
            row = np.full((2, len(later)), np.nan)
            row[0] = t1[k, later]
            reach = np.flatnonzero(row[0] >= tau_in)
            if reach.size:
                row[1, reach] = stacks._score(_corner_bank(images, [i], "t2", stacks), later[reach])[0]
            hits = row[1] >= tau_in
            labels[later[hits]] = i
            if not hits.any():
                lonely.append(i)
            ahead[i] = row[:, ~hits]
        free = rest[labels[rest] == UNLABELED]

    heads = np.array(sorted(ahead))  # every founder's image
    first = {}  # the first earlier image each lonely founder's pair hits
    behind = {i: [np.empty((2, 0))] for i in lonely}  # scores on the founder images before it
    pending = np.array(lonely, dtype=int)
    for start in range(0, m, channel._CHUNK):
        pending = pending[pending > start]
        if not pending.size:
            break
        run = np.arange(start, min(start + channel._CHUNK, m))
        inside, past = pending[pending <= run[-1]], pending[pending > run[-1]]
        # a founder inside the run scores only the run's images before it
        f, r = np.nonzero(run < inside[:, None])
        scores = np.full((2, len(pending), len(run)), np.nan)
        scores[0, f, r] = _listed_scores(stacks, images, inside, "t1", f, run[r])
        for rows in channel._chunks(len(past)):
            rows = slice(len(inside) + rows.start, len(inside) + rows.stop)
            scores[0, rows] = stacks._score(_corner_bank(images, pending[rows], "t1", stacks), run)
        f, r = np.nonzero(scores[0] >= tau_in)
        scores[1, f, r] = _listed_scores(stacks, images, pending, "t2", f, run[r])
        hits = scores[1] >= tau_in
        at_heads = np.isin(run, heads)
        for n, i in enumerate(pending.tolist()):
            if hits[n].any():
                first[i] = int(run[np.argmax(hits[n])])
                del behind[i]
            else:
                behind[i].append(scores[:, n, at_heads & (run < i)])
        pending = pending[~hits.any(axis=1)]

    taken = labels.copy()  # the founder that took each image in the forward pass
    for i in lonely:
        if i in first:
            labels[i] = labels[first[i]]
    kept = heads[labels[heads] == heads]
    k = len(kept)
    table = np.full((k, k, 2), np.nan)
    for c, i in enumerate(kept.tolist()):
        cols = i + 1 + np.flatnonzero(taken[i + 1 :] > i)
        table[c, c + 1 :] = ahead[i][:, np.searchsorted(cols, kept[c + 1 :])].T
        if i in behind:
            row = np.concatenate(behind[i], axis=1)
            table[c, :c] = row[:, np.searchsorted(heads, kept[:c])].T
    return CfrLabeling(
        labels=np.searchsorted(kept, labels),
        founders={c: extract_templates(images[i], size, founder_id=i) for c, i in enumerate(kept.tolist())},
        class_count=k,
        scores=table,
    )


def match_between(labeling: CfrLabeling, images: list[np.ndarray], tau_out: float) -> CfrLabeling:
    """Stage two: merge categories whose founders match each other.

    The founder templates of category i, the corners of its founder
    image ``images[founder_id]`` of the images the labeling was made
    from, are matched against the founder image of category j; a pair
    score at or above ``tau_out`` links the two. Merging is the
    symmetric-transitive closure of those links (smaller id survives),
    which is already the fixpoint of repeated scanning.

    The links are read from one completed score table: ``labeling.scores``
    with every off-diagonal t1 entry it lacks taken in one
    ``_listed_scores`` pass, then every t2 entry it lacks where t1
    reaches ``tau_out`` in a second. An entry the table holds is not
    scored again; a score does not depend on the call it was taken in,
    and the closure and its smallest root do not depend on the link
    order, so the result is that of the pair-by-pair scan. The labeling
    returned carries the table forward, re-indexed. The surviving
    categories are renumbered 0..K-1 in order of first occurrence in
    sample order, each keeping its root's founder.
    """
    if not (0.0 < tau_out <= 1.0):
        raise ValueError(f"tau_out must lie in (0, 1], got {tau_out}")
    k = labeling.class_count
    pairs = [labeling.founders[c] for c in range(k)]
    founders = np.array([pair.founder_id for pair in pairs])
    table = np.full((k, k, 2), np.nan) if labeling.scores is None else labeling.scores.copy()
    stacks = _ImageStacks([images[i] for i in founders], pairs[0].size)
    links = ~np.eye(k, dtype=bool)
    for side, name in enumerate(("t1", "t2")):
        f, r = np.nonzero(links & np.isnan(table[..., side]))
        table[f, r, side] = _listed_scores(stacks, images, founders, name, f, r)
        links &= table[..., side] >= tau_out
    roots = np.arange(k)  # each category's component, by its smallest id
    for a, b in zip(*np.nonzero(links)):
        lo, hi = sorted((roots[a], roots[b]))
        roots[roots == hi] = lo

    # the result then reuses the stack's memory, not the heap above it
    del stacks
    merged = roots[labeling.labels]
    order = merged[np.sort(np.unique(merged, return_index=True)[1])]  # old root of each new id
    rank = np.empty_like(roots)
    rank[order] = np.arange(len(order))
    return CfrLabeling(
        labels=rank[merged],
        founders={new: pairs[old] for new, old in enumerate(order.tolist())},
        class_count=len(order),
        scores=table[np.ix_(order, order)],
    )


def segment_cfr(
    images: list[np.ndarray],
    tau_in: float = 0.99,
    tau_out: float = 0.99,
    size: tuple[int, int] = (16, 16),
) -> CfrLabeling:
    """Full two-stage segmentation of CFR magnitude images."""
    return match_between(match_within(images, tau_in, size), images, tau_out)
