"""Slow reference scorers that the package's fast paths are held to.

``window_energy`` sums each placement window's squares with a
sliding-window einsum, the package's box sums' reference. ``ncc``
scores one template against one image with the same einsum, and
``pair_score`` takes the smaller of a pair's two corner scores, one
pair and one image at a time. ``pair_scores`` scores every
founder pair against every listed image with the package's bank scorer,
t1 and t2 alike; ``np.argmax`` of it along the founders is the routing
that ``segmentation_cfr._best_pairs`` must reproduce. ``masked_scores``
is the bank kernel as it was before it marked unscored windows by an
infinite energy: a zero-energy mask array, a masked divide, whole-row
gathers and pocketfft's ``irfft2``; the package's kernel must give its
scores to rounding. ``refuse_numpy_inverse_ffts`` makes every numpy
inverse FFT raise, for the tests that scoring takes none.

``cfr_from_paths`` builds one CFR matrix path by path, and ``adcam``
transforms one matrix at a time: the references of the package's
stacked ``channel.cfr_stack`` and ``channel.adcam``.

``match_within_sequential`` is stage one as it ran before its two
batched passes: one founder at a time, each founder's fallback right
after its turn, over earlier images in runs of ``channel._CHUNK``
that double in length. The package's ``match_within`` must give its
labels, founders and ``scores`` bit for bit.

``reindex`` numbers categories 0..K-1 in order of first occurrence one
sample at a time, the renumbering that ``segmentation_cfr.match_between``
derives from its roots' order.

``ridge_oracle`` is the closed-form ridge solve as it was with a
penalty matrix: ``ridge_lambda * np.eye`` with its bias entry zeroed,
added to the Gram matrix. ``localizer._solve_ridge`` adds
``ridge_lambda`` to the Gram matrix's diagonal in place and must give
its weights bit for bit. ``with_ones`` puts features next to the column
of ones of a design matrix, and ``affine_oracle`` is a region's
``W @ [features; 1]`` for one vector, W column-major as a model stores
it, as ``localizer.locate`` takes it for each design row.

``fuse_labels`` and ``cleanse`` are the dict-based fusion that stored
every region fact, ``retained``, the region count and the pair map,
next to the fused labels, in ``StoredLabels``; the package derives them
from its fused labels and must give the same.

``REFERENCE_SCENE`` is the area, base station and five buildings of the
benchmark scenes, ``dense-global`` and ``hetero-segmented``; each test
that builds one sets its own grid, matrix size and seed.
"""
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from amdnloc import channel
from amdnloc.channel import array_response, dft_matrices
from amdnloc.scenegen import Rect
from amdnloc.segmentation_cfr import (
    UNLABELED,
    CfrLabeling,
    _check_fits,
    _corner_banks,
    _ImageStacks,
    _TemplateBank,
    extract_templates,
)

REFERENCE_SCENE = {
    "area_m": (250.0, 250.0),
    "bs_pos": (125.0, 2.0),
    "buildings": [
        Rect(40.0, 60.0, 30.0, 40.0),
        Rect(170.0, 50.0, 35.0, 30.0),
        Rect(60.0, 170.0, 40.0, 30.0),
        Rect(165.0, 160.0, 30.0, 45.0),
        Rect(110.0, 30.0, 25.0, 20.0),
    ],
}


def cfr_from_paths(paths, nt: int, nc: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Channel frequency response matrix (nt x nc) of one path list, one
    path at a time: amplitude * outer(steering(aoa), delay phase)."""
    h = np.zeros((nt, nc), dtype=np.complex128)
    l = np.arange(nc)
    for p in paths:
        if p.delay_samples >= nc:
            raise ValueError(f"path delay {p.delay_samples} exceeds cyclic window nc={nc}")
        delay_phase = np.exp(-2j * np.pi * l * p.delay_samples / nc)
        h += p.amplitude * np.outer(array_response(p.aoa, nt, spacing_ratio), delay_phase)
    return h


def adcam(h: np.ndarray) -> np.ndarray:
    """|V^H H F| of one (nt, nc) CFR matrix."""
    v, f = dft_matrices(*h.shape)
    return np.abs(v.conj().T @ h @ f)


def window_energy(source: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Energy of every placement window over the last two axes of ``source``."""
    windows = sliding_window_view(source, shape, axis=(-2, -1))
    e = np.einsum("...ijkl,...ijkl->...ij", windows, windows)
    np.maximum(e, 0.0, out=e)
    return e


def ncc(template: np.ndarray, source: np.ndarray) -> float:
    """Best normalized cross-correlation of a template over a source image.

    Maximum over all placements of sum(T*I) / sqrt(sum(T^2) * sum(I^2)),
    the sums running over the template window. Placements whose window
    energy is zero are skipped; an all-zero template scores 0.
    """
    template = np.asarray(template, dtype=float)
    source = np.asarray(source, dtype=float)
    _check_fits(template.shape, source.shape)
    t_energy = float(np.sum(template * template))
    if t_energy == 0.0:
        return 0.0
    num = np.einsum("ijkl,kl->ij", sliding_window_view(source, template.shape), template)
    win = window_energy(source, template.shape)
    denom = np.sqrt(t_energy * win)
    # Zero-energy windows carry no signal; keep them out of the maximum.
    scale = float(np.max(win))
    valid = win > (1e-12 * scale if scale > 0 else 0.0)
    if not np.any(valid):
        return 0.0
    best = float(np.max(num[valid] / denom[valid]))
    return float(np.clip(best, 0.0, 1.0))


def pair_score(pair, image: np.ndarray) -> float:
    """min of the two template matches; both corners must agree."""
    return min(ncc(pair.t1, image), ncc(pair.t2, image))


def pair_scores(stacks, pairs, indices: np.ndarray) -> np.ndarray:
    """The pair score of every pair against each listed image of an
    ``_ImageStacks`` built for the pairs' template shape, shape
    (pairs, len(indices)): every template, t1 and t2 interleaved, scored
    in one ``_ImageStacks._score`` call."""
    bank = _TemplateBank(np.stack([t for pair in pairs for t in (pair.t1, pair.t2)]), stacks.shape)
    both = stacks._score(bank, indices)
    return np.minimum(both[0::2], both[1::2])


def valid_windows(win: np.ndarray) -> np.ndarray:
    """The zero-energy mask of each image's window energies (n, p, q):
    the windows above 1e-12 of the image's largest window energy, or
    above 0 when every window is empty."""
    scale = np.max(win, axis=(1, 2), keepdims=True)
    return win > np.where(scale > 0, 1e-12 * scale, 0.0)


def masked_scores(templates: np.ndarray, images: list, rows: np.ndarray, picks: np.ndarray | None = None) -> np.ndarray:
    """NCC scores of templates (T, a, b) against the listed images
    ``images[rows]``, maximized over placements: every template against
    every listed image, (T, len(rows)), or, given ``picks``, template
    ``picks[k]`` against listed image k.

    The listed images are gathered whole, then transformed and scored
    in one broadcast: FFT numerators cut from the full ``irfft2``,
    windows outside ``valid_windows`` and all-zero templates masked out
    of the divide as -inf, and the maxima clipped to [0, 1].
    """
    templates = np.asarray(templates, dtype=float)
    stack = np.array(images, dtype=float)[rows]
    (h, w), (a, b) = stack.shape[1:], templates.shape[1:]
    flat = templates.reshape(len(templates), -1)
    energy = np.sum(flat * flat, axis=1)
    t = np.arange(len(templates))[:, None] if picks is None else picks
    i = np.arange(len(rows))
    product = np.conj(np.fft.rfft2(templates, s=(h, w)))[t] * np.fft.rfft2(stack)[i]
    num = np.fft.irfft2(product, s=(h, w))[..., : h - a + 1, : w - b + 1]
    win = window_energy(stack, (a, b))
    e = energy[t][..., None, None]
    denom = np.sqrt(e * win[i])
    ratio = np.divide(num, denom, out=np.full(num.shape, -np.inf), where=valid_windows(win)[i] & (e > 0.0))
    return np.clip(np.max(ratio, axis=(-2, -1)), 0.0, 1.0)


def _pair_hits(stacks, banks, indices, tau, row):
    """Whether the pair score of a founder, given by its ``_corner_banks``,
    reaches ``tau`` on each listed image. ``row``, (2, images in the
    stack), holds its t1 and t2 scores, NaN where not taken yet; only
    the NaN entries needed are scored with ``_score`` and written into
    it: t1 on every listed image, t2 where t1 reaches ``tau``."""
    here = indices
    for side, scores in enumerate(row):
        gaps = here[np.isnan(scores[here])]
        if gaps.size:
            scores[gaps] = stacks._score(banks[side], gaps)[0]
        here = here[scores[here] >= tau]
    return np.isin(indices, here)


def match_within_sequential(images, tau_in, size):
    """Stage one scored one founder at a time on one ``_ImageStacks``:
    its pair against all later unlabeled images, then, if it recruits
    nobody, against earlier images in runs that double in length until
    one holds a hit. Every score a kept founder took is returned in
    ``scores``."""
    stacks = _ImageStacks(images, size)
    m = len(images)
    labels = np.full(m, UNLABELED, dtype=int)
    founders = {}
    ids = []  # the kept founders' images
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
        recruits = later[_pair_hits(stacks, banks, later, tau_in, row)]
        labels[recruits] = class_num
        start, step = 0, channel._CHUNK
        while recruits.size == 0 and start < i:
            run = np.arange(start, min(start + step, i))
            hits = np.flatnonzero(_pair_hits(stacks, banks, run, tau_in, row))
            if hits.size:
                labels[i] = labels[run[hits[0]]]
                break
            start, step = start + step, 2 * step
        if labels[i] == class_num:
            founders[class_num] = pair
            ids.append(i)
            # only the images that may still found a category keep their scores
            cols = np.concatenate([ids, later[labels[later] == UNLABELED]])
            rows.append((cols, row[:, cols]))
            class_num += 1
    scores = np.array([kept[:, np.searchsorted(cols, ids)].T for cols, kept in rows])
    return CfrLabeling(labels=labels, founders=founders, class_count=class_num, scores=scores)


def reindex(labels: np.ndarray, founders: dict) -> tuple[np.ndarray, dict]:
    """Relabel to 0..K-1 in order of first occurrence in sample order."""
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for idx, lab in enumerate(labels):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[idx] = mapping[lab]
    new_founders = {mapping[old]: pair for old, pair in founders.items() if old in mapping}
    return out, new_founders


def ridge_oracle(design: np.ndarray, y: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """The 2 x (d+1) ridge weights of an (n, d+1) design matrix whose
    last column is ones, the bias left unpenalized by a zero in the
    (d+1) x (d+1) penalty matrix."""
    d = design.shape[1]
    penalty = ridge_lambda * np.eye(d)
    penalty[-1, -1] = 0.0
    gram = design.T @ design + penalty
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(gram) < d:
        raise np.linalg.LinAlgError("singular system; use ridge_lambda > 0")
    return np.linalg.solve(gram, design.T @ y).T


def with_ones(x: np.ndarray) -> np.ndarray:
    """The (n, d+1) design matrix of (n, d) features: a column of ones last."""
    return np.hstack([x, np.ones((len(x), 1))])


def affine_oracle(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """W @ [features; 1] of one feature vector, W taken column-major."""
    return np.asfortranarray(weights) @ np.hstack([features, 1.0])


def magnitude_images(samples) -> list[np.ndarray]:
    """The CFR magnitude image of each sample, the images ``evaluate.segment`` takes."""
    return [channel.render_image(s.cfr, "cfr_magnitude") for s in samples]


def refuse_numpy_inverse_ffts(monkeypatch):
    """Make every numpy inverse FFT raise, through pytest's ``monkeypatch``."""

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy inverse FFT was called")

    for name in ("ifft", "irfft", "ifft2", "irfft2", "ifftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, refuse)


@dataclass
class StoredLabels:
    fused_labels: np.ndarray
    retained: np.ndarray
    fused_count: int
    pair_to_fused: dict[tuple[int, int], int]


def fuse_labels(cfr_labels, adcam_labels) -> StoredLabels:
    """Distinct (cfr, adcam) pairs numbered in sorted order, all retained."""
    pairs = list(zip(np.asarray(cfr_labels).tolist(), np.asarray(adcam_labels).tolist()))
    pair_to_fused = {pair: i for i, pair in enumerate(sorted(set(pairs)))}
    fused = np.array([pair_to_fused[pair] for pair in pairs], dtype=int)
    return StoredLabels(fused, np.ones(len(pairs), dtype=bool), len(pair_to_fused), pair_to_fused)


def cleanse(labels: StoredLabels, min_count: int) -> StoredLabels:
    """Categories with more than ``min_count`` retained members, numbered
    again in order; every other sample gets label -1 and is not retained."""
    counts = np.bincount(labels.fused_labels[labels.retained], minlength=labels.fused_count)
    keep = {c for c in range(labels.fused_count) if counts[c] > min_count}
    if not keep:
        raise ValueError(f"min_count={min_count} removes every sample")
    remap = {old: new for new, old in enumerate(sorted(keep))}
    return StoredLabels(
        fused_labels=np.array([remap.get(int(c), -1) for c in labels.fused_labels], dtype=int),
        retained=labels.retained & np.isin(labels.fused_labels, sorted(keep)),
        fused_count=len(keep),
        pair_to_fused={pair: remap[old] for pair, old in labels.pair_to_fused.items() if old in keep},
    )
