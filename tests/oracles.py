"""Slow reference scorers that the package's fast paths are held to.

``ncc`` scores one template against one image with a sliding-window
einsum, and ``pair_score`` takes the smaller of a pair's two corner
scores, one pair and one image at a time. ``pair_scores`` scores every
founder pair against every listed image with the package's bank scorer,
t1 and t2 alike; ``np.argmax`` of it along the founders is the routing
that ``segmentation_cfr._best_pairs`` must reproduce.
"""
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from amdnloc.segmentation_cfr import _check_fits, _TemplateBank, _window_energy


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
    win = _window_energy(source, template.shape)
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
    ``_ImageStacks``, shape (pairs, len(indices)): every template, t1
    and t2 interleaved, scored in one bank call."""
    bank = _TemplateBank(np.stack([t for pair in pairs for t in (pair.t1, pair.t2)]), stacks.shape)
    both = stacks._score(bank, indices)
    return np.minimum(both[0::2], both[1::2])
