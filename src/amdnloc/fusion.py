"""Cross-product fusion of the two segmentations plus small-category cleansing."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .segmentation_adcam import Standardizer
from .segmentation_cfr import TemplatePair

__all__ = ["RegionLabels", "Segmentation", "fuse_labels", "cleanse"]


@dataclass
class RegionLabels:
    """Per-sample region bookkeeping after fusing both segmentations.

    ``fused_label`` enumerates distinct (cfr, adcam) pairs in
    lexicographic order; cleansed samples keep their labels but are
    flagged retained=False.
    """

    cfr_labels: np.ndarray
    adcam_labels: np.ndarray
    fused_labels: np.ndarray
    retained: np.ndarray  # bool
    fused_count: int
    pair_to_fused: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def covering_rate(self) -> float:
        return float(self.retained.sum()) / self.retained.size


@dataclass
class Segmentation:
    """Regions of the training samples, in order, and the state that
    routes a new sample to one; founder ids are sample ids."""

    regions: RegionLabels
    founders: dict[int, TemplatePair]
    adcam_centroids: np.ndarray
    adcam_standardizer: Standardizer
    path_select: str


def fuse_labels(cfr_labels, adcam_labels) -> RegionLabels:
    """Map distinct (cfr, adcam) label pairs to consecutive region ids."""
    cfr_labels = np.asarray(cfr_labels, dtype=int)
    adcam_labels = np.asarray(adcam_labels, dtype=int)
    if cfr_labels.shape != adcam_labels.shape:
        raise ValueError(
            f"label length mismatch: {cfr_labels.shape} vs {adcam_labels.shape}"
        )
    pairs = sorted(set(zip(cfr_labels.tolist(), adcam_labels.tolist())))
    pair_to_fused = {pair: i for i, pair in enumerate(pairs)}
    fused = np.array(
        [pair_to_fused[(c, a)] for c, a in zip(cfr_labels.tolist(), adcam_labels.tolist())]
    )
    return RegionLabels(
        cfr_labels=cfr_labels,
        adcam_labels=adcam_labels,
        fused_labels=fused,
        retained=np.ones(cfr_labels.size, dtype=bool),
        fused_count=len(pairs),
        pair_to_fused=pair_to_fused,
    )


def cleanse(labels: RegionLabels, min_count: int) -> RegionLabels:
    """Drop fused categories with at most ``min_count`` retained members.

    Surviving category ids are re-indexed contiguously (preserving
    order); dropped samples are kept but flagged retained=False.
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    counts = np.bincount(
        labels.fused_labels[labels.retained], minlength=labels.fused_count
    )
    keep = {c for c in range(labels.fused_count) if counts[c] > min_count}
    if not keep:
        raise ValueError(f"min_count={min_count} removes every sample")
    remap = {old: new for new, old in enumerate(sorted(keep))}
    retained = labels.retained & np.isin(labels.fused_labels, sorted(keep))
    fused = np.array(
        [remap.get(int(c), -1) for c in labels.fused_labels]
    )
    pair_to_fused = {
        pair: remap[old] for pair, old in labels.pair_to_fused.items() if old in keep
    }
    return RegionLabels(
        cfr_labels=labels.cfr_labels,
        adcam_labels=labels.adcam_labels,
        fused_labels=fused,
        retained=retained,
        fused_count=len(keep),
        pair_to_fused=pair_to_fused,
    )
