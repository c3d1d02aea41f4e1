"""Cross-product fusion of the two segmentations plus small-category cleansing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .segmentation_adcam import Standardizer
from .segmentation_cfr import TemplatePair

__all__ = ["RegionLabels", "Segmentation", "fuse_labels", "cleanse"]


@dataclass
class RegionLabels:
    """Per-sample region labels after fusing both segmentations.

    ``fused_labels`` numbers the distinct (cfr, adcam) pairs in
    lexicographic order; a cleansed sample keeps its two labels and has
    fused label -1. The other facts are derived from the three arrays.
    """

    cfr_labels: np.ndarray
    adcam_labels: np.ndarray
    fused_labels: np.ndarray  # -1 marks a cleansed sample

    @property
    def retained(self) -> np.ndarray:
        return self.fused_labels >= 0

    @property
    def fused_count(self) -> int:
        return int(self.fused_labels.max(initial=-1)) + 1

    @property
    def pair_to_fused(self) -> dict[tuple[int, int], int]:
        """The fused label of each retained pair, in sorted pair order."""
        keep = self.retained
        rows = np.unique(
            np.stack([self.cfr_labels[keep], self.adcam_labels[keep], self.fused_labels[keep]], axis=1), axis=0
        )
        return {(c, a): f for c, a, f in rows.tolist()}

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
    """Number the distinct (cfr, adcam) label pairs in lexicographic order."""
    cfr_labels = np.asarray(cfr_labels, dtype=int)
    adcam_labels = np.asarray(adcam_labels, dtype=int)
    if cfr_labels.shape != adcam_labels.shape:
        raise ValueError(
            f"label length mismatch: {cfr_labels.shape} vs {adcam_labels.shape}"
        )
    _, fused = np.unique(np.stack([cfr_labels, adcam_labels], axis=1), axis=0, return_inverse=True)
    return RegionLabels(cfr_labels, adcam_labels, fused)


def cleanse(labels: RegionLabels, min_count: int) -> RegionLabels:
    """Drop fused categories with at most ``min_count`` retained members.

    Surviving categories are renumbered contiguously, in order; a
    dropped sample keeps its two labels and gets fused label -1.
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    keep = np.bincount(labels.fused_labels[labels.retained]) > min_count
    if not keep.any():
        raise ValueError(f"min_count={min_count} removes every sample")
    # label -1, cleansed by an earlier call, indexes the appended -1
    remap = np.append(np.where(keep, np.cumsum(keep) - 1, -1), -1)
    return RegionLabels(labels.cfr_labels, labels.adcam_labels, remap[labels.fused_labels])
