"""OFDM multipath channel primitives.

Builds per-antenna, per-subcarrier frequency responses (CFR) from
discrete path lists, transforms them into the sparse angle-delay
amplitude domain, and renders either representation as a grayscale
image suitable for template matching and feature extraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PathRecord",
    "array_response",
    "cfr_stack",
    "cfr_from_paths",
    "dft_matrices",
    "adcam",
    "render_image",
    "add_noise",
    "NO_NOISE",
]

# Sentinel SNR meaning "do not add noise".
NO_NOISE = float("inf")

# Matrices per block of the stacked kernels: 64 of 32 x 32 complex are 1 MB.
_CHUNK = 64


@dataclass(frozen=True)
class PathRecord:
    """One propagation path between the base station and a terminal.

    Angles are in radians inside (0, pi); the delay is an integer number
    of sample intervals and must fit the cyclic window of the subcarrier
    grid it will be used with.
    """

    aoa: float
    aod: float
    gain: complex
    delay_samples: int
    pathloss_db: float

    def __post_init__(self):
        for name in ("aoa", "aod"):
            if not (0.0 < getattr(self, name) < np.pi):
                raise ValueError(f"{name} must lie in (0, pi), got {getattr(self, name)}")
        if self.delay_samples < 0:
            raise ValueError(f"delay_samples must be >= 0, got {self.delay_samples}")
        if self.pathloss_db < 0:
            raise ValueError(f"pathloss_db must be >= 0, got {self.pathloss_db}")

    @property
    def amplitude(self) -> complex:
        """Complex gain with pathloss folded in as amplitude scaling."""
        return self.gain * 10.0 ** (-self.pathloss_db / 20.0)


def array_response(phi: float, nt: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Steering vector of a uniform linear array for arrival angle ``phi``.

    Entry k is exp(-j*2*pi*k*spacing_ratio*cos(phi)); entry 0 is 1.
    ``spacing_ratio`` is antenna spacing over carrier wavelength
    (0.5 for the usual half-wavelength arrays).
    """
    if nt < 1:
        raise ValueError(f"nt must be >= 1, got {nt}")
    if not (0.0 <= phi <= np.pi):
        raise ValueError(f"phi must lie in [0, pi], got {phi}")
    if spacing_ratio <= 0:
        raise ValueError(f"spacing_ratio must be > 0, got {spacing_ratio}")
    k = np.arange(nt)
    return np.exp(-2j * np.pi * k * spacing_ratio * np.cos(phi))


def cfr_stack(
    path_lists: Sequence[Sequence[PathRecord]],
    nt: int,
    nc: int,
    spacing_ratio: float = 0.5,
) -> np.ndarray:
    """Channel frequency responses (n x nt x nc) of n path lists.

    Matrix i, column l, is the sum over the paths of list i of
    amplitude * steering(aoa) * exp(-j*2*pi*l*delay/nc). Pathloss scales
    the complex gain by 10**(-dB/20). The matrices are built
    ``_CHUNK`` at a time: path slot j of every list in a chunk that has
    one is added at once as amp * (steer * phase), so each matrix sums
    its paths in list order, as one path at a time would.
    """
    if nt < 1 or nc < 1:
        raise ValueError("nt and nc must be >= 1")
    h = np.zeros((len(path_lists), nt, nc), dtype=np.complex128)
    # the exponents of array_response and of the delay phase, up to cos(aoa) and delay/nc
    angle_exp = -2j * np.pi * np.arange(nt) * spacing_ratio
    delay_exp = -2j * np.pi * np.arange(nc)
    for start in range(0, len(path_lists), _CHUNK):
        chunk = path_lists[start : start + _CHUNK]
        block = h[start : start + len(chunk)]
        for j in range(max(map(len, chunk))):
            rows = [i for i, paths in enumerate(chunk) if len(paths) > j]
            slot = [chunk[i][j] for i in rows]
            delay = np.array([p.delay_samples for p in slot])
            if delay.max() >= nc:
                raise ValueError(f"path delay {delay.max()} exceeds cyclic window nc={nc}")
            steer = np.exp(angle_exp * np.cos([p.aoa for p in slot])[:, None])
            phase = np.exp(delay_exp * delay[:, None] / nc)
            term = np.array([p.amplitude for p in slot])[:, None, None] * (steer[:, :, None] * phase[:, None, :])
            if len(rows) == len(chunk):
                block += term
            else:
                block[rows] += term
    return h


def cfr_from_paths(
    paths: Iterable[PathRecord],
    nt: int,
    nc: int,
    spacing_ratio: float = 0.5,
) -> np.ndarray:
    """Channel frequency response matrix (nt x nc) of one path list: the
    one-list ``cfr_stack``."""
    return cfr_stack([list(paths)], nt, nc, spacing_ratio)[0]


@lru_cache(maxsize=16)
def dft_matrices(nt: int, nc: int) -> tuple[np.ndarray, np.ndarray]:
    """Unitary DFT matrices for the angle (nt x nt) and delay (nc x nc) axes.

    The angle-axis matrix carries a half-aperture index shift so that a
    broadside arrival concentrates at row nt/2 after the transform.
    Built once per (nt, nc) and shared between calls, so both arrays are
    read-only.
    """
    if nt < 1 or nc < 1:
        raise ValueError("nt and nc must be >= 1")
    z_t, q_t = np.meshgrid(np.arange(nt), np.arange(nt), indexing="ij")
    v = np.exp(-2j * np.pi * z_t * (q_t - nt / 2.0) / nt) / np.sqrt(nt)
    z_c, q_c = np.meshgrid(np.arange(nc), np.arange(nc), indexing="ij")
    f = np.exp(-2j * np.pi * z_c * q_c / nc) / np.sqrt(nc)
    v.flags.writeable = f.flags.writeable = False
    return v, f


def adcam(h: np.ndarray) -> np.ndarray:
    """Angle-delay channel amplitude matrix |V^H H F| of a CFR matrix,
    or of each matrix of an (..., nt, nc) stack, ``_CHUNK`` at a time."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2:
        raise ValueError(f"need an (..., nt, nc) array, got shape {h.shape}")
    nt, nc = h.shape[-2:]
    v, f = dft_matrices(nt, nc)
    vh = v.conj().T
    flat = h.reshape(-1, nt, nc)
    out = np.empty(flat.shape)
    for i in range(0, len(flat), _CHUNK):
        np.abs(vh @ flat[i : i + _CHUNK] @ f, out=out[i : i + _CHUNK])
    return out.reshape(h.shape)


def render_image(m: np.ndarray, tag: str) -> np.ndarray:
    """Render a CFR or angle-delay matrix as a grayscale image in [0, 1].

    ``tag`` selects the channel: "cfr_magnitude" and "adcam" min-max
    normalize the (absolute) values per image, "cfr_phase" maps the
    argument affinely from [-pi, pi] to [0, 1]. Constant matrices render
    to all zeros so degenerate ranges never divide by zero. A stack of
    shape (..., H, W) renders each (H, W) image on its own.
    """
    m = np.asarray(m)
    if m.ndim < 2:
        raise ValueError(f"need an (..., H, W) array, got shape {m.shape}")
    if tag == "cfr_phase":
        return (np.angle(m) + np.pi) / (2.0 * np.pi)
    if tag == "cfr_magnitude":
        vals = np.abs(m)
    elif tag == "adcam":
        vals = np.asarray(m, dtype=float)
    else:
        raise ValueError(f"unknown channel tag {tag!r}")
    lo = vals.min(axis=(-2, -1), keepdims=True)
    span = vals.max(axis=(-2, -1), keepdims=True) - lo
    # a constant image has vals - lo == 0 everywhere
    return (vals - lo) / np.where(span == 0.0, 1.0, span)


def add_noise(h: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add circular complex Gaussian noise at the given SNR.

    Per-entry noise variance is mean(|H|^2) / 10**(snr_db/10). Passing
    ``NO_NOISE`` (infinity) returns H unchanged. Deterministic given the
    seed.
    """
    h = np.asarray(h, dtype=np.complex128)
    if snr_db == NO_NOISE:
        return h.copy()
    p_avg = float(np.mean(np.abs(h) ** 2))
    if p_avg == 0.0:
        raise ValueError("cannot add noise to an all-zero channel (SNR undefined)")
    sigma2 = p_avg / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=np.sqrt(sigma2 / 2.0), size=h.shape + (2,))
    return h + noise[..., 0] + 1j * noise[..., 1]
