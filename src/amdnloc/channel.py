"""OFDM multipath channel primitives.

Builds per-antenna, per-subcarrier frequency responses (CFR) from
discrete path lists, transforms them into the sparse angle-delay
amplitude domain, and renders either representation as a grayscale
image suitable for template matching and feature extraction.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

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
]

# Rows per temporary of every stacked pass in the package, read at call
# time: 64 matrices of 32 x 32 complex are 1 MB.
_CHUNK = 64

# Matrices per block of ``adcam``'s two complex products: its work arrays
# are 16 matrices each, 256 kB at 32 x 32, where a whole chunk's are 1 MB.
_ADCAM_BLOCK = 16


def _chunks(n: int) -> Iterator[slice]:
    """The slices of ``_CHUNK`` rows that cover ``range(n)``, in order."""
    for start in range(0, n, _CHUNK):
        yield slice(start, start + _CHUNK)


def _chunk_rows(n: int) -> int:
    """Rows of the largest slice ``_chunks(n)`` yields. A pass makes its
    chunk-sized work arrays once, this many rows long, and every chunk
    reuses them: a temporary made anew per chunk can be handed back to
    the system when it is freed and faulted in again by the next."""
    return min(n, _CHUNK)


@dataclass(frozen=True)
class PathRecord:
    """One propagation path between the base station and a terminal.

    Angles are in radians inside (0, pi); the gain is finite; the delay, in
    whole sample intervals within the cyclic window of the subcarrier grid
    it meets, and the pathloss are finite and >= 0. Errors name the field.
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
        if not cmath.isfinite(self.gain):
            raise ValueError(f"gain must be finite, got {self.gain}")
        for name in ("delay_samples", "pathloss_db"):
            if not (0 <= getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    @property
    def amplitude(self) -> complex:
        """Complex gain with pathloss folded in as amplitude scaling."""
        return self.gain * 10.0 ** (-self.pathloss_db / 20.0)


def array_response(phi: float | np.ndarray, nt: int, spacing_ratio: float = 0.5) -> np.ndarray:
    """Steering vectors of a uniform linear array for arrival angles ``phi``.

    Entry k is exp(-j*2*pi*k*spacing_ratio*cos(phi)); entry 0 is 1. A
    scalar angle in [0, pi] gives an (nt,) vector, and angles of shape S
    give shape S + (nt,), each row bit for bit its angle's vector.
    ``spacing_ratio`` is antenna spacing over carrier wavelength (0.5 for
    the usual half-wavelength arrays).
    """
    if nt < 1:
        raise ValueError(f"nt must be >= 1, got {nt}")
    phi = np.asarray(phi, dtype=float)
    bad = phi[~((0.0 <= phi) & (phi <= np.pi))]
    if bad.size:
        raise ValueError(f"phi must lie in [0, pi], got {bad[0]}")
    if spacing_ratio <= 0:
        raise ValueError(f"spacing_ratio must be > 0, got {spacing_ratio}")
    return np.exp(-2j * np.pi * np.arange(nt) * spacing_ratio * np.cos(phi)[..., None])


def cfr_stack(
    path_lists: Sequence[Sequence[PathRecord]],
    nt: int,
    nc: int,
    spacing_ratio: float = 0.5,
) -> np.ndarray:
    """Channel frequency responses (n x nt x nc) of n path lists.

    Matrix i, column l, is the sum over the paths of list i of
    amplitude * array_response(aoa) * exp(-j*2*pi*l*delay/nc). Pathloss
    scales the complex gain by 10**(-dB/20). Path slot j of every list
    that has one is added at once as amp * (steer * phase), so each
    matrix sums its paths in list order, as one path at a time would.
    Every slot reuses one (n, nt, nc) work array; its one program caller,
    ``scenegen.fingerprint_chunks``, passes ``_CHUNK`` lists at a time.
    """
    if nt < 1 or nc < 1:
        raise ValueError("nt and nc must be >= 1")
    h = np.zeros((len(path_lists), nt, nc), dtype=np.complex128)
    work = np.empty(h.shape, dtype=np.complex128)
    # the exponent of the delay phase, up to delay/nc
    delay_exp = -2j * np.pi * np.arange(nc)
    for j in range(max(map(len, path_lists), default=0)):
        rows = [i for i, paths in enumerate(path_lists) if len(paths) > j]
        slot = [path_lists[i][j] for i in rows]
        delay = np.array([p.delay_samples for p in slot])
        if delay.max() >= nc:
            raise ValueError(f"path delay {delay.max()} exceeds cyclic window nc={nc}")
        steer = array_response([p.aoa for p in slot], nt, spacing_ratio)
        phase = np.exp(delay_exp * delay[:, None] / nc)
        term = np.multiply(steer[:, :, None], phase[:, None, :], out=work[: len(rows)])
        np.multiply(np.array([p.amplitude for p in slot])[:, None, None], term, out=term)
        if len(rows) == len(path_lists):
            h += term
        else:
            h[rows] += term
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
    or of each matrix of an (..., nt, nc) stack.

    Both products are taken ``_ADCAM_BLOCK`` matrices at a time into two
    work arrays of that many matrices (``np.matmul(..., out=)``, faster
    than a chained ``@``), made once and reused by every block, and each
    block's amplitudes go into its rows of the result. Each matrix is
    transformed bit for bit as it would be alone, so the result does not
    depend on the stack it came in.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2:
        raise ValueError(f"need an (..., nt, nc) array, got shape {h.shape}")
    nt, nc = h.shape[-2:]
    v, f = dft_matrices(nt, nc)
    vh = v.conj().T
    stack = h.reshape(-1, nt, nc)
    out = np.empty(stack.shape)
    left, both = np.empty((2, min(len(stack), _ADCAM_BLOCK), nt, nc), dtype=np.complex128)
    for start in range(0, len(stack), _ADCAM_BLOCK):
        block = stack[start : start + _ADCAM_BLOCK]
        m = len(block)
        np.abs(np.matmul(np.matmul(vh, block, out=left[:m]), f, out=both[:m]), out=out[start : start + m])
    return out.reshape(h.shape)


def _min_max(vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stretch each (H, W) image of an (..., H, W) stack to [0, 1] by its
    own minimum and range, into ``out`` (``vals`` itself works) or a new
    array; the one min-max rule. A constant image has ``vals - lo == 0``
    everywhere, and its range is taken as 1, so it stretches to zeros."""
    lo = vals.min(axis=(-2, -1), keepdims=True)
    span = vals.max(axis=(-2, -1), keepdims=True) - lo
    span[span == 0.0] = 1.0
    return np.divide(np.subtract(vals, lo, out=out), span, out=out)


def _phase_map(angle: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map angles affinely from [-pi, pi] to [0, 1], into ``out``
    (``angle`` itself works) or a new array; the one phase map."""
    return np.divide(np.add(angle, np.pi, out=out), 2.0 * np.pi, out=out)


def render_image(m: np.ndarray, tag: str) -> np.ndarray:
    """Render a CFR or angle-delay matrix as a grayscale image in [0, 1].

    ``tag`` selects the channel: "cfr_magnitude" and "adcam" stretch the
    (absolute) values of each image by ``_min_max``, and "cfr_phase"
    maps the argument by ``_phase_map``. Constant matrices render to all
    zeros so degenerate ranges never divide by zero. A stack of shape
    (..., H, W) renders each (H, W) image on its own. The input is never
    written; ``localizer`` renders its feature planes in place with the
    same two maps, bit for bit as this function.
    """
    m = np.asarray(m)
    if m.ndim < 2:
        raise ValueError(f"need an (..., H, W) array, got shape {m.shape}")
    if tag == "cfr_phase":
        return _phase_map(np.angle(m))
    if tag == "cfr_magnitude":
        return _min_max(np.abs(m))
    if tag == "adcam":
        return _min_max(np.asarray(m, dtype=float))
    raise ValueError(f"unknown channel tag {tag!r}")


def add_noise(h: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add circular complex Gaussian noise at the given SNR.

    Per-entry noise variance is mean(|H|^2) / 10**(snr_db/10), and the
    SNR must be a finite number: a scene of no noise makes no call
    (``scenegen.fingerprint_chunks``). Deterministic given the seed.
    """
    if snr_db is None or not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be a finite number, got {snr_db!r}")
    h = np.asarray(h, dtype=np.complex128)
    p_avg = float(np.mean(np.abs(h) ** 2))
    if p_avg == 0.0:
        raise ValueError("cannot add noise to an all-zero channel (SNR undefined)")
    sigma2 = p_avg / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=np.sqrt(sigma2 / 2.0), size=h.shape + (2,))
    return h + noise[..., 0] + 1j * noise[..., 1]
