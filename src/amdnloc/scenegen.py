"""Synthetic urban scene generation and geometric path tracing.

Scenes are a 2D area with one base station, axis-aligned rectangular
buildings and a grid of mobile terminals. Propagation uses the direct
segment (LOS) plus one specular reflection per building wall via the
image method; no diffraction or scattering.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import NO_NOISE, PathRecord, add_noise, adcam, cfr_stack

__all__ = [
    "Rect",
    "SceneConfig",
    "Sample",
    "trace_paths",
    "build_dataset",
    "nlos_filter",
    "scene_from_json",
    "scene_to_json",
]

SPEED_OF_LIGHT = 2.99792458e8

# Tolerance for "segment passes through a building" tests; also used to
# nudge angles off the array axis.
_EPS = 1e-9
_ANGLE_EPS = 1e-6


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (building footprint), origin at lower-left."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError("rectangle must have positive extent")

    def contains(self, p: Sequence[float]) -> bool:
        px, py = p
        return self.x < px < self.x + self.w and self.y < py < self.y + self.h

    def walls(self):
        """Four wall segments as ((x1, y1), (x2, y2)) tuples."""
        x0, y0, x1, y1 = self.x, self.y, self.x + self.w, self.y + self.h
        return [
            ((x0, y0), (x1, y0)),
            ((x1, y0), (x1, y1)),
            ((x1, y1), (x0, y1)),
            ((x0, y1), (x0, y0)),
        ]


@dataclass
class SceneConfig:
    """Scene layout plus channel and sampling parameters."""

    area_m: tuple[float, float] = (250.0, 250.0)
    bs_pos: tuple[float, float] = (125.0, 125.0)
    buildings: list[Rect] = field(default_factory=list)
    grid_spacing_m: float = 10.0
    grid_jitter: float = 0.0  # fraction of half-spacing, in [0, 1]
    carrier_hz: float = 60e9
    bandwidth_hz: float = 0.05e9
    nc: int = 64
    nt: int = 64
    maxpathnum: int = 10
    reflection_loss_db: float = 6.0
    spacing_ratio: float = 0.5
    snr_db: float = NO_NOISE
    seed: int = 0

    def __post_init__(self):
        self.buildings = [b if isinstance(b, Rect) else Rect(*b) for b in self.buildings]
        w, h = self.area_m
        for b in self.buildings:
            if b.x < 0 or b.y < 0 or b.x + b.w > w or b.y + b.h > h:
                raise ValueError(f"building {b} lies outside the {w}x{h} area")
        bx, by = self.bs_pos
        if not (0 <= bx <= w and 0 <= by <= h):
            raise ValueError("bs_pos outside area")
        for b in self.buildings:
            if b.contains(self.bs_pos):
                raise ValueError("bs_pos inside a building")
        if self.maxpathnum < 1:
            raise ValueError("maxpathnum must be >= 1")

    @property
    def sample_interval_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass
class Sample:
    """One terminal position with its traced paths and fingerprints."""

    id: int
    pos: tuple[float, float]
    paths: list[PathRecord]
    is_los: bool
    cfr: np.ndarray
    adcam: np.ndarray


def _blocked(px, py, qx, qy, rects: np.ndarray) -> np.ndarray:
    """Which open segments p->q pass through which rectangle interiors.

    The coordinates broadcast to one shape S of segments; ``rects`` holds
    one (x0, y0, x1, y1) row per rectangle. Returns a bool array of shape
    S + (len(rects),). Liang-Barsky clipping; a segment that merely
    grazes a wall or corner does not count as blocked.
    """
    px, py, qx, qy = (np.expand_dims(v, -1) for v in np.broadcast_arrays(px, py, qx, qy))
    x0, y0, x1, y1 = rects.T
    dx, dy = qx - px, qy - py
    t0, t1, clear = 0.0, 1.0, False
    for pos0, delta, lo, hi in ((px, dx, x0, x1), (py, dy, y0, y1)):
        # a segment parallel to this axis is clear when it runs outside the slab
        flat = np.abs(delta) < _EPS
        clear = clear | (flat & ((pos0 <= lo) | (pos0 >= hi)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ta, tb = (lo - pos0) / delta, (hi - pos0) / delta
        t0 = np.where(flat, t0, np.maximum(t0, np.minimum(ta, tb)))
        t1 = np.where(flat, t1, np.minimum(t1, np.maximum(ta, tb)))
    clear |= t1 - t0 <= _EPS
    # The interval may lie along a wall; require the midpoint strictly inside.
    tm = 0.5 * (t0 + t1)
    mx, my = px + tm * dx, py + tm * dy
    inside = (x0 + _EPS < mx) & (mx < x1 - _EPS) & (y0 + _EPS < my) & (my < y1 - _EPS)
    return ~clear & inside


def _angle_in_open_interval(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Angle of each direction (dx, dy) against the +x array axis, in (0, pi)."""
    n = np.hypot(dx, dy)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.clip(np.arccos(np.clip(dx / n, -1.0, 1.0)), _ANGLE_EPS, np.pi - _ANGLE_EPS)
    return np.where(n == 0, np.pi / 2.0, phi)


def _friis_pathloss_db(length_m: np.ndarray, carrier_hz: float) -> np.ndarray:
    return 20.0 * np.log10(4.0 * np.pi * length_m * carrier_hz / SPEED_OF_LIGHT)


def _trace(scene: SceneConfig, pts: np.ndarray) -> list[tuple[list[PathRecord], bool]]:
    """``trace_paths`` of every terminal of an (n, 2) array, in one pass.

    Each candidate path (the direct one, then one specular reflection
    per building wall, in ``walls`` order) is a column of per-terminal
    arrays; blocking is tested for all terminals and buildings at once.
    """
    rects = np.array([[b.x, b.y, b.x + b.w, b.y + b.h] for b in scene.buildings]).reshape(-1, 4)
    bx, by = scene.bs_pos
    mx, my = pts[:, 0], pts[:, 1]
    is_los = ~_blocked(bx, by, mx, my, rects).any(axis=-1)
    # per candidate: (path length, arrive x, y, depart x, y), and a kept mask
    los_length = np.hypot(mx - bx, my - by)
    cands = [(los_length, mx - bx, my - by, bx - mx, by - my)]
    kept = [is_los & (los_length > 0)]
    for b in scene.buildings:
        for (x1, y1), (x2, y2) in b.walls():
            # n: the coordinate across the wall, a: the one along it
            vertical = x1 == x2
            wn, (a1, a2) = (x1, (y1, y2)) if vertical else (y1, (x1, x2))
            (bn, ba), (mn, ma) = ((bx, by), (mx, my)) if vertical else ((by, bx), (my, mx))
            image_n = 2.0 * wn - bn  # the BS mirrored across the wall's line
            dn, da = mn - image_n, ma - ba
            # Intersection of image->MT with the wall's carrying line.
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (wn - image_n) / dn
                hit_a = ba + t * da
            ok = (
                (np.abs(dn) >= _EPS)
                & (0.0 < t) & (t < 1.0)
                & (min(a1, a2) + _EPS < hit_a) & (hit_a < max(a1, a2) - _EPS)
                & ((bn - wn) * (mn - wn) > 0)
            )
            hit_n = np.full_like(hit_a, wn)
            hx, hy = (hit_n, hit_a) if vertical else (hit_a, hit_n)
            sel = np.flatnonzero(ok)
            ok[sel] = ~(
                _blocked(bx, by, hx[sel], hy[sel], rects).any(axis=-1)
                | _blocked(hx[sel], hy[sel], mx[sel], my[sel], rects).any(axis=-1)
            )
            length = np.hypot(dn, da) if vertical else np.hypot(da, dn)
            cands.append((length, hx - bx, hy - by, hx - mx, hy - my))
            kept.append(ok)

    # the kept candidates, terminal by terminal, each in candidate order
    rows, cols = np.nonzero(np.array(kept).T)
    length, ax, ay, dx, dy = np.array(cands)[cols, :, rows].T
    delay = np.clip(np.rint(length / SPEED_OF_LIGHT / scene.sample_interval_s), 0, scene.nc - 1).astype(int)
    pathloss = np.maximum(_friis_pathloss_db(length, scene.carrier_hz), 0.0) + (cols > 0) * scene.reflection_loss_db
    phase = 2.0 * np.pi * length / scene.wavelength_m
    gain = np.exp(-1j * phase)
    aoa = _angle_in_open_interval(ax, ay)
    aod = _angle_in_open_interval(dx, dy)

    # strongest maxpathnum per terminal, then by ascending delay (both stable)
    order = np.lexsort((pathloss, rows))
    first = np.searchsorted(rows[order], rows[order])
    order = order[np.arange(len(order)) - first < scene.maxpathnum]
    order = order[np.lexsort((pathloss[order], delay[order], rows[order]))]
    records = [
        PathRecord(aoa=aa, aod=ad, gain=g, delay_samples=d, pathloss_db=pl)
        for aa, ad, g, d, pl in zip(
            aoa[order].tolist(), aod[order].tolist(), gain[order].tolist(), delay[order].tolist(), pathloss[order]
        )
    ]
    bounds = np.searchsorted(rows[order], np.arange(len(pts) + 1)).tolist()
    return [(records[a:b], bool(los)) for a, b, los in zip(bounds, bounds[1:], is_los)]


def trace_paths(scene: SceneConfig, mt: Sequence[float]) -> tuple[list[PathRecord], bool]:
    """Trace LOS and first-order specular paths from the BS to one terminal.

    Returns the retained paths (strongest ``maxpathnum``, sorted by
    ascending delay) and whether an unobstructed direct segment exists.
    """
    mt = (float(mt[0]), float(mt[1]))
    w, h = scene.area_m
    if not (0 <= mt[0] <= w and 0 <= mt[1] <= h):
        raise ValueError(f"terminal {mt} outside area")
    for b in scene.buildings:
        if b.contains(mt):
            raise ValueError(f"terminal {mt} inside building {b}")
    return _trace(scene, np.array([mt]))[0]


def build_dataset(scene: SceneConfig) -> list[Sample]:
    """One sample per reachable grid terminal, in grid-index order.

    The CFR and ADCAM matrices of all samples are built as two stacks,
    (n, nt, nc) each, and every sample holds its row of both.
    """
    w, h = scene.area_m
    rng = np.random.default_rng(scene.seed)
    spacing = scene.grid_spacing_m
    gx, gy = np.meshgrid(np.arange(spacing / 2.0, w, spacing), np.arange(spacing / 2.0, h, spacing))
    # one jitter draw per grid point keeps sampling deterministic
    # regardless of which points survive
    jit = rng.uniform(-0.5, 0.5, size=(gx.size, 2)) * spacing * scene.grid_jitter
    x = np.clip(gx.ravel() + jit[:, 0], 0.0, w)
    y = np.clip(gy.ravel() + jit[:, 1], 0.0, h)
    outside = np.ones(x.shape, dtype=bool)
    for b in scene.buildings:
        outside &= ~((b.x < x) & (x < b.x + b.w) & (b.y < y) & (y < b.y + b.h))
    pts = np.stack([x[outside], y[outside]], axis=1)
    reached = [
        (pos, paths, is_los) for pos, (paths, is_los) in zip(map(tuple, pts.tolist()), _trace(scene, pts)) if paths
    ]
    if not reached:
        raise ValueError("no reachable terminals in scene")
    cfr = cfr_stack([paths for _, paths, _ in reached], scene.nt, scene.nc, scene.spacing_ratio)
    if scene.snr_db != NO_NOISE:
        for sid in range(len(cfr)):
            cfr[sid] = add_noise(cfr[sid], scene.snr_db, seed=scene.seed * 1_000_003 + sid)
    amplitudes = adcam(cfr)
    return [
        Sample(id=sid, pos=pos, paths=paths, is_los=is_los, cfr=cfr[sid], adcam=amplitudes[sid])
        for sid, (pos, paths, is_los) in enumerate(reached)
    ]


def nlos_filter(samples: list[Sample], mode: str = "all") -> list[Sample]:
    """Keep NLOS-only samples or everything."""
    if mode == "all":
        out = list(samples)
    elif mode == "nlos_only":
        out = [s for s in samples if not s.is_los]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not out:
        raise ValueError(f"nlos_filter({mode!r}) left no samples")
    return out


def scene_to_json(scene: SceneConfig) -> dict:
    """SceneConfig as a plain dict with the scene.json key names."""
    return {
        "area_m": list(scene.area_m),
        "bs_pos": list(scene.bs_pos),
        "buildings": [[b.x, b.y, b.w, b.h] for b in scene.buildings],
        "grid_spacing_m": scene.grid_spacing_m,
        "grid_jitter": scene.grid_jitter,
        "carrier_hz": scene.carrier_hz,
        "bandwidth_hz": scene.bandwidth_hz,
        "nc": scene.nc,
        "nt": scene.nt,
        "maxpathnum": scene.maxpathnum,
        "reflection_loss_db": scene.reflection_loss_db,
        "spacing_ratio": scene.spacing_ratio,
        "snr_db": None if scene.snr_db == NO_NOISE else scene.snr_db,
        "seed": scene.seed,
    }


def scene_from_json(obj: dict | str) -> SceneConfig:
    """Parse a scene.json dict (or JSON text) into a SceneConfig."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    kwargs = dict(obj)
    if "area_m" in kwargs:
        kwargs["area_m"] = tuple(kwargs["area_m"])
    if "bs_pos" in kwargs:
        kwargs["bs_pos"] = tuple(kwargs["bs_pos"])
    if kwargs.get("snr_db") is None:
        kwargs["snr_db"] = NO_NOISE
    return SceneConfig(**kwargs)
