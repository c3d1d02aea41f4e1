"""Synthetic urban scene generation and geometric path tracing.

Scenes are a 2D area with one base station, axis-aligned rectangular
buildings and a grid of mobile terminals. Propagation uses the direct
segment (LOS) plus one specular reflection per building wall via the
image method; no diffraction or scattering.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from .channel import PathRecord, _chunk_rows, _chunks, add_noise, adcam, cfr_stack

__all__ = [
    "Rect",
    "SceneConfig",
    "Terminal",
    "Sample",
    "trace_paths",
    "trace_terminals",
    "fingerprint_chunks",
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


def _is_int(v) -> bool:
    """An integer; a bool (JSON's true or false) is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite real number; a bool is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _check(rules: dict, values: dict, what: str):
    """Raise a ``ValueError`` naming the first key of ``rules`` whose value
    fails its test; each rule is (what the value must be, its test)."""
    for key, (want, ok) in rules.items():
        if not ok(values[key]):
            raise ValueError(f"{what} {key} is {values[key]!r}; it must be {want}")


def _check_keys(obj, known, what: str, where: str = ""):
    """Raise a ``ValueError`` led by ``where`` unless ``obj`` is a dict of
    ``known`` keys only; the unknown ones are named in ``obj``'s order."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}a {what} is a JSON object, not {obj!r}")
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise ValueError(f"{where}unknown {what} keys: {', '.join(map(repr, unknown))}")


def _one_of(names) -> tuple[str, object]:
    """The rule that a value is one of the string ``names``."""
    return f"one of {', '.join(map(repr, names))}", lambda v: isinstance(v, str) and v in names


_POSITIVE = ("a finite number > 0", lambda v: _is_real(v) and v > 0)
_NONNEGATIVE = ("a finite number >= 0", lambda v: _is_real(v) and v >= 0)
_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_NONNEGATIVE_INT = ("an integer >= 0", lambda v: _is_int(v) and v >= 0)
_PAIR = ("two finite numbers", lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_real, v)))


def _setting(default, rule: tuple[str, object]):
    """A ``SceneConfig`` field of ``default``, its rule as its metadata."""
    return field(default=default, metadata={"rule": rule})


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

    def contains(self, p):
        """Whether p = (x, y) lies strictly inside; coordinate arrays give a bool per point."""
        px, py = p
        return (self.x < px) & (px < self.x + self.w) & (self.y < py) & (py < self.y + self.h)

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
    """Scene layout plus channel and sampling parameters; each field holds
    its default and, as its metadata, the rule a scene is made by."""

    area_m: tuple[float, float] = _setting((250.0, 250.0), ("two finite numbers > 0", lambda v: _PAIR[1](v) and min(v) > 0))
    bs_pos: tuple[float, float] = _setting((125.0, 125.0), _PAIR)
    buildings: list[Rect] = field(default_factory=list, metadata={"rule": ("a list", lambda v: isinstance(v, (list, tuple)))})
    grid_spacing_m: float = _setting(10.0, _POSITIVE)
    grid_jitter: float = _setting(0.0, ("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1))  # of half-spacing
    carrier_hz: float = _setting(60e9, _POSITIVE)
    bandwidth_hz: float = _setting(0.05e9, _POSITIVE)
    nc: int = _setting(64, _COUNT)
    nt: int = _setting(64, _COUNT)
    maxpathnum: int = _setting(10, _COUNT)
    reflection_loss_db: float = _setting(6.0, ("a finite number", _is_real))
    spacing_ratio: float = _setting(0.5, _POSITIVE)
    snr_db: float | None = _setting(None, ("a finite number, or null for no noise", lambda v: v is None or _is_real(v)))
    seed: int = _setting(0, _NONNEGATIVE_INT)

    def __post_init__(self):
        _check({f.name: f.metadata["rule"] for f in fields(self)}, vars(self), "scene")
        for b in self.buildings:
            if not (isinstance(b, Rect) or isinstance(b, (list, tuple)) and len(b) == 4 and all(map(_is_real, b))):
                raise ValueError(f"scene buildings entry {b!r} is not [x, y, w, h], four finite numbers")
        self.buildings = [b if isinstance(b, Rect) else Rect(*b) for b in self.buildings]
        self.area_m, self.bs_pos = tuple(self.area_m), tuple(self.bs_pos)
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

    @property
    def sample_interval_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(slots=True)
class Terminal:
    """One terminal position with its traced paths."""

    id: int
    pos: tuple[float, float]
    paths: list[PathRecord]
    is_los: bool


@dataclass(slots=True)
class Sample(Terminal):
    """A terminal with its fingerprints, (nt, nc) each."""

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
    per building wall, in ``walls`` order) is computed for all terminals
    at once, and blocking is tested for all terminals and buildings
    together. Right after that test only the terminals where the path
    survives keep its entries; one ``np.lexsort`` of all kept entries
    puts them in (terminal, candidate) order.
    """
    rects = np.array([[b.x, b.y, b.x + b.w, b.y + b.h] for b in scene.buildings]).reshape(-1, 4)
    bx, by = scene.bs_pos
    mx, my = pts[:, 0], pts[:, 1]
    is_los = ~_blocked(bx, by, mx, my, rects).any(axis=-1)
    # per candidate, of the terminals it reaches: (terminal, path length,
    # arrive x, y, depart x, y)
    los_length = np.hypot(mx - bx, my - by)
    sel = np.flatnonzero(is_los & (los_length > 0))
    kept = [(sel, los_length[sel], mx[sel] - bx, my[sel] - by, bx - mx[sel], by - my[sel])]
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
            sel = np.flatnonzero(ok)
            hit_a = hit_a[sel]
            hit_n = np.full_like(hit_a, wn)
            hx, hy = (hit_n, hit_a) if vertical else (hit_a, hit_n)
            clear = ~(
                _blocked(bx, by, hx, hy, rects).any(axis=-1) | _blocked(hx, hy, mx[sel], my[sel], rects).any(axis=-1)
            )
            sel, hx, hy = sel[clear], hx[clear], hy[clear]
            length = np.hypot(dn[sel], da[sel]) if vertical else np.hypot(da[sel], dn[sel])
            kept.append((sel, length, hx - bx, hy - by, hx - mx[sel], hy - my[sel]))

    # the kept candidates, terminal by terminal, each in candidate order
    rows, length, ax, ay, dx, dy = (np.concatenate(col) for col in zip(*kept))
    cols = np.repeat(np.arange(len(kept)), [len(entry[0]) for entry in kept])
    order = np.lexsort((cols, rows))
    rows, cols, length, ax, ay, dx, dy = (v[order] for v in (rows, cols, length, ax, ay, dx, dy))
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
        for aa, ad, g, d, pl in zip(*(v[order].tolist() for v in (aoa, aod, gain, delay, pathloss)))
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


def trace_terminals(scene: SceneConfig) -> list[Terminal]:
    """One terminal per reachable grid point, in grid-index order, its id
    its index among them; no fingerprint is made."""
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
        outside &= ~b.contains((x, y))
    pts = np.stack([x[outside], y[outside]], axis=1)
    reached = [
        (pos, paths, is_los) for pos, (paths, is_los) in zip(map(tuple, pts.tolist()), _trace(scene, pts)) if paths
    ]
    if not reached:
        raise ValueError("no reachable terminals in scene")
    return [Terminal(id=tid, pos=pos, paths=paths, is_los=is_los) for tid, (pos, paths, is_los) in enumerate(reached)]


def fingerprint_chunks(
    scene: SceneConfig, terminals: Sequence[Terminal]
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The fingerprints of ``terminals``, ``channel._CHUNK`` at a time: for
    each slice of ``channel._chunks``, the (chunk, nt, nc) CFR stack of its
    terminals' paths (``cfr_stack``), each matrix with noise seeded by its
    terminal's id unless ``snr_db`` is None (here alone is noise skipped),
    and its ADCAM stack. A terminal's matrices do not depend on the chunk
    it falls in, so any subset of a scene's terminals, such as
    ``nlos_filter``'s, gets the rows ``build_dataset`` gives them.

    Both stacks are views of two buffers of ``channel._chunk_rows`` rows,
    made once: the next chunk overwrites them, so a consumer uses or
    copies a chunk before it asks for the next one."""
    shape = (_chunk_rows(len(terminals)), scene.nt, scene.nc)
    cfr_buf, adcam_buf = np.empty(shape, dtype=np.complex128), np.empty(shape)
    for rows in _chunks(len(terminals)):
        chunk = terminals[rows]
        cfr = cfr_stack([t.paths for t in chunk], scene.nt, scene.nc, scene.spacing_ratio, out=cfr_buf[: len(chunk)])
        if scene.snr_db is not None:
            for i, t in enumerate(chunk):
                cfr[i] = add_noise(cfr[i], scene.snr_db, seed=scene.seed * 1_000_003 + t.id)
        yield rows, cfr, adcam(cfr, out=adcam_buf[: len(chunk)])


def build_dataset(scene: SceneConfig) -> list[Sample]:
    """One sample per ``trace_terminals`` terminal, in its order. The
    ``fingerprint_chunks`` are copied into one CFR stack and one ADCAM
    stack, (n, nt, nc) each, and every sample holds its row of both."""
    terminals = trace_terminals(scene)
    shape = (len(terminals), scene.nt, scene.nc)
    cfr, amplitudes = np.empty(shape, dtype=np.complex128), np.empty(shape)
    for rows, c, a in fingerprint_chunks(scene, terminals):
        cfr[rows], amplitudes[rows] = c, a
    return [
        Sample(id=t.id, pos=t.pos, paths=t.paths, is_los=t.is_los, cfr=c, adcam=a)
        for t, c, a in zip(terminals, cfr, amplitudes)
    ]


# the samples each nlos_filter mode keeps
_NLOS_MODES = {"all": lambda s: True, "nlos_only": lambda s: not s.is_los}


def nlos_filter(samples: list[Terminal], mode: str = "all") -> list[Terminal]:
    """Keep the terminals or samples of a mode of ``_NLOS_MODES``:
    everything or NLOS only."""
    _check({"mode": _one_of(_NLOS_MODES)}, {"mode": mode}, "nlos_filter")
    out = [s for s in samples if _NLOS_MODES[mode](s)]
    if not out:
        raise ValueError(f"nlos_filter({mode!r}) left no samples")
    return out


def scene_to_json(scene: SceneConfig) -> dict:
    """SceneConfig as a plain dict with the scene.json key names, its fields in order."""
    return {
        **{f.name: getattr(scene, f.name) for f in fields(SceneConfig)},
        "area_m": list(scene.area_m),
        "bs_pos": list(scene.bs_pos),
        "buildings": [[b.x, b.y, b.w, b.h] for b in scene.buildings],
    }


def scene_from_json(obj: dict) -> SceneConfig:
    """The SceneConfig of a scene.json object, as parsed. A non-dict or a
    key that ``SceneConfig`` lacks is a ``ValueError`` (``_check_keys``)."""
    _check_keys(obj, {f.name for f in fields(SceneConfig)}, "scene")
    return SceneConfig(**obj)
