import dataclasses
import json
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from amdnloc import channel, scenegen
from amdnloc.channel import PathRecord, _chunks, add_noise
from amdnloc.scenegen import (
    _ANGLE_EPS,
    _EPS,
    SPEED_OF_LIGHT,
    Rect,
    Sample,
    SceneConfig,
    _blocked,
    _trace,
    build_dataset,
    fingerprint_chunks,
    nlos_filter,
    scene_from_json,
    scene_to_json,
    trace_paths,
    trace_terminals,
)


def open_scene(**kw):
    defaults = dict(area_m=(100.0, 100.0), bs_pos=(50.0, 50.0), grid_spacing_m=20.0, nt=8, nc=32)
    defaults.update(kw)
    return SceneConfig(**defaults)


def shadow_oracle(bs, rect: Rect, point) -> bool:
    """Sampled occlusion test: walk the segment and flag interior hits."""
    for t in np.linspace(0.0, 1.0, 2001):
        x = bs[0] + t * (point[0] - bs[0])
        y = bs[1] + t * (point[1] - bs[1])
        if rect.x + 1e-6 < x < rect.x + rect.w - 1e-6 and rect.y + 1e-6 < y < rect.y + rect.h - 1e-6:
            return True
    return False


# ---------------------------------------------------------------------------
# The per-terminal tracer: one terminal, one wall and one segment at a time,
# in Python scalars. It is the oracle of the batched tracer in scenegen.


def segment_blocked_oracle(p, q, rect: Rect) -> bool:
    """True iff the open segment p->q passes through the rectangle interior
    (Liang-Barsky clipping; grazing a wall or corner does not block)."""
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    t0, t1 = 0.0, 1.0
    for pos0, delta, lo, hi in (
        (px, dx, rect.x, rect.x + rect.w),
        (py, dy, rect.y, rect.y + rect.h),
    ):
        if abs(delta) < _EPS:
            if pos0 <= lo or pos0 >= hi:
                return False
            continue
        ta = (lo - pos0) / delta
        tb = (hi - pos0) / delta
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 >= t1:
            return False
    if t1 - t0 <= _EPS:
        return False
    tm = 0.5 * (t0 + t1)
    mx, my = px + tm * dx, py + tm * dy
    return rect.x + _EPS < mx < rect.x + rect.w - _EPS and rect.y + _EPS < my < rect.y + rect.h - _EPS


def clear_oracle(p, q, buildings) -> bool:
    return not any(segment_blocked_oracle(p, q, b) for b in buildings)


def angle_oracle(dx: float, dy: float) -> float:
    n = np.hypot(dx, dy)
    if n == 0:
        return np.pi / 2.0
    phi = float(np.arccos(np.clip(dx / n, -1.0, 1.0)))
    return float(np.clip(phi, _ANGLE_EPS, np.pi - _ANGLE_EPS))


def make_path_oracle(scene, length_m, arrive_dir, depart_dir, bounces) -> PathRecord:
    delay = int(round(length_m / SPEED_OF_LIGHT / scene.sample_interval_s))
    delay = min(max(delay, 0), scene.nc - 1)
    pathloss = 20.0 * np.log10(4.0 * np.pi * length_m * scene.carrier_hz / SPEED_OF_LIGHT)
    pathloss = max(pathloss, 0.0) + bounces * scene.reflection_loss_db
    phase = 2.0 * np.pi * length_m / scene.wavelength_m
    return PathRecord(
        aoa=angle_oracle(*arrive_dir),
        aod=angle_oracle(*depart_dir),
        gain=complex(np.exp(-1j * phase)),
        delay_samples=delay,
        pathloss_db=pathloss,
    )


def trace_oracle(scene, mt):
    """(paths, is_los) of one terminal: the direct path, then one image-method
    reflection per wall, strongest ``maxpathnum`` by ascending delay."""
    mt = (float(mt[0]), float(mt[1]))
    bs = scene.bs_pos
    candidates = []
    is_los = clear_oracle(bs, mt, scene.buildings)
    if is_los:
        length = float(np.hypot(mt[0] - bs[0], mt[1] - bs[1]))
        if length > 0:
            arrive = (mt[0] - bs[0], mt[1] - bs[1])
            depart = (bs[0] - mt[0], bs[1] - mt[1])
            candidates.append(make_path_oracle(scene, length, arrive, depart, 0))
    for b in scene.buildings:
        for wall in b.walls():
            (x1, y1), (x2, y2) = wall
            if x1 == x2:
                image = (2.0 * x1 - bs[0], bs[1])
            else:
                image = (bs[0], 2.0 * y1 - bs[1])
            dx, dy = mt[0] - image[0], mt[1] - image[1]
            if x1 == x2:
                if abs(dx) < _EPS:
                    continue
                t = (x1 - image[0]) / dx
                hit = (x1, image[1] + t * dy)
                on_wall = min(y1, y2) + _EPS < hit[1] < max(y1, y2) - _EPS
                same_side = (bs[0] - x1) * (mt[0] - x1) > 0
            else:
                if abs(dy) < _EPS:
                    continue
                t = (y1 - image[1]) / dy
                hit = (image[0] + t * dx, y1)
                on_wall = min(x1, x2) + _EPS < hit[0] < max(x1, x2) - _EPS
                same_side = (bs[1] - y1) * (mt[1] - y1) > 0
            if not (0.0 < t < 1.0 and on_wall and same_side):
                continue
            if not (clear_oracle(bs, hit, scene.buildings) and clear_oracle(hit, mt, scene.buildings)):
                continue
            length = float(np.hypot(mt[0] - image[0], mt[1] - image[1]))
            arrive = (hit[0] - bs[0], hit[1] - bs[1])
            depart = (hit[0] - mt[0], hit[1] - mt[1])
            candidates.append(make_path_oracle(scene, length, arrive, depart, 1))
    paths = sorted(candidates, key=lambda p: p.pathloss_db)[: scene.maxpathnum]
    paths.sort(key=lambda p: (p.delay_samples, p.pathloss_db))
    return paths, is_los


def build_dataset_oracle(scene):
    """One sample per reachable grid terminal, one grid point at a time,
    its CFR built path by path and transformed on its own."""
    w, h = scene.area_m
    rng = np.random.default_rng(scene.seed)
    spacing = scene.grid_spacing_m
    samples = []
    for gy in np.arange(spacing / 2.0, h, spacing):
        for gx in np.arange(spacing / 2.0, w, spacing):
            jit = rng.uniform(-0.5, 0.5, size=2) * spacing * scene.grid_jitter
            pos = (float(np.clip(gx + jit[0], 0.0, w)), float(np.clip(gy + jit[1], 0.0, h)))
            if any(b.contains(pos) for b in scene.buildings):
                continue
            paths, is_los = trace_oracle(scene, pos)
            if not paths:
                continue
            sid = len(samples)
            cfr = oracles.cfr_from_paths(paths, scene.nt, scene.nc, scene.spacing_ratio)
            if scene.snr_db is not None:
                cfr = add_noise(cfr, scene.snr_db, seed=scene.seed * 1_000_003 + sid)
            samples.append(Sample(id=sid, pos=pos, paths=paths, is_los=is_los, cfr=cfr, adcam=oracles.adcam(cfr)))
    if not samples:
        raise ValueError("no reachable terminals in scene")
    return samples


def assert_same_dataset(got, want):
    assert [s.id for s in got] == [s.id for s in want]
    for a, b in zip(got, want):
        assert (a.pos, a.is_los) == (b.pos, b.is_los), a.id
        assert a.paths == b.paths, a.id
        assert a.cfr.tobytes() == b.cfr.tobytes() and a.adcam.tobytes() == b.adcam.tobytes(), a.id


def traced(fn):
    """``fn()``, the bytes it leaves allocated and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        return (out, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "spacing, snr_db",
    [(3.5, None), (5.5, None), (5.5, 30.0)],
    ids=["dense-global", "hetero-segmented", "hetero-segmented-snr30"],
)
def test_build_dataset_equals_per_terminal_oracle_on_reference_scenes(spacing, snr_db):
    scene = oracles.reference_scene(spacing, snr_db)
    assert_same_dataset(build_dataset(scene), build_dataset_oracle(scene))


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize(
    "snr_db, mode", [(None, "all"), (30.0, "all"), (30.0, "nlos_only")], ids=["clean", "snr30", "snr30-nlos_only"]
)
def test_build_dataset_equals_its_concatenated_chunks(chunk, snr_db, mode, monkeypatch):
    # the terminals are traced and filtered before any fingerprint is made,
    # and a terminal's fingerprints do not depend on its chunk: the stream
    # over the filtered terminals gives the filtered dataset's rows
    scene = oracles.reference_scene(9.0, snr_db)
    want = nlos_filter(build_dataset(scene), mode)
    terminals = nlos_filter(trace_terminals(scene), mode)
    assert len(want) > 2 * 64  # three chunks at the default size
    assert (len(terminals) < len(trace_terminals(scene))) == (mode == "nlos_only")
    monkeypatch.setattr(channel, "_CHUNK", chunk)
    # each chunk copied as it is yielded, before the next one overwrites it
    rows, cfr, adcam = zip(*((r, c.copy(), a.copy()) for r, c, a in fingerprint_chunks(scene, terminals)))
    assert list(rows) == list(_chunks(len(terminals)))
    assert [(t.id, t.pos, t.paths, t.is_los) for t in terminals] == [(s.id, s.pos, s.paths, s.is_los) for s in want]
    assert np.concatenate(cfr).tobytes() == np.array([s.cfr for s in want]).tobytes()
    assert np.concatenate(adcam).tobytes() == np.array([s.adcam for s in want]).tobytes()


@pytest.mark.parametrize("snr_db", [None, 30.0], ids=["clean", "snr30"])
def test_chunks_fill_two_buffers_and_samples_own_their_rows(snr_db, monkeypatch):
    # every chunk's stacks are views of one CFR buffer and one ADCAM
    # buffer, the last chunk's shorter; build_dataset copies each chunk
    # into stacks of its own before the next overwrites it
    scene = oracles.reference_scene(9.0, snr_db)
    seen = []

    def recorded(*args):
        for chunk in fingerprint_chunks(*args):
            seen.append(chunk)
            yield chunk

    monkeypatch.setattr(scenegen, "fingerprint_chunks", recorded)
    samples = build_dataset(scene)
    (_, cfr, adcam), *rest = seen
    assert len(rest) >= 2 and len(seen[-1][1]) < len(cfr) == channel._CHUNK
    assert not np.shares_memory(cfr, adcam)
    for _, c, a in rest:
        assert np.shares_memory(c, cfr) and np.shares_memory(a, adcam)
    for s in samples:
        assert not np.shares_memory(s.cfr, cfr) and not np.shares_memory(s.adcam, adcam)


def test_paths_terminals_and_samples_hold_no_instance_dict():
    # slotted records: a scene's many terminals and paths hold no dict of their own
    samples = build_dataset(open_scene())
    terminal = trace_terminals(open_scene())[0]
    for record in (samples[0].paths[0], terminal, samples[0]):
        assert not hasattr(record, "__dict__"), type(record).__name__
    with pytest.raises(dataclasses.FrozenInstanceError):
        samples[0].paths[0].aoa = 1.0


def test_trace_keeps_only_the_paths_that_survive():
    # on the dense reference scene: the traced paths themselves, one
    # blocking test of every terminal against every building and 256 KB to
    # spare; full-length columns of all 21 candidates, 5 values each, and
    # their stack would add 7.7 MB
    scene = oracles.reference_scene(3.5)
    grid = np.arange(1.75, 250.0, 3.5)
    pts = np.stack([np.tile(grid, len(grid)), np.repeat(grid, len(grid))], axis=1)
    pts = pts[~np.any([b.contains(pts.T) for b in scene.buildings], axis=0)]
    rects = np.array([[b.x, b.y, b.x + b.w, b.y + b.h] for b in scene.buildings])
    _trace(scene, pts[:2])  # first-call imports and caches
    _, _, blocking = traced(lambda: _blocked(*scene.bs_pos, pts[:, 0], pts[:, 1], rects))
    traced_paths, held, peak = traced(lambda: _trace(scene, pts))
    assert len(pts) == 4590 and sum(len(paths) for paths, _ in traced_paths) == 3322
    assert peak <= held + blocking + 256 * 1024


@st.composite
def lattice_scenes(draw):
    """Small scenes whose base station and walls lie on the lattice of half
    the grid spacing, so that segments often run along walls and through
    corners; zero reflection loss makes pathloss ties."""
    spacing = draw(st.sampled_from([2.0, 2.5, 3.0, 5.0]))
    q = spacing / 2.0
    nx, ny = draw(st.integers(4, 18)), draw(st.integers(4, 18))
    buildings = []
    for _ in range(draw(st.integers(0, 4))):
        ix, iy = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        iw, ih = draw(st.integers(1, min(8, nx - ix))), draw(st.integers(1, min(8, ny - iy)))
        buildings.append(Rect(ix * q, iy * q, iw * q, ih * q))
    bs = (draw(st.integers(0, nx)) * q, draw(st.integers(0, ny)) * q)
    assume(not any(b.contains(bs) for b in buildings))
    return SceneConfig(
        area_m=(nx * q, ny * q), bs_pos=bs, buildings=buildings,
        grid_spacing_m=spacing,
        grid_jitter=draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])),
        maxpathnum=draw(st.integers(1, 12)),
        reflection_loss_db=draw(st.sampled_from([0.0, 6.0])),
        snr_db=draw(st.sampled_from([None, 15.0])),
        nt=4, nc=draw(st.sampled_from([4, 16])),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=150, deadline=None)
@given(lattice_scenes())
def test_build_dataset_equals_per_terminal_oracle_on_random_scenes(scene):
    try:
        want = build_dataset_oracle(scene)
    except ValueError:
        with pytest.raises(ValueError, match="no reachable terminals"):
            build_dataset(scene)
        return
    assert_same_dataset(build_dataset(scene), want)


@settings(max_examples=150, deadline=None)
@given(lattice_scenes(), st.data())
def test_trace_paths_equals_oracle_at_lattice_points(scene, data):
    (w, h), q = scene.area_m, scene.grid_spacing_m / 2.0
    mt = (data.draw(st.integers(0, round(w / q))) * q, data.draw(st.integers(0, round(h / q))) * q)
    assume(not any(b.contains(mt) for b in scene.buildings))
    assert trace_paths(scene, mt) == trace_oracle(scene, mt)


class TestTracePaths:
    def test_empty_scene_single_los_path(self):
        scene = open_scene()
        paths, is_los = trace_paths(scene, (10.0, 10.0))
        assert is_los and len(paths) == 1
        dist = np.hypot(40, 40)
        expect = int(round(dist / SPEED_OF_LIGHT / scene.sample_interval_s))
        assert paths[0].delay_samples == expect

    def test_wall_between_blocks_los(self):
        # blocking slab between BS and MT plus a separate reflector wall
        scene = open_scene(
            bs_pos=(20.0, 50.0),
            buildings=[Rect(45, 30, 4, 40), Rect(10, 80, 80, 5)],
        )
        paths, is_los = trace_paths(scene, (80.0, 50.0))
        assert not is_los
        assert len(paths) >= 1
        # every surviving path carries at least one bounce worth of extra loss
        direct = 20 * np.log10(4 * np.pi * np.hypot(60, 0) * scene.carrier_hz / SPEED_OF_LIGHT)
        assert all(p.pathloss_db > direct for p in paths)

    def test_image_method_against_mirror_oracle(self):
        scene = open_scene(bs_pos=(30.0, 30.0), buildings=[Rect(10, 70, 80, 5)])
        mt = (70.0, 30.0)
        paths, is_los = trace_paths(scene, mt)
        assert is_los
        reflected = [p for p in paths if p.pathloss_db > paths[0].pathloss_db or len(paths) > 1]
        assert len(paths) == 2
        # mirror the BS across the reflecting face at y=70
        image = (30.0, 2 * 70.0 - 30.0)
        length = np.hypot(mt[0] - image[0], mt[1] - image[1])
        expect = int(round(length / SPEED_OF_LIGHT / scene.sample_interval_s))
        refl = max(paths, key=lambda p: p.delay_samples)
        assert refl.delay_samples == expect
        # phase encodes the exact mirror length
        want_phase = np.exp(-1j * 2 * np.pi * length / scene.wavelength_m)
        assert abs(refl.gain - want_phase) < 1e-9

    def test_mt_inside_building_rejected(self):
        scene = open_scene(buildings=[Rect(10, 10, 20, 20)])
        with pytest.raises(ValueError, match="inside building"):
            trace_paths(scene, (15.0, 15.0))

    @pytest.mark.parametrize("mt", [(-0.5, 10.0), (10.0, 100.5), (101.0, -1.0)])
    def test_mt_outside_area_rejected(self, mt):
        with pytest.raises(ValueError, match="outside area"):
            trace_paths(open_scene(), mt)

    def test_paths_sorted_by_delay_and_truncated(self):
        scene = open_scene(
            buildings=[Rect(5, 85, 90, 5), Rect(5, 5, 90, 5), Rect(85, 20, 5, 60)],
            maxpathnum=2,
        )
        paths, _ = trace_paths(scene, (20.0, 45.0))
        assert len(paths) <= 2
        delays = [p.delay_samples for p in paths]
        assert delays == sorted(delays)

    def test_maxpathnum_monotonicity(self):
        buildings = [Rect(5, 85, 90, 5), Rect(5, 5, 90, 5), Rect(85, 20, 5, 60)]
        counts = []
        for mp in (1, 2, 3, 8):
            scene = open_scene(buildings=buildings, maxpathnum=mp)
            paths, _ = trace_paths(scene, (20.0, 45.0))
            counts.append(len(paths))
        assert counts == sorted(counts)


class TestShadow:
    def test_shadow_region_matches_point_oracle(self):
        rect = Rect(40, 40, 20, 20)
        scene = open_scene(bs_pos=(10.0, 50.0), buildings=[rect], grid_spacing_m=7.0)
        samples = build_dataset(scene)
        for s in samples:
            assert s.is_los == (not shadow_oracle(scene.bs_pos, rect, s.pos)), s.pos


class TestBuildDataset:
    def test_open_grid_count_and_los(self):
        # BS off the grid lattice so no terminal coincides with it
        scene = open_scene(area_m=(250.0, 250.0), bs_pos=(124.0, 125.5), grid_spacing_m=10.0, nt=4, nc=16)
        samples = build_dataset(scene)
        assert len(samples) == 625
        assert all(s.is_los for s in samples)

    def test_determinism(self):
        scene = open_scene(buildings=[Rect(30, 30, 20, 20)], grid_jitter=0.5, seed=11)
        a = build_dataset(scene)
        b = build_dataset(scene)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.pos == sb.pos
            np.testing.assert_array_equal(sa.cfr, sb.cfr)

    def test_delay_consistent_with_geometry(self):
        scene = open_scene()
        for s in build_dataset(scene):
            dist = np.hypot(s.pos[0] - 50, s.pos[1] - 50)
            delay_m = s.paths[0].delay_samples * scene.sample_interval_s * SPEED_OF_LIGHT
            assert abs(delay_m - dist) <= 0.5 * scene.sample_interval_s * SPEED_OF_LIGHT + 1e-9


class TestNlosFilter:
    def test_all_los_nlos_only_errors(self):
        samples = build_dataset(open_scene())
        with pytest.raises(ValueError):
            nlos_filter(samples, "nlos_only")

    def test_all_mode_identity(self):
        samples = build_dataset(open_scene())
        assert nlos_filter(samples, "all") == samples

    def test_nlos_only_subset(self):
        rect = Rect(40, 40, 20, 20)
        scene = open_scene(bs_pos=(10.0, 50.0), buildings=[rect, Rect(10, 80, 80, 5)], grid_spacing_m=7.0)
        samples = build_dataset(scene)
        nlos = nlos_filter(samples, "nlos_only")
        assert nlos and all(not s.is_los for s in nlos)


class TestRect:
    def test_coordinate_arrays_equal_per_point_calls(self):
        rect = Rect(2.0, -1.5, 3.0, 0.75)
        x0, y0, x1, y1 = rect.x, rect.y, rect.x + rect.w, rect.y + rect.h
        # every wall, its corners, points just inside and outside each
        # wall, and random points around the rectangle
        xs = [x0, x1, np.nextafter(x0, x1), np.nextafter(x1, x0), np.nextafter(x0, -9), np.nextafter(x1, 9), 3.1]
        ys = [y0, y1, np.nextafter(y0, y1), np.nextafter(y1, y0), np.nextafter(y0, -9), np.nextafter(y1, 9), -1.0]
        gx, gy = np.meshgrid(xs, ys)
        rng = np.random.default_rng(2)
        px = np.concatenate([gx.ravel(), rng.uniform(0.0, 7.0, 43)])
        py = np.concatenate([gy.ravel(), rng.uniform(-3.0, 1.0, 43)])
        got = rect.contains((px, py))
        want = [rect.contains(pt) for pt in zip(px.tolist(), py.tolist())]
        assert got.dtype == bool and got.tolist() == want
        assert want == [x0 < x < x1 and y0 < y < y1 for x, y in zip(px.tolist(), py.tolist())]
        assert any(want) and not all(want) and all(type(v) is bool for v in want)
        assert rect.contains((px.reshape(4, -1), py.reshape(4, -1))).tolist() == got.reshape(4, -1).tolist()


class TestSceneJson:
    def test_keys_are_the_fields_in_order(self):
        scene = open_scene(buildings=[Rect(30, 30, 20, 20)])
        obj = scene_to_json(scene)
        assert list(obj) == [f.name for f in fields(SceneConfig)]
        assert (obj["area_m"], obj["bs_pos"], obj["buildings"], obj["snr_db"]) == (
            [100.0, 100.0], [50.0, 50.0], [[30, 30, 20, 20]], None
        )
        assert json.loads(json.dumps(obj)) == obj

    def test_roundtrip(self):
        scene = open_scene(buildings=[Rect(30, 30, 20, 20)], grid_jitter=0.3, seed=5)
        again = scene_from_json(scene_to_json(scene))
        assert scene_to_json(again) == scene_to_json(scene)

    def test_invalid_building_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(area_m=(50, 50), bs_pos=(10, 10), buildings=[Rect(40, 40, 20, 20)])

    def test_bs_inside_building_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(area_m=(100, 100), bs_pos=(50, 50), buildings=[Rect(40, 40, 20, 20)])

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("grid_spacing_m", 0, "grid_spacing_m is 0"),
            ("grid_spacing_m", -5, "grid_spacing_m is -5"),
            ("grid_jitter", 5, "grid_jitter is 5"),
            ("nt", "16", "nt is '16'"),
            ("nc", 2.5, "nc is 2.5"),
            ("maxpathnum", 0, "maxpathnum is 0"),
            ("snr_db", "x", "snr_db is 'x'"),
            ("snr_db", -np.inf, "snr_db is -inf"),
            ("snr_db", np.inf, "snr_db is inf; it must be a finite number, or null for no noise"),
            ("snr_db", np.nan, "snr_db is nan"),
            ("carrier_hz", True, "carrier_hz is True"),
            ("area_m", [100], "area_m is [100]"),
            ("area_m", [0, 100], "area_m is [0, 100]"),
            ("buildings", [[1, 2, 3]], "buildings entry [1, 2, 3]"),
            ("buildings", [[1, 2, 3, "4"]], "buildings entry [1, 2, 3, '4']"),
            ("buildings", 5, "buildings is 5"),
            ("seed", "3", "seed is '3'"),
            ("seed", -1, "seed is -1"),
            ("bogus", 1, "unknown scene keys: 'bogus'"),
        ],
    )
    def test_value_of_wrong_type_or_range_rejected(self, key, value, named):
        obj = {**scene_to_json(open_scene()), key: value}
        with pytest.raises(ValueError, match=re.escape(named)):
            scene_from_json(obj)

    def test_unknown_keys_are_named_in_the_scene_order(self):
        obj = {**scene_to_json(open_scene()), "zeta": 1, 7: 2, "alpha": 3}
        with pytest.raises(ValueError, match=re.escape("unknown scene keys: 'zeta', 7, 'alpha'")):
            scene_from_json(obj)

    def test_scene_that_is_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="a scene is a JSON object"):
            scene_from_json([1, 2])

    def test_null_snr_is_noise_free(self):
        obj = scene_to_json(open_scene(snr_db=20.0))
        clean = scene_from_json({**obj, "snr_db": None})
        assert clean.snr_db is None and SceneConfig().snr_db is None
        assert scene_to_json(clean) == {**obj, "snr_db": None}  # the round trip
        assert scene_from_json(obj).snr_db == 20.0


def test_samples_hold_rows_of_one_stack_per_domain():
    samples = build_dataset(open_scene(buildings=[Rect(60, 20, 10, 30)], grid_spacing_m=5.0, snr_db=20.0))
    assert len(samples) > 64  # more than one chunk of the stacked kernels
    for name in ("cfr", "adcam"):
        stack = getattr(samples[0], name).base
        assert stack.shape == (len(samples), 8, 32)
        assert all(getattr(s, name).base is stack for s in samples)
        assert all(np.shares_memory(getattr(s, name), stack[s.id]) for s in samples)
