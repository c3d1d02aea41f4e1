import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from amdnloc import channel
from amdnloc.channel import (
    PathRecord,
    _chunks,
    add_noise,
    adcam,
    array_response,
    cfr_stack,
    dft_matrices,
    render_image,
)


def steering_oracle(phi, nt, ratio):
    # scalar-by-scalar evaluation, independent of the vectorized path
    return np.array([np.exp(-1j * 2 * np.pi * k * ratio * np.cos(phi)) for k in range(nt)])


def cfr_oracle(paths, nt, nc):
    h = np.zeros((nt, nc), dtype=complex)
    for p in paths:
        amp = p.gain * 10 ** (-p.pathloss_db / 20)
        for k in range(nt):
            for l in range(nc):
                h[k, l] += (
                    amp
                    * np.exp(-1j * 2 * np.pi * k * 0.5 * np.cos(p.aoa))
                    * np.exp(-1j * 2 * np.pi * l * p.delay_samples / nc)
                )
    return h


def random_paths(rng, n, nc):
    return [
        PathRecord(
            aoa=rng.uniform(0.1, np.pi - 0.1),
            aod=rng.uniform(0.1, np.pi - 0.1),
            gain=complex(rng.normal(), rng.normal()),
            delay_samples=int(rng.integers(0, nc)),
            pathloss_db=rng.uniform(0, 40),
        )
        for _ in range(n)
    ]


class TestArrayResponse:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(array_response(np.pi / 2, 4, 0.5), np.ones(4))

    def test_endfire_alternates(self):
        np.testing.assert_allclose(
            array_response(0.0, 4, 0.5), [1, -1, 1, -1], atol=1e-12
        )

    def test_matches_scalar_oracle(self):
        got = array_response(1.1, 8, 0.5)
        np.testing.assert_allclose(got, steering_oracle(1.1, 8, 0.5), atol=1e-12)

    def test_zero_antennas_rejected(self):
        with pytest.raises(ValueError):
            array_response(1.0, 0)

    @pytest.mark.parametrize("ratio", [0.5, 0.37])
    def test_angle_array_equals_per_angle_calls_bit_for_bit(self, ratio):
        # the ends of [0, pi], and pi/2 with its neighbors, whose cosines
        # are +0 and -0 up to rounding
        half = np.pi / 2
        edges = [0.0, np.pi, half, np.nextafter(half, 0.0), np.nextafter(half, np.pi)]
        phi = np.concatenate([edges, np.random.default_rng(4).uniform(0.0, np.pi, 19)])
        assert np.cos(edges[3]) > 0 > np.cos(edges[4])
        for angles in (phi, phi.reshape(4, 6), phi[:1]):
            got = array_response(angles, 7, ratio)
            assert got.shape == angles.shape + (7,)
            want = np.array([array_response(a, 7, ratio) for a in angles.ravel().tolist()])
            assert np.array_equal(got.reshape(-1, 7), want)
        assert array_response(half, 7, ratio).shape == (7,)
        assert array_response([], 7, ratio).shape == (0, 7)

    @pytest.mark.parametrize("bad", [-0.25, np.pi + 1e-9, np.nan])
    def test_angle_array_with_one_angle_outside_rejected(self, bad):
        angles = [[0.5, 1.0], [np.pi, bad], [2.0, 7.0]]
        with pytest.raises(ValueError, match=rf"phi must lie in \[0, pi\], got {bad}$"):
            array_response(angles, 4)


class TestPathRecord:
    @pytest.mark.parametrize(
        "field, value",
        [
            *(("gain", complex(*parts)) for v in (math.nan, math.inf, -math.inf) for parts in ((v, 0.0), (0.0, v))),
            *((name, v) for name in ("delay_samples", "pathloss_db") for v in (math.nan, math.inf, -math.inf)),
        ],
    )
    def test_non_finite_value_is_rejected_by_name(self, field, value):
        # NaN passes a "< 0" test, and one NaN path makes a NaN CFR
        values = {"aoa": 1.0, "aod": 1.0, "gain": 1, "delay_samples": 0, "pathloss_db": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PathRecord(**values)


class TestCfr:
    def test_empty_paths_zero(self):
        assert np.all(cfr_stack([[]], 4, 8)[0] == 0)

    def test_single_unit_path_all_ones(self):
        p = PathRecord(aoa=np.pi / 2, aod=1.0, gain=1, delay_samples=0, pathloss_db=0)
        np.testing.assert_allclose(cfr_stack([[p]], 4, 8)[0], np.ones((4, 8)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        paths = random_paths(rng, 5, 64)
        got = cfr_stack([paths], 8, 64)[0]
        np.testing.assert_allclose(got, cfr_oracle(paths, 8, 64), atol=1e-10)

    def test_delay_beyond_window_rejected(self):
        p = PathRecord(aoa=1.0, aod=1.0, gain=1, delay_samples=8, pathloss_db=0)
        with pytest.raises(ValueError):
            cfr_stack([[p]], 4, 8)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        p1 = random_paths(rng, 3, 16)
        p2 = random_paths(rng, 4, 16)
        both = cfr_stack([p1 + p2], 4, 16)[0]
        np.testing.assert_allclose(
            both, cfr_stack([p1], 4, 16)[0] + cfr_stack([p2], 4, 16)[0], atol=1e-10
        )


@st.composite
def _path_lists(draw):
    """Path lists of 0 to ``maxpathnum`` paths each, their counts mixed
    inside every 64-list chunk, 0 to 150 lists in all: broadside
    arrivals, zero delays, zero and unit-modulus gains included."""
    nt, nc = draw(st.integers(1, 9)), draw(st.integers(1, 17))
    maxpathnum = draw(st.integers(1, 12))
    n = draw(st.sampled_from([0, 1, 5, 63, 64, 65, 150]))
    ratio = draw(st.sampled_from([0.5, 0.25, 1.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def path():
        aoa = np.pi / 2 if rng.random() < 0.2 else rng.uniform(1e-6, np.pi - 1e-6)
        gain = [0j, complex(np.exp(-1j * rng.uniform(0, 1e3))), complex(rng.normal(), rng.normal())][rng.integers(3)]
        delay = 0 if rng.random() < 0.2 else int(rng.integers(0, nc))
        return PathRecord(aoa=aoa, aod=1.0, gain=gain, delay_samples=delay, pathloss_db=rng.uniform(0, 120))

    lists = [[path() for _ in range(count)] for count in rng.integers(0, maxpathnum + 1, size=n)]
    return nt, nc, ratio, lists


@settings(max_examples=60, deadline=None)
@given(_path_lists())
def test_cfr_stack_equals_the_per_path_oracle_bit_for_bit(case):
    nt, nc, ratio, lists = case
    got = cfr_stack(lists, nt, nc, ratio)
    assert got.shape == (len(lists), nt, nc) and got.dtype == np.complex128
    for paths, h in zip(lists, got):
        # tobytes, so that -0.0 and 0.0 count as different
        assert h.tobytes() == oracles.cfr_from_paths(paths, nt, nc, ratio).tobytes()
    # into an array that held NaNs: zero-filled first, so bit for bit a new array
    out = np.full(got.shape, complex(np.nan, np.nan))
    assert cfr_stack(lists, nt, nc, ratio, out=out) is out and out.tobytes() == got.tobytes()


def test_cfr_stack_rejects_a_delay_beyond_the_window():
    ok = PathRecord(aoa=1.0, aod=1.0, gain=1, delay_samples=7, pathloss_db=0)
    late = PathRecord(aoa=1.0, aod=1.0, gain=1, delay_samples=8, pathloss_db=0)
    with pytest.raises(ValueError, match="delay 8 exceeds cyclic window nc=8"):
        cfr_stack([[ok]] * 70 + [[ok, late]], 4, 8)


@settings(max_examples=40, deadline=None)
@example(lead=(), nt=16, nc=24, scale=1.0, seed=5)
@example(lead=(), nt=8, nc=64, scale=1.0, seed=3)
@given(
    st.sampled_from([(), (0,), (1,), (63,), (64,), (65,), (2, 70)]),
    st.integers(1, 17),
    st.integers(1, 17),
    st.sampled_from([1e-9, 1.0, 1e6]),
    st.integers(0, 2**32 - 1),
)
def test_stacked_adcam_equals_the_per_matrix_transform_bit_for_bit(lead, nt, nc, scale, seed):
    rng = np.random.default_rng(seed)
    h = (rng.normal(size=(*lead, nt, nc)) + 1j * rng.normal(size=(*lead, nt, nc))) * scale
    h[rng.random(h.shape) < 0.1] = 0.0
    got = adcam(h)
    assert got.shape == h.shape and got.dtype == np.float64
    for m, a in zip(h.reshape(-1, nt, nc), got.reshape(-1, nt, nc)):
        assert a.tobytes() == oracles.adcam(m).tobytes()
    # into arrays that held NaNs, one in C order and one in Fortran order,
    # whose leading axes of (2, 70) do not merge into one
    for order in "CF":
        out = np.full(h.shape, np.nan, order=order)
        assert adcam(h, out=out) is out and np.array_equal(out, got)


# each out= of a 2 x 4 x 6 result: the function, its dtype, and wrong outs
# with how the error names them
_WRONG_OUTS = {
    "cfr_stack": (
        lambda out: cfr_stack([[PathRecord(aoa=1.0, aod=1.0, gain=1, delay_samples=1, pathloss_db=0)]] * 2, 4, 6, out=out),
        "complex128",
        [
            (np.empty((3, 4, 5), complex), "complex128 of shape (3, 4, 5)"),
            (np.empty((2, 4, 6), np.complex64), "complex64 of shape (2, 4, 6)"),
            (np.empty((2, 4, 6)), "float64 of shape (2, 4, 6)"),
            ([[[0j] * 6] * 4] * 2, "list"),
        ],
    ),
    "adcam": (
        lambda out: adcam(np.ones((2, 4, 6), complex), out=out),
        "float64",
        [
            (np.empty((2, 4, 5)), "float64 of shape (2, 4, 5)"),
            (np.empty((4, 6)), "float64 of shape (4, 6)"),
            (np.empty((2, 4, 6), np.float32), "float32 of shape (2, 4, 6)"),
            (np.empty((2, 4, 6), complex), "complex128 of shape (2, 4, 6)"),
        ],
    ),
}


@pytest.mark.parametrize(
    "name, case", [(name, case) for name, (_, _, cases) in _WRONG_OUTS.items() for case in range(len(cases))]
)
def test_an_out_of_another_shape_or_dtype_is_rejected(name, case):
    call, dtype, cases = _WRONG_OUTS[name]
    out, got = cases[case]
    with pytest.raises(ValueError, match="^" + re.escape(f"out must be a {dtype} array of shape (2, 4, 6), got {got}") + "$"):
        call(out)


@pytest.mark.parametrize("chunk", [channel._CHUNK, 16], ids=["chunk", "small"])
@pytest.mark.parametrize("snr_db", [None, 20.0], ids=["clean", "noisy"])
@pytest.mark.parametrize("n", [1, 63, 64, 65])
def test_blocked_adcam_transforms_each_matrix_as_alone(n, snr_db, chunk):
    # adcam takes its products over _chunks: stacks that end inside a
    # chunk, at its end and past it, and with a small _CHUNK stacks of
    # several chunks and a remainder, give each matrix's own transform,
    # on CFRs of real path lists with and without noise
    rng = np.random.default_rng(n)
    paths = [
        [
            PathRecord(aoa=rng.uniform(0.1, 3.0), aod=1.0, gain=np.exp(1j * rng.uniform(0, 6)), delay_samples=int(rng.integers(32)), pathloss_db=rng.uniform(60, 120))
            for _ in range(rng.integers(1, 4))
        ]
        for _ in range(n)
    ]
    h = cfr_stack(paths, 32, 32)
    if snr_db is not None:
        h = np.array([add_noise(m, snr_db, seed=i) for i, m in enumerate(h)])
    with mock.patch.object(channel, "_CHUNK", chunk):
        stacked = adcam(h)
    assert np.array_equal(stacked, np.array([adcam(m) for m in h]))


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("n", [0, 1, 5, 63, 64, 65, 150])
def test_chunks_cover_the_rows_in_order(n, chunk):
    rows = list(range(n))
    with mock.patch.object(channel, "_CHUNK", chunk):
        parts = [rows[part] for part in _chunks(n)]
    assert [i for part in parts for i in part] == rows
    assert [len(part) for part in parts[:-1]] == [chunk] * (len(parts) - 1)
    assert len(parts) == math.ceil(n / chunk) and all(parts)


UNITARY_SIZES = [*range(1, 33), 64, 127, 128]


class TestDftMatrices:
    def test_size_one(self):
        v, f = dft_matrices(1, 1)
        np.testing.assert_allclose(v, [[1]])
        np.testing.assert_allclose(f, [[1]])

    @pytest.mark.parametrize("nt", UNITARY_SIZES)
    def test_unitarity(self, nt):
        # every pair of sizes 1-32, and each with 64, 127 and 128: both
        # matrices unitary at their own axis's size
        for nc in UNITARY_SIZES:
            v, f = dft_matrices(nt, nc)
            for m, n in ((v, nt), (f, nc)):
                assert np.max(np.abs(m @ m.conj().T - np.eye(n))) < 1e-10
                assert np.max(np.abs(m.conj().T @ m - np.eye(n))) < 1e-10

    def test_entries_match_scalar_oracle(self):
        nt, nc = 8, 16
        v, f = dft_matrices(nt, nc)
        for z in range(nt):
            for q in range(nt):
                want = np.exp(-1j * 2 * np.pi * z * (q - nt / 2) / nt) / np.sqrt(nt)
                assert abs(v[z, q] - want) < 1e-12
        for z in range(nc):
            for q in range(nc):
                want = np.exp(-1j * 2 * np.pi * z * q / nc) / np.sqrt(nc)
                assert abs(f[z, q] - want) < 1e-12

    def test_cached_and_read_only(self):
        v, f = dft_matrices(8, 16)
        again = dft_matrices(8, 16)
        assert again[0] is v and again[1] is f
        for m in (v, f):
            with pytest.raises(ValueError):
                m[0, 0] = 0.0
        # adcam with the shared matrices equals adcam with freshly built ones
        fresh_v, fresh_f = dft_matrices.__wrapped__(8, 16)
        np.testing.assert_array_equal(v, fresh_v)
        np.testing.assert_array_equal(f, fresh_f)
        rng = np.random.default_rng(7)
        h = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
        np.testing.assert_array_equal(adcam(h), np.abs(fresh_v.conj().T @ h @ fresh_f))


class TestAdcam:
    def test_zero_matrix(self):
        assert np.all(adcam(np.zeros((4, 8))) == 0)

    def test_energy_preservation(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
        assert abs(np.linalg.norm(adcam(h)) - np.linalg.norm(h)) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("nt, nc", [(4, 8), (8, 16), (32, 32)])
    def test_delay_spike_column(self, nt, nc, n):
        # a lone broadside path concentrates at row nt/2 with value
        # sqrt(nt*nc), zero elsewhere; a delay-n spike lands at column
        # (nc - n) % nc under the forward delay-axis DFT; n = 0 maps to
        # column 0
        p = PathRecord(aoa=np.pi / 2, aod=1.0, gain=1, delay_samples=n, pathloss_db=0)
        want = np.zeros((nt, nc))
        want[nt // 2, (nc - n) % nc] = np.sqrt(nt * nc)
        np.testing.assert_allclose(adcam(cfr_stack([[p]], nt, nc)[0]), want, rtol=0, atol=1e-10)


class TestRenderImage:
    def test_zero_matrix_renders_black(self):
        assert np.all(render_image(np.zeros((4, 4)), "adcam") == 0)

    def test_affine_normalization(self):
        m = np.array([[2.0, 4.0], [6.0, 3.0]])
        img = render_image(m, "adcam")
        assert img[0, 1] == pytest.approx(0.5)

    def test_minmax_range(self):
        rng = np.random.default_rng(1)
        img = render_image(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), "cfr_magnitude")
        assert img.min() == 0.0 and img.max() == 1.0

    def test_magnitude_scale_invariance(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        np.testing.assert_allclose(
            render_image(h, "cfr_magnitude"), render_image(3.7 * h, "cfr_magnitude")
        )

    @pytest.mark.parametrize("tag", ["cfr_magnitude", "cfr_phase", "adcam"])
    def test_stack_renders_each_image_alone(self, tag):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(4, 6, 7)) + 1j * rng.normal(size=(4, 6, 7))
        if tag == "adcam":
            stack = np.abs(stack)
        stack[1] = stack[1, 0, 0]  # a constant image renders black
        stack[2] *= 1e-9
        got = render_image(stack, tag)
        assert got.shape == stack.shape
        for img, want in zip(stack, got):
            assert np.array_equal(render_image(img, tag), want)
        if tag != "cfr_phase":
            assert np.all(got[1] == 0) and got[2].max() == 1.0

    def test_non_image_rejected(self):
        with pytest.raises(ValueError, match="H, W"):
            render_image(np.ones(5), "adcam")

    def test_phase_range(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        img = render_image(h, "cfr_phase")
        assert np.all((0 <= img) & (img <= 1))


class TestAddNoise:
    @pytest.mark.parametrize("snr_db", [None, math.nan, math.inf, -math.inf])
    def test_snr_must_be_finite(self, snr_db):
        # no noise is a scene's snr_db of None, which makes no add_noise call
        with pytest.raises(ValueError, match=re.escape(f"snr_db must be a finite number, got {snr_db!r}")):
            add_noise(np.ones((3, 3), dtype=complex), snr_db, seed=1)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_array_equal(add_noise(h, 10, seed=7), add_noise(h, 10, seed=7))

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros((2, 2)), 10, seed=0)

    def test_noise_power_monte_carlo(self):
        # at 0 dB the per-entry noise power should equal the mean channel power
        h = np.full((100, 100), 2.0 + 0j)
        p_avg = 4.0
        total = 0.0
        for seed in range(4):
            n = add_noise(h, 0.0, seed=seed) - h
            total += np.mean(np.abs(n) ** 2)
        assert abs(total / 4 - p_avg) / p_avg < 0.05
