import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from ruelle.julia import (
    BASIN_INFINITY,
    BLOCK_PIXELS,
    BASIN_UNDECIDED,
    BASIN_ZERO,
    Raster,
    render,
    write_pgm,
)
from ruelle.maps import MobiusFamilyMap


def _pixel_grid(viewport, width, height):
    xmin, xmax, ymin, ymax = viewport
    xs = np.linspace(xmin, xmax, width)
    ys = np.linspace(ymax, ymin, height)
    return xs[None, :] + 1j * ys[:, None]


VIEW = (-1.6, 1.6, -1.6, 1.6)


class TestRender:
    def test_squaring_classifies_by_unit_circle(self):
        raster = render(0.0, VIEW, 128, 128, max_iter=200)
        zz = _pixel_grid(VIEW, 128, 128)
        inner = np.abs(zz) <= 0.9
        outer = np.abs(zz) >= 1.1
        assert np.mean(raster.basin[inner] == BASIN_ZERO) >= 0.99
        assert np.mean(raster.basin[outer] == BASIN_INFINITY) >= 0.99

    def test_attracting_origin_for_blaschke_parameter(self):
        # w = 1: multiplier -1/2 at the origin, decision within a few steps
        raster = render(1.0, (-0.1, 0.1, -0.1, 0.1), 16, 16, max_iter=50)
        assert np.all(raster.basin == BASIN_ZERO)
        assert raster.steps.max() <= 12

    def test_quasi_circle_parameter(self):
        raster = render(0.5 + 0.26j, VIEW, 128, 128)
        assert np.mean(raster.basin == BASIN_UNDECIDED) < 0.05
        zero = raster.basin == BASIN_ZERO
        _, ncomp = ndimage.label(zero)
        assert ncomp == 1

    def test_real_parameters_keep_boundary_near_unit_circle(self):
        zz = _pixel_grid(VIEW, 96, 96)
        for w in (0.0, 0.5, 1.0):
            raster = render(w, VIEW, 96, 96)
            border = np.abs(np.abs(zz) - 1) > 0.2
            inner = border & (np.abs(zz) < 1)
            outer = border & (np.abs(zz) > 1)
            assert np.all(raster.basin[inner] == BASIN_ZERO)
            assert np.all(raster.basin[outer] == BASIN_INFINITY)

    def test_stability_under_iteration_doubling(self):
        a = render(0.5 + 0.26j, VIEW, 96, 96, max_iter=250)
        b = render(0.5 + 0.26j, VIEW, 96, 96, max_iter=500)
        assert np.mean(a.basin == b.basin) >= 0.99

    def test_pole_pixel_goes_to_infinity(self):
        w = 0.5
        pole = 2.0 / w  # = 4
        view = (3.9, 4.1, -0.1, 0.1)
        raster = render(w, view, 17, 17, max_iter=50)
        # grid contains the pole exactly at the middle column / middle row
        zz = _pixel_grid(view, 17, 17)
        assert np.min(np.abs(zz - pole)) < 1e-12
        assert np.all(raster.basin == BASIN_INFINITY)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="max_iter"):
            render(0.0, VIEW, 64, 64, max_iter=10)
        with pytest.raises(ValueError, match="epsilon"):
            render(0.0, VIEW, 64, 64, epsilon=0.5)
        with pytest.raises(ValueError, match="16"):
            render(0.0, VIEW, 8, 64)
        nan, inf = float("nan"), float("inf")
        for w, viewport, named in [
            (nan, VIEW, "w must be finite"),  # would put every pixel at infinity
            (complex(0.5, inf), VIEW, "w must be finite"),
            (0.5, (-1.6, inf, -1.6, 1.6), "viewport must be finite"),
            (0.5, (-1.6, 1.6, nan, 1.6), "viewport must be finite"),
            (0.5, (1.0, -1.0, -1.0, 1.0), "xmin < xmax"),  # would be a mirror image
            (0.5, (-1.0, 1.0, 1.0, -1.0), "ymin < ymax"),  # would be upside down
            (0.5, (0.0, 0.0, 0.0, 0.0), "xmin < xmax"),  # would be one colour
            (0.5, (-1.0, 1.0, 0.5, 0.5), "ymin < ymax"),
        ]:
            with pytest.raises(ValueError, match=named):
                render(w, viewport, 16, 16, max_iter=50)

    def test_peak_memory_stays_below_a_raster_grid(self):
        # row blocks and the step buffers peak at 4.1 MiB; a whole-raster
        # complex128 start grid is 4 MiB by itself, and a copy of it 4 more
        render(0.5 + 0.26j, VIEW, 16, 16, max_iter=50)  # first-call imports
        tracemalloc.start()
        try:
            render(0.5 + 0.26j, VIEW, 512, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def _whole_array_render(w, viewport, width, height, max_iter=500, epsilon=1e-3):
    """The raster from one pass over the whole pixel array per step: a boolean
    gather of the active pixels, the pole and NaN iterates set to infinity,
    and a scatter back.  Each step is ``MobiusFamilyMap(w).eval``, whose bits
    do not depend on the length of the array."""
    T = MobiusFamilyMap(w)
    z = _pixel_grid(viewport, width, height).astype(complex)
    basin = np.full(z.shape, BASIN_UNDECIDED, dtype=np.uint8)
    steps = np.full(z.shape, max_iter, dtype=np.int32)
    active = np.ones(z.shape, dtype=bool)
    lo, hi = epsilon, 1.0 / epsilon
    for it in range(max_iter):
        za = z[active]
        at_pole = 2 - T.w * za == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            za = T.eval(za)
        za[at_pole] = np.inf
        za[np.isnan(za)] = np.inf
        z[active] = za
        mods = np.abs(za)
        inner = mods < lo
        outer = mods > hi
        if inner.any() or outer.any():
            idx = np.flatnonzero(active)
            done_in, done_out = idx[inner], idx[outer]
            basin.flat[done_in] = BASIN_ZERO
            basin.flat[done_out] = BASIN_INFINITY
            steps.flat[done_in] = it + 1
            steps.flat[done_out] = it + 1
            active.flat[done_in] = False
            active.flat[done_out] = False
        if not active.any():
            break
    return basin, steps


def _assert_matches_whole_array(w, viewport, width, height, max_iter=500):
    raster = render(w, viewport, width, height, max_iter=max_iter)
    basin, steps = _whole_array_render(w, viewport, width, height, max_iter)
    assert raster.basin.shape == raster.steps.shape == (height, width)
    assert raster.basin.dtype == np.uint8 and raster.steps.dtype == np.int32
    assert np.array_equal(raster.basin, basin)
    assert np.array_equal(raster.steps, steps)
    return raster


class TestBlockedRender:
    """The block-wise render gives the whole-array raster bit for bit."""

    @pytest.mark.parametrize("w", [0.0, 0.5 + 0.26j, 0.8 + 0.3j, 1 + 1j], ids=str)
    @pytest.mark.parametrize("width, height", [(300, 200), (257, 129), (512, 130)])
    def test_partial_last_block(self, w, width, height):
        # each raster spans more than one block of whole rows and ends in a
        # partial one (91, 2 and 2 rows)
        rows = BLOCK_PIXELS // width
        assert height > rows and height % rows
        assert width * height > BLOCK_PIXELS and width * height % BLOCK_PIXELS
        _assert_matches_whole_array(w, VIEW, width, height)

    def test_raster_wider_than_a_block(self):
        # one row per block, each longer than BLOCK_PIXELS
        width = BLOCK_PIXELS + 5
        assert BLOCK_PIXELS // width == 0
        _assert_matches_whole_array(0.5 + 0.26j, VIEW, width, 16, max_iter=50)

    def test_pole_pixel(self):
        # z = 4 = 2/w is the middle pixel: its first step divides by zero
        raster = _assert_matches_whole_array(0.5, (3.9, 4.1, -0.1, 0.1), 17, 17, max_iter=50)
        assert raster.basin[8, 8] == BASIN_INFINITY and raster.steps[8, 8] == 1

    def test_zero_over_zero_pixel(self):
        # w = 2 at z = 1: T = 1 (2 - 2)/(2 - 2), a NaN first iterate
        raster = _assert_matches_whole_array(2.0, (0.0, 2.0, -1.0, 1.0), 17, 17, max_iter=50)
        assert raster.basin[8, 8] == BASIN_INFINITY and raster.steps[8, 8] == 1

    def test_undecided_at_max_iter(self):
        # T(w, 1) = 1 for every w, so z = 1 (and z = -1, with T(0.5, -1) = 1)
        # never decides; pixels near the unit circle need more than 50 steps
        raster = _assert_matches_whole_array(0.5, (-1.0, 1.0, -1.0, 1.0), 301, 201, max_iter=50)
        undecided = raster.basin == BASIN_UNDECIDED
        assert undecided[100, 0] and undecided[100, 300] and undecided.sum() > 2
        assert np.all(raster.steps[undecided] == 50)


class TestPgm:
    def test_header_bytes(self, tmp_path):
        raster = render(0.0, VIEW, 512, 512, max_iter=50)
        path = tmp_path / "out.pgm"
        write_pgm(raster, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n512 512\n255\n")
        assert len(data) == len(b"P5\n512 512\n255\n") + 512 * 512

    def test_all_zero_basin_payload(self, tmp_path):
        raster = render(1.0, (-0.05, 0.05, -0.05, 0.05), 16, 16, max_iter=50)
        path = tmp_path / "zero.pgm"
        write_pgm(raster, path)
        payload = path.read_bytes().split(b"255\n", 1)[1]
        assert payload == bytes(16 * 16)

    def test_three_codes_basin_payload(self, tmp_path):
        codes = np.arange(16 * 16, dtype=np.uint8).reshape(16, 16) % 3
        raster = Raster(16, 16, codes, np.zeros((16, 16), dtype=np.int32))
        gray = {BASIN_ZERO: 0, BASIN_INFINITY: 255, BASIN_UNDECIDED: 128}
        path = tmp_path / "basin.pgm"
        write_pgm(raster, path)
        payload = path.read_bytes().split(b"255\n", 1)[1]
        assert payload == bytes(gray[c] for c in raster.basin.ravel())
        assert set(payload) == {0, 128, 255}

    def test_steps_mode(self, tmp_path):
        raster = render(0.0, VIEW, 32, 32, max_iter=60)
        path = tmp_path / "steps.pgm"
        write_pgm(raster, path, mode="steps")
        payload = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert payload.max() == 255
        assert len(np.unique(payload)) > 2

    def test_unknown_mode(self, tmp_path):
        raster = render(0.0, VIEW, 16, 16, max_iter=50)
        with pytest.raises(ValueError, match="mode"):
            write_pgm(raster, tmp_path / "x.pgm", mode="heat")

    def test_write_failure_surfaces_path(self, tmp_path):
        raster = render(0.0, VIEW, 16, 16, max_iter=50)
        bad = tmp_path / "missing_dir" / "x.pgm"
        with pytest.raises(OSError, match="missing_dir"):
            write_pgm(raster, bad)
