import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrexplore.grid import GroundTruthMap, OccupancyGrid
from mrexplore.quality import _directed_nn_mean, alignment_error, map_quality, rmse, ssim_index
from mrexplore.worlds import make_world

from conftest import grid_from_rows, truth_from_rows


def grid_of_truth(truth):
    return OccupancyGrid(truth.resolution, truth.origin_x, truth.origin_y,
                         truth.width, truth.height, truth.cells.copy())


class TestSsim:
    def test_identity_is_one(self):
        rng = np.random.RandomState(0)
        img = rng.randint(0, 256, size=(40, 40)).astype(np.uint8)
        assert ssim_index(img, img) == pytest.approx(1.0, abs=1e-9)

    def test_inverted_is_low(self):
        truth = make_world("desk")
        from mrexplore.pgm import render_pixels
        img = render_pixels(truth)
        inverted = (255 - img.astype(np.int32)).astype(np.uint8)
        assert ssim_index(img, inverted) < 0.2

    def test_symmetric(self):
        rng = np.random.RandomState(3)
        a = rng.randint(0, 256, size=(30, 30)).astype(np.uint8)
        b = rng.randint(0, 256, size=(30, 30)).astype(np.uint8)
        assert ssim_index(a, b) == pytest.approx(ssim_index(b, a), abs=1e-12)

    def test_bounded(self):
        rng = np.random.RandomState(4)
        for _ in range(10):
            a = rng.randint(0, 256, size=(20, 20)).astype(np.uint8)
            b = rng.randint(0, 256, size=(20, 20)).astype(np.uint8)
            assert -1.0 <= ssim_index(a, b) <= 1.0


class TestRmse:
    def test_identity_zero(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert rmse(img, img) == 0.0

    def test_constant_shift(self):
        a = np.zeros((5, 5), dtype=np.uint8)
        b = np.full((5, 5), 10, dtype=np.uint8)
        assert rmse(a, b) == pytest.approx(10.0)


class TestAlignmentError:
    def test_identical_sets_zero(self):
        g = grid_from_rows(["#..", ".#."])
        t = truth_from_rows(["#..", ".#."])
        assert alignment_error(g, t) == 0.0

    def test_single_cell_offset(self):
        g = grid_from_rows(["#...."])
        t = truth_from_rows(["...#."])
        assert alignment_error(g, t) == pytest.approx(3.0)

    def test_both_empty(self):
        g = grid_from_rows(["..."])
        t = truth_from_rows(["..."])
        assert alignment_error(g, t) == 0.0

    def test_one_empty_is_nan(self):
        g = grid_from_rows(["..."])
        t = truth_from_rows(["#.."])
        assert math.isnan(alignment_error(g, t))


def broadcast_nn_mean(src, dst, chunk=512):
    """The all-pairs form: one (chunk x len(dst) x 2) difference tensor
    per chunk of src points."""
    total = 0.0
    for i in range(0, len(src), chunk):
        block = src[i:i + chunk]
        d2 = ((block[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
        total += np.sqrt(d2.min(axis=1)).sum()
    return total / len(src)


def brute_nn_mean(src, dst):
    """Every src point against every dst point, 64 src points at a time,
    with the sums grouped per 512 src points as in alignment_error."""
    d2 = np.concatenate([
        ((src[i:i + 64, :1] - dst[:, 0]) ** 2 + (src[i:i + 64, 1:] - dst[:, 1]) ** 2)
        .min(axis=1) for i in range(0, len(src), 64)])
    return sum(np.sqrt(d2[i:i + 512]).sum() for i in range(0, len(src), 512)) / len(src)


def mask_of(points, shape):
    """The boolean grid of the shape that holds exactly the (row, col)
    points."""
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(points.astype(np.intp).T)] = True
    return mask


@st.composite
def cells(draw):
    """Occupied-cell coordinates as alignment_error passes them: up to 1300
    points, so that sets below and above one 512-point chunk, and across
    several 64-row blocks, are drawn; the span sets how often they tie."""
    n = draw(st.one_of(st.integers(1, 100), st.integers(400, 1300)))
    span = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, span, (n, 2)).astype(np.float64)


@st.composite
def masks(draw):
    """A boolean grid with at least one True cell, and (row, col) cells of
    the same grid. Sparse grids leave cells farther than the near search
    from every True cell."""
    h, w = draw(st.integers(1, 120)), draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((h, w)) < draw(st.sampled_from([0.0005, 0.005, 0.05, 0.5]))
    mask[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    src = np.argwhere(rng.random((h, w)) < draw(st.sampled_from([0.01, 0.1, 0.9])))
    return src if len(src) else np.argwhere(mask), mask


class TestNearestWithoutAllPairs:
    @settings(max_examples=60)
    @given(cells(), cells())
    def test_equals_broadcast_form(self, src, dst):
        shape = tuple(np.concatenate([src, dst]).max(axis=0).astype(np.intp) + 1)
        got = _directed_nn_mean(src.astype(np.intp), mask_of(dst, shape))
        assert got == broadcast_nn_mean(src, dst)

    @settings(max_examples=60)
    @given(masks())
    def test_equals_brute_force(self, cells_and_mask):
        src, mask = cells_and_mask
        assert _directed_nn_mean(src, mask) == brute_nn_mean(
            src.astype(np.float64), np.argwhere(mask).astype(np.float64))


class TestMapQuality:
    def test_perfect_reconstruction(self):
        truth = make_world("two_wings")
        q = map_quality(grid_of_truth(truth), truth)
        assert q.ssim == pytest.approx(1.0, abs=1e-9)
        assert q.rmse == 0.0
        assert q.alignment_error == 0.0

    def test_geometry_mismatch(self):
        truth = GroundTruthMap(1.0, 0, 0, 4, 4)
        g = OccupancyGrid(1.0, 0, 0, 5, 5)
        with pytest.raises(ValueError):
            map_quality(g, truth)

    def test_partial_map_degrades(self):
        truth = make_world("two_wings")
        g = grid_of_truth(truth)
        half = g.copy()
        half.cells[:, truth.width // 2:] = -1  # right half unexplored
        q_full = map_quality(g, truth)
        q_half = map_quality(half, truth)
        assert q_half.ssim < q_full.ssim
        assert q_half.rmse > q_full.rmse
