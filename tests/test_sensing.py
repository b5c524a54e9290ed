import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrexplore.grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GroundTruthMap,
    OccupancyGrid,
    world_to_grid,
)
from mrexplore.sensing import integrate_scan, raycast

from conftest import truth_from_rows


def walk_ray_reference(px, py, dx, dy, grid, t_stop):
    """Scalar Amanatides-Woo traversal, kept independent of the vectorized
    production code: yields (cx, cy, t_entry, t_exit) per properly crossed
    cell."""
    cx, cy = world_to_grid(px, py, grid)
    res = grid.resolution
    if dx > 0:
        step_x, t_max_x, t_dx = 1, (grid.origin_x + (cx + 1) * res - px) / dx, res / dx
    elif dx < 0:
        step_x, t_max_x, t_dx = -1, (grid.origin_x + cx * res - px) / dx, -res / dx
    else:
        step_x, t_max_x, t_dx = 0, math.inf, math.inf
    if dy > 0:
        step_y, t_max_y, t_dy = 1, (grid.origin_y + (cy + 1) * res - py) / dy, res / dy
    elif dy < 0:
        step_y, t_max_y, t_dy = -1, (grid.origin_y + cy * res - py) / dy, -res / dy
    else:
        step_y, t_max_y, t_dy = 0, math.inf, math.inf

    t_entry = 0.0
    while True:
        t_exit = min(t_max_x, t_max_y)
        if t_exit - t_entry > 1e-12:
            yield cx, cy, t_entry, t_exit
        if t_max_x < t_max_y:
            cx += step_x
            t_entry = t_max_x
            t_max_x += t_dx
        else:
            cy += step_y
            t_entry = t_max_y
            t_max_y += t_dy
        if t_entry > t_stop or not grid.in_bounds(cx, cy):
            return


def raycast_reference(truth, pose, beam_count, max_range):
    px, py, heading = pose
    ranges = np.full(beam_count, max_range + 1.0)
    for k in range(beam_count):
        theta = heading + 2.0 * math.pi * k / beam_count
        dx, dy = math.cos(theta), math.sin(theta)
        for cx, cy, t_in, t_out in walk_ray_reference(
            px, py, dx, dy, truth, max_range + 2.0 * truth.resolution
        ):
            if truth.cells[cy, cx] == OCCUPIED:
                r = 0.5 * (t_in + t_out)
                if r <= max_range:
                    ranges[k] = r
                break
    return ranges


def integrate_reference(grid, scan):
    """Ranges-based integration, one beam at a time: a hit beam's endpoint
    cell (the floor of pose + range * direction) becomes Occupied and the
    cells it crosses before that become Free; a no-hit beam frees the cells
    whose chord midpoint lies within max_range. Occupied is never demoted."""
    px, py, heading = scan.pose
    res = grid.resolution
    free, occupied = set(), set()
    for k, r in enumerate(scan.ranges):
        theta = heading + 2.0 * math.pi * k / scan.beam_count
        dx, dy = math.cos(theta), math.sin(theta)
        if r <= scan.max_range:
            end = world_to_grid(px + r * dx, py + r * dy, grid)
            for cx, cy, _, _ in walk_ray_reference(px, py, dx, dy, grid, r + 2.0 * res):
                if (cx, cy) == end:
                    occupied.add(end)
                    break
                free.add((cx, cy))
        else:
            for cx, cy, t_in, t_out in walk_ray_reference(
                px, py, dx, dy, grid, scan.max_range
            ):
                if 0.5 * (t_in + t_out) <= scan.max_range:
                    free.add((cx, cy))
    out = grid.copy()
    for cx, cy in free:
        if out.cells[cy, cx] != OCCUPIED:
            out.cells[cy, cx] = FREE
    for cx, cy in occupied:
        out.cells[cy, cx] = OCCUPIED
    return out


@st.composite
def world_and_pose(draw):
    """A small random world, a pose in one of its free cells and a grid of
    the same geometry holding random earlier knowledge."""
    w, h = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    res = draw(st.sampled_from([0.25, 0.5, 1.0]))
    origin = (draw(st.integers(-4, 4)) * res, draw(st.integers(-4, 4)) * res)
    cells = draw(arrays(np.int8, (h, w), elements=st.sampled_from([FREE, OCCUPIED])))
    cx, cy = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    cells[cy, cx] = FREE
    truth = GroundTruthMap(res, origin[0], origin[1], w, h, cells)
    frac = st.floats(0.05, 0.95)
    pose = (origin[0] + (cx + draw(frac)) * res, origin[1] + (cy + draw(frac)) * res,
            draw(st.floats(0.0, 2 * math.pi)))
    known = draw(arrays(np.int8, (h, w),
                        elements=st.sampled_from([UNKNOWN, FREE, OCCUPIED])))
    grid = OccupancyGrid(res, origin[0], origin[1], w, h, known)
    return truth, pose, grid


_beams = st.integers(1, 48)
_max_range = st.floats(0.3, 6.0)


class TestRaycast:
    def test_perpendicular_wall(self):
        rows = ["." * 20] * 20
        rows = [r[:15] + "#" + r[16:] for r in rows]
        truth = truth_from_rows(rows)
        scan = raycast(truth, (14.5, 10.5, 0.0), 4, 5.0)
        assert scan.ranges[0] == pytest.approx(1.0, abs=truth.resolution)

    def test_open_arena_all_no_hit(self, open_arena):
        scan = raycast(open_arena, (50.0, 50.0, 0.3), 16, 5.0)
        assert np.all(scan.ranges == scan.no_hit)

    def test_single_cell_box(self):
        truth = truth_from_rows(["###", "#.#", "###"])
        scan = raycast(truth, (1.5, 1.5, 0.0), 8, 5.0)
        for k in (0, 2, 4, 6):  # axis-aligned beams
            assert scan.ranges[k] == pytest.approx(1.0, abs=0.5)
        for k in (1, 3, 5, 7):
            assert scan.ranges[k] == pytest.approx(math.sqrt(2.0), abs=0.5)

    def test_embedded_pose_rejected(self, box5):
        with pytest.raises(ValueError, match="embedded"):
            raycast(box5, (0.5, 0.5, 0.0), 8, 5.0)

    def test_matches_scalar_reference(self, box5):
        rng = np.random.RandomState(11)
        for _ in range(40):
            cells = (rng.random((12, 12)) < 0.2).astype(np.int8)
            cells[5:7, 5:7] = FREE
            truth = GroundTruthMap(0.5, -1.0, 2.0, 12, 12, cells)
            pose = (
                -1.0 + 5.5 * 0.5 + rng.uniform(0.05, 0.45),
                2.0 + 5.5 * 0.5 + rng.uniform(0.05, 0.45),
                rng.uniform(0, 2 * math.pi),
            )
            got = raycast(truth, pose, 24, 3.0).ranges
            want = raycast_reference(truth, pose, 24, 3.0)
            assert np.allclose(got, want, atol=1e-9), (got - want)


    @pytest.mark.parametrize("heading", [5e-324, 1e-310, 2.5e-309])
    def test_beam_next_to_axis_warns_nothing(self, heading):
        # The first beam's sin(heading) is subnormal. At 5e-324 and 1e-310
        # its t_dy overflows; at 2.5e-309, t_max_y + t_dy would.
        truth = truth_from_rows(["......", ".#..#.", "......", "..#..."])
        pose = (2.5, 2.5)
        want = raycast(truth, (*pose, 0.0), 16, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = raycast(truth, (*pose, heading), 16, 4.0)
        assert np.array_equal(got.ranges, want.ranges)
        assert np.array_equal(got.free_cells, want.free_cells)
        assert np.array_equal(got.occupied_cells, want.occupied_cells)


class TestIntegrate:
    def test_discovery_monotone(self, box5):
        scan = raycast(box5, (2.5, 2.5, 0.4), 36, 5.0)
        before = box5.blank_grid()
        after = integrate_scan(before, scan)
        assert after.unknown_count() < before.unknown_count()

    def test_idempotent(self, box5):
        scan = raycast(box5, (2.5, 2.5, 0.4), 36, 5.0)
        once = integrate_scan(box5.blank_grid(), scan)
        twice = integrate_scan(once, scan)
        assert np.array_equal(once.cells, twice.cells)

    def test_hit_cell_marked_with_free_segment(self):
        rows = ["." * 20] * 10
        rows[5] = "." * 10 + "#" + "." * 9
        truth = truth_from_rows(rows)
        scan = raycast(truth, (2.5, 5.5, 0.0), 4, 12.0)
        g = integrate_scan(truth.blank_grid(), scan)
        assert g.cells[5, 10] == OCCUPIED
        for cx in range(3, 10):
            assert g.cells[5, cx] == FREE

    def test_never_marks_true_wall_free(self, box5):
        rng = np.random.RandomState(5)
        for _ in range(20):
            pose = (rng.uniform(1.1, 3.9), rng.uniform(1.1, 3.9),
                    rng.uniform(0, 2 * math.pi))
            scan = raycast(box5, pose, 48, 6.0)
            g = integrate_scan(box5.blank_grid(), scan)
            bad = (g.cells == FREE) & (box5.cells == OCCUPIED)
            assert not bad.any()

    def test_occupied_never_demoted(self, box5):
        g = box5.blank_grid()
        g.cells[2, 1] = OCCUPIED  # pretend an earlier scan saw a wall here
        scan = raycast(box5, (2.5, 2.5, 0.0), 36, 5.0)
        out = integrate_scan(g, scan)
        assert out.cells[2, 1] == OCCUPIED

    def test_no_hit_clears_to_max_range_only(self, open_arena):
        scan = raycast(open_arena, (50.5, 50.5, 0.0), 90, 5.0)
        g = integrate_scan(open_arena.blank_grid(), scan)
        assert g.cells[50, 50] != UNKNOWN
        free_cells = np.argwhere(g.cells == FREE)
        d = np.hypot(free_cells[:, 1] + 0.5 - 50.5, free_cells[:, 0] + 0.5 - 50.5)
        assert d.max() <= 5.0 + 1.0  # within max_range plus one cell of slack

    def test_scan_shape_and_range_domain(self, box5):
        scan = raycast(box5, (2.5, 2.5, 1.1), 17, 4.0)
        assert len(scan.ranges) == scan.beam_count == 17
        hit = scan.ranges <= scan.max_range
        assert np.all(scan.ranges[hit] > 0.0)
        assert np.all(scan.ranges[~hit] == scan.no_hit)

    def test_known_count_monotone_over_scan_sequence(self, box5):
        g = box5.blank_grid()
        poses = [(1.5, 1.5, 0.0), (2.5, 1.5, 0.8), (2.5, 2.5, 2.2),
                 (3.5, 3.5, 4.0), (1.5, 3.5, 5.5)]
        known = g.known_count()
        for pose in poses:
            g = integrate_scan(g, raycast(box5, pose, 36, 5.0))
            assert g.known_count() >= known
            known = g.known_count()

    @pytest.mark.parametrize("frame", [
        (1.0, 1.0, 0.0, 5, 5),   # origin shifted by a cell
        (1.0, 0.0, 0.5, 5, 5),   # origin off the lattice
        (1.0, 0.0, 0.0, 6, 5),   # wider
        (1.0, 0.0, 0.0, 5, 4),   # shorter
        (0.5, 0.0, 0.0, 5, 5),   # finer cells
    ])
    def test_other_geometry_rejected(self, box5, frame):
        scan = raycast(box5, (2.5, 2.5, 0.0), 8, 5.0)
        with pytest.raises(ValueError, match="geometry"):
            integrate_scan(OccupancyGrid(*frame), scan)


class TestIntegrateProperties:
    @settings(deadline=None)  # timing is not under test; the host may be busy
    @given(world_and_pose(), _beams, _max_range)
    def test_idempotent(self, world, beams, max_range):
        truth, pose, grid = world
        scan = raycast(truth, pose, beams, max_range)
        once = integrate_scan(grid, scan)
        assert np.array_equal(integrate_scan(once, scan).cells, once.cells)

    @settings(deadline=None)  # timing is not under test; the host may be busy
    @given(world_and_pose(), _beams, _max_range)
    def test_never_demotes_occupied(self, world, beams, max_range):
        truth, pose, grid = world
        out = integrate_scan(grid, raycast(truth, pose, beams, max_range))
        assert np.all(out.cells[grid.cells == OCCUPIED] == OCCUPIED)

    @settings(deadline=None)  # timing is not under test; the host may be busy
    @given(world_and_pose(), _beams, _max_range)
    def test_matches_ranges_based_reference(self, world, beams, max_range):
        truth, pose, grid = world
        scan = raycast(truth, pose, beams, max_range)
        assert np.array_equal(integrate_scan(grid, scan).cells,
                              integrate_reference(grid, scan).cells)
