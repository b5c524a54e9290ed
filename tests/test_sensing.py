import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrexplore.grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GroundTruthMap,
    OccupancyGrid,
    coverage_percent,
    merge_maps,
    world_to_grid,
)
from mrexplore.sensing import integrate_scan, raycast, walk_bound

from conftest import truth_from_rows


def cast_one(truth, pose, beam_count, max_range):
    """The scan of one pose: the one-pose form of the batched raycast."""
    return raycast(truth, [pose], beam_count, max_range)[0]


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


def cells_reference(truth, pose, beam_count, max_range):
    """Scalar form of raycast's rule, one beam at a time: the cells a beam
    crosses before its first Occupied cell are free and that cell is
    occupied, each only when its chord midpoint is <= max_range. Returns the
    cells of the pose's scan: those states on the cells seen, Unknown on
    every other. The beam directions are numpy's, as in raycast, so that a
    last-bit difference between math.cos and np.cos cannot move a corner
    graze."""
    px, py, heading = pose
    theta = heading + 2.0 * math.pi * np.arange(beam_count) / beam_count
    cells = np.full((truth.height, truth.width), UNKNOWN, dtype=np.int8)
    for dx, dy in zip(np.cos(theta).tolist(), np.sin(theta).tolist()):
        for cx, cy, t_in, t_out in walk_ray_reference(
            px, py, dx, dy, truth, max_range + 2.0 * truth.resolution
        ):
            hit = truth.cells[cy, cx] == OCCUPIED
            if 0.5 * (t_in + t_out) <= max_range:
                cells[cy, cx] = OCCUPIED if hit else FREE
            if hit:
                break
    return cells


def scan_cells(scan):
    """The sorted flat indices (free, occupied) of a scan's Free and
    Occupied cells."""
    flat = scan.cells.reshape(-1)
    return np.flatnonzero(flat == FREE), np.flatnonzero(flat == OCCUPIED)


# A position within a cell: on its lower edge, at its centre, or anywhere
# between; edge positions start beams on cell boundaries and corners.
_frac = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.05, 0.95))


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
    pose = (origin[0] + (cx + draw(_frac)) * res, origin[1] + (cy + draw(_frac)) * res,
            draw(st.floats(0.0, 2 * math.pi)))
    known = draw(arrays(np.int8, (h, w),
                        elements=st.sampled_from([UNKNOWN, FREE, OCCUPIED])))
    grid = OccupancyGrid(res, origin[0], origin[1], w, h, known)
    return truth, pose, grid


@st.composite
def world_and_poses(draw, min_poses=1, max_poses=4):
    """A small random world and a list of poses in its free cells. A pose
    may repeat an earlier one, or share its cell with another position and
    heading; headings vary freely."""
    w, h = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    res = draw(st.sampled_from([0.25, 0.5, 1.0]))
    origin = (draw(st.integers(-4, 4)) * res, draw(st.integers(-4, 4)) * res)
    cells = draw(arrays(np.int8, (h, w), elements=st.sampled_from([FREE, OCCUPIED])))
    placed = []  # (cell, pose)
    for _ in range(draw(st.integers(min_poses, max_poses))):
        kind = draw(st.sampled_from(["new", "repeat", "same_cell"])) if placed else "new"
        if kind == "repeat":
            placed.append(draw(st.sampled_from(placed)))
            continue
        if kind == "same_cell":
            cx, cy = draw(st.sampled_from(placed))[0]
        else:
            cx, cy = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        cells[cy, cx] = FREE
        pose = (origin[0] + (cx + draw(_frac)) * res, origin[1] + (cy + draw(_frac)) * res,
                draw(st.floats(0.0, 2 * math.pi)))
        placed.append(((cx, cy), pose))
    truth = GroundTruthMap(res, origin[0], origin[1], w, h, cells)
    return truth, [pose for _, pose in placed]


def copy_and_write(grid, scan):
    """The cells integrate_scan gives by always copying: the grid's cells
    with the scan's free cells written Free unless Occupied, then its
    occupied cells written Occupied. This index fold is the rule that
    integrate_scan states as merge_maps."""
    cells = grid.cells.copy()
    flat = cells.reshape(-1)
    free, occupied = scan_cells(scan)
    flat[free[flat[free] != OCCUPIED]] = FREE
    flat[occupied] = OCCUPIED
    return cells


_beams = st.integers(1, 48)
_max_range = st.floats(0.3, 6.0)

# Poses on a cell corner, a cell edge and a cell centre, where beams cast
# along an axis or a diagonal meet x and y cell boundaries at equal distances.
_TIE_WORLD = truth_from_rows(["......", ".#..#.", "......", "..#...", "....#."])


def tie_examples(test):
    """Add an example for each heading 0, pi/2, pi and pi/4 at 4 and 8
    beams, casting from the three tie poses of _TIE_WORLD."""
    for heading in (0.0, math.pi / 2, math.pi, math.pi / 4):
        poses = [(2.0, 2.0, heading), (3.0, 2.5, heading), (2.5, 2.5, heading)]
        for beams in (4, 8):
            test = example(world=(_TIE_WORLD, poses), beams=beams, max_range=3.0)(test)
    return test


# One wall cell, on the diagonal of the cell centred at (2.5, 2.5).
_EDGE_WORLD = truth_from_rows(["........", "........", "........", "...#....", "........"])


def edge_examples(test):
    """Add an example for each edge of the walk's stop test and compaction."""
    for poses, beams, max_range in [
        # the heading-0 beam leaves a cell at exactly max_range, 2.5
        ([(1.5, 1.5, 0.0)], 4, 2.5),
        # the heading-pi beam sees the ring beyond the map's left edge
        ([(0.5, 4.5, math.pi)], 4, 3.0),
        # the pi/4 beam stops at the wall, one of 8, so it is parked; its
        # next step grazes the wall cell's corner with a zero-length chord
        ([(2.5, 2.5, math.pi / 4)], 8, 6.0),
        # beams are parked on some steps and dropped on others
        ([(2.5, 2.5, math.pi / 4), (6.5, 1.5, 0.3)], 24, 6.0),
    ]:
        test = example(world=(_EDGE_WORLD, poses), beams=beams, max_range=max_range)(test)
    return test


class TestRaycast:
    def test_perpendicular_wall(self):
        rows = ["." * 20] * 20
        rows = [r[:15] + "#" + r[16:] for r in rows]
        truth = truth_from_rows(rows)
        scan = cast_one(truth, (14.5, 10.5, 0.0), 4, 5.0)
        assert scan_cells(scan)[1].tolist() == [15 + 10 * 20]

    def test_open_arena_all_no_hit(self, open_arena):
        free, occupied = scan_cells(cast_one(open_arena, (50.0, 50.0, 0.3), 16, 5.0))
        assert occupied.size == 0
        assert free.size > 0

    def test_single_cell_box(self):
        truth = truth_from_rows(["###", "#.#", "###"])
        free, occupied = scan_cells(cast_one(truth, (1.5, 1.5, 0.0), 8, 5.0))
        assert free.tolist() == [4]
        assert occupied.tolist() == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_embedded_pose_rejected(self, box5):
        with pytest.raises(ValueError, match="embedded"):
            cast_one(box5, (0.5, 0.5, 0.0), 8, 5.0)

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
            got = cast_one(truth, pose, 24, 3.0)
            assert np.array_equal(got.cells, cells_reference(truth, pose, 24, 3.0))

    @pytest.mark.parametrize("heading", [5e-324, 1e-310, 2.5e-309])
    def test_beam_next_to_axis_warns_nothing(self, heading):
        # The first beam's sin(heading) is subnormal. At 5e-324 and 1e-310
        # its t_dy overflows; at 2.5e-309, t_max_y + t_dy would.
        truth = truth_from_rows(["......", ".#..#.", "......", "..#..."])
        pose = (2.5, 2.5)
        want = cast_one(truth, (*pose, 0.0), 16, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cast_one(truth, (*pose, heading), 16, 4.0)
        assert_same_scan(got, want)

    @pytest.mark.parametrize("heading", [math.nan, math.inf, -math.inf])
    def test_non_finite_heading_rejected(self, box5, heading):
        with pytest.raises(ValueError, match="heading"):
            raycast(box5, [(2.5, 2.5, 0.0), (2.5, 2.5, heading)], 8, 5.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 2.5), (2.5, math.inf), (-math.inf, 2.5)])
    def test_non_finite_position_rejected(self, box5, x, y):
        # an infinite coordinate raised OverflowError from world_to_grid
        with pytest.raises(ValueError, match="finite"):
            cast_one(box5, (x, y, 0.0), 8, 5.0)

    @pytest.mark.parametrize("pose", [(10**400, 2.5, 0.0), (2.5, -10**400, 0.0),
                                      (2.5, 2.5, 10**400)])
    def test_huge_int_pose_rejected(self, box5, pose):
        # math.isfinite raised OverflowError for an int past the float range
        with pytest.raises(ValueError, match="pose"):
            raycast(box5, [(2.5, 2.5, 0.0), pose], 8, 5.0)

    @pytest.mark.parametrize("beam_count", [0, -4, 8.0, 2.5])
    def test_bad_beam_count_rejected(self, box5, beam_count):
        with pytest.raises(ValueError, match="beam_count"):
            cast_one(box5, (2.5, 2.5, 0.0), beam_count, 5.0)

    @pytest.mark.parametrize("max_range", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308])
    def test_bad_max_range_rejected(self, box5, max_range):
        with pytest.raises(ValueError, match="max_range"):
            cast_one(box5, (2.5, 2.5, 0.0), 8, max_range)

    def test_bad_arguments_rejected_without_poses(self, box5):
        with pytest.raises(ValueError, match="beam_count"):
            raycast(box5, [], 0, 5.0)
        with pytest.raises(ValueError, match="max_range"):
            raycast(box5, [], 8, math.nan)

    def test_largest_accepted_max_range_warns_nothing(self):
        truth = _EDGE_WORLD
        largest = sys.float_info.max / 5.0
        while math.isfinite(walk_bound(math.nextafter(largest, math.inf), truth.resolution)):
            largest = math.nextafter(largest, math.inf)
        while not math.isfinite(walk_bound(largest, truth.resolution)):
            largest = math.nextafter(largest, -math.inf)
        with pytest.raises(ValueError, match="max_range"):
            cast_one(truth, (2.5, 2.5, 0.0), 16, math.nextafter(largest, math.inf))
        pose = (2.5, 1.5, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cast_one(truth, pose, 16, largest)
        assert np.array_equal(got.cells, cells_reference(truth, pose, 16, largest))
        assert_same_scan(got, cast_one(truth, pose, 16, 100.0))


def assert_same_scan(got, want):
    assert got.frame == want.frame
    assert np.array_equal(got.cells, want.cells)


class TestBatchedRaycast:
    """One call casts every pose's beams in one walk; each scan must be the
    scan its pose gives alone."""

    @given(world_and_poses(), _beams, _max_range)
    @tie_examples
    def test_batch_equals_single(self, world, beams, max_range):
        truth, poses = world
        scans = raycast(truth, poses, beams, max_range)
        assert len(scans) == len(poses)
        for pose, got in zip(poses, scans):
            assert_same_scan(got, cast_one(truth, pose, beams, max_range))

    @given(world_and_poses(), _beams, _max_range)
    @tie_examples
    @edge_examples
    def test_each_scan_matches_cells_reference(self, world, beams, max_range):
        truth, poses = world
        for pose, got in zip(poses, raycast(truth, poses, beams, max_range)):
            assert np.array_equal(got.cells, cells_reference(truth, pose, beams, max_range))

    @given(world_and_poses(), _beams, _max_range)
    def test_scan_cells_invariants(self, world, beams, max_range):
        # every scan of a batched call is an OccupancyGrid in the true map's
        # frame that holds the true map's state on each cell it knows
        truth, poses = world
        for scan in raycast(truth, poses, beams, max_range):
            assert type(scan) is OccupancyGrid
            assert scan.frame == truth.frame
            seen = scan.cells != UNKNOWN
            assert np.array_equal(scan.cells[seen], truth.cells[seen])

    @given(world_and_poses(min_poses=0, max_poses=3), st.data())
    def test_bad_pose_anywhere_rejected(self, world, data):
        truth, poses = world
        walls = np.argwhere(truth.cells == OCCUPIED)
        res, w, h = truth.resolution, truth.width, truth.height
        outside = [(truth.origin_x - 0.5 * res, truth.origin_y + 0.5 * res),
                   (truth.origin_x + (w + 0.5) * res, truth.origin_y),
                   (truth.origin_x, truth.origin_y + (h + 2) * res)]
        inside = [(truth.origin_x + (cx + 0.5) * res, truth.origin_y + (cy + 0.5) * res)
                  for cy, cx in walls]
        x, y = data.draw(st.sampled_from(outside + inside))
        at = data.draw(st.integers(0, len(poses)))
        with pytest.raises(ValueError):
            raycast(truth, poses[:at] + [(x, y, 0.0)] + poses[at:], 8, 3.0)

    def test_no_poses_no_scans(self, box5):
        assert raycast(box5, [], 8, 5.0) == []


class TestIntegrate:
    def test_discovery_monotone(self, box5):
        scan = cast_one(box5, (2.5, 2.5, 0.4), 36, 5.0)
        before = box5.blank_grid()
        after = integrate_scan(before, scan)
        assert after.known_count() > before.known_count()

    def test_idempotent(self, box5):
        scan = cast_one(box5, (2.5, 2.5, 0.4), 36, 5.0)
        once = integrate_scan(box5.blank_grid(), scan)
        twice = integrate_scan(once, scan)
        assert np.array_equal(once.cells, twice.cells)
        assert twice is once

    def test_hit_cell_marked_with_free_segment(self):
        rows = ["." * 20] * 10
        rows[5] = "." * 10 + "#" + "." * 9
        truth = truth_from_rows(rows)
        scan = cast_one(truth, (2.5, 5.5, 0.0), 4, 12.0)
        g = integrate_scan(truth.blank_grid(), scan)
        assert g.cells[5, 10] == OCCUPIED
        for cx in range(3, 10):
            assert g.cells[5, cx] == FREE

    def test_never_marks_true_wall_free(self, box5):
        rng = np.random.RandomState(5)
        for _ in range(20):
            pose = (rng.uniform(1.1, 3.9), rng.uniform(1.1, 3.9),
                    rng.uniform(0, 2 * math.pi))
            scan = cast_one(box5, pose, 48, 6.0)
            g = integrate_scan(box5.blank_grid(), scan)
            bad = (g.cells == FREE) & (box5.cells == OCCUPIED)
            assert not bad.any()

    def test_occupied_never_demoted(self, box5):
        g = box5.blank_grid()
        g.cells[2, 1] = OCCUPIED  # pretend an earlier scan saw a wall here
        scan = cast_one(box5, (2.5, 2.5, 0.0), 36, 5.0)
        out = integrate_scan(g, scan)
        assert out.cells[2, 1] == OCCUPIED

    def test_no_hit_clears_to_max_range_only(self, open_arena):
        scan = cast_one(open_arena, (50.5, 50.5, 0.0), 90, 5.0)
        g = integrate_scan(open_arena.blank_grid(), scan)
        assert g.cells[50, 50] != UNKNOWN
        free_cells = np.argwhere(g.cells == FREE)
        d = np.hypot(free_cells[:, 1] + 0.5 - 50.5, free_cells[:, 0] + 0.5 - 50.5)
        assert d.max() <= 5.0 + 1.0  # within max_range plus one cell of slack

    def test_known_count_monotone_over_scan_sequence(self, box5):
        g = box5.blank_grid()
        poses = [(1.5, 1.5, 0.0), (2.5, 1.5, 0.8), (2.5, 2.5, 2.2),
                 (3.5, 3.5, 4.0), (1.5, 3.5, 5.5)]
        known = g.known_count()
        for pose in poses:
            g = integrate_scan(g, cast_one(box5, pose, 36, 5.0))
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
        # an all-Occupied grid gains nothing from any scan, so it catches a
        # no-change shortcut taken before the frame check
        scan = cast_one(box5, (2.5, 2.5, 0.0), 8, 5.0)
        for fill in (UNKNOWN, OCCUPIED):
            grid = OccupancyGrid(*frame, np.full((frame[4], frame[3]), fill, dtype=np.int8))
            with pytest.raises(ValueError, match="geometry"):
                integrate_scan(grid, scan)


class TestIntegrateProperties:
    @given(world_and_pose(), _beams, _max_range)
    def test_idempotent(self, world, beams, max_range):
        truth, pose, grid = world
        scan = cast_one(truth, pose, beams, max_range)
        once = integrate_scan(grid, scan)
        twice = integrate_scan(once, scan)
        assert np.array_equal(twice.cells, once.cells)
        assert twice is once

    @given(world_and_pose(), _beams, _max_range, st.data())
    def test_returns_input_only_when_nothing_changed(self, world, beams, max_range, data):
        truth, pose, grid = world
        scan = cast_one(truth, pose, beams, max_range)
        proved = np.flatnonzero(scan.cells != UNKNOWN).tolist()
        if proved and data.draw(st.booleans()):
            # the scan already folded in, with up to two of the cells it
            # proves redrawn as Unknown or Free
            cells = copy_and_write(grid, scan)
            flat = cells.reshape(-1)
            for cell in data.draw(st.lists(st.sampled_from(proved), max_size=2)):
                flat[cell] = data.draw(st.sampled_from([UNKNOWN, FREE]))
            grid = OccupancyGrid(*grid.frame, cells)
        before = grid.cells.copy()
        want = copy_and_write(grid, scan)
        got = integrate_scan(grid, scan)
        assert np.array_equal(got.cells, want)
        assert (got is grid) == np.array_equal(want, before)
        assert np.array_equal(grid.cells, before)

    @given(world_and_pose(), _beams, _max_range)
    def test_never_demotes_occupied(self, world, beams, max_range):
        truth, pose, grid = world
        out = integrate_scan(grid, cast_one(truth, pose, beams, max_range))
        assert np.all(out.cells[grid.cells == OCCUPIED] == OCCUPIED)

    @given(world_and_pose(), _beams, _max_range)
    def test_matches_cells_reference(self, world, beams, max_range):
        # the reference cells folded in one at a time: free unless the grid
        # has them Occupied, then occupied
        truth, pose, grid = world
        ref = cells_reference(truth, pose, beams, max_range).reshape(-1)
        free, occupied = np.flatnonzero(ref == FREE), np.flatnonzero(ref == OCCUPIED)
        want = grid.cells.copy().reshape(-1)
        for cell in free.tolist():
            if want[cell] != OCCUPIED:
                want[cell] = FREE
        want[occupied] = OCCUPIED
        got = integrate_scan(grid, cast_one(truth, pose, beams, max_range))
        assert np.array_equal(got.cells.reshape(-1), want)


    @given(world_and_poses(), _beams, _max_range, st.data())
    def test_fold_in_any_order_equals_merge(self, world, beams, max_range, data):
        # the scans of one call folded into a blank grid, in a drawn order,
        # give merge_maps of those scans; no scan is written or returned
        truth, poses = world
        scans = raycast(truth, poses, beams, max_range)
        before = [scan.cells.copy() for scan in scans]
        g = truth.blank_grid()
        for scan in data.draw(st.permutations(scans)):
            g = integrate_scan(g, scan)
            assert all(g is not s for s in scans)
        assert np.array_equal(g.cells, merge_maps(scans).cells)
        for scan, cells in zip(scans, before):
            assert np.array_equal(scan.cells, cells)


class TestMergedCoverageProperties:
    @given(world_and_poses(max_poses=9), _beams, _max_range, st.data())
    def test_merged_coverage_monotone(self, world, beams, max_range, data):
        # the poses, in order, are the robots' poses over the ticks
        truth, poses = world
        robots = data.draw(st.integers(1, min(3, len(poses))))
        grids = [truth.blank_grid() for _ in range(robots)]
        merged = merge_maps(grids)
        coverage = coverage_percent(merged, truth)
        for tick in range(0, len(poses) - robots + 1, robots):
            scans = raycast(truth, poses[tick:tick + robots], beams, max_range)
            grids = [integrate_scan(g, scan) for g, scan in zip(grids, scans)]
            now = merge_maps(grids)
            assert coverage_percent(now, truth) >= coverage
            assert not np.any((merged.cells == OCCUPIED) & (now.cells == FREE))
            merged, coverage = now, coverage_percent(now, truth)
