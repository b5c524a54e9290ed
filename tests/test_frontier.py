import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrexplore import frontier
from mrexplore.frontier import (
    FilterParams,
    detect_frontiers,
    disc_unknown_stats,
    filter_pipeline,
    merge_points,
)
from mrexplore.grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    OccupancyGrid,
    grid_to_world,
    world_to_grid,
)

from conftest import grid_from_rows


class TestFilterParams:
    @pytest.mark.parametrize("name", ["rad", "per_unk", "min_pts", "max_pts",
                                      "rad_step", "perc_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="int_too_large_for_float")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            FilterParams(**{name: value})

    @pytest.mark.parametrize("kw", [
        dict(perc_step=1e-300),
        dict(per_unk=0.0, rad_step=1e-300),
        dict(rad=1e20, rad_step=1.0),
    ], ids=["perc_step", "rad_step", "rad_step_at_large_rad"])
    def test_step_absorbed_by_float_rejected(self, kw):
        with pytest.raises(ValueError, match="too small"):
            FilterParams(**kw)

    def test_tiny_perc_step_at_zero_percent_accepted(self):
        # a percentage of 0 is never lowered, so its step is never taken
        assert FilterParams(per_unk=0.0, perc_step=1e-300).perc_step == 1e-300


class TestDetect:
    def test_fully_known_empty(self):
        g = grid_from_rows(["...", ".#."])
        assert detect_frontiers(g) == []

    def test_fully_unknown_empty(self):
        g = grid_from_rows(["???", "???"])
        assert detect_frontiers(g) == []

    def test_vertical_split_single_cluster(self):
        g = grid_from_rows(["..??"] * 6)
        pts = detect_frontiers(g)
        assert len(pts) == 1
        cx, cy = world_to_grid(pts[0][0], pts[0][1], g)
        assert cx == 1  # boundary column of the free side

    def test_two_separated_gaps(self):
        # free region touches unknown only through two 1-cell gaps
        g = grid_from_rows([
            ".....",
            "#####",
            "?????",
        ])
        g.cells[1, 1] = FREE
        g.cells[1, 3] = FREE
        pts = detect_frontiers(g)
        assert len(pts) == 2

    def test_deterministic_order(self):
        g = grid_from_rows([
            ".?.",
            "...",
            ".?.",
        ])
        a = detect_frontiers(g)
        b = detect_frontiers(g)
        assert a == b

    def test_centroid_snaps_to_member(self):
        g = grid_from_rows([
            "..?",
            "..?",
            "..?",
        ])
        pts = detect_frontiers(g)
        assert len(pts) == 1
        cx, cy = world_to_grid(pts[0][0], pts[0][1], g)
        assert (cx, cy) == (1, 1)  # middle of the boundary column


def is_near_border(point, grid, rad, per_unk):
    """The near-border test on one point, through merge_points."""
    return merge_points([[point]], grid, FilterParams(rad=rad, per_unk=per_unk)) == [point]


class TestNearBorder:
    def test_all_unknown_disc(self):
        g = grid_from_rows(["???" * 3] * 9)
        assert is_near_border((4.5, 4.5), g, 2.0, 60.0)

    def test_all_free_disc(self):
        g = grid_from_rows(["." * 9] * 9)
        assert not is_near_border((4.5, 4.5), g, 2.0, 60.0)

    def test_disc_21_cells_13_unknown(self):
        # disc of radius 2.25 cells has 21 members (5x5 square minus corners);
        # 13 unknown of 21 -> 61.9% >= 60
        g = grid_from_rows(["." * 21] * 21)
        offsets = sorted(
            (i, j) for i in range(-2, 3) for j in range(-2, 3)
            if i * i + j * j <= 2.25 * 2.25
        )
        assert len(offsets) == 21
        unk, total = disc_unknown_stats([(10.5, 10.5)], g, 2.25)
        assert (unk.tolist(), total.tolist()) == ([0], [21])
        for i, j in offsets[:13]:
            g.cells[10 + j, 10 + i] = UNKNOWN
        assert is_near_border((10.5, 10.5), g, 2.25, 60.0)
        assert not is_near_border((10.5, 10.5), g, 2.25, 62.0)

    def test_point_outside_map_is_false(self):
        g = grid_from_rows(["??", "??"])
        assert not is_near_border((50.0, 50.0), g, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e300,
                                       pytest.param(10**400, id="int_too_large_for_float")])
    def test_bad_coordinate_rejected(self, value):
        # NaN and inf raised "cannot convert float ... to integer", the rest
        # OverflowError, from the cell conversion
        g = grid_from_rows(["...", ".?."])
        with pytest.raises(ValueError, match="points"):
            disc_unknown_stats([(1.0, 1.0), (value, 1.0)], g, 1.0)
        with pytest.raises(ValueError, match="lists"):
            filter_pipeline([[(1.0, 1.0)], [(1.0, value)]], g, FilterParams())
        with pytest.raises(ValueError, match="lists"):
            merge_points([[(value, value)]], g, FilterParams())

    def test_monotone_in_threshold(self):
        rng = np.random.RandomState(2)
        g = OccupancyGrid(1.0, 0, 0, 15, 15,
                          rng.choice([UNKNOWN, FREE], size=(15, 15)).astype(np.int8))
        p = (7.5, 7.5)
        for t in range(0, 101, 10):
            if is_near_border(p, g, 3.0, float(t)):
                for lower in range(0, t, 10):
                    assert is_near_border(p, g, 3.0, float(lower))


class TestDiscClamp:
    """A disc larger than the map is clamped near the map's reach from its
    centres, and counts what the unclamped disc counts: every map cell."""

    @pytest.mark.parametrize("cells", [
        [], [(4, 2)], [(0, 0), (8, 5)], [(-3, 2)], [(20, -7), (1, 1)],
    ], ids=["none", "one", "corners", "off_map", "off_map_and_on"])
    def test_huge_radius_counts_every_map_cell(self, cells):
        rng = np.random.RandomState(4)
        w, h = 9, 6
        g = OccupancyGrid(1.0, 0.0, 0.0, w, h,
                          rng.choice([UNKNOWN, FREE, OCCUPIED], size=(h, w)).astype(np.int8))
        radii, disc_offsets = [], frontier._disc_offsets

        def recorded(rad_cells):
            radii.append(rad_cells)
            return disc_offsets(rad_cells)

        with mock.patch.object(frontier, "_disc_offsets", recorded):
            unk, total = disc_unknown_stats([(x + 0.5, y + 0.5) for x, y in cells],
                                            g, 10000.0)
        assert total.tolist() == [w * h] * len(cells)
        assert unk.tolist() == [int((g.cells == UNKNOWN).sum())] * len(cells)
        off_x = max([0] + [max(-x, x - (w - 1)) for x, _ in cells])
        off_y = max([0] + [max(-y, y - (h - 1)) for _, y in cells])
        assert radii and max(radii) <= math.hypot(w - 1 + off_x, h - 1 + off_y) + 1.0


class TestMergePoints:
    def params(self, **kw):
        defaults = dict(rad=1.0, per_unk=60.0, min_pts=0, max_pts=10)
        defaults.update(kw)
        return FilterParams(**defaults)

    def test_duplicate_collapsed(self):
        g = grid_from_rows(["??", "??"])
        p = (0.5, 0.5)
        out = merge_points([[p], [(0.6, 0.6)]], g, self.params())
        assert len(out) == 1
        assert out[0] is p  # first seen wins

    def test_interior_discarded_border_kept(self):
        g = grid_from_rows([
            "??????",
            "??????",
            "......",
            "......",
            "......",
            "......",
        ])
        border = (3.5, 2.5)    # just below the unknown band: 4 of 13 disc
        interior = (3.5, 5.0)  # cells unknown (30.8%); interior disc is 0%
        out = merge_points([[border, interior]], g, self.params(rad=2.0, per_unk=30.0))
        assert out == [border]

    def test_empty(self):
        g = grid_from_rows(["??"])
        assert merge_points([[], []], g, self.params()) == []


def pocket_grid(pocket_cells, size=(60, 120), res=0.25):
    """Free map scattered with square unknown pockets; returns (grid, centers)."""
    h, w = size
    cells = np.full((h, w), FREE, dtype=np.int8)
    centers = []
    for (cy, cx, half) in pocket_cells:
        cells[cy - half:cy + half + 1, cx - half:cx + half + 1] = UNKNOWN
        centers.append(((cx + 0.5) * res, (cy + 0.5) * res))
    g = OccupancyGrid(res, 0.0, 0.0, w, h, cells)
    return g, centers


class TestEnforceBounds:
    def test_already_in_bounds_untouched(self):
        g = grid_from_rows(["??" * 5] * 10)
        params = FilterParams(rad=1.0, per_unk=60.0, min_pts=0, max_pts=10)
        pts = [(x + 0.5, 0.5) for x in range(5)]
        out = filter_pipeline([pts], g, params)
        assert out.points == pts
        assert out.final_rad == 1.0
        assert out.final_perc == 60.0
        assert out.iterations == 0

    def test_too_large_one_radius_bump(self):
        # 10 small pockets pass only at rad 1.0; 5 big ones survive rad 1.25.
        small = [(10 + 12 * k, 10, 3) for k in range(4)]
        small += [(10 + 12 * k, 40, 3) for k in range(4)]
        small += [(10, 70, 3), (22, 70, 3)]
        big = [(10 + 14 * k, 100, 5) for k in range(3)]
        big += [(10, 85, 5), (34, 85, 5)]
        g, centers = pocket_grid(small + big)
        params = FilterParams(rad=1.0, per_unk=70.0, min_pts=0, max_pts=10,
                              rad_step=0.25, perc_step=10.0)
        uni = merge_points([centers], g, params)
        assert len(uni) == 15  # all pockets pass at rad 1.0
        out = filter_pipeline([centers], g, params)
        assert out.final_rad == pytest.approx(1.25)
        assert out.iterations == 1
        assert not out.exhausted
        assert 0 < len(out.points) < 10

    def test_too_small_percentage_relaxation(self):
        # all candidate discs are ~42.9% unknown: fails 60 and 50, passes 40
        g = grid_from_rows(["." * 20] * 20)
        offsets = sorted(
            (i, j) for i in range(-2, 3) for j in range(-2, 3)
            if i * i + j * j <= 2.25 * 2.25
        )
        for (i, j) in offsets[:9]:
            g.cells[10 + j, 5 + i] = UNKNOWN
            g.cells[10 + j, 14 + i] = UNKNOWN
        raw = [(5.5, 10.5), (14.5, 10.5), (5.6, 10.5)]
        params = FilterParams(rad=2.25, per_unk=60.0, min_pts=1, max_pts=10,
                              perc_step=10.0)
        uni = merge_points([raw], g, params)
        assert uni == []
        out = filter_pipeline([raw], g, params)
        assert out.final_perc == pytest.approx(40.0)
        assert out.iterations == 2
        assert len(out.points) == 2  # dedup collapses the near-duplicate

    def test_fuzz_terminates_within_bound(self):
        rng = np.random.RandomState(42)
        for trial in range(300):
            w, h = rng.randint(6, 26, size=2)
            cells = rng.choice(
                [UNKNOWN, FREE, OCCUPIED], size=(h, w), p=[0.4, 0.5, 0.1]
            ).astype(np.int8)
            g = OccupancyGrid(1.0, 0.0, 0.0, int(w), int(h), cells)
            n_pts = rng.randint(0, 30)
            raw = [
                (rng.uniform(-1, w + 1.0), rng.uniform(-1, h + 1.0))
                for _ in range(n_pts)
            ]
            min_pts = rng.randint(0, 4)
            params = FilterParams(
                rad=float(rng.choice([0.5, 1.0, 2.0])),
                per_unk=float(rng.choice([20.0, 60.0, 90.0])),
                min_pts=min_pts,
                max_pts=min_pts + rng.randint(1, 8),
                rad_step=0.25,
                perc_step=10.0,
            )
            out = filter_pipeline([raw], g, params)
            bound = (
                math.ceil(params.per_unk / params.perc_step)
                + math.ceil(math.hypot(w, h) / params.rad_step)
                + 2
            )
            assert out.iterations <= bound, trial
            in_bounds = params.min_pts < len(out.points) < params.max_pts
            assert in_bounds or out.exhausted, trial


class TestPipelineInvariants:
    def test_larger_radius_shrinks_set_when_annulus_known(self):
        # pockets of unknown surrounded by known space: growing the disc only
        # dilutes the unknown percentage, so the accepted set can only shrink
        g, centers = pocket_grid([(10, 10, 2), (10, 30, 3), (10, 52, 4),
                                  (30, 10, 2), (30, 30, 5), (30, 52, 3)],
                                 size=(44, 66), res=0.25)
        params = FilterParams(rad=0.5, per_unk=50.0, min_pts=0, max_pts=20)
        accepted = merge_points([centers], g, params)
        rad = 0.5
        while rad < 3.0:
            rad += params.rad_step
            smaller = merge_points([accepted], g, replace(params, rad=rad))
            by_cell = lambda pts: {world_to_grid(p[0], p[1], g) for p in pts}
            assert by_cell(smaller) <= by_cell(accepted)
            accepted = smaller

    def test_output_subset_of_input_cells(self):
        rng = np.random.RandomState(9)
        g = OccupancyGrid(1.0, 0, 0, 20, 20,
                          rng.choice([UNKNOWN, FREE], size=(20, 20)).astype(np.int8))
        raw = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(25)]
        params = FilterParams(rad=2.0, per_unk=50.0, min_pts=0, max_pts=12)
        out = merge_points([raw], g, params)
        raw_cells = {world_to_grid(p[0], p[1], g) for p in raw}
        out_cells = [world_to_grid(p[0], p[1], g) for p in out]
        assert len(set(out_cells)) == len(out_cells)  # duplicate-free
        assert set(out_cells) <= raw_cells


def flood_fill_frontiers(grid):
    """Reference: the per-cell flood fill that detect_frontiers replaced.
    Seeds in row-major order, one cluster per unvisited seed, each cluster's
    point at the member with the least (d^2 to the centroid, row, col)."""
    cells = grid.cells
    free = cells == FREE
    unknown = cells == UNKNOWN
    if not free.any() or not unknown.any():
        return []
    near_unknown = np.zeros_like(unknown)
    near_unknown[1:, :] |= unknown[:-1, :]
    near_unknown[:-1, :] |= unknown[1:, :]
    near_unknown[:, 1:] |= unknown[:, :-1]
    near_unknown[:, :-1] |= unknown[:, 1:]
    remaining = free & near_unknown
    points = []
    for row, col in np.argwhere(remaining).tolist():
        if not remaining[row, col]:
            continue
        stack = [(row, col)]
        remaining[row, col] = False
        members = []
        while stack:
            r, c = stack.pop()
            members.append((r, c))
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if (0 <= rr < grid.height and 0 <= cc < grid.width
                            and remaining[rr, cc]):
                        remaining[rr, cc] = False
                        stack.append((rr, cc))
        mr = sum(m[0] for m in members) / len(members)
        mc = sum(m[1] for m in members) / len(members)
        best = min(members, key=lambda m: ((m[0] - mr) ** 2 + (m[1] - mc) ** 2, m))
        points.append(grid_to_world(best[1], best[0], grid))
    return points


@st.composite
def frontier_grid(draw):
    """A grid with a random frame: uniformly random states; a Free/Unknown
    checkerboard (every Free cell is a frontier, clusters joined only
    diagonally); or mostly Unknown with sparse Free cells (single-cell
    clusters, many on the map edge)."""
    w, h = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    res = draw(st.sampled_from([0.05, 0.1, 0.3, 1.0]))
    origin = draw(st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
    kind = draw(st.sampled_from(["random", "checker", "sparse"]))
    if kind == "checker":
        rows, cols = np.indices((h, w))
        cells = np.where((rows + cols) % 2 == 0, FREE, UNKNOWN).astype(np.int8)
    else:
        states = ([UNKNOWN, FREE, OCCUPIED] if kind == "random"
                  else [UNKNOWN] * 5 + [FREE, OCCUPIED])
        cells = draw(arrays(np.int8, (h, w), elements=st.sampled_from(states)))
    return OccupancyGrid(res, origin[0], origin[1], w, h, cells)


class TestDetectMatchesFloodFill:
    @settings(max_examples=300)
    @given(frontier_grid())
    @example(grid_from_rows(["?.?", ".?.", "?.?"]))  # diagonal-only joins
    @example(grid_from_rows([".??", "???", "??."]))  # single cells on corners
    @example(grid_from_rows(["..", ".."]))  # no Unknown: no frontier
    @example(grid_from_rows([".?" * 4] * 3))  # clusters along the edges
    def test_same_points_as_flood_fill(self, grid):
        got = detect_frontiers(grid)
        assert got == flood_fill_frontiers(grid)
        assert all(type(p[0]) is float and type(p[1]) is float for p in got)


def reference_disc_stats(point, grid, rad):
    """Per-point (unknown, in-bounds) disc counts, one cell at a time."""
    cx, cy = world_to_grid(point[0], point[1], grid)
    rad_cells = rad / grid.resolution
    r = math.floor(rad_cells)
    unk = total = 0
    for y in range(max(cy - r, 0), min(cy + r + 1, grid.height)):
        for x in range(max(cx - r, 0), min(cx + r + 1, grid.width)):
            if (x - cx) ** 2 + (y - cy) ** 2 <= rad_cells * rad_cells:
                total += 1
                unk += int(grid.cells[y, x] == UNKNOWN)
    return unk, total


def reference_merge(lists, grid, rad, per_unk):
    """Per-point near-border test and first-seen dedup by merged-map cell."""
    out, seen = [], set()
    for p in (p for agent_list in lists for p in agent_list):
        unk, total = reference_disc_stats(p, grid, rad)
        if total == 0 or not 100.0 * unk / total >= per_unk:
            continue
        cell = world_to_grid(p[0], p[1], grid)
        if cell not in seen:
            seen.add(cell)
            out.append(p)
    return out


def reference_pipeline(lists, grid, params):
    """The filter pipeline with every step done per point, as before the
    batched counts. Returns (points, rad, perc, exhausted, iterations,
    steps), steps holding 'perc' or 'rad' per relaxation."""
    raw = [p for agent_list in lists for p in agent_list]
    pts = reference_merge(lists, grid, params.rad, params.per_unk)
    rad, perc, steps = params.rad, params.per_unk, []
    max_rad = math.hypot(grid.width, grid.height) * grid.resolution
    exhausted = False
    while len(pts) <= params.min_pts or len(pts) >= params.max_pts:
        if len(pts) <= params.min_pts:
            if perc <= 0.0:
                exhausted = True
                break
            perc = max(0.0, perc - params.perc_step)
            pts = reference_merge([raw], grid, params.rad, perc)
            steps.append("perc")
        else:
            if rad >= max_rad:
                exhausted = True
                break
            rad = min(max_rad, rad + params.rad_step)
            pts = reference_merge([pts], grid, rad, params.per_unk)
            steps.append("rad")
    return pts, rad, perc, exhausted, len(steps), steps


@st.composite
def filter_case(draw):
    """A random grid, 1-3 agent lists of points (some sharing a cell, some
    off the map, some with a disc wholly outside it) and random filter
    parameters, per_unk = 0.0 among them."""
    w, h = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    res = draw(st.sampled_from([0.5, 1.0]))
    cells = draw(arrays(np.int8, (h, w),
                        elements=st.sampled_from([UNKNOWN, FREE, OCCUPIED])))
    grid = OccupancyGrid(res, 0.0, 0.0, w, h, cells)
    margin = 4.0
    coord = st.tuples(st.floats(-margin, w * res + margin),
                      st.floats(-margin, h * res + margin))
    xy = draw(st.lists(coord, max_size=12))
    xy += draw(st.lists(st.sampled_from(xy), max_size=4)) if xy else []
    lists = [[] for _ in range(draw(st.integers(1, 3)))]
    for x, y in xy:
        lists[draw(st.integers(0, len(lists) - 1))].append((x, y))
    min_pts = draw(st.integers(0, 3))
    params = FilterParams(
        rad=draw(st.sampled_from([0.5, 1.0, 1.5])),
        per_unk=draw(st.sampled_from([0.0, 30.0, 60.0, 100.0])),
        min_pts=min_pts,
        max_pts=min_pts + draw(st.integers(1, 5)),
        rad_step=draw(st.sampled_from([0.5, 1.0, 2.5])),
        perc_step=draw(st.sampled_from([10.0, 25.0, 40.0])),
    )
    return grid, lists, params


def both_directions_case():
    """Nothing passes 60%; at 50% four points do, which is max_pts, and a
    radius step then retests them at 60%."""
    grid = grid_from_rows(["??....", "??....", "......", "......",
                           "....??", "....??"])
    pts = [(x + 0.5, y + 0.5)
           for x, y in [(2, 0), (2, 1), (3, 4), (3, 5), (2, 3)]]
    params = FilterParams(rad=1.0, per_unk=60.0, min_pts=0, max_pts=4,
                          rad_step=0.5, perc_step=10.0)
    return grid, [pts], params


def same_objects(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


class TestFilterMatchesPerPointReference:
    @settings(max_examples=300)
    @given(filter_case())
    @example(both_directions_case())
    def test_pipeline_same_outcome(self, case):
        grid, lists, params = case
        out = filter_pipeline(lists, grid, params)
        pts, rad, perc, exhausted, iterations, _ = reference_pipeline(lists, grid, params)
        assert same_objects(out.points, pts)
        assert (out.final_rad, out.final_perc, out.exhausted, out.iterations) == (
            rad, perc, exhausted, iterations)

    @settings(max_examples=300)
    @given(filter_case(),
           st.sampled_from([{}, dict(rad=0.5), dict(rad=2.0), dict(rad=40.0)]),
           st.sampled_from([{}, dict(per_unk=0.0), dict(per_unk=50.0)]))
    def test_merge_points_same_points(self, case, rad, per_unk):
        grid, lists, params = case
        params = replace(params, **rad, **per_unk)
        want = reference_merge(lists, grid, params.rad, params.per_unk)
        assert same_objects(merge_points(lists, grid, params), want)
        # the same gather split into chunks of a few points each
        with mock.patch.object(frontier, "_GATHER_CELLS", 8):
            chunked = merge_points(lists, grid, params)
        assert same_objects(chunked, want)

    def test_both_directions_case_takes_both_steps(self):
        grid, lists, params = both_directions_case()
        steps = reference_pipeline(lists, grid, params)[-1]
        assert "perc" in steps and "rad" in steps

@settings(max_examples=100)
@given(frontier_grid(), st.sampled_from([0.05, 0.5, 3.0]))
def test_detected_points_pass_zero_percent(grid, rad):
    # A detected point is the centre of an in-bounds cell, so its disc is
    # never wholly off the map, and a 0% near-border test keeps it; the
    # detected points lie in distinct cells, so the merge at 0% keeps the
    # first list whole and drops the second, whose points are its copies.
    lists = [detect_frontiers(grid), detect_frontiers(grid)]
    at_zero = merge_points(lists, grid, FilterParams(rad=rad, per_unk=0.0))
    assert same_objects(at_zero, lists[0])
