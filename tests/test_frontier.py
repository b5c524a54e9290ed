import math

import numpy as np
import pytest

from mrexplore.frontier import (
    FilterParams,
    FrontierPoint,
    detect_frontiers,
    disc_unknown_stats,
    enforce_list_bounds,
    is_near_border,
    merge_points,
)
from mrexplore.grid import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, world_to_grid

from conftest import grid_from_rows


def pt(x, y, agent=0):
    return FrontierPoint(x, y, agent)


class TestFilterParams:
    @pytest.mark.parametrize("name", ["rad", "per_unk", "min_pts", "max_pts",
                                      "rad_step", "perc_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
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
        pts = detect_frontiers(g, source_agent=3)
        assert len(pts) == 1
        assert pts[0].source_agent == 3
        cx, cy = world_to_grid(pts[0].x, pts[0].y, g)
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
        assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]

    def test_centroid_snaps_to_member(self):
        g = grid_from_rows([
            "..?",
            "..?",
            "..?",
        ])
        pts = detect_frontiers(g)
        assert len(pts) == 1
        cx, cy = world_to_grid(pts[0].x, pts[0].y, g)
        assert (cx, cy) == (1, 1)  # middle of the boundary column


class TestNearBorder:
    def test_all_unknown_disc(self):
        g = grid_from_rows(["???" * 3] * 9)
        assert is_near_border(pt(4.5, 4.5), g, 2.0, 60.0)

    def test_all_free_disc(self):
        g = grid_from_rows(["." * 9] * 9)
        assert not is_near_border(pt(4.5, 4.5), g, 2.0, 60.0)

    def test_disc_21_cells_13_unknown(self):
        # disc of radius 2.25 cells has 21 members (5x5 square minus corners);
        # 13 unknown of 21 -> 61.9% >= 60
        g = grid_from_rows(["." * 21] * 21)
        offsets = sorted(
            (i, j) for i in range(-2, 3) for j in range(-2, 3)
            if i * i + j * j <= 2.25 * 2.25
        )
        assert len(offsets) == 21
        unk, total = disc_unknown_stats(pt(10.5, 10.5), g, 2.25)
        assert (unk, total) == (0, 21)
        for i, j in offsets[:13]:
            g.cells[10 + j, 10 + i] = UNKNOWN
        assert is_near_border(pt(10.5, 10.5), g, 2.25, 60.0)
        assert not is_near_border(pt(10.5, 10.5), g, 2.25, 62.0)

    def test_point_outside_map_is_false(self):
        g = grid_from_rows(["??", "??"])
        assert not is_near_border(pt(50.0, 50.0), g, 1.0, 0.0)

    def test_monotone_in_threshold(self):
        rng = np.random.RandomState(2)
        g = OccupancyGrid(1.0, 0, 0, 15, 15,
                          rng.choice([UNKNOWN, FREE], size=(15, 15)).astype(np.int8))
        p = pt(7.5, 7.5)
        for t in range(0, 101, 10):
            if is_near_border(p, g, 3.0, float(t)):
                for lower in range(0, t, 10):
                    assert is_near_border(p, g, 3.0, float(lower))


class TestMergePoints:
    def params(self, **kw):
        defaults = dict(rad=1.0, per_unk=60.0, min_pts=0, max_pts=10)
        defaults.update(kw)
        return FilterParams(**defaults)

    def test_duplicate_collapsed(self):
        g = grid_from_rows(["??", "??"])
        p = pt(0.5, 0.5)
        out = merge_points([[p], [pt(0.6, 0.6, 1)]], g, self.params())
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
        border = pt(3.5, 2.5)    # just below the unknown band: 4 of 13 disc
        interior = pt(3.5, 5.0)  # cells unknown (30.8%); interior disc is 0%
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
        centers.append(FrontierPoint((cx + 0.5) * res, (cy + 0.5) * res))
    g = OccupancyGrid(res, 0.0, 0.0, w, h, cells)
    return g, centers


class TestEnforceBounds:
    def test_already_in_bounds_untouched(self):
        g = grid_from_rows(["??" * 5] * 10)
        params = FilterParams(rad=1.0, per_unk=60.0, min_pts=0, max_pts=10)
        pts = [pt(x + 0.5, 0.5) for x in range(5)]
        out = enforce_list_bounds(pts, pts, g, params)
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
        out = enforce_list_bounds(uni, centers, g, params)
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
        raw = [pt(5.5, 10.5), pt(14.5, 10.5), pt(5.6, 10.5)]
        params = FilterParams(rad=2.25, per_unk=60.0, min_pts=1, max_pts=10,
                              perc_step=10.0)
        uni = merge_points([raw], g, params)
        assert uni == []
        out = enforce_list_bounds(uni, raw, g, params)
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
                pt(rng.uniform(-1, w + 1.0), rng.uniform(-1, h + 1.0))
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
            uni = merge_points([raw], g, params)
            out = enforce_list_bounds(uni, raw, g, params)
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
            smaller = merge_points([accepted], g, params, rad=rad)
            by_cell = lambda pts: {world_to_grid(p.x, p.y, g) for p in pts}
            assert by_cell(smaller) <= by_cell(accepted)
            accepted = smaller

    def test_output_subset_of_input_cells(self):
        rng = np.random.RandomState(9)
        g = OccupancyGrid(1.0, 0, 0, 20, 20,
                          rng.choice([UNKNOWN, FREE], size=(20, 20)).astype(np.int8))
        raw = [pt(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(25)]
        params = FilterParams(rad=2.0, per_unk=50.0, min_pts=0, max_pts=12)
        out = merge_points([raw], g, params)
        raw_cells = {world_to_grid(p.x, p.y, g) for p in raw}
        out_cells = [world_to_grid(p.x, p.y, g) for p in out]
        assert len(set(out_cells)) == len(out_cells)  # duplicate-free
        assert set(out_cells) <= raw_cells
