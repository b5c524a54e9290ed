import math

import numpy as np
import pytest

from mrexplore.grid import FREE, OCCUPIED, OccupancyGrid
from mrexplore.planner import (
    NoPathError,
    cumulative_lengths,
    plan,
    plan_many,
    pose_at,
    project_arclength,
)

from conftest import grid_from_rows

SQRT2 = math.sqrt(2.0)


def shortest_cost_oracle(grid, start_cell, goal_cell):
    """Label-correcting relaxation to a fixed point; independent of the
    production Dijkstra. Same cost model: axis = res, diagonal = sqrt2 * res,
    Occupied blocks, corner cutting forbidden. Returns math.inf when
    unreachable."""
    w, h = grid.width, grid.height
    res = grid.resolution
    occ = grid.cells == OCCUPIED
    dist = np.full((h, w), np.inf)
    sx, sy = start_cell
    if occ[sy, sx]:
        return math.inf
    dist[sy, sx] = 0.0
    moves = [(1, 0, res), (-1, 0, res), (0, 1, res), (0, -1, res),
             (1, 1, SQRT2 * res), (1, -1, SQRT2 * res),
             (-1, 1, SQRT2 * res), (-1, -1, SQRT2 * res)]
    changed = True
    while changed:
        changed = False
        for cy in range(h):
            for cx in range(w):
                d = dist[cy, cx]
                if not math.isfinite(d):
                    continue
                for dx, dy, cost in moves:
                    nx, ny = cx + dx, cy + dy
                    if not (0 <= nx < w and 0 <= ny < h) or occ[ny, nx]:
                        continue
                    if dx and dy and (occ[cy, nx] or occ[ny, cx]):
                        continue
                    nd = d + cost
                    if nd < dist[ny, nx] - 1e-12:
                        dist[ny, nx] = nd
                        changed = True
    gx, gy = goal_cell
    return float(dist[gy, gx])


class TestPlan:
    def test_straight_corridor(self):
        g = grid_from_rows(["." * 10])
        path = plan(g, (0.5, 0.5), (9.5, 0.5))
        assert path.length_m == pytest.approx(9.0)
        assert len(path.cells) == 10

    def test_sealed_goal(self):
        g = grid_from_rows([
            ".....",
            ".###.",
            ".#.#.",
            ".###.",
            ".....",
        ])
        with pytest.raises(NoPathError):
            plan(g, (0.5, 0.5), (2.5, 2.5))

    def test_goal_in_obstacle(self):
        g = grid_from_rows(["..#"])
        with pytest.raises(NoPathError):
            plan(g, (0.5, 0.5), (2.5, 0.5))

    def test_unknown_is_traversable(self):
        g = grid_from_rows([".??."])
        path = plan(g, (0.5, 0.5), (3.5, 0.5))
        assert path.length_m == pytest.approx(3.0)

    def test_no_corner_cutting(self):
        g = grid_from_rows([
            ".#",
            "#.",
        ])
        with pytest.raises(NoPathError):
            plan(g, (0.5, 0.5), (1.5, 1.5))

    def test_path_avoids_occupied(self):
        rng = np.random.RandomState(4)
        for _ in range(40):
            cells = (rng.random((7, 7)) < 0.25).astype(np.int8)
            cells[0, 0] = FREE
            g = OccupancyGrid(1.0, 0, 0, 7, 7, cells)
            try:
                path = plan(g, (0.5, 0.5), (6.5, 6.5))
            except NoPathError:
                continue
            for cx, cy in path.cells:
                assert g.cells[cy, cx] != OCCUPIED

    def test_cost_matches_oracle_on_random_grids(self):
        rng = np.random.RandomState(2024)
        checked = 0
        for _ in range(200):
            w, h = rng.randint(3, 9, size=2)
            cells = (rng.random((h, w)) < 0.3).astype(np.int8)
            cells[0, 0] = FREE
            gx, gy = int(rng.randint(0, w)), int(rng.randint(0, h))
            g = OccupancyGrid(1.0, 0.0, 0.0, int(w), int(h), cells)
            want = shortest_cost_oracle(g, (0, 0), (gx, gy))
            try:
                got = plan(g, (0.5, 0.5), (gx + 0.5, gy + 0.5)).length_m
            except NoPathError:
                got = math.inf
            if math.isfinite(want):
                assert got == pytest.approx(want, abs=1e-9)
                checked += 1
            else:
                assert got == math.inf
        assert checked > 60  # most random grids must actually be solvable

    def test_deterministic(self):
        g = grid_from_rows(["." * 6] * 6)
        a = plan(g, (0.5, 0.5), (5.5, 4.5))
        b = plan(g, (0.5, 0.5), (5.5, 4.5))
        assert a.cells == b.cells


class TestPlanMany:
    def test_matches_individual_plans(self):
        rng = np.random.RandomState(8)
        for _ in range(20):
            cells = (rng.random((10, 10)) < 0.2).astype(np.int8)
            cells[5, 5] = FREE
            g = OccupancyGrid(0.5, 0.0, 0.0, 10, 10, cells)
            start = (2.75, 2.75)
            goals = [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(6)]
            batch = plan_many(g, start, goals)
            for goal, got in zip(goals, batch):
                try:
                    want = plan(g, start, goal)
                except NoPathError:
                    want = None
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got.cells == want.cells

    def test_unreachable_marked_none(self):
        g = grid_from_rows([
            "...#?",
            "...#?",
            "...##",
        ])
        batch = plan_many(g, (0.5, 0.5), [(2.5, 2.5), (4.5, 0.5)])
        assert batch[0] is not None
        assert batch[1] is None


def step_along(path, pose, speed, dt):
    """One motion step as the simulator takes it: project the pose onto the
    path, then go speed * dt further along it."""
    return pose_at(path, project_arclength(path, pose) + speed * dt, pose[2])


class TestStepAlong:
    def straight_path(self, n=10):
        g = grid_from_rows(["." * n])
        return plan(g, (0.5, 0.5), (n - 0.5, 0.5))

    def test_advances_speed_dt(self):
        path = self.straight_path()
        pose = step_along(path, (0.5, 0.5, 0.0), 1.0, 1.0)
        assert pose[0] == pytest.approx(1.5)
        assert pose[1] == pytest.approx(0.5)
        assert pose[2] == pytest.approx(0.0)

    def test_clamps_to_goal(self):
        path = self.straight_path(3)
        pose = step_along(path, (2.2, 0.5, 0.0), 1.0, 1.0)
        assert (pose[0], pose[1]) == (2.5, 0.5)

    def test_heading_changes_at_corner(self):
        # the wall forbids the diagonal, forcing a 90-degree turn
        g = grid_from_rows([
            ".#",
            "..",
        ])
        path = plan(g, (0.5, 0.5), (1.5, 1.5))
        # walk in small steps and collect headings
        pose = (0.5, 0.5, 0.0)
        headings = []
        for _ in range(30):
            pose = step_along(path, pose, 0.1, 1.0)
            headings.append(pose[2])
        assert len({round(h, 6) for h in headings}) >= 2
        assert (pose[0], pose[1]) == (1.5, 1.5)

    def test_progress_strictly_decreases_remaining(self):
        path = self.straight_path()
        total = cumulative_lengths(path)[-1]
        pose = (0.5, 0.5, 0.0)
        last_remaining = total
        for _ in range(100):
            pose = step_along(path, pose, 0.7, 0.5)
            s = project_arclength(path, pose)
            remaining = total - s
            assert remaining <= last_remaining + 1e-12
            if remaining == 0.0:
                break
            assert remaining < last_remaining
            last_remaining = remaining
        assert remaining == 0.0

    def test_single_cell_path(self):
        g = grid_from_rows(["."])
        path = plan(g, (0.5, 0.5), (0.5, 0.5))
        pose = step_along(path, (0.4, 0.4, 1.0), 1.0, 1.0)
        assert (pose[0], pose[1]) == (0.5, 0.5)
        assert pose[2] == 1.0
