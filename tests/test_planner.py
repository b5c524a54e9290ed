import math
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrexplore.grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    OccupancyGrid,
    grid_to_world,
    world_to_grid,
)
from mrexplore.planner import (
    GridPath,
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


def heap_plan_many(grid, start, goals):
    """Reference: the per-cell heap Dijkstra that plan_many replaced. Pops
    cells in (cost, row, col) order, relaxes with a strict <, so a cell's
    parent is the first-settled neighbour that gives its distance, and
    stops once every goal is settled."""
    w, h = grid.width, grid.height
    res = grid.resolution
    diag = SQRT2 * res
    occ = grid.cells == OCCUPIED
    sx, sy = world_to_grid(start[0], start[1], grid)
    goal_idxs = []
    for gx, gy in (world_to_grid(g[0], g[1], grid) for g in goals):
        inside = grid.in_bounds(gx, gy) and not occ[gy, gx]
        goal_idxs.append(gy * w + gx if inside else None)
    pending = {i for i in goal_idxs if i is not None}

    dist = [math.inf] * (w * h)
    parent = [-1] * (w * h)
    done = [False] * (w * h)
    dist[sy * w + sx] = 0.0
    heap = [(0.0, sy, sx)]
    while heap:
        d, cy, cx = heappop(heap)
        idx = cy * w + cx
        if done[idx]:
            continue
        done[idx] = True
        pending.discard(idx)
        if not pending:
            break
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)):
            nx, ny = cx + dx, cy + dy
            if not (0 <= nx < w and 0 <= ny < h) or occ[ny, nx]:
                continue
            if dx and dy and (occ[cy, nx] or occ[ny, cx]):
                continue
            nd = d + (diag if dx and dy else res)
            j = ny * w + nx
            if nd < dist[j]:
                dist[j] = nd
                parent[j] = idx
                heappush(heap, (nd, ny, nx))

    paths = []
    for gidx in goal_idxs:
        if gidx is None or not math.isfinite(dist[gidx]):
            paths.append(None)
            continue
        chain = [gidx]
        while parent[chain[-1]] != -1:
            chain.append(parent[chain[-1]])
        cells = [(i % w, i // w) for i in reversed(chain)]
        paths.append(GridPath(cells, dist[gidx],
                              [grid_to_world(cx, cy, grid) for cx, cy in cells]))
    return paths


def as_tuples(paths):
    return [None if p is None else (p.cells, p.length_m, p.waypoints)
            for p in paths]


@st.composite
def planning_case(draw):
    """A random Unknown/Free/Occupied grid, a start in a non-Occupied cell
    and several goal points: repeats, the start cell, Occupied cells,
    points outside the grid and, often, a cell sealed off by Occupied
    neighbours."""
    w, h = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    res = draw(st.sampled_from([0.1, 0.25, 1.0]))
    origin = (draw(st.integers(-3, 3)) * res, draw(st.integers(-3, 3)) * res)
    cells = draw(arrays(np.int8, (h, w),
                        elements=st.sampled_from([UNKNOWN, FREE, OCCUPIED])))
    picked = []
    if draw(st.booleans()):
        px, py = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        cells[max(py - 1, 0):py + 2, max(px - 1, 0):px + 2] = OCCUPIED
        cells[py, px] = draw(st.sampled_from([UNKNOWN, FREE]))
        picked.append((px, py))
    sx, sy = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    cells[sy, sx] = FREE
    occupied = np.argwhere(cells == OCCUPIED)
    if len(occupied):
        py, px = occupied[draw(st.integers(0, len(occupied) - 1))]
        picked.append((int(px), int(py)))
    cell = st.tuples(st.integers(-2, w + 1), st.integers(-2, h + 1))
    drawn = draw(st.lists(cell, min_size=1, max_size=8))
    goal_cells = draw(st.permutations(drawn + [drawn[0], (sx, sy)] + picked))

    frac = st.floats(0.05, 0.95)
    grid = OccupancyGrid(res, origin[0], origin[1], w, h, cells)
    start = (origin[0] + (sx + draw(frac)) * res, origin[1] + (sy + draw(frac)) * res)
    goals = [(origin[0] + (cx + draw(frac)) * res, origin[1] + (cy + draw(frac)) * res)
             for cx, cy in goal_cells]
    return grid, start, goals


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


class TestPlanManyProperties:
    @settings(deadline=None, max_examples=300)  # timing is not under test
    @given(planning_case())
    def test_same_paths_as_heap_reference(self, case):
        grid, start, goals = case
        assert as_tuples(plan_many(grid, start, goals)) == as_tuples(
            heap_plan_many(grid, start, goals))

    @settings(deadline=None)  # timing is not under test; the host may be busy
    @given(planning_case())
    def test_equals_plan_for_each_goal(self, case):
        grid, start, goals = case
        for goal, got in zip(goals, plan_many(grid, start, goals)):
            try:
                want = plan(grid, start, goal)
            except NoPathError:
                want = None
            assert as_tuples([got]) == as_tuples([want])

    @pytest.mark.parametrize("res", [0.1, 0.25, 1.0])
    @pytest.mark.parametrize("pillars", [False, True])
    def test_tie_heavy_grids_match_heap_reference(self, res, pillars):
        # Open, most cells have an axis and a diagonal parent that both give
        # their distance. With an Occupied pillar at every odd (x, y) no
        # diagonal is allowed, and most cells have two parents at one
        # distance, so only the (row, col) order tells them apart.
        cells = np.full((13, 15), FREE, dtype=np.int8)
        cells[::4, ::3] = UNKNOWN
        if pillars:
            cells[1::2, 1::2] = OCCUPIED
        grid = OccupancyGrid(res, -0.3, 0.7, 15, 13, cells)
        start = grid_to_world(6, 6, grid)
        goals = [grid_to_world(cx, cy, grid) for cy in range(13) for cx in range(15)]
        assert as_tuples(plan_many(grid, start, goals)) == as_tuples(
            heap_plan_many(grid, start, goals))

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
