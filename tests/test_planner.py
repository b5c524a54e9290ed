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
    inflate_obstacles,
    world_to_grid,
)
from mrexplore.planner import (
    GridPath,
    NoPathError,
    _run_dijkstra,
    cumulative_lengths,
    plan,
    plan_many,
    pose_at,
    project_arclength,
)
from mrexplore.worlds import make_world

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


class TestPlanManyTree:
    @given(planning_case())
    def test_reported_prefix_is_shared(self, case):
        # each path names an earlier reached path and the count of cells and
        # waypoints they share; a path with none shares nothing
        grid, start, goals = case
        reached = [p for p in plan_many(grid, start, goals) if p is not None]
        for i, path in enumerate(reached):
            if path.extends is None:
                assert path.shared == 0
                continue
            assert 0 <= path.extends < i and 0 < path.shared <= len(path.cells)
            base = reached[path.extends]
            assert path.cells[:path.shared] == base.cells[:path.shared]
            assert path.waypoints[:path.shared] == base.waypoints[:path.shared]

    def test_prefix_fields_stay_out_of_equality(self):
        path = GridPath([(0, 0)], 0.0, [(0.5, 0.5)])
        assert path == GridPath([(0, 0)], 0.0, [(0.5, 0.5)], extends=3, shared=1)
        assert repr(path) == "GridPath(cells=[(0, 0)], length_m=0.0, waypoints=[(0.5, 0.5)])"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, bad):
        g = grid_from_rows(["...."])
        for start in [(bad, 0.5), (0.5, bad)]:
            with pytest.raises(ValueError, match="start"):
                plan_many(g, start, [(3.5, 0.5)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_goal_rejected(self, bad):
        g = grid_from_rows(["...."])
        for goal in [(bad, 0.5), (0.5, bad)]:
            with pytest.raises(ValueError, match="goal"):
                plan_many(g, (0.5, 0.5), [(3.5, 0.5), goal])

    def test_huge_int_point_rejected(self):
        # math.isfinite raises OverflowError for an int past the float range
        g = grid_from_rows(["...."])
        with pytest.raises(ValueError, match="start"):
            plan_many(g, (10**400, 0.5), [(3.5, 0.5)])
        with pytest.raises(ValueError, match="goal"):
            plan_many(g, (0.5, 0.5), [(3.5, 0.5), (0.5, -10**400)])

    def test_start_off_the_grid_has_no_path(self):
        g = grid_from_rows(["...."])
        with pytest.raises(NoPathError, match="outside"):
            plan_many(g, (4.5, 0.5), [(3.5, 0.5)])

    def test_start_in_a_wall_has_no_path(self):
        g = grid_from_rows([".#.."])
        with pytest.raises(NoPathError, match="obstacle"):
            plan_many(g, (1.5, 0.5), [(3.5, 0.5)])


class TestPlanManyProperties:
    @settings(max_examples=300)
    @given(planning_case())
    def test_same_paths_as_heap_reference(self, case):
        grid, start, goals = case
        got = plan_many(grid, start, goals)
        assert as_tuples(got) == as_tuples(heap_plan_many(grid, start, goals))
        for path in filter(None, got):
            assert {type(v) for cell in path.cells for v in cell} == {int}
            assert {type(v) for xy in path.waypoints for v in xy} == {float}

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


class TestDeskScale:
    """plan_many at the simulator's scale: the builtin desk (200 x 200
    cells at 0.1 m) inflated by one cell, as the simulator plans on it,
    with a closet sealed off by a ring of Occupied cells."""

    START = (5.0, 5.0)

    def case(self):
        grid = inflate_obstacles(make_world("desk"), 1)
        grid.cells[170:181, 60:71] = OCCUPIED
        grid.cells[172:179, 62:69] = FREE
        rng = np.random.RandomState(16)
        goals = [(float(x), float(y)) for x, y in rng.uniform(0.0, 20.0, (36, 2))]
        goals += [(6.55, 17.55), (6.85, 17.35), (-1.0, 3.0), self.START]
        return grid, goals

    def test_with_unreachable_goals_matches_heap_reference(self):
        grid, goals = self.case()
        got = plan_many(grid, self.START, goals)
        assert as_tuples(got) == as_tuples(heap_plan_many(grid, self.START, goals))
        # the list holds every kind of goal: reached, sealed off, Occupied
        # and outside the grid
        assert sum(p is not None for p in got) >= 20
        assert got[36] is None and got[37] is None and got[38] is None
        cells = [world_to_grid(x, y, grid) for x, y in goals]
        assert any(p is None and grid.in_bounds(cx, cy) and grid.cells[cy, cx] == OCCUPIED
                   for (cx, cy), p in zip(cells, got))

    def test_early_stop_matches_heap_reference(self):
        grid, goals = self.case()
        reached = [g for g, p in zip(goals, plan_many(grid, self.START, goals)) if p]
        near = sorted(reached, key=lambda g: math.dist(g, self.START))[:len(reached) // 2]
        for wanted in (reached, near):
            assert as_tuples(plan_many(grid, self.START, wanted)) == as_tuples(
                heap_plan_many(grid, self.START, wanted))

    def test_cells_left_open_by_the_early_stop_have_no_parent(self):
        # Every goal reachable, so the search stops before the flood ends.
        # The cells with a parent are the settled ones bar the start: each
        # is nearer than every cell with a finite distance and no parent.
        grid, goals = self.case()
        reached = [g for g, p in zip(goals, plan_many(grid, self.START, goals)) if p]
        pw = grid.width + 2
        idxs = [(cy + 1) * pw + cx + 1
                for cx, cy in (world_to_grid(x, y, grid) for x, y in reached)]
        start = world_to_grid(*self.START, grid)
        dist, parent = _run_dijkstra(grid, start, idxs)
        has_parent = parent >= 0
        open_cells = np.isfinite(dist) & ~has_parent
        open_cells[(start[1] + 1) * pw + start[0] + 1] = False
        assert open_cells.any()
        assert dist[has_parent].max() < dist[open_cells].min()
        nb = np.flatnonzero(has_parent)
        step = np.abs(nb - parent[nb])
        w = np.where((step == 1) | (step == pw), grid.resolution, SQRT2 * grid.resolution)
        assert (dist[parent[nb]] + w == dist[nb]).all()


    # One-cell goals walled in as _plan leaves a raw frontier point inside
    # the inflated wall around it: all eight neighbours Occupied around an
    # Unknown or a Free cell, or only the four axis neighbours, which
    # forbids the diagonals too.
    WALLED = ((3.05, 12.05, UNKNOWN, False), (12.55, 15.55, FREE, False),
              (15.05, 4.05, FREE, True))

    def walled_case(self):
        grid, goals = self.case()
        walled = []
        for x, y, state, axis_only in self.WALLED:
            cx, cy = world_to_grid(x, y, grid)
            if axis_only:
                grid.cells[cy, cx - 1:cx + 2] = OCCUPIED
                grid.cells[cy - 1:cy + 2, cx] = OCCUPIED
            else:
                grid.cells[cy - 1:cy + 2, cx - 1:cx + 2] = OCCUPIED
            grid.cells[cy, cx] = state
            walled.append((x, y))
        reached = [g for g, p in zip(goals, plan_many(grid, self.START, goals)) if p]
        return grid, reached, walled

    def test_walled_in_goals_do_not_hold_the_search_open(self):
        grid, reached, walled = self.walled_case()
        goals = walled[:1] + reached + walled[1:]
        got = plan_many(grid, self.START, goals)
        assert as_tuples(got) == as_tuples(heap_plan_many(grid, self.START, goals))
        assert got[0] is None and got[-1] is None and got[-2] is None
        assert all(got[1:-2])
        # The search stops once the reachable goals are settled, so some
        # cell with a finite distance is left open, without a parent.
        pw = grid.width + 2
        idxs = [(cy + 1) * pw + cx + 1
                for cx, cy in (world_to_grid(x, y, grid) for x, y in goals)]
        start = world_to_grid(*self.START, grid)
        dist, parent = _run_dijkstra(grid, start, idxs)
        open_cells = np.isfinite(dist) & (parent < 0)
        open_cells[(start[1] + 1) * pw + start[0] + 1] = False
        assert open_cells.any()

    def test_walled_in_start_still_reaches_itself(self):
        grid, _ = self.case()
        sx, sy = world_to_grid(*self.START, grid)
        grid.cells[sy - 1:sy + 2, sx - 1:sx + 2] = OCCUPIED
        grid.cells[sy, sx] = FREE
        goals = [self.START, (18.05, 18.05)]
        got = plan_many(grid, self.START, goals)
        assert as_tuples(got) == as_tuples(heap_plan_many(grid, self.START, goals))
        assert got[0].cells == [(sx, sy)] and got[0].length_m == 0.0
        assert got[1] is None


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

    def test_zero_length_path_clamps_like_its_end(self):
        # s is clamped to 0 before the end test, so an arclength below the
        # start of a path of length 0 gets the pose at its end
        path = GridPath([(0, 0), (0, 0)], 0.0, [(0.5, 0.5), (0.5, 0.5)])
        want = pose_at(path, 0.0, 1.0)
        for s in (-1.0, math.nan, 0.0, 2.0):
            assert pose_at(path, s, 1.0) == want
