import hashlib
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrexplore.config import METHODS, ScenarioConfig
from mrexplore.frontier import FilterParams, detect_frontiers
from mrexplore.grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GroundTruthMap,
    OccupancyGrid,
    coverage_percent,
    grid_to_world,
    inflate_obstacles,
    map_entropy,
    merge_maps,
    world_to_grid,
)
from mrexplore.pgm import save_grid
from mrexplore.planner import plan_many
from mrexplore.simulate import POLICIES, ExplorationSim, run
from mrexplore.utility import path_gains, score_candidates
from mrexplore.worlds import make_world

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def reference_hashes() -> list[tuple[str, str]]:
    """(sha256, run name) of each line of tools/output_hashes.txt."""
    lines = (TOOLS / "output_hashes.txt").read_text().splitlines()
    return [tuple(line.split("  ")) for line in lines]


def output_hashes_tool(monkeypatch):
    """tools/output_hashes.py as a module."""
    # the tool puts src/ and perfbench/ on sys.path when it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_hashes",
                                                  TOOLS / "output_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def small_cfg(**kw):
    # inflation off: at 1 m/cell a one-cell margin would seal the walls
    defaults = dict(map_source="builtin:open20", robot_count=1, beam_count=72,
                    max_range=5.0, dt=1.0, max_sim_time=60.0, seed=3,
                    inflation_cells=0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestDeterminism:
    def test_identical_metric_streams(self):
        m1 = run(small_cfg(max_sim_time=40))
        m2 = run(small_cfg(max_sim_time=40))
        assert m1.to_csv() == m2.to_csv()
        assert m1.summary_csv() == m2.summary_csv()

    def test_seed_changes_stream(self):
        m1 = run(small_cfg(max_sim_time=30, seed=1))
        m2 = run(small_cfg(max_sim_time=30, seed=2))
        assert m1.to_csv() != m2.to_csv()


class TestMotionValidity:
    def test_robots_never_in_walls(self):
        # sim.run() itself, stale-goal step included, with its sense and
        # move steps wrapped: a robot never stands in a true wall, and after
        # each tick's scan its cell is Free on the merged map, which is what
        # lets _plan keep the robot's cell as the merged map has it.
        for method in METHODS:
            cfg = ScenarioConfig(map_source="builtin:two_wings", robot_count=2,
                                 beam_count=120, max_range=4.0, dt=0.5,
                                 max_sim_time=60, seed=5, method=method)
            sim = ExplorationSim(cfg)
            truth = sim.truth
            sense, advance = sim._sense_all, sim._advance
            counts = {"scans": 0, "moves": 0}

            def sense_and_check():
                sense()
                counts["scans"] += 1
                for r in sim.robots:
                    cx, cy = world_to_grid(r.pose[0], r.pose[1], sim.merged)
                    assert sim.merged.cells[cy, cx] == FREE, (method, r.rid)

            def advance_and_check(robot, speed, dt):
                advance(robot, speed, dt)
                counts["moves"] += 1
                cx, cy = world_to_grid(robot.pose[0], robot.pose[1], truth)
                assert truth.cells[cy, cx] != OCCUPIED, (method, robot.rid)

            sim._sense_all, sim._advance = sense_and_check, advance_and_check
            rows = sim.run().rows
            assert counts["scans"] == len(rows), method
            assert counts["moves"] > 0, method


class TestMetricsInvariants:
    def test_merged_coverage_monotone(self):
        m = run(small_cfg(max_sim_time=50))
        covs = [row.merged_coverage for row in m.rows]
        assert all(b >= a - 1e-9 for a, b in zip(covs, covs[1:]))

    def test_filtered_at_most_raw(self):
        cfg = ScenarioConfig(map_source="builtin:desk", robot_count=3,
                             dt=1.0, max_sim_time=40, seed=1)
        m = run(cfg)
        assert any(row.frontier_raw > 0 for row in m.rows)
        for row in m.rows:
            assert row.frontier_filtered <= row.frontier_raw

    def test_csv_schema(self):
        m = run(small_cfg(max_sim_time=10))
        lines = m.to_csv().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["time", "coverage_r0", "coverage_merged",
                          "frontier_raw", "frontier_filtered",
                          "map_entropy_bits", "loop_closures"]
        assert len(lines) == 1 + len(m.rows)
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_entropy_decreases_overall(self):
        m = run(small_cfg(max_sim_time=50))
        assert m.rows[-1].entropy_bits < m.rows[0].entropy_bits


class TestCoverage:
    def test_open_map_nearly_swept(self):
        m = run(small_cfg(max_sim_time=300.0))
        assert m.final_coverage >= 95.0

    def test_single_robot_first_goal_from_own_detection(self):
        cfg = small_cfg(max_sim_time=10)
        sim = ExplorationSim(cfg)
        sim._sense_all()
        robot = sim.robots[0]
        raw_n, offered_n, got = sim.run_iteration(robot)
        assert got
        assert raw_n >= 1
        assert robot.path is not None

    def test_run_stops_at_full_coverage(self, tmp_path):
        # one scan from the centre of a wall-free world sees every cell
        path = str(tmp_path / "open12.pgm")
        save_grid(GroundTruthMap(1.0, 0.0, 0.0, 12, 12), path)
        m = run(ScenarioConfig(map_source=path, robot_count=1,
                               start_poses=((6.5, 6.5, 0.0),), max_range=20.0))
        assert [(row.time, row.merged_coverage) for row in m.rows] == [(1.0, 100.0)]


class TestNoOpenCandidate:
    @staticmethod
    def _offered(sim):
        from mrexplore.frontier import detect_frontiers, filter_pipeline
        local = [detect_frontiers(r.grid) for r in sim.robots]
        raw = [p for pts in local for p in pts]
        return raw, filter_pipeline(local, sim.merged,
                                    sim.config.filter_params).points

    def test_all_offered_in_chosen_cells_skips_planning(self, monkeypatch):
        import mrexplore.simulate as simulate

        def must_not_plan(*args, **kwargs):
            raise AssertionError("planned a request that cannot get a goal")

        sim = ExplorationSim(small_cfg(max_sim_time=10))
        sim._sense_all()
        raw, offered = self._offered(sim)
        assert offered
        sim.state.chosen_coords = list(offered)
        monkeypatch.setattr(simulate, "plan_many", must_not_plan)
        monkeypatch.setattr(simulate, "score_candidates", must_not_plan)
        robot = sim.robots[0]
        assert sim.run_iteration(robot) == (len(raw), len(offered), False)
        assert sim.state.chosen_coords == offered
        assert robot.path is None

    def test_open_candidate_is_planned(self):
        sim = ExplorationSim(small_cfg(max_sim_time=10))
        sim._sense_all()
        _, offered = self._offered(sim)
        elsewhere = (offered[0][0] + 3.0, offered[0][1])
        assert elsewhere != offered[0]
        sim.state.chosen_coords = [elsewhere]
        _, _, got = sim.run_iteration(sim.robots[0])
        assert got
        assert sim.state.chosen_coords[0] == elsewhere
        assert len(sim.state.chosen_coords) == 2


class TestNoReachablePoint:
    @staticmethod
    def must_not_score(*args, **kwargs):
        raise AssertionError("scored a request with no reachable point")

    @pytest.mark.parametrize("method", METHODS)
    def test_all_unreachable_gets_no_goal(self, monkeypatch, method):
        import mrexplore.simulate as simulate
        monkeypatch.setattr(simulate, "plan_many",
                            lambda grid, start, goals: [None] * len(goals))
        monkeypatch.setattr(simulate, "score_candidates", self.must_not_score)
        monkeypatch.setattr(simulate, "path_gains", self.must_not_score)
        sim = ExplorationSim(small_cfg(method=method, max_sim_time=10))
        sim._sense_all()
        robot = sim.robots[0]
        _, offered_n, got = sim.run_iteration(robot)
        assert offered_n > 0 and not got
        assert robot.path is None

    @pytest.mark.parametrize("method", ["proposed", "mags"])
    def test_value_error_in_scoring_propagates(self, monkeypatch, method):
        # only an all-unreachable request means "no goal"; any other
        # ValueError is a fault and must not read as one
        import mrexplore.utility as utility

        def broken(*args, **kwargs):
            raise ValueError("broken gain")

        monkeypatch.setattr(utility, "trajectory_gain", broken)
        sim = ExplorationSim(small_cfg(method=method, max_sim_time=10))
        sim._sense_all()
        with pytest.raises(ValueError, match="broken gain"):
            sim.run_iteration(sim.robots[0])


class TestRankSeesReachableOnly:
    @pytest.mark.parametrize("method", METHODS)
    def test_index_maps_back_to_the_offered_path(self, monkeypatch, method):
        import mrexplore.simulate as simulate
        offer, _ = POLICIES[method]
        offers, planned, ranked = [], [], []

        def recorded(sim, local_lists):
            offers.append(offer(sim, local_lists))
            return offers[-1]

        def every_third_unreachable(grid, start, goals):
            paths = plan_many(grid, start, goals)
            planned[:] = [None if i % 3 == 0 else path for i, path in enumerate(paths)]
            return list(planned)

        def last(sim, robot, points, paths):
            ranked.append((points, paths))
            assert all(path is not None for path in paths)
            return len(paths) - 1

        monkeypatch.setitem(POLICIES, method, (recorded, last))
        monkeypatch.setattr(simulate, "plan_many", every_third_unreachable)
        sim = ExplorationSim(ScenarioConfig(map_source="builtin:desk", method=method,
                                            max_sim_time=10))
        sim._sense_all()
        robot = sim.robots[0]
        assert sim.run_iteration(robot)[2]
        (points, paths), = ranked
        offered, = offers
        keep = [i for i, path in enumerate(planned) if path is not None]
        assert len(keep) >= 2 and len(keep) < len(offered)
        assert points == [offered[i] for i in keep]
        assert paths == [planned[i] for i in keep]
        assert robot.path is planned[keep[-1]]


class TestNoAssignable:
    def test_open_point_unreachable_reachable_point_chosen(self, monkeypatch):
        # any_open passes, planning reaches only a chosen point, so
        # spreading suppresses every row and the request gets no goal
        import mrexplore.simulate as simulate
        # two robots at seed 2 offer two distinct points
        sim = ExplorationSim(small_cfg(max_sim_time=10, robot_count=2, seed=2))
        sim._sense_all()
        raw, offered = TestNoOpenCandidate._offered(sim)
        assert len(set(offered)) >= 2
        open_pt = offered[0]
        chosen = [p for p in offered if p != open_pt]
        sim.state.chosen_coords = list(chosen)
        reachable = offered.index(chosen[0])

        def only_chosen_reachable(grid, start, goals):
            paths = plan_many(grid, start, goals)
            assert paths[reachable] is not None
            return [path if i == reachable else None for i, path in enumerate(paths)]

        monkeypatch.setattr(simulate, "plan_many", only_chosen_reachable)
        robot = sim.robots[0]
        assert sim.run_iteration(robot) == (len(raw), len(offered), False)
        assert sim.state.chosen_coords == chosen
        assert robot.path is None


class TestAdvance:
    """_advance on the merged map as the robots' scans left it, with cells
    redrawn by hand."""

    @staticmethod
    def robot_on_path():
        sim = ExplorationSim(small_cfg(max_sim_time=10))
        sim._sense_all()
        robot = sim.robots[0]
        assert sim.run_iteration(robot)[2]
        assert len(robot.path.cells) >= 4
        return sim, robot

    @staticmethod
    def draw_walls(sim, robot, cells):
        """Make cells Occupied the way a scan does: the robot gets a new
        grid holding them, and the merged map is rebuilt from the grids."""
        grid = robot.grid.copy()
        for cx, cy in cells:
            grid.cells[cy, cx] = OCCUPIED
        robot.grid = grid
        sim._merge()

    def test_wall_on_path_replans_to_same_goal(self):
        sim, robot = self.robot_on_path()
        old = robot.path
        wx, wy = old.cells[len(old.cells) // 2]
        self.draw_walls(sim, robot, [(wx, wy)])
        sim._advance(robot, sim.config.speed, sim.config.dt)
        assert robot.path is not None and robot.path is not old
        assert robot.path.goal == old.goal
        assert (wx, wy) not in robot.path.cells

    def test_sealed_goal_makes_robot_pending(self):
        sim, robot = self.robot_on_path()
        gx, gy = robot.path.cells[-1]
        sx, sy = robot.path.cells[0]
        assert max(abs(gx - sx), abs(gy - sy)) >= 2
        self.draw_walls(sim, robot, [
            (gx + dx, gy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            if (dx, dy) != (0, 0) and sim.merged.in_bounds(gx + dx, gy + dy)])
        sim._advance(robot, sim.config.speed, sim.config.dt)
        assert robot.path is None

    def test_unknown_next_cell_stalls_then_drops_goal(self):
        from mrexplore.grid import UNKNOWN
        from mrexplore.simulate import STALL_LIMIT
        sim, robot = self.robot_on_path()
        cx, cy = robot.path.cells[1]
        sim.merged.cells[cy, cx] = UNKNOWN
        pose = robot.pose
        for tick in range(1, STALL_LIMIT):
            sim._advance(robot, sim.config.speed, sim.config.dt)
            assert robot.pose == pose
            assert robot.path is not None and robot.stall_ticks == tick
        sim._advance(robot, sim.config.speed, sim.config.dt)
        assert robot.pose == pose
        assert robot.path is None and robot.stall_ticks == 0


class TestGoalIsAnOfferedPoint:
    """A point has one format: the goal a request hands out is one of the
    offered (x, y) tuples, and a replan drives to that same point."""

    @staticmethod
    def handouts_and_replans(world, robots, method, ticks):
        sim = ExplorationSim(ScenarioConfig(map_source=f"builtin:{world}",
                                            robot_count=robots, method=method,
                                            dt=1.0, max_sim_time=ticks, seed=1))
        serve, advance = sim.run_iteration, sim._advance
        handed, replans = {}, []

        def run_iteration(robot):
            result = serve(robot)
            if result[2]:
                goal = robot.path.goal
                assert type(goal) is tuple and goal in sim.offered
                handed[robot.rid] = goal
            return result

        def _advance(robot, speed, dt):
            old = robot.path
            advance(robot, speed, dt)
            if robot.path is not None:
                assert robot.path.goal == handed[robot.rid]
                if robot.path is not old:
                    replans.append(robot.rid)

        sim.run_iteration, sim._advance = run_iteration, _advance
        sim.run()
        return handed, replans

    @pytest.mark.parametrize("method", METHODS)
    def test_handed_goal_is_offered_and_kept(self, method):
        handed, _ = self.handouts_and_replans("two_wings", 2, method, 60)
        assert handed

    def test_replan_keeps_the_handed_goal(self):
        # on desk at seed 1 the first walls seen cut proposed's first paths
        _, replans = self.handouts_and_replans("desk", 3, "proposed", 15)
        assert replans


class TestPointsAreCellCentres:
    """Allocation compares points by value. That is the test "in a chosen
    goal's cell" only because every offered point and every chosen goal is
    the centre of its merged-map cell."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("world", ["two_wings", "open20"])
    def test_offered_and_chosen_are_centres(self, world, method):
        sim = ExplorationSim(ScenarioConfig(map_source=f"builtin:{world}",
                                            robot_count=2, method=method,
                                            dt=1.0, max_sim_time=60, seed=1))
        serve, checked = sim.run_iteration, []

        def run_iteration(robot):
            result = serve(robot)
            merged = sim.merged
            for x, y in (sim.offered or []) + sim.state.chosen_coords:
                assert (x, y) == grid_to_world(*world_to_grid(x, y, merged), merged)
                checked.append((x, y))
            return result

        sim.run_iteration = run_iteration
        sim.run()
        assert checked


def reference_planning_grid(sim, robot, goals):
    """Inflated merged map with the robot's and the goals' cells restored,
    and an Occupied robot cell made Free."""
    g = inflate_obstacles(sim.merged, sim.config.inflation_cells)
    for x, y in [(robot.pose[0], robot.pose[1])] + list(goals):
        cx, cy = world_to_grid(x, y, g)
        if g.in_bounds(cx, cy):
            g.cells[cy, cx] = sim.merged.cells[cy, cx]
    cx, cy = world_to_grid(robot.pose[0], robot.pose[1], g)
    if g.in_bounds(cx, cy) and g.cells[cy, cx] == OCCUPIED:
        g.cells[cy, cx] = FREE
    return g


def reference_mags(sim, robot, offered):
    """Score every reachable offered point in full, then take the one with
    the largest u1_weight * gain + gamma (the first on ties)."""
    paths = plan_many(reference_planning_grid(sim, robot, offered), robot.pose, offered)
    reachable = [(p, path) for p, path in zip(offered, paths) if path is not None]
    if not reachable:
        return None
    points, paths = map(list, zip(*reachable))
    cfg = sim.config
    scores = score_candidates(robot.pose, sim.merged, robot.graph, points, paths,
                              cfg.utility_params, cfg.graph_params)
    w = cfg.utility_params.u1_weight
    return max(scores, key=lambda s: w * s.gain + s.gamma).path


def reference_greedy(sim, robot, offered):
    """Sort the offered points by straight-line distance (stably), plan in
    that order and take the first reachable one."""
    x, y = robot.pose[0], robot.pose[1]
    grid = reference_planning_grid(sim, robot, offered)
    nearest = sorted(offered, key=lambda p: math.hypot(p[0] - x, p[1] - y))
    paths = plan_many(grid, robot.pose, nearest)
    return next((path for path in paths if path is not None), None)


class TestChoosersMatchReference:
    """mags ranks by gain and distance only, and greedy_frontier plans in
    offered order; both choose the path the full-ranking references do."""

    CONFIGS = {
        "two_wings": dict(map_source="builtin:two_wings", robot_count=2,
                          beam_count=180, max_range=5.0, dt=1.0,
                          max_sim_time=60, seed=1),
        # seed 5 offers greedy_frontier equally near points
        "open20": dict(map_source="builtin:open20", robot_count=1,
                       beam_count=72, max_range=5.0, dt=1.0,
                       max_sim_time=100, seed=5, inflation_cells=0),
    }

    @pytest.mark.parametrize("world", CONFIGS)
    @pytest.mark.parametrize("method,reference", [
        ("mags", reference_mags), ("greedy_frontier", reference_greedy),
    ], ids=["mags", "greedy_frontier"])
    def test_same_path_on_every_request(self, monkeypatch, world, method, reference):
        offer, rank = POLICIES[method]
        offers = []
        chosen = []
        ties = 0

        def recorded(sim, local_lists):
            offers.append(offer(sim, local_lists))
            return offers[-1]

        def checked(sim, robot, points, paths):
            # rank sees the reachable points only; the references plan to
            # every offered point, as the planning step does
            nonlocal ties
            i = rank(sim, robot, points, paths)
            got = None if i is None else paths[i]
            offered = offers[-1]
            want = reference(sim, robot, offered)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.cells == want.cells
            x, y = robot.pose[0], robot.pose[1]
            d = sorted(math.hypot(p[0] - x, p[1] - y) for p in offered)
            ties += len(d) > 1 and d[0] == d[1]
            chosen.append(got)
            return i

        monkeypatch.setitem(POLICIES, method, (recorded, checked))
        run(ScenarioConfig(method=method, **self.CONFIGS[world]))
        assert sum(path is not None for path in chosen) >= 20
        if (world, method) == ("open20", "greedy_frontier"):
            assert ties >= 1


class TestPlanMemo:
    """_plan keeps its results until _merge rebuilds the merged map. A kept
    result must equal a fresh plan on the request's own inputs."""

    @pytest.mark.parametrize("method", ["mags", "greedy_frontier"])
    @pytest.mark.parametrize("world", ["two_wings", "open20"])
    def test_every_plan_equals_a_fresh_plan(self, monkeypatch, world, method):
        import mrexplore.simulate as simulate

        sim = ExplorationSim(ScenarioConfig(map_source=f"builtin:{world}",
                                            robot_count=2, method=method,
                                            dt=1.0, max_sim_time=60, seed=1))
        memo_plan = sim._plan
        calls = {"_plan": 0, "plan_many": 0}

        def counted_plan_many(*args):
            calls["plan_many"] += 1
            return plan_many(*args)

        def checked_plan(robot, goals):
            calls["_plan"] += 1
            got = memo_plan(robot, goals)
            want = plan_many(reference_planning_grid(sim, robot, goals),
                             robot.pose, goals)
            assert got == want
            # the gains' tree walk reads extends and shared too
            assert ([p and (p.extends, p.shared) for p in got]
                    == [p and (p.extends, p.shared) for p in want])
            return got

        monkeypatch.setattr(simulate, "plan_many", counted_plan_many)
        sim._plan = checked_plan
        sim.run()
        assert 0 < calls["plan_many"] <= calls["_plan"]
        if (world, method) == ("two_wings", "greedy_frontier"):
            # 19 of the 60 calls plan at seed 1; without the memo all would
            assert calls["plan_many"] < calls["_plan"]

    def test_merge_empties_the_memo(self):
        sim = ExplorationSim(small_cfg())
        sim._sense_all()
        assert sim.run_iteration(sim.robots[0])[2]
        assert sim.plans
        sim._merge()
        assert sim.plans == {}


class TestGainMemo:
    """_gains keeps a mags request's gains until _merge rebuilds the merged
    map. A kept list must equal fresh gains on the request's own graph and
    paths."""

    @pytest.mark.parametrize("world", ["two_wings", "open20"])
    def test_every_gain_list_equals_fresh_gains(self, monkeypatch, world):
        import mrexplore.simulate as simulate

        sim = ExplorationSim(ScenarioConfig(map_source=f"builtin:{world}",
                                            robot_count=2, method="mags",
                                            dt=1.0, max_sim_time=60, seed=1))
        memo_gains = sim._gains
        calls = {"_gains": 0, "path_gains": 0}

        def counted_path_gains(*args):
            calls["path_gains"] += 1
            return path_gains(*args)

        def checked_gains(robot, points, paths):
            calls["_gains"] += 1
            got = memo_gains(robot, points, paths)
            assert got == path_gains(robot.graph, paths, sim.config.graph_params)
            return got

        monkeypatch.setattr(simulate, "path_gains", counted_path_gains)
        sim._gains = checked_gains
        sim.run()
        assert 0 < calls["path_gains"] <= calls["_gains"]
        if world == "open20":
            # 58 of the 59 requests score at seed 1; without the memo all would
            assert calls["path_gains"] < calls["_gains"]

    def test_merge_empties_the_memo(self):
        sim = ExplorationSim(small_cfg(method="mags"))
        sim._sense_all()
        assert sim.run_iteration(sim.robots[0])[2]
        assert sim.gains
        sim._merge()
        assert sim.gains == {}


def assert_derived_state_fresh(sim):
    """Every value the simulator keeps beside the robots' grids equals a
    recomputation from them: each robot's coverage; the merged map with
    its coverage and entropy; and the offer record (raw count and offered
    points), once built."""
    assert sim.robot_coverage == [coverage_percent(r.grid, sim.truth)
                                  for r in sim.robots]
    merged = merge_maps([r.grid for r in sim.robots])
    assert np.array_equal(sim.merged.cells, merged.cells)
    assert sim.merged_coverage == coverage_percent(merged, sim.truth)
    assert sim.entropy_bits == map_entropy(merged)
    if sim.offered is None:
        assert sim.raw_count is None
    else:
        offer, _ = POLICIES[sim.config.method]
        fresh = [detect_frontiers(r.grid) for r in sim.robots]
        assert sim.raw_count == sum(len(points) for points in fresh)
        assert sim.offered == offer(sim, fresh)


class TestReusedStateExact:
    """The simulator recomputes map-derived values only when a scan changed
    some map; after every tick each kept value must equal a fresh
    recomputation."""

    CONFIGS = {
        "two_wings": dict(map_source="builtin:two_wings", robot_count=2,
                          beam_count=120, max_range=4.0, dt=1.0,
                          max_sim_time=80, seed=1),
        "open20": dict(map_source="builtin:open20", robot_count=2,
                       beam_count=72, max_range=5.0, dt=1.0,
                       max_sim_time=80, seed=5, inflation_cells=0),
    }

    @pytest.mark.parametrize("world", CONFIGS)
    @pytest.mark.parametrize("method", METHODS)
    def test_kept_values_equal_recomputation(self, world, method):
        sim = ExplorationSim(ScenarioConfig(method=method, **self.CONFIGS[world]))
        sense = sim._sense_all
        kept = {"merged": 0, "offer": 0}

        def checked_sense():
            # the tick before has ended; this tick's scans come next
            assert_derived_state_fresh(sim)
            merged, offered = sim.merged, sim.offered
            sense()
            assert_derived_state_fresh(sim)
            kept["merged"] += sim.merged is merged
            kept["offer"] += offered is not None and sim.offered is offered

        sim._sense_all = checked_sense
        sim.run()
        assert_derived_state_fresh(sim)
        assert kept["merged"] >= 1
        assert kept["offer"] >= 1


class TestSpread:
    def test_two_wing_first_goals_in_different_wings(self):
        cfg = ScenarioConfig(map_source="builtin:two_wings", robot_count=2,
                             beam_count=180, max_range=4.0, dt=0.5,
                             max_sim_time=60, seed=2, method="proposed")
        sim = ExplorationSim(cfg)
        truth = sim.truth
        mid = truth.origin_x + truth.width * truth.resolution / 2.0
        first_goals = {}
        for _ in range(40):
            sim._sense_all()
            pending = {r.rid for r in sim.robots if r.path is None}
            if pending:
                from mrexplore.allocate import schedule
                rid = schedule(pending, sim.state)
                sim.run_iteration(sim.robots[rid])
                r = sim.robots[rid]
                if r.path is not None and rid not in first_goals:
                    first_goals[rid] = r.path.goal
            for r in sim.robots:
                if r.path is not None:
                    sim._advance(r, cfg.speed, cfg.dt)
            if len(first_goals) == 2:
                break
        assert len(first_goals) == 2
        sides = {rid: (g[0] < mid) for rid, g in first_goals.items()}
        assert sides[0] != sides[1], first_goals


def reference_goal_known(point, grid, rad):
    """The stale-goal rule on one point, one disc cell at a time: the disc
    has some in-bounds cell and none of them is Unknown."""
    cx, cy = world_to_grid(point[0], point[1], grid)
    rad_cells = rad / grid.resolution
    r = math.floor(rad_cells)
    states = [grid.cells[y, x]
              for y in range(max(cy - r, 0), min(cy + r + 1, grid.height))
              for x in range(max(cx - r, 0), min(cx + r + 1, grid.width))
              if (x - cx) ** 2 + (y - cy) ** 2 <= rad_cells * rad_cells]
    return bool(states) and UNKNOWN not in states


@st.composite
def stale_case(draw):
    """A random grid mostly Free, and points on it and off it (some with a
    disc wholly outside the map)."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    res = draw(st.sampled_from([0.5, 1.0]))
    cells = draw(arrays(np.int8, (h, w),
                        elements=st.sampled_from([FREE] * 4 + [UNKNOWN, OCCUPIED])))
    grid = OccupancyGrid(res, 0.0, 0.0, w, h, cells)
    coord = st.tuples(st.floats(-4.0, w * res + 4.0), st.floats(-4.0, h * res + 4.0))
    return grid, draw(st.lists(coord, max_size=12)), draw(st.sampled_from([0.5, 1.0, 2.5]))


class TestStaleGoalRule:
    @settings(max_examples=200)
    @given(stale_case())
    def test_batched_equals_per_point(self, case):
        grid, points, rad = case
        sim = ExplorationSim(small_cfg(filter_params=FilterParams(rad=rad)))
        sim.merged = grid
        assert sim._goal_areas_known(points) == [
            reference_goal_known(p, grid, rad) for p in points]


class TestBaselines:
    def test_greedy_picks_nearest(self):
        cfg = small_cfg(method="greedy_frontier", max_sim_time=10)
        sim = ExplorationSim(cfg)
        sim._sense_all()
        robot = sim.robots[0]
        from mrexplore.frontier import detect_frontiers
        # with one robot, the raw offer is that robot's detected points
        offered = detect_frontiers(robot.grid)
        _, _, got = sim.run_iteration(robot)
        assert got
        dists = sorted(
            math.hypot(p[0] - robot.pose[0], p[1] - robot.pose[1]) for p in offered
        )
        goal_d = math.hypot(robot.path.goal[0] - robot.pose[0],
                            robot.path.goal[1] - robot.pose[1])
        # nearest reachable candidate; allow the snap to the path goal cell
        assert goal_d <= dists[0] + 2 * sim.merged.resolution

    def test_mags_runs_and_explores(self):
        cfg = small_cfg(method="mags", max_sim_time=40)
        m = run(cfg)
        assert m.final_coverage > 30.0

    def test_methods_diverge(self):
        base = {"map_source": "builtin:two_wings", "robot_count": 2,
                "beam_count": 120, "max_range": 4.0, "dt": 0.5,
                "max_sim_time": 30, "seed": 1}
        streams = {
            method: run(ScenarioConfig(method=method, **base)).to_csv()
            for method in ("proposed", "mags", "greedy_frontier")
        }
        assert len(set(streams.values())) == 3


class TestExactCopiesChangeNoChoice:
    # Robots share one frame, so a frontier cell two robots both detect gives
    # one (x, y) tuple, and within one robot's list every point is its own
    # cell: a raw offer is its distinct points plus later exact copies. Both
    # baselines take the first of equal ranks and plan each copy to the same
    # cell, so copies of the offered points change no choice.
    @staticmethod
    def _requests(monkeypatch, cfg, copies):
        """The run's metrics and, per request, (robot, offered count, the
        path handed out or None)."""
        handed = []
        with monkeypatch.context() as patch:
            offer, rank = POLICIES[cfg.method]
            if copies:
                def offer_with_copies(sim, local_lists):
                    points = offer(sim, local_lists)
                    return points + [(x, y) for x, y in points]
                patch.setitem(POLICIES, cfg.method, (offer_with_copies, rank))
            sim = ExplorationSim(cfg)
            serve = sim.run_iteration

            def serve_and_record(robot):
                raw_n, offered_n, got = serve(robot)
                path = robot.path if got else None
                handed.append((robot.rid, offered_n,
                               path and (path.cells, path.length_m, path.waypoints)))
                return raw_n, offered_n, got

            sim.run_iteration = serve_and_record
            return sim.run(), handed

    @pytest.mark.parametrize("world,max_sim_time", [("two_wings", 150), ("open20", 300)])
    @pytest.mark.parametrize("method", ["greedy_frontier", "mags"])
    def test_same_paths_and_metrics(self, monkeypatch, world, max_sim_time, method):
        cfg = ScenarioConfig(map_source=f"builtin:{world}", robot_count=2, seed=1,
                             max_sim_time=max_sim_time, method=method)
        plain, plain_handed = self._requests(monkeypatch, cfg, copies=False)
        doubled, doubled_handed = self._requests(monkeypatch, cfg, copies=True)
        assert any(path for *_, path in plain_handed)
        assert [(rid, 2 * n, path) for rid, n, path in plain_handed] == doubled_handed

        def split(metrics):
            """Each metrics.csv row's frontier_filtered, and the row without it."""
            k = metrics.csv_header().index("frontier_filtered")
            rows = [line.split(",") for line in metrics.to_csv().splitlines()[1:]]
            return [int(row[k]) for row in rows], [row[:k] + row[k + 1:] for row in rows]

        plain_filtered, plain_rest = split(plain)
        doubled_filtered, doubled_rest = split(doubled)
        assert doubled_rest == plain_rest
        assert doubled_filtered == [2 * n for n in plain_filtered]
        assert doubled.distances == plain.distances


class TestPolicies:
    def test_one_policy_per_method(self):
        assert tuple(POLICIES) == METHODS

    # sha256 of metrics.csv + summary.csv on desk, seed 1, 40 s. A change
    # that moves one of them changes what the method does.
    GOLDEN = {
        "proposed": "83af9fb0277c7fac79d2290fff9239720e92539e45e6d8aeb68efc8e8a9d39da",
        "mags": "3a39c8b79d6c6ba5370af53ca0b1f377bad8d2d6ab7c2318daba5b6d4f1497c0",
        "greedy_frontier": "e60cdae20a99e43d81057023a3f68bb2c96c95980d9324644cc5f447db16dab7",
    }

    @pytest.mark.parametrize("method", METHODS)
    def test_golden_output(self, method):
        m = run(ScenarioConfig(map_source="builtin:desk", robot_count=3, seed=1,
                               max_sim_time=40, method=method))
        text = m.to_csv() + m.summary_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[method]

    # perfbench's wings_sense run in full. Most of its requests end with
    # list-size control exhausted and nothing offered, and it spreads goals
    # between two robots, which the short desk runs above reach neither of.
    # Its expected sha is the wings_sense line of tools/output_hashes.txt.
    def test_golden_wings_sense(self):
        m = run(ScenarioConfig(map_source="builtin:two_wings", robot_count=2, seed=1,
                               beam_count=720, max_range=10.0, inflation_cells=0,
                               max_sim_time=300, method="proposed"))
        text = m.to_csv() + m.summary_csv()
        sha = hashlib.sha256(text.encode()).hexdigest()
        assert (sha, "wings_sense") in reference_hashes()

    # The two_wings and open20 runs of tools/output_hashes.txt, 300 s each
    # on configs/desk.cfg: every method on two more worlds, run in full;
    # and desk/proposed, the benchmarked desk run of the paper's method.
    @pytest.mark.parametrize("name", [f"{world}/{method}" for world in ("two_wings", "open20")
                                      for method in METHODS] + ["desk/proposed"])
    def test_golden_small_worlds(self, monkeypatch, name):
        tool = output_hashes_tool(monkeypatch)
        sha = tool.output_hash(tool.reference_runs()[name])
        assert (sha, name) in reference_hashes()

    def test_reference_hashes_name_every_run(self, monkeypatch):
        tool = output_hashes_tool(monkeypatch)
        lines = reference_hashes()
        assert [name for _, name in lines] == list(tool.reference_runs())
        assert all(re.fullmatch("[0-9a-f]{64}", sha) for sha, _ in lines)


class TestWorlds:
    def test_desk_shape(self):
        desk = make_world("desk")
        assert (desk.width, desk.height) == (200, 200)
        assert desk.resolution == 0.1

    def test_start_poses_free(self):
        for name in ("desk", "two_wings", "open20"):
            truth = make_world(name)
            cfg = ScenarioConfig(map_source=f"builtin:{name}",
                                 robot_count=2 if name != "desk" else 3)
            for x, y, _ in cfg.resolve_starts(truth):
                cx, cy = world_to_grid(x, y, truth)
                assert truth.cells[cy, cx] != OCCUPIED

    def test_unknown_world_rejected(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            make_world("atlantis")
