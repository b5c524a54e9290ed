"""Deterministic tick-loop simulator orchestrating the per-agent workflow:
sense, merge, filter frontiers, score candidates, allocate goals, move.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .allocate import (
    AllocationState,
    NoAssignableGoal,
    any_open,
    evict_known_goals,
    schedule,
    select_goal,
)
from .config import ConfigError, ScenarioConfig
from .frontier import detect_frontiers, disc_unknown_stats, filter_pipeline
from .grid import (
    FREE,
    OCCUPIED,
    OccupancyGrid,
    coverage_percent,
    inflate_obstacles,
    map_entropy,
    merge_maps,
    world_to_grid,
)
from .planner import (
    GridPath,
    cumulative_lengths,
    plan_many,
    pose_at,
    project_arclength,
)
from .posegraph import PoseGraph, extend_trajectory
from .quality import MapQuality, map_quality
from .sensing import integrate_scan, raycast, walk_bound
from .utility import decay, path_gains, score_candidates

log = logging.getLogger("mrexplore")

FULL_COVERAGE_STOP = 99.95
STALL_LIMIT = 3  # ticks without progress before a goal is abandoned


@dataclass
class Robot:
    """A robot's own state. grid is replaced, never mutated, when a scan
    changes it; the values derived from grids are ExplorationSim's (see
    _merge)."""

    rid: int
    pose: tuple[float, float, float]
    grid: OccupancyGrid
    graph: PoseGraph
    path: GridPath | None = None  # ends at the goal; None while pending
    distance: float = 0.0
    stall_ticks: int = 0

    def drop_goal(self):
        self.path = None
        self.stall_ticks = 0


@dataclass
class TickRow:
    time: float
    robot_coverage: list[float]
    merged_coverage: float
    frontier_raw: int
    frontier_filtered: int
    entropy_bits: float
    loop_closures: int


@dataclass
class RunMetrics:
    robot_count: int
    rows: list[TickRow] = field(default_factory=list)
    distances: list[float] = field(default_factory=list)
    final_quality: MapQuality | None = None

    @property
    def final_coverage(self) -> float:
        return self.rows[-1].merged_coverage if self.rows else 0.0

    def mean_reduction_percent(self) -> float:
        """Mean per-request frontier reduction, over the ticks whose served
        request saw at least one raw point."""
        vals = [
            100.0 * (1.0 - r.frontier_filtered / r.frontier_raw)
            for r in self.rows
            if r.frontier_raw > 0
        ]
        return sum(vals) / len(vals) if vals else 0.0

    def csv_header(self) -> list[str]:
        cols = ["time"]
        cols += [f"coverage_r{i}" for i in range(self.robot_count)]
        cols += ["coverage_merged", "frontier_raw", "frontier_filtered",
                 "map_entropy_bits", "loop_closures"]
        return cols

    def to_csv(self) -> str:
        lines = [",".join(self.csv_header())]
        for r in self.rows:
            parts = [f"{r.time:.6f}"]
            parts += [f"{c:.6f}" for c in r.robot_coverage]
            parts += [
                f"{r.merged_coverage:.6f}",
                str(r.frontier_raw),
                str(r.frontier_filtered),
                f"{r.entropy_bits:.6f}",
                str(r.loop_closures),
            ]
            lines.append(",".join(parts))
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        q = self.final_quality
        cols = ["final_time", "final_coverage", "mean_reduction_pct",
                "ssim", "rmse", "alignment_error"]
        cols += [f"distance_r{i}" for i in range(self.robot_count)]
        vals = [
            f"{self.rows[-1].time:.6f}" if self.rows else "0.000000",
            f"{self.final_coverage:.6f}",
            f"{self.mean_reduction_percent():.6f}",
            f"{q.ssim:.6f}", f"{q.rmse:.6f}", f"{q.alignment_error:.6f}",
        ]
        vals += [f"{d:.6f}" for d in self.distances]
        return ",".join(cols) + "\n" + ",".join(vals) + "\n"


class ExplorationSim:
    """One scenario run. Build it from a ScenarioConfig, then call run()."""

    def __init__(self, config: ScenarioConfig):
        """Load the config's world and place its robots; raises ConfigError
        if the world does not load, max_range and its cells are too large
        for the lidar's walk, or the start poses do not fit it."""
        self.config = config
        self.truth = config.load_world()
        if not math.isfinite(walk_bound(config.max_range, self.truth.resolution)):
            raise ConfigError(f"[lidar] max_range {config.max_range:g} is too large for "
                              f"the lidar walk at map resolution {self.truth.resolution}")
        starts = config.resolve_starts(self.truth)
        self.robots = []
        for i in range(config.robot_count):
            self.robots.append(Robot(i, starts[i], self.truth.blank_grid(), PoseGraph()))
        self.state = AllocationState(goal_skip_wait=config.goal_skip_wait)
        self._merge()

    # -- workflow ----------------------------------------------------------

    def _merge(self):
        """Rebuild every value derived from the robots' grids (the merged
        map, its coverage and entropy, each robot's coverage) and reset the
        offer record and the memos of _plan and _gains. Called at build and
        on every tick where some robot's grid changed, and only then. That
        is exact: a grid is replaced, never mutated, and only in
        _sense_all, which then calls _merge; so while an offer record
        exists, detecting afresh gives the lists it was built from, and
        coverage_percent is deterministic. robot_coverage is replaced,
        never mutated, so tick rows may share it."""
        self.merged = merge_maps([r.grid for r in self.robots])
        self.merged_coverage = coverage_percent(self.merged, self.truth)
        self.entropy_bits = map_entropy(self.merged)
        self.robot_coverage = [coverage_percent(r.grid, self.truth) for r in self.robots]
        self.offered = self.raw_count = None  # the offer record
        self.plans = {}  # _plan's results on this merged map
        self.gains = {}  # _gains' results on this merged map

    def _sense_all(self):
        """Scan from every robot's pose, fold each scan into its robot's
        grid and extend its pose graph; call _merge when some scan changed
        a grid."""
        cfg = self.config
        scans = raycast(self.truth, [r.pose for r in self.robots],
                        cfg.beam_count, cfg.max_range)
        changed = False
        for r, scan in zip(self.robots, scans):
            grid = integrate_scan(r.grid, scan)
            if grid is not r.grid:
                r.grid, changed = grid, True
            extend_trajectory(r.graph, r.pose, cfg.graph_params)
        if changed:
            self._merge()

    def _plan(self, robot: Robot, goals) -> list[GridPath | None]:
        """Plan from the robot to every (x, y) goal on an inflated copy of
        the merged map: one GridPath, or None where unreachable, per goal.
        Inflation must not swallow the robot's own cell or a goal cell;
        those keep the merged map's state. The robot's cell is then never
        Occupied: every call plans from a pose that this tick's raycast
        accepted, raycast raises for a pose in a true wall, and the merged
        map is Occupied only at true walls.

        The result is kept in self.plans, keyed on the robot's cell and the
        goals, until _merge rebuilds the merged map. That is exact: the
        result depends only on the merged map, inflation_cells, the robot's
        cell and the goals (plan_many reads only the start's cell, and every
        path starts at that cell's centre); the merged map is replaced,
        never mutated, and only in _merge; and nothing writes into a
        GridPath, so one list may serve several requests and robots."""
        key = (world_to_grid(robot.pose[0], robot.pose[1], self.merged), tuple(goals))
        paths = self.plans.get(key)
        if paths is None:
            g = inflate_obstacles(self.merged, self.config.inflation_cells)
            for x, y in [robot.pose[:2], *goals]:
                cx, cy = world_to_grid(x, y, g)
                if g.in_bounds(cx, cy):
                    g.cells[cy, cx] = self.merged.cells[cy, cx]
            paths = self.plans[key] = plan_many(g, robot.pose, goals)
        if not any(paths):
            log.info("agent %d: no reachable goal", robot.rid)
        return paths

    def _gains(self, robot: Robot, points, paths) -> list[float]:
        """path_gains of the robot's graph along the paths to the reachable
        points of a request.

        The result is kept in self.gains, keyed on the robot, its graph's
        node count, its merged-map cell and the points, until _merge
        rebuilds the merged map. That is exact: while one offer record
        exists, the reachable points and their paths depend only on the
        robot's cell, because the offer and _plan's memo are fixed; and a
        PoseGraph is append-only, changed only by extend_trajectory, which
        appends one node together with that node's edges, so the node count
        pins the graph's nodes and edges."""
        key = (robot.rid, robot.graph.node_count,
               world_to_grid(robot.pose[0], robot.pose[1], self.merged), tuple(points))
        gains = self.gains.get(key)
        if gains is None:
            gains = self.gains[key] = path_gains(robot.graph, paths, self.config.graph_params)
        return gains

    def _goal_areas_known(self, points) -> list[bool]:
        """Per point, whether its disc on the merged map holds no Unknown
        cell: the stale-goal rule for robots' and chosen goals."""
        unk, total = disc_unknown_stats(points, self.merged,
                                        self.config.filter_params.rad)
        return ((total > 0) & (unk == 0)).tolist()

    def run_iteration(self, robot: Robot) -> tuple[int, int, bool]:
        """Serve one agent's request: detect frontiers on every robot's map,
        let the method's policy offer some of them, plan to every offered
        point, let the policy rank the reachable points' paths, and hand the
        chosen path to the robot. The first request after _merge builds the
        offer record (the raw frontier count and the offered points); later
        requests on the same merged map read it. Every way a request ends
        without a goal is decided here. Returns (raw count, offered count,
        got_goal)."""
        offer, rank = POLICIES[self.config.method]
        if self.offered is None:
            local_lists = [detect_frontiers(r.grid) for r in self.robots]
            self.raw_count = sum(len(pts) for pts in local_lists)
            self.offered = offer(self, local_lists)
        raw_n, offered = self.raw_count, self.offered
        if not offered:
            return raw_n, 0, False
        # A chosen goal is never assigned again, so when every offered
        # point is one, the answer is known before planning.
        if not any_open(offered, self.state):
            log.info("agent %d: no assignable goal this round", robot.rid)
            return raw_n, len(offered), False
        paths = self._plan(robot, offered)
        reachable = [i for i, path in enumerate(paths) if path is not None]
        if not reachable:
            return raw_n, len(offered), False
        i = rank(self, robot, [offered[k] for k in reachable],
                 [paths[k] for k in reachable])
        if i is None:
            log.info("agent %d: no assignable goal this round", robot.rid)
            return raw_n, len(offered), False
        robot.path = paths[reachable[i]]
        robot.stall_ticks = 0
        return raw_n, len(offered), True

    def _advance(self, robot: Robot, speed: float, dt: float) -> None:
        """Move along the path, no further than the end of its prefix of
        cells that are Free on the merged map, so robots only ever occupy
        cells their scans proved free; replan around newly seen obstacles
        and abandon goals that stall. Each path in use has its cell states
        read once and its arclengths computed once."""
        path = robot.path
        states = self._cell_states(path)
        if (states == OCCUPIED).any():
            path = robot.path = self._plan(robot, [path.goal])[0]
            if path is None:
                robot.drop_goal()
                return
            states = self._cell_states(path)

        cum = cumulative_lengths(path)
        blocked = np.flatnonzero(states != FREE)
        free_n = int(blocked[0]) if blocked.size else len(states)
        free_end = cum[free_n - 1] if free_n else 0.0
        total = cum[-1]
        s = project_arclength(path, robot.pose)
        target = min(s + speed * dt, free_end)
        if target <= s + 1e-9 and target < total - 1e-9:
            robot.stall_ticks += 1
            if robot.stall_ticks >= STALL_LIMIT:
                log.debug("agent %d: stalled, abandoning goal", robot.rid)
                robot.drop_goal()
            return
        robot.stall_ticks = 0
        old = robot.pose
        robot.pose = pose_at(path, target, robot.pose[2], cum)
        robot.distance += math.hypot(robot.pose[0] - old[0], robot.pose[1] - old[1])
        if target >= total - 1e-9:
            robot.drop_goal()

    def _cell_states(self, path: GridPath) -> np.ndarray:
        """The merged map's state of each of the path's cells, in order."""
        cols, rows = zip(*path.cells)
        return self.merged.cells[rows, cols]

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunMetrics:
        cfg = self.config
        metrics = RunMetrics(robot_count=cfg.robot_count)

        for k in range(cfg.ticks):
            t = (k + 1) * cfg.dt
            self._sense_all()

            # one count finds every stale goal, chosen or held
            chosen = self.state.chosen_coords
            held = [r for r in self.robots if r.path is not None]
            known = self._goal_areas_known(chosen + [r.path.goal for r in held])
            if chosen:
                evicted = evict_known_goals(self.state, known[:len(chosen)])
                if evicted:
                    log.debug("t=%.1f evicted %d stale goals", t, evicted)
            for r, stale in zip(held, known[len(chosen):]):
                if stale:
                    r.drop_goal()

            raw_n = filtered_n = 0
            pending = {r.rid for r in self.robots if r.path is None}
            if pending:
                rid = schedule(pending, self.state)
                raw_n, filtered_n, _ = self.run_iteration(self.robots[rid])

            for r in self.robots:
                if r.path is not None:
                    self._advance(r, cfg.speed, cfg.dt)

            metrics.rows.append(TickRow(
                time=t,
                robot_coverage=self.robot_coverage,
                merged_coverage=self.merged_coverage,
                frontier_raw=raw_n,
                frontier_filtered=filtered_n,
                entropy_bits=self.entropy_bits,
                loop_closures=sum(r.graph.loop_closure_count()
                                  for r in self.robots),
            ))
            if self.merged_coverage >= FULL_COVERAGE_STOP:
                log.info("full coverage at t=%.1f", t)
                break

        metrics.distances = [r.distance for r in self.robots]
        metrics.final_quality = map_quality(self.merged, self.truth)
        if math.isnan(metrics.final_quality.alignment_error):
            log.warning("alignment_error is nan: the final merged map holds "
                        "no Occupied cell to align with the true walls")
        return metrics


def run(config: ScenarioConfig) -> RunMetrics:
    """Run one scenario to completion; identical config and seed give an
    identical metrics stream."""
    return ExplorationSim(config).run()


# Per-method policies. Every method runs the same pipeline (detect, offer,
# plan, rank, hand over the path) and differs only in two steps:
# offer(sim, local_lists) picks the frontier points the served robot may
# go to, from the robots' lists and sim.merged alone, so that one offer
# serves every request until the merged map is rebuilt;
# rank(sim, robot, points, paths) gets the reachable offered points, at
# least one, with their paths, and returns the index of the path to hand
# over, or None.


def _offer_filtered(sim: ExplorationSim, local_lists):
    return filter_pipeline(local_lists, sim.merged, sim.config.filter_params).points


def _offer_raw(sim: ExplorationSim, local_lists):
    return [p for pts in local_lists for p in pts]


def _rank_spread(sim: ExplorationSim, robot: Robot, points, paths):
    """Full utility, then server-side spreading away from chosen goals;
    None when spreading leaves nothing assignable."""
    cfg = sim.config
    scores = score_candidates(robot.pose, sim.merged, robot.graph, points, paths,
                              cfg.utility_params, cfg.graph_params)
    try:
        return select_goal(points, [s.reward for s in scores], sim.state)
    except NoAssignableGoal:
        return None


def _rank_graph_gain(sim: ExplorationSim, robot: Robot, points, paths):
    """Graph gain plus distance decay only; ties to the lowest index. The
    gains come from sim._gains; the decay term reads the exact pose, so it
    is computed on every request."""
    uparams = sim.config.utility_params
    gains = sim._gains(robot, points, paths)
    x, y = robot.pose[0], robot.pose[1]

    def value(i):
        gamma = decay(math.hypot(points[i][0] - x, points[i][1] - y), uparams)
        return uparams.u1_weight * gains[i] + gamma

    return max(range(len(points)), key=value)


def _rank_nearest(sim: ExplorationSim, robot: Robot, points, paths):
    """Nearest point by straight-line distance; ties to the earlier point."""
    x, y = robot.pose[0], robot.pose[1]
    return min(range(len(points)), key=lambda i: math.hypot(points[i][0] - x,
                                                            points[i][1] - y))


POLICIES = {
    "proposed": (_offer_filtered, _rank_spread),
    "mags": (_offer_raw, _rank_graph_gain),
    "greedy_frontier": (_offer_raw, _rank_nearest),
}
