"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them all). Tolerances are fixed here and
are not calibration knobs."""

import hashlib
import math
import os
import time

import numpy as np

from mrexplore.allocate import AllocationState, schedule, select_goal
from mrexplore.cli import EXIT_OK, main
from mrexplore.config import ScenarioConfig
from mrexplore.frontier import FilterParams, filter_pipeline
from mrexplore.grid import (
    OccupancyGrid,
    UNKNOWN,
    FREE,
    OCCUPIED,
    cell_entropy,
    map_entropy,
)
from mrexplore.planner import NoPathError, plan
from mrexplore.posegraph import log_spanning_trees
from mrexplore.quality import map_quality
from mrexplore.simulate import run
from mrexplore.worlds import make_world

from test_planner import shortest_cost_oracle
from test_posegraph import graph_of, random_connected_graph, spanning_tree_weight_sum


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_01_spanning_tree_oracle_equivalence():
    rng = np.random.RandomState(20240601)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        n, edges = random_connected_graph(rng, max_nodes=7)
        got = math.exp(log_spanning_trees(graph_of(n, edges)))
        want = spanning_tree_weight_sum(n, edges)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - t0
    report(1, "spanning-tree log-det matches brute force (100 graphs)",
           worst <= 1e-6 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_02_entropy_analytics_exact():
    checks = [
        cell_entropy(0.5) == 1.0,
        cell_entropy(0.0) == 0.0,
        cell_entropy(1.0) == 0.0,
    ]
    for n in (1, 7, 64, 513):
        g = OccupancyGrid(1.0, 0.0, 0.0, n, 1)
        checks.append(abs(map_entropy(g) - n) <= 1e-12 * max(1, n))
    report(2, "entropy identities exact to 1e-12", all(checks))


def test_03_frontier_reduction_on_desk():
    cfg = ScenarioConfig(
        map_source="builtin:desk", robot_count=3, seed=1, method="proposed",
        dt=1.0, max_sim_time=150.0,
        filter_params=FilterParams(rad=1.0, per_unk=60.0, min_pts=0, max_pts=10),
    )
    metrics = run(cfg)
    reduction = metrics.mean_reduction_percent()
    iters = sum(1 for row in metrics.rows if row.frontier_raw > 0)
    report(3, "mean frontier reduction >= 50% (desk, 3 robots)",
           reduction >= 50.0 and iters > 10,
           f"{reduction:.1f}% over {iters} iterations")


def test_04_coverage_ordering_proposed_vs_mags():
    t0 = time.time()
    means = {}
    for method in ("proposed", "mags"):
        finals = []
        for seed in (1, 2, 3, 4, 5):
            cfg = ScenarioConfig(map_source="builtin:desk", robot_count=3,
                                 seed=seed, method=method, dt=1.0,
                                 max_sim_time=300.0)
            finals.append(run(cfg).final_coverage)
        means[method] = sum(finals) / len(finals)
    elapsed = time.time() - t0
    report(4, "mean coverage: proposed > mags (5 seeds x 300s)",
           means["proposed"] > means["mags"] and elapsed < 300.0,
           f"proposed {means['proposed']:.2f}% vs mags {means['mags']:.2f}%, "
           f"{elapsed:.0f}s")


def test_05_list_bound_enforcement_terminates():
    rng = np.random.RandomState(99)
    t0 = time.time()
    ok = True
    for trial in range(1000):
        w, h = rng.randint(5, 21, size=2)
        cells = rng.choice([UNKNOWN, FREE, OCCUPIED], size=(h, w),
                           p=[0.45, 0.45, 0.1]).astype(np.int8)
        g = OccupancyGrid(1.0, 0.0, 0.0, int(w), int(h), cells)
        raw = [(rng.uniform(-2, w + 2), rng.uniform(-2, h + 2))
               for _ in range(rng.randint(0, 25))]
        min_pts = int(rng.randint(0, 3))
        params = FilterParams(
            rad=float(rng.choice([0.5, 1.0, 1.5])),
            per_unk=float(rng.choice([30.0, 60.0, 90.0])),
            min_pts=min_pts, max_pts=min_pts + int(rng.randint(1, 8)),
            rad_step=0.25, perc_step=10.0,
        )
        out = filter_pipeline([raw], g, params)
        bound = (math.ceil(params.per_unk / params.perc_step)
                 + math.ceil(math.hypot(w, h) / params.rad_step) + 2)
        in_bounds = params.min_pts < len(out.points) < params.max_pts
        if out.iterations > bound or not (in_bounds or out.exhausted):
            ok = False
            break
    elapsed = time.time() - t0
    report(5, "list-size control terminates within clamp bound (1000 grids)",
           ok and elapsed < 60.0, f"{elapsed:.1f}s, zero hangs")


def test_06_liveness_under_contention():
    # agents 0 and 1 alternate requests while agent 2 is always pending
    state = AllocationState(goal_skip_wait=5)
    consecutive = {0: 0, 1: 0, 2: 0}
    worst = 0
    for round_no in range(120):
        pending = {round_no % 2, 2}
        served = schedule(pending, state)
        for agent in pending:
            if agent == served:
                consecutive[agent] = 0
            else:
                consecutive[agent] += 1
                worst = max(worst, consecutive[agent])
    report(6, "no agent deferred more than GOAL_SKIP_WAIT=5 times in a row",
           worst <= 5, f"max consecutive deferrals {worst}")


def test_07_reward_spread_prefers_farthest():
    state = AllocationState()
    state.chosen_coords.append((0.0, 0.0))
    candidates = [(3.0, 0.0), (14.0, 0.0),
                  (7.0, 0.0)]
    goal = candidates[select_goal(candidates, [5.0] * len(candidates), state)]
    report(7, "equal-reward candidates: farthest from chosen goal wins",
           (goal[0], goal[1]) == (14.0, 0.0), f"picked ({goal[0]}, {goal[1]})")


def test_08_planner_matches_exhaustive_oracle():
    rng = np.random.RandomState(777)
    exact = True
    solved = 0
    for _ in range(200):
        w, h = rng.randint(3, 9, size=2)
        cells = (rng.random((h, w)) < 0.28).astype(np.int8)
        cells[0, 0] = FREE
        gx, gy = int(rng.randint(0, w)), int(rng.randint(0, h))
        g = OccupancyGrid(1.0, 0.0, 0.0, int(w), int(h), cells)
        want = shortest_cost_oracle(g, (0, 0), (gx, gy))
        try:
            got = plan(g, (0.5, 0.5), (gx + 0.5, gy + 0.5)).length_m
        except NoPathError:
            got = math.inf
        if math.isfinite(want) != math.isfinite(got):
            exact = False
            break
        if math.isfinite(want):
            solved += 1
            if abs(got - want) > 1e-9:
                exact = False
                break
    report(8, "planner cost equals exhaustive oracle (200 grids)",
           exact and solved > 60, f"{solved} solvable cases")


def test_09_cmd_run_determinism(tmp_path):
    cfg_text = (
        "[scenario]\n"
        "map = builtin:desk\n"
        "robots = 3\n"
        "seed = 6\n"
        "dt = 1.0\n"
        "max_sim_time = 40\n"
    )
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    hashes = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["run", "--config", str(cfg), "--out", out]) == EXIT_OK
        blob = open(os.path.join(out, "metrics.csv"), "rb").read()
        hashes.append(hashlib.sha256(blob).hexdigest())
    report(9, "identical config+seed give byte-identical metrics.csv",
           hashes[0] == hashes[1], hashes[0][:12])


def test_10_map_quality_identity():
    truth = make_world("desk")
    as_grid = OccupancyGrid(truth.resolution, truth.origin_x, truth.origin_y,
                            truth.width, truth.height, truth.cells.copy())
    q = map_quality(as_grid, truth)
    ok = (abs(q.ssim - 1.0) <= 1e-9 and q.rmse == 0.0
          and q.alignment_error == 0.0)
    report(10, "self-comparison: ssim=1, rmse=0, alignment=0", ok,
           f"ssim={q.ssim!r} rmse={q.rmse!r} ae={q.alignment_error!r}")
