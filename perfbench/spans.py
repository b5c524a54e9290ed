"""Outside-in span recorder for the traced benchmark run.

Modules import each other with ``from .x import y``, so every call across a
layer boundary looks its callee up in the *calling* module's namespace at
call time. Replacing that name with a timing wrapper records the call
without editing the program. Spans stay in memory and are written to one
JSON file when the run ends; the per-layer table is computed from that file.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter
from time import perf_counter

ROOT_SPAN = "simulate.run"  # ExplorationSim.run
INIT_SPAN = "simulate.init"  # ExplorationSim.__init__, part of set-up
# top-level spans of set-up, which the run time leaves out
SETUP_SPANS = ("config.load_config", INIT_SPAN)
PROBE_SPAN = "trace.probe"  # the speed probe of worker.py, not a layer

# (calling namespace, attribute, span name). Only boundary functions that a
# run calls at most about ten thousand times are wrapped, so that the
# wrapper cost stays small next to the run. world_to_grid, for one, is
# called far more often and stays inside its callers' self time.
BOUNDARIES = [
    ("mrexplore.config", "load_config", "config.load_config"),
    ("mrexplore.config", "make_world", "worlds.make_world"),
    ("mrexplore.simulate:ExplorationSim", "__init__", INIT_SPAN),
    ("mrexplore.simulate:ExplorationSim", "run", ROOT_SPAN),
    ("mrexplore.simulate:ExplorationSim", "run_iteration", "simulate.run_iteration"),
    ("mrexplore.simulate", "raycast", "sensing.raycast"),
    ("mrexplore.simulate", "integrate_scan", "sensing.integrate_scan"),
    ("mrexplore.simulate", "extend_trajectory", "posegraph.extend_trajectory"),
    ("mrexplore.simulate", "merge_maps", "grid.merge_maps"),
    ("mrexplore.simulate", "coverage_percent", "grid.coverage_percent"),
    ("mrexplore.simulate", "map_entropy", "grid.map_entropy"),
    ("mrexplore.simulate", "inflate_obstacles", "grid.inflate_obstacles"),
    ("mrexplore.simulate", "detect_frontiers", "frontier.detect_frontiers"),
    ("mrexplore.simulate", "filter_pipeline", "frontier.filter_pipeline"),
    ("mrexplore.simulate", "disc_unknown_stats", "frontier.disc_unknown_stats"),
    ("mrexplore.simulate", "plan_many", "planner.plan_many"),
    ("mrexplore.simulate", "score_candidates", "utility.score_candidates"),
    ("mrexplore.utility", "trajectory_gain", "posegraph.trajectory_gain"),
    ("mrexplore.simulate", "schedule", "allocate.schedule"),
    ("mrexplore.simulate", "select_goal", "allocate.select_goal"),
    ("mrexplore.simulate", "evict_known_goals", "allocate.evict_known_goals"),
    ("mrexplore.simulate", "cumulative_lengths", "move.cumulative_lengths"),
    ("mrexplore.simulate", "project_arclength", "move.project_arclength"),
    ("mrexplore.simulate", "pose_at", "move.pose_at"),
    ("mrexplore.simulate", "map_quality", "quality.map_quality"),
    # the final writes of cli._run_one
    ("mrexplore.cli", "merge_maps", "grid.merge_maps"),
    ("mrexplore.cli", "save_grid", "pgm.save_grid"),
]

# Work counts taken at the boundary from (args, result): the counter names,
# then a function giving one value per name for a call.
COUNTERS = {
    "planner.plan_many": (("goals", "reached"), lambda a, r: (
        len(a[2]), sum(p is not None for p in r))),
    "sensing.raycast": (("beams",), lambda a, r: (a[2],)),
    "posegraph.trajectory_gain": (("nodes",), lambda a, r: (a[0].node_count,)),
    "frontier.detect_frontiers": (("points",), lambda a, r: (len(r),)),
    "frontier.filter_pipeline": (
        ("raw", "kept", "relax_iters", "exhausted"), lambda a, r: (
            sum(len(pts) for pts in a[0]), len(r.points), r.iterations,
            int(r.exhausted))),
    "utility.score_candidates": (("candidates", "paths"), lambda a, r: (
        len(a[3]), sum(s.path is not None for s in r))),
    "allocate.evict_known_goals": (("evicted",), lambda a, r: (r,)),
    "simulate.run_iteration": (("goals",), lambda a, r: (int(r[2]),)),
    "pgm.save_grid": (("bytes",), lambda a, r: (os.path.getsize(a[1]),)),
}


# raw sums reported only through the metric derived from them
DERIVED_ONLY = ("sensing.raycast.beams", "posegraph.trajectory_gain.nodes",
                "pgm.save_grid.bytes")


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Records [name, parent id, request id, start, end] per call; a span's
    id is its index. The request id is the tick index."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self.request,
               perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        keys, counter = COUNTERS.get(name, ((), None))
        counts = self.counts

        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                self.end(rec)
            if counter is not None:
                for key, value in zip(keys, counter(args, result)):
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Replace every boundary name with its traced wrapper, and advance
        the request id at the start of each tick (its sensing step)."""
        for spec, attr, name in BOUNDARIES:
            owner = _owner(spec)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))
        sim_cls = _owner("mrexplore.simulate:ExplorationSim")
        sense_all = sim_cls._sense_all

        def ticking(sim):
            self.request += 1
            return sense_all(sim)

        sim_cls._sense_all = ticking

    def dump(self, path: str, run_s: float, ref_run_s: float) -> None:
        """Write the spans; run_s is wall time, ref_run_s at reference speed,
        both without the probes."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_s": run_s, "ref_run_s": ref_run_s,
                       "ticks": self.request + 1,
                       "counts": self.counts, "spans": self.spans}, f)


def span_table(spans) -> dict[str, dict[str, float]]:
    """calls, total seconds and self seconds per span name. Self time is a
    span's duration minus the durations of its direct children. Raises
    ValueError if a span's self time is negative: its children then do not
    nest inside it."""
    child = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        self_s = end - start - child[i]
        if self_s < -1e-9:
            raise ValueError(f"span {i} ({name}) has a negative self time")
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += self_s
    return table


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, untraced_ref_run_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, from its written trace.
    Tracing overhead compares run times at reference speed. Raises
    ValueError if the spans do not nest (see span_table)."""
    table = span_table(trace["spans"])
    counts = Counter(trace["counts"])
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name in dict.fromkeys(n for _, _, n in BOUNDARIES):
        if name.startswith("move.") or name in (INIT_SPAN, ROOT_SPAN):
            continue
        row = table.get(name, zero)
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = row[key]
    for name, (keys, _) in COUNTERS.items():
        for key in keys:
            if f"{name}.{key}" not in DERIVED_ONLY:
                out[f"{name}.{key}"] = counts[f"{name}.{key}"]

    move = [table.get(n, zero) for _, _, n in BOUNDARIES if n.startswith("move.")]
    out["move.calls"] = sum(r["calls"] for r in move)
    out["move.s"] = sum(r["s"] for r in move)

    gain_calls = out["posegraph.trajectory_gain.calls"]
    out["posegraph.trajectory_gain.nodes_mean"] = _ratio(
        counts["posegraph.trajectory_gain.nodes"], gain_calls)
    out["allocate.select_goal.no_goal"] = counts["allocate.select_goal.raised"]
    out["sensing.beams"] = counts["sensing.raycast.beams"]
    out["pgm.bytes"] = counts["pgm.save_grid.bytes"]
    out["planner.reach_ratio"] = _ratio(
        counts["planner.plan_many.reached"], counts["planner.plan_many.goals"])
    out["frontier.keep_ratio"] = _ratio(
        counts["frontier.filter_pipeline.kept"], counts["frontier.filter_pipeline.raw"])
    out["utility.path_use_ratio"] = _ratio(
        counts["simulate.run_iteration.goals"], counts["utility.score_candidates.paths"])
    out["simulate.goal_ratio"] = _ratio(
        counts["simulate.run_iteration.goals"], out["simulate.run_iteration.calls"])

    # Outside set-up, the spans form trees whose roots are ExplorationSim.run
    # and the final writes. The self times in a tree add up to its root's
    # duration, so the layers' self times, probes left out, are summed from
    # the roots. They must match run_s, which the worker times outside the
    # tracer: the wrapped functions then account for the whole run.
    layer_sum = sum(end - start for name, parent, _, start, end in trace["spans"]
                    if parent < 0 and name not in SETUP_SPANS)
    layer_sum -= table.get(PROBE_SPAN, zero)["s"]
    root = table[ROOT_SPAN]
    run_s = trace["run_s"]
    out["simulate.self_s"] = root["self_s"]
    out["simulate.ticks"] = trace["ticks"]
    out["trace.run_s"] = run_s
    out["trace.overhead_s"] = trace["ref_run_s"] - untraced_ref_run_s
    out["trace.spans"] = len(trace["spans"])
    out["trace.sum_error_ratio"] = abs(layer_sum - run_s) / run_s
    return out
