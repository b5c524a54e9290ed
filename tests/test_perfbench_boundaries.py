"""The traced benchmark run (perfbench/spans.py) times each layer by
replacing a function name in the namespace of its caller, as listed in
BOUNDARIES, and counts work from the arguments and results of some of
those calls (COUNTERS). A refactor that drops one of those names, or moves
an argument a counter reads, would break only a traced run, so these tests
resolve every name and trace one short run per method.

perfbench/worker.py times an untraced run through other names: it calls
cli._run_one(config, out) with the ExplorationSim that cli imports, wraps
that class's __init__, _sense_all and run_iteration, and checks the
metrics.csv header against RunMetrics.csv_header()."""

import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter

import pytest

from mrexplore import cli, simulate
from mrexplore.config import METHODS, ScenarioConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_boundary_resolves(spans):
    missing = [
        f"{spec}.{attr}" for spec, attr, _ in spans.BOUNDARIES
        if not hasattr(spans._owner(spec), attr)
    ]
    assert not missing, f"boundaries that no longer resolve: {missing}"


def test_worker_hooks_resolve():
    assert cli.ExplorationSim is simulate.ExplorationSim
    inspect.signature(cli._run_one).bind("config", "out")
    for attr in ("__init__", "_sense_all", "run_iteration"):
        assert callable(getattr(simulate.ExplorationSim, attr, None)), attr
    assert callable(getattr(simulate.RunMetrics, "csv_header", None))


@pytest.mark.parametrize("method", METHODS)
def test_traced_run(spans, monkeypatch, tmp_path, method):
    # the tracer replaces every boundary and the tick hook; put them back after
    for spec, attr, _ in spans.BOUNDARIES:
        owner = spans._owner(spec)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    sim_cls = spans._owner("mrexplore.simulate:ExplorationSim")
    monkeypatch.setattr(sim_cls, "_sense_all", sim_cls._sense_all)
    tracer = spans.Tracer()
    tracer.install()

    cfg = ScenarioConfig(map_source="builtin:two_wings", robot_count=2,
                         max_sim_time=30, method=method)
    t0 = perf_counter()
    cli._run_one(cfg, str(tmp_path))
    run_s = perf_counter() - t0
    tracer.dump(str(tmp_path / "trace.json"), run_s, run_s)
    trace = json.loads((tmp_path / "trace.json").read_text())

    # raises ValueError if some span's self time is negative
    m = spans.layer_metrics(trace, run_s)
    assert m["simulate.ticks"] == 30
    # one batched disc count per tick decides every stale goal
    assert m["frontier.disc_unknown_stats.calls"] <= m["simulate.ticks"]
    # one beam walk per tick casts every robot's beams
    assert m["sensing.raycast.calls"] == 30
    assert m["sensing.beams"] == 30 * cfg.beam_count
    # the merged map and its entropy are rebuilt only on ticks whose scans
    # changed some map, and some ticks change none
    assert m["grid.map_entropy.calls"] < m["simulate.ticks"]
    assert m["simulate.run_iteration.goals"] >= 1
    assert m["planner.plan_many.reached"] <= m["planner.plan_many.goals"]
    # the per-path gain work stays inside the wrapped trajectory_gain name
    gain_calls = m["posegraph.trajectory_gain.calls"]
    if method == "proposed":
        assert gain_calls == m["utility.score_candidates.paths"]
    elif method == "mags":
        assert gain_calls > 0
        assert m["posegraph.trajectory_gain.nodes_mean"] > 0
    else:  # greedy_frontier ranks by distance alone
        assert gain_calls == 0
