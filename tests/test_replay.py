"""tools/replay.py records the arguments of chosen calls over one run and
replays them; these tests capture short runs and replay them in process."""

import importlib
import pickle
from pathlib import Path

import pytest

from mrexplore import planner, sensing, simulate, utility
from mrexplore.config import ScenarioConfig
from mrexplore.planner import GridPath

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PLAN = "mrexplore.simulate.plan_many"
GAINS = "mrexplore.simulate.path_gains"
RAYCAST = "mrexplore.simulate.raycast"


@pytest.fixture
def replay(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("replay")


def two_wings(method):
    return ScenarioConfig(map_source="builtin:two_wings", robot_count=2,
                          max_sim_time=30, method=method)


def records(path):
    with open(path, "rb") as f:
        while True:
            try:
                yield pickle.load(f)
            except EOFError:
                return


def test_plan_many_replays_to_equal_digests(replay, tmp_path):
    path = tmp_path / "capture.pkl"
    n = replay.capture([PLAN], two_wings("proposed"), path)
    assert simulate.plan_many is planner.plan_many  # put back after the run
    assert n > 0
    got = replay.replay(path)
    assert got["calls"] == {PLAN: n}
    assert got["differ"] == []
    assert got["digests"] == [want for _, _, want in records(path)]


def test_gains_replay_on_the_replayed_paths(replay, tmp_path):
    # path_gains gets the paths of the plan_many call before it, so its
    # record refers to that call's result instead of holding the paths
    path = tmp_path / "capture.pkl"
    replay.capture([PLAN, GAINS], two_wings("mags"), path)
    assert simulate.path_gains is utility.path_gains
    names = [name for name, _, _ in records(path)]
    assert names.count(GAINS) > 0 and names[0] == PLAN
    for name, blob, _ in records(path):
        if name == GAINS:
            assert b"GridPath" not in blob
    got = replay.replay(path)
    assert got["differ"] == []


def test_raycast_replays_to_equal_digests(replay, tmp_path):
    # a call's scans are grids whose cells are views into one shared block;
    # the digest reads them by value
    path = tmp_path / "capture.pkl"
    config = two_wings("proposed")
    n = replay.capture([RAYCAST], config, path)
    assert simulate.raycast is sensing.raycast
    assert n == 30  # one call per tick
    # every call gets the same true map, and the capture stores it once
    truth = pickle.dumps(config.load_world(), protocol=4)
    assert path.stat().st_size < 3 * len(truth)
    got = replay.replay(path)
    assert got["calls"] == {RAYCAST: n}
    assert got["differ"] == []
    assert got["digests"] == [want for _, _, want in records(path)]


def test_digest_compares_by_value(replay):
    path = GridPath([(0, 0)], 0.0, [(0.5, 0.5)])
    assert replay.digest(path) == replay.digest(
        GridPath([(0, 0)], 0.0, [(0.5, 0.5)], extends=2, shared=1))
    assert replay.digest(path) != replay.digest(GridPath([(0, 0)], 0.0, [(0.5, 1.5)]))
    shared = (0.5, 0.5)
    assert replay.digest([[shared], [shared]]) == replay.digest([[(0.5, 0.5)], [(0.5, 0.5)]])
