"""The library contract: every public entry point either does what its
docstring says or raises ValueError (ConfigError for ScenarioConfig) with
a message that names the bad argument. No entry point emits a
RuntimeWarning, and none formats the rejected value, whose repr may
itself raise (an int of more than 4,300 digits).

Each entry point below takes one bad value in one argument, all others
valid. The values are NaN, infinities, ints too large for a float,
non-numbers and, for points and poses, tuples of the wrong length."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mrexplore.config import ConfigError, ScenarioConfig
from mrexplore.frontier import FilterParams, disc_unknown_stats, filter_pipeline, merge_points
from mrexplore.grid import OccupancyGrid, cell_entropy, inflate_obstacles
from mrexplore.planner import plan_many
from mrexplore.posegraph import GraphBuildParams, PoseGraph, extend_trajectory
from mrexplore.sensing import raycast
from mrexplore.utility import UtilityParams
from mrexplore.worlds import make_world

HUGE = 10**5000  # repr and str of it raise ValueError
OPEN20 = make_world("open20")
POINT = (5.5, 5.5)
POSE = (5.5, 5.5, 0.0)

bad_number = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, HUGE, -HUGE, "1.0", None, 1j, [1.0]]),
    st.integers(min_value=2**1024), st.integers(max_value=-2**1024))
finite = st.floats(-50.0, 50.0)


def bad_tuple(lengths):
    """A tuple of one of the lengths with one bad number in it, a tuple of
    finite numbers of another length, or a bad number alone."""
    def with_bad(n):
        return st.tuples(st.lists(finite, min_size=n, max_size=n), st.integers(0, n - 1),
                         bad_number).map(lambda t: tuple(t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]))
    wrong = st.integers(0, 5).filter(lambda n: n not in lengths)
    return st.one_of(st.sampled_from(lengths).flatmap(with_bad),
                     wrong.flatmap(lambda n: st.tuples(*[finite] * n)), bad_number)


# Not a count: a float (even one of integer value), a non-number, or an
# integer that a test's assume finds too small.
bad_count = st.one_of(st.integers(max_value=3), st.just(-HUGE), st.floats(),
                      st.just(np.float64(4.0)), bad_number)


def rejects(call, name, error=ValueError):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            call()
    assert name in str(err.value)


def _config(**kwargs):
    return ScenarioConfig(**{"map_source": "builtin:open20", "robot_count": 2, **kwargs})


def _grid(**kwargs):
    return OccupancyGrid(**{"resolution": 1.0, "origin_x": 0.0, "origin_y": 0.0,
                            "width": 4, "height": 4, **kwargs})


# (argument named in the message, call with one bad value, error class)
NUMBERS = {
    "raycast.max_range": ("max_range", lambda v: raycast(OPEN20, [POSE], 8, v), ValueError),
    "disc_unknown_stats.rad": ("rad", lambda v: disc_unknown_stats([POINT], OPEN20, v),
                               ValueError),
    "cell_entropy.p": ("p", cell_entropy, ValueError),
    **{f"OccupancyGrid.{name}": (name, lambda v, name=name: _grid(**{name: v}), ValueError)
       for name in ("resolution", "origin_x", "origin_y")},
    **{f"{cls.__name__}.{name}": (name, lambda v, cls=cls, name=name: cls(**{name: v}),
                                  ValueError)
       for cls, names in ((FilterParams, ("rad", "per_unk", "min_pts", "max_pts",
                                          "rad_step", "perc_step")),
                          (UtilityParams, ("decay_rate", "u1_weight")),
                          (GraphBuildParams, ("node_spacing", "loop_closure_radius",
                                              "odometry_weight", "loop_weight")))
       for name in names},
    **{f"ScenarioConfig.{name}": (name, lambda v, name=name: _config(**{name: v}),
                                  ConfigError)
       for name in ("max_range", "speed", "dt", "max_sim_time")},
}
POINTS = {
    "plan_many.goals": ("goals", lambda p: plan_many(OPEN20, POSE, [POINT, p]), ValueError),
    "disc_unknown_stats.points": ("points", lambda p: disc_unknown_stats([POINT, p], OPEN20, 1.0),
                                  ValueError),
    "merge_points.lists": ("lists", lambda p: merge_points([[POINT], [p]], OPEN20, FilterParams()),
                           ValueError),
    "filter_pipeline.lists": ("lists", lambda p: filter_pipeline([[POINT, p]], OPEN20,
                                                                 FilterParams()), ValueError),
}
POSES = {
    "raycast.poses": ("poses", lambda p: raycast(OPEN20, [POSE, p], 8, 3.0), ValueError),
    "extend_trajectory.pose": ("pose", lambda p: extend_trajectory(PoseGraph(), p,
                                                                   GraphBuildParams()),
                               ValueError),
    "ScenarioConfig.start_poses": ("start_poses", lambda p: _config(start_poses=(POSE, p)),
                                   ConfigError),
}
COUNTS = {  # and the least count each takes
    "raycast.beam_count": ("beam_count", lambda n: raycast(OPEN20, [POSE], n, 3.0),
                           ValueError, 1),
    "inflate_obstacles.cells": ("cells", lambda n: inflate_obstacles(OPEN20, n), ValueError, 0),
    **{f"OccupancyGrid.{name}": (name, lambda n, name=name: _grid(**{name: n}), ValueError, 1)
       for name in ("width", "height")},
    **{f"ScenarioConfig.{name}": (name, lambda n, name=name: _config(**{name: n}),
                                  ConfigError, least)
       for name, least in (("robot_count", 1), ("beam_count", 4), ("goal_skip_wait", 1),
                           ("inflation_cells", 0), ("seed", 0))},
    **{f"FilterParams.{name}": (name, lambda n, name=name: FilterParams(**{name: n}),
                                ValueError, 0)
       for name in ("min_pts", "max_pts")},
}


class TestContract:
    @pytest.mark.parametrize("entry", sorted(NUMBERS))
    @settings(max_examples=40)
    @given(bad=bad_number)
    def test_number(self, entry, bad):
        name, call, error = NUMBERS[entry]
        rejects(lambda: call(bad), name, error)

    @pytest.mark.parametrize("entry", sorted(POINTS))
    @settings(max_examples=40)
    @given(bad=bad_tuple([2]))
    @example(bad=(HUGE, 1.0))
    @example(bad=(5.5,))
    def test_point(self, entry, bad):
        name, call, error = POINTS[entry]
        rejects(lambda: call(bad), name, error)

    @settings(max_examples=40)
    @given(bad=bad_tuple([2, 3]))
    @example(bad=(HUGE, 1.0))
    @example(bad=(5.5,))
    def test_plan_many_start(self, bad):
        # a start is a point or a pose
        rejects(lambda: plan_many(OPEN20, bad, [POINT]), "start")

    @pytest.mark.parametrize("entry", sorted(POSES))
    @settings(max_examples=40)
    @given(bad=bad_tuple([3]))
    @example(bad=(HUGE, 1.0, 0.0))
    @example(bad=(5.5, 5.5))
    def test_pose(self, entry, bad):
        name, call, error = POSES[entry]
        rejects(lambda: call(bad), name, error)

    @pytest.mark.parametrize("entry", sorted(COUNTS))
    @settings(max_examples=40)
    @given(bad=bad_count)
    @example(bad=360.5)
    @example(bad=1.5)
    @example(bad=2.0)
    def test_count(self, entry, bad):
        name, call, error, least = COUNTS[entry]
        assume(not (isinstance(bad, int) and bad >= least))
        rejects(lambda: call(bad), name, error)


# The probes that raised something else, or nothing, before the checks
# were one pair of grid helpers: repr of an int of more than 4,300 digits
# raised first, plan_many indexed a one-number start, and a ScenarioConfig
# took a count that is not an integer and failed at run time. Later ones:
# plan_many raised an error that was no ValueError for a start off the
# grid or in a wall, a ScenarioConfig took any seed, and FilterParams a
# fractional bound on the list size.
PROBES = [
    pytest.param(lambda: raycast(OPEN20, [(HUGE, 5.0, 0.0)], 8, 3.0), "poses", ValueError,
                 id="raycast_huge_int_pose"),
    pytest.param(lambda: extend_trajectory(PoseGraph(), (HUGE, 1.0, 0.0), GraphBuildParams()),
                 "pose", ValueError, id="extend_trajectory_huge_int_pose"),
    pytest.param(lambda: plan_many(OPEN20, (HUGE, 1.0), [(5.5, 5.5)]), "start", ValueError,
                 id="plan_many_huge_int_start"),
    pytest.param(lambda: plan_many(OPEN20, (5.5, 1.0), [(HUGE, 5.5)]), "goals", ValueError,
                 id="plan_many_huge_int_goal"),
    pytest.param(lambda: plan_many(OPEN20, (5.5,), [(5.5, 1.0)]), "start", ValueError,
                 id="plan_many_one_number_start"),
    pytest.param(lambda: ScenarioConfig(map_source="builtin:open20", robot_count=1,
                                        start_poses=((HUGE, 1.0, 0.0),)),
                 "start_poses", ConfigError, id="config_huge_int_start_pose"),
    pytest.param(lambda: ScenarioConfig(beam_count=360.5), "beam_count", ConfigError,
                 id="config_fractional_beam_count"),
    pytest.param(lambda: ScenarioConfig(inflation_cells=1.5), "inflation_cells", ConfigError,
                 id="config_fractional_inflation_cells"),
    pytest.param(lambda: ScenarioConfig(robot_count=2.0), "robot_count", ConfigError,
                 id="config_float_robot_count"),
    pytest.param(lambda: ScenarioConfig(map_source="builtin:open20", robot_count=1.5,
                                        start_poses=((5.5, 5.5, 0.0),)),
                 "robot_count", ConfigError, id="config_fractional_robot_count"),
    pytest.param(lambda: plan_many(OPEN20, (-5.0, -5.0), [(5.5, 5.5)]), "start", ValueError,
                 id="plan_many_start_off_the_grid"),
    pytest.param(lambda: plan_many(OPEN20, (0.5, 0.5), [(5.5, 5.5)]), "start", ValueError,
                 id="plan_many_start_in_a_wall"),
    pytest.param(lambda: ScenarioConfig(map_source="builtin:open20", robot_count=1, seed=None),
                 "seed", ConfigError, id="config_none_seed"),
    pytest.param(lambda: ScenarioConfig(map_source="builtin:open20", robot_count=1, seed=[1]),
                 "seed", ConfigError, id="config_list_seed"),
    pytest.param(lambda: FilterParams(min_pts=0.5, max_pts=2.5), "min_pts", ValueError,
                 id="filter_fractional_min_pts"),
]


@pytest.mark.parametrize("call, name, error", PROBES)
def test_probe_names_its_argument(call, name, error):
    rejects(call, name, error)
