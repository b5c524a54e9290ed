import math
import tempfile
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrexplore.config import ConfigError, ScenarioConfig, load_config
from mrexplore.frontier import FilterParams
from mrexplore.grid import FREE, GroundTruthMap
from mrexplore.posegraph import GraphBuildParams
from mrexplore.simulate import ExplorationSim
from mrexplore.utility import UtilityParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOOD = """
# demo scenario
[scenario]
map = builtin:open20
robots = 2
start_poses = 10.5, 10.5, 0.0 ; 5.5, 5.5, 1.57
method = proposed
seed = 7
speed = 0.8
dt = 0.5
max_sim_time = 42   # inline comment

[lidar]
beam_count = 90
max_range = 4.5

[filter]
rad = 1.5
per_unk = 55
min_pts = 1
max_pts = 8

[utility]
decay_rate = 0.2
u1_weight = 0.5

[graph]
node_spacing = 0.5
loop_closure_radius = 1.0

[allocation]
goal_skip_wait = 4

[planner]
inflation_cells = 0
"""


class TestLoadConfig:
    def test_full_parse(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(GOOD)
        cfg = load_config(str(path))
        assert cfg.map_source == "builtin:open20"
        assert cfg.robot_count == 2
        assert cfg.start_poses == ((10.5, 10.5, 0.0), (5.5, 5.5, 1.57))
        assert cfg.method == "proposed"
        assert cfg.seed == 7
        assert cfg.max_sim_time == 42.0
        assert cfg.beam_count == 90
        assert cfg.filter_params.per_unk == 55.0
        assert cfg.filter_params.min_pts == 1
        assert cfg.utility_params.decay_rate == 0.2
        assert cfg.graph_params.node_spacing == 0.5
        assert cfg.goal_skip_wait == 4
        assert cfg.inflation_cells == 0

    def test_defaults_fill_missing(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("[scenario]\nmap = builtin:desk\n")
        cfg = load_config(str(path))
        assert cfg.robot_count == 3
        assert cfg.filter_params.per_unk == 60.0
        assert cfg.filter_params.max_pts == 10
        assert cfg.goal_skip_wait == 5

    def test_params_sections_default_to_dataclasses(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("[scenario]\nmap = builtin:desk\n")
        cfg = load_config(str(path))
        assert cfg.filter_params == FilterParams()
        assert cfg.utility_params == UtilityParams()
        assert cfg.graph_params == GraphBuildParams()

    def test_params_read_with_their_default_type(self, tmp_path):
        # "2" reads as 2 for an int field and as 2.0 for a float field
        path = tmp_path / "ints.cfg"
        path.write_text("[filter]\nrad = 2\nper_unk = 50\nmin_pts = 1\n"
                        "max_pts = 8\n[utility]\ndecay_rate = 1\n"
                        "[graph]\nloop_weight = 3\n")
        cfg = load_config(str(path))
        for params in (cfg.filter_params, cfg.utility_params, cfg.graph_params):
            for f in fields(params):
                assert type(getattr(params, f.name)) is type(f.default), f.name
        assert (cfg.filter_params.rad, cfg.filter_params.max_pts) == (2.0, 8)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/scenario.cfg")

    def test_bad_method(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nmethod = random_walk\n")
        with pytest.raises(ConfigError, match="method"):
            load_config(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nrobots = many\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_pose_triple(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nstart_poses = 1.0, 2.0\n")
        with pytest.raises(ConfigError, match="pose"):
            load_config(str(path))

    @pytest.mark.parametrize("text, message", [
        ("[lidar]\nbeams = 720\n", "[lidar] unknown key 'beams'"),
        ("[lidr]\nbeam_count = 720\n", "unknown section [lidr]"),
        ("[scenario]\nrobots = 1\n[DEFAULT]\nseed = 3\n", "[DEFAULT] unknown key 'seed'"),
        ("[graph]\nrad = 2\n", "[graph] unknown key 'rad'"),
    ], ids=["key", "section", "default_key", "key_of_other_section"])
    def test_unknown_section_or_key_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert str(err.value) == message

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
    def test_bundled_configs_load(self, name):
        load_config(str(CONFIGS / name))


VALIDATED = ("speed", "dt", "max_sim_time", "max_range")


class TestNonFinite:
    @pytest.mark.parametrize("section,key,value", [
        ("scenario", "speed", "nan"),
        ("scenario", "max_sim_time", "inf"),
        ("lidar", "max_range", "nan"),
        ("filter", "per_unk", "nan"),
        ("utility", "decay_rate", "inf"),
        ("utility", "u1_weight", "-inf"),
        ("graph", "loop_weight", "nan"),
    ])
    def test_file_value_rejected(self, tmp_path, section, key, value):
        path = tmp_path / "scenario.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{key}: must be a finite number"):
            load_config(str(path))

    def test_pose_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("[scenario]\nmap = builtin:open20\nrobots = 1\n"
                        "start_poses = nan, 1.5, 0\n")
        with pytest.raises(ConfigError, match="pose"):
            load_config(str(path))

    @pytest.mark.parametrize("field,value", [
        *(pytest.param(f, math.nan, id=f) for f in VALIDATED),
        *(pytest.param(f, 10**400, id=f"{f}-int_too_large_for_float") for f in VALIDATED),
    ])
    def test_validate_rejects_nan(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            ScenarioConfig(**{field: value})


class TestValidByConstruction:
    @pytest.mark.parametrize("cls,field", [
        (ScenarioConfig, "seed"), (FilterParams, "rad"),
        (UtilityParams, "decay_rate"), (GraphBuildParams, "node_spacing"),
    ])
    def test_fields_cannot_be_assigned(self, cls, field):
        obj = cls()
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))

    @pytest.mark.parametrize("max_sim_time,dt", [(0.4, 1.0), (1e300, 1e-300)],
                             ids=["rounds_to_0", "infinite"])
    def test_run_needs_a_finite_count_of_ticks(self, max_sim_time, dt):
        with pytest.raises(ConfigError, match="tick"):
            ScenarioConfig(max_sim_time=max_sim_time, dt=dt)

    @pytest.mark.parametrize("pose", [
        (5.0, 5.0, math.inf), (math.nan, 5.0, 0.0), (5.0, -math.inf, 0.0),
        (5.0, 5.0), (5.0, 5.0, 0.0, 0.0), (5.0, 5.0, "0"), (10**400, 5.0, 0.0), None,
    ], ids=["inf_heading", "nan_x", "inf_y", "pair", "four", "text", "int_too_large",
            "none"])
    def test_start_pose_is_three_finite_numbers(self, pose):
        with pytest.raises(ConfigError, match=r"start_poses\[1\] is not three finite numbers"):
            ScenarioConfig(map_source="builtin:desk", robot_count=2,
                           start_poses=[(10.5, 10.5, 0.0), pose])

    def test_start_poses_cannot_be_changed_after_the_checks(self):
        cfg = ScenarioConfig(map_source="builtin:open20", robot_count=2,
                             start_poses=[[10.5, 10.5, 0.0], (5.5, 5.5, 0.0)])
        assert cfg.start_poses == ((10.5, 10.5, 0.0), (5.5, 5.5, 0.0))
        with pytest.raises(TypeError):
            cfg.start_poses[0] = (math.nan, 10.5, 0.0)
        with pytest.raises(TypeError):
            cfg.start_poses[0][0] = math.nan

    def test_ticks_round_the_run_length(self):
        assert ScenarioConfig(max_sim_time=0.6, dt=1.0).ticks == 1
        assert ScenarioConfig(max_sim_time=42.0, dt=0.5).ticks == 84


class TestStartResolution:
    def test_jitter_is_seeded(self):
        cfg1 = ScenarioConfig(map_source="builtin:open20", robot_count=1, seed=9)
        cfg2 = ScenarioConfig(map_source="builtin:open20", robot_count=1, seed=9)
        truth = cfg1.load_world()
        assert cfg1.resolve_starts(truth) == cfg2.resolve_starts(truth)

    def test_jitter_preserves_cell(self):
        cfg = ScenarioConfig(map_source="builtin:open20", robot_count=2, seed=4)
        truth = cfg.load_world()
        for (jx, jy, _), (x, y, _) in zip(cfg.resolve_starts(truth),
                                          [(10.5, 10.5, 0), (5.5, 5.5, 0)]):
            assert math.floor(jx) == math.floor(x)
            assert math.floor(jy) == math.floor(y)

    def test_jitter_never_leaves_the_free_cells(self):
        # one 3 m Free cell; a jitter of up to 0.9 m from x = y = 0.5 can
        # leave the map, and then the given position is kept
        truth = GroundTruthMap(3.0, 0.0, 0.0, 1, 1, np.array([[FREE]], dtype=np.int8))
        for seed in range(1, 21):
            cfg = ScenarioConfig(map_source="m.pgm", robot_count=1, seed=seed,
                                 start_poses=[(0.5, 0.5, 0.0)])
            (x, y, _), = cfg.resolve_starts(truth)
            assert 0.0 <= x < 3.0 and 0.0 <= y < 3.0, seed

    def test_pose_in_wall_rejected(self):
        cfg = ScenarioConfig(map_source="builtin:open20", robot_count=1,
                             start_poses=[(0.5, 0.5, 0.0)])
        truth = cfg.load_world()
        with pytest.raises(ConfigError, match="free cell"):
            cfg.resolve_starts(truth)

    def test_count_mismatch(self):
        cfg = ScenarioConfig(map_source="builtin:open20", robot_count=3,
                             start_poses=[(10.5, 10.5, 0.0)])
        truth = cfg.load_world()
        with pytest.raises(ConfigError, match="start poses"):
            cfg.resolve_starts(truth)

    def test_missing_map_file(self):
        cfg = ScenarioConfig(map_source="/no/such/map.pgm")
        with pytest.raises(ConfigError, match="/no/such/map.pgm"):
            cfg.load_world()

    def test_unknown_builtin_world(self):
        with pytest.raises(ConfigError, match="nosuch"):
            ScenarioConfig(map_source="builtin:nosuch").load_world()

    def test_no_default_starts_for_count(self):
        cfg = ScenarioConfig(map_source="builtin:desk", robot_count=5)
        with pytest.raises(ConfigError, match="5 robots"):
            cfg.resolve_starts(cfg.load_world())


KEYS = {
    "scenario": ["robots", "start_poses", "method", "seed", "speed", "dt",
                 "max_sim_time"],
    "lidar": ["beam_count", "max_range"],
    "filter": [f.name for f in fields(FilterParams)],
    "utility": [f.name for f in fields(UtilityParams)],
    "graph": [f.name for f in fields(GraphBuildParams)],
    "allocation": ["goal_skip_wait"],
    "planner": ["inflation_cells"],
}
# The map key names a file to read, so it takes fixed values: a builtin
# world, a bad name, a missing file and a directory.
MAPS = ["builtin:desk", "builtin:open20", "builtin:two_wings", "builtin:",
        "builtin:nosuch", "", "/no/such/map.pgm", "."]

number = st.one_of(st.integers(-5, 12), st.integers(), st.floats(),
                   st.floats(-30.0, 30.0)).map(str)
value = st.one_of(number, st.text(max_size=12),
                  st.lists(st.tuples(number, number, number), max_size=5).map(
                      lambda poses: ";".join(f"{x}, {y}, {h}" for x, y, h in poses)))


@st.composite
def config_text(draw):
    """A config built from the real sections and keys, with arbitrary
    values, some lines of arbitrary text among them."""
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(KEYS)), max_size=4)):
        lines.append(f"[{section}]")
        if section == "scenario" and draw(st.booleans()):
            lines.append(f"map = {draw(st.sampled_from(MAPS))}")
        for key in draw(st.lists(st.sampled_from(KEYS[section]), max_size=4)):
            lines.append(f"{key} = {draw(value)}")
        lines += draw(st.lists(st.text(max_size=20), max_size=1))
    return "\n".join(lines) + "\n"


class TestFuzzConfig:
    """Whatever a config file holds, loading it and building its simulator
    either pass, with at least one tick to run, or raise ConfigError: never
    another exception."""

    @settings(max_examples=150)
    @given(st.one_of(config_text().map(str.encode),
                     st.text(max_size=60).map(str.encode), st.binary(max_size=60)))
    @example(b"[scenario]\nseed = 5%\n")
    @example(b"[scenario]\nseed = 1\xff\n")
    @example(b"[filter]\nmin_pts = 1" + b"0" * 400 + b"\n")
    @example(b"[scenario]\nmap = builtin:open20\nrobots = 1\n"
             b"start_poses = 1e308, 1, 0\n")
    @example(b"[scenario]\nmap = builtin:open20\nrobots = 1\n"
             b"max_sim_time = 1e300\ndt = 1e-300\n")
    @example(b"[scenario]\nmap = builtin:open20\nrobots = 1\nmax_sim_time = 0.4\n")
    @example(b"[scenario]\nmap = builtin:open20\nrobots = 1\nmax_sim_time = 5\n"
             b"[graph]\nnode_spacing = 1e-300\nloop_closure_radius = 1e10\n")
    def test_load_and_resolve_or_config_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            path.write_bytes(data)
            try:
                cfg = load_config(str(path))
                ExplorationSim(cfg)
            except ConfigError:
                return
        assert cfg.ticks >= 1
