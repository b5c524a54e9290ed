"""Scenario configuration: a frozen dataclass that checks itself when it is
built, and INI-style file parsing."""

from __future__ import annotations

import configparser
import math
import os
import random
from dataclasses import dataclass, field, fields

from .frontier import FilterParams
from .grid import FREE, GroundTruthMap, finite_numbers, int_at_least, world_to_grid
from .pgm import load_truth
from .posegraph import GraphBuildParams
from .utility import UtilityParams
from .worlds import default_starts, make_world

METHODS = ("proposed", "mags", "greedy_frontier")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario. Its constructor checks every value, and what the run
    computes from them, so a ScenarioConfig that exists is valid; whether
    its world loads and its start poses are free is ExplorationSim's check."""

    map_source: str = "builtin:desk"
    robot_count: int = 3
    start_poses: tuple[tuple[float, float, float], ...] | None = None
    beam_count: int = 360
    max_range: float = 5.0
    filter_params: FilterParams = field(default_factory=FilterParams)
    utility_params: UtilityParams = field(default_factory=UtilityParams)
    graph_params: GraphBuildParams = field(default_factory=GraphBuildParams)
    goal_skip_wait: int = 5
    speed: float = 1.0
    dt: float = 1.0
    max_sim_time: float = 300.0
    seed: int = 1
    method: str = "proposed"
    inflation_cells: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; have {METHODS}")
        for name, least in (("robot_count", 1), ("beam_count", 4), ("goal_skip_wait", 1),
                            ("inflation_cells", 0), ("seed", 0)):
            if not int_at_least(getattr(self, name), least):
                raise ConfigError(f"{name} must be an integer >= {least}")
        times = (self.max_sim_time, self.dt, self.speed)
        if not (finite_numbers(times, 3) and min(times) > 0):
            raise ConfigError("max_sim_time, dt and speed must be finite and positive")
        if not (math.isfinite(self.max_sim_time / self.dt) and self.ticks >= 1):
            raise ConfigError("max_sim_time / dt must be a finite count of at least 1 tick")
        if not (finite_numbers((self.max_range,), 1) and self.max_range > 0):
            raise ConfigError("max_range must be finite and positive")
        for i, pose in enumerate(self.start_poses or ()):
            if not finite_numbers(pose, 3):
                raise ConfigError(f"start_poses[{i}] is not three finite numbers "
                                  f"(x, y, heading)")
        if self.start_poses is not None:
            # immutable, so the checks above hold for the config's life
            object.__setattr__(self, "start_poses",
                               tuple(tuple(pose) for pose in self.start_poses))

    @property
    def ticks(self) -> int:
        """How many ticks of dt the run lasts."""
        return int(round(self.max_sim_time / self.dt))

    def load_world(self) -> GroundTruthMap:
        if self.map_source.startswith("builtin:"):
            try:
                return make_world(self.map_source.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if not os.path.exists(self.map_source):
            raise ConfigError(f"map file not found: {self.map_source}")
        try:
            return load_truth(self.map_source)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load map {self.map_source}: {exc}") from exc

    def resolve_starts(self, truth: GroundTruthMap) -> list[tuple[float, float, float]]:
        """Start poses for all robots, with a seed-dependent jitter.

        The jitter perturbs heading freely and position by up to 0.3 of a
        cell, so distinct seeds explore differently. A jittered position
        outside every Free cell (off the map or in a wall, as near a map
        edge in a coarse map) falls back to the given one, so every pose
        starts in a Free cell. Fully deterministic per seed.
        """
        if self.start_poses is not None:
            starts = self.start_poses
        elif self.map_source.startswith("builtin:"):
            try:
                starts = default_starts(self.map_source.split(":", 1)[1],
                                        self.robot_count)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        else:
            raise ConfigError("start_poses is required for file-based maps")
        if len(starts) != self.robot_count:
            raise ConfigError(
                f"{len(starts)} start poses for {self.robot_count} robots"
            )

        rng = random.Random(self.seed)
        jitter = 0.3 * truth.resolution
        poses = []
        for x, y, heading in starts:
            if not _in_free_cell(truth, x, y):
                raise ConfigError(f"start pose ({x}, {y}) is not in a free cell")
            jx = x + rng.uniform(-jitter, jitter)
            jy = y + rng.uniform(-jitter, jitter)
            if not _in_free_cell(truth, jx, jy):
                jx, jy = x, y
            heading = (heading + rng.uniform(0.0, 2.0 * math.pi)) % (2.0 * math.pi)
            poses.append((jx, jy, heading))
        return poses


def _in_free_cell(truth: GroundTruthMap, x: float, y: float) -> bool:
    try:
        cx, cy = world_to_grid(x, y, truth)
    except OverflowError:  # so far off the map its cell index is inf
        return False
    return truth.in_bounds(cx, cy) and truth.cells[cy, cx] == FREE


def _finite(text: str) -> float:
    """float() that rejects nan and inf, so no config value can carry one
    into the run."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text.strip()!r}")
    return value


def _parse_poses(text: str) -> list[tuple[float, float, float]]:
    poses = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p for p in chunk.replace(",", " ").split() if p]
        if len(parts) != 3:
            raise ConfigError(f"bad pose triple: {chunk!r}")
        try:
            poses.append(tuple(_finite(p) for p in parts))
        except ValueError as exc:
            raise ConfigError(f"bad pose triple: {chunk!r}: {exc}") from exc
    return poses


# (section, key, ScenarioConfig field) of each single-value config key
_KEYS = [("scenario", "map", "map_source"), ("scenario", "robots", "robot_count"),
         *(("scenario", k, k) for k in ("method", "seed", "speed", "dt", "max_sim_time")),
         ("lidar", "beam_count", "beam_count"), ("lidar", "max_range", "max_range"),
         ("allocation", "goal_skip_wait", "goal_skip_wait"),
         ("planner", "inflation_cells", "inflation_cells")]
# section of each parameter class: its keys are the class's fields, and its
# ScenarioConfig field is <section>_params
_PARAMS = {"filter": FilterParams, "utility": UtilityParams, "graph": GraphBuildParams}


def load_config(path: str) -> ScenarioConfig:
    """Parse a key = value config file with [section] headers and '#'
    comments. All keys are optional; missing ones take defaults. A section
    or key that is not read, including any key in [DEFAULT], which every
    section inherits, is a ConfigError."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    known = {section: {f.name for f in fields(cls)} for section, cls in _PARAMS.items()}
    for section, key, _ in _KEYS:
        known.setdefault(section, set()).add(key)
    known["scenario"].add("start_poses")
    known[parser.default_section] = set()  # a key there reaches every section
    for section in parser:  # [DEFAULT] first, then the file's sections
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")

    def get(section, key, default):
        # the default's type is the type the value reads as
        if not parser.has_option(section, key):
            return default
        cast = {int: int, float: _finite, str: str.strip}[type(default)]
        try:
            return cast(parser.get(section, key))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def params(section, cls):
        try:
            return cls(**{f.name: get(section, f.name, f.default) for f in fields(cls)})
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    default = {f.name: f.default for f in fields(ScenarioConfig)}
    values = {name: get(section, key, default[name]) for section, key, name in _KEYS}
    if parser.has_option("scenario", "start_poses"):
        values["start_poses"] = _parse_poses(parser.get("scenario", "start_poses"))
    return ScenarioConfig(**values, **{f"{section}_params": params(section, cls)
                                       for section, cls in _PARAMS.items()})
