"""Multi-robot frontier exploration: occupancy grids, frontier filtering,
graph-connectivity utilities, centralized goal allocation and a
deterministic simulator."""

__version__ = "0.1.0"

from .grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GroundTruthMap,
    OccupancyGrid,
    cell_entropy,
    coverage_percent,
    grid_to_world,
    map_entropy,
    merge_maps,
    world_to_grid,
)
from .frontier import FilterParams
from .posegraph import GraphBuildParams, PoseGraph, log_spanning_trees
from .utility import UtilityParams
from .config import ScenarioConfig, load_config
from .simulate import RunMetrics, run

__all__ = [
    "FREE", "OCCUPIED", "UNKNOWN",
    "GroundTruthMap", "OccupancyGrid",
    "cell_entropy", "coverage_percent", "grid_to_world", "map_entropy",
    "merge_maps", "world_to_grid",
    "FilterParams",
    "GraphBuildParams", "PoseGraph", "log_spanning_trees",
    "UtilityParams", "ScenarioConfig", "load_config",
    "RunMetrics", "run",
]
