"""Per-candidate reward computation: path entropy, distance decay and the
combined exploration utility."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .allocate import SUPPRESSED
from .grid import ENTROPY_BITS, UNKNOWN, OccupancyGrid
from .posegraph import (
    GraphBuildParams,
    PoseGraph,
    base_log_spanning_trees,
    normalize_gains,
    trajectory_gain,
)


@dataclass
class UtilityParams:
    decay_rate: float = 0.1     # per-meter exponential decay of distant goals
    u1_weight: float = 1.0      # weighting of the graph-connectivity term

    def __post_init__(self):
        if not (math.isfinite(self.decay_rate) and math.isfinite(self.u1_weight)):
            raise ValueError("utility parameters must be finite")
        if self.decay_rate <= 0:
            raise ValueError("decay_rate must be positive")


def path_entropy(grid: OccupancyGrid, path_cells) -> tuple[float, int]:
    """Summed Shannon entropy (bits) over the path cells plus the cell count,
    so callers can normalize as E/L."""
    if not path_cells:
        raise ValueError("no path")
    cols, rows = zip(*path_cells)
    total = 0.0
    # summed left to right in path order; np.sum or math.fsum would round
    # differently and move the rewards
    for bits in ENTROPY_BITS[grid.cells[rows, cols] - UNKNOWN].tolist():
        total += bits
    return total, len(path_cells)


def decay(distance: float, params: UtilityParams) -> float:
    """Exponential distance penalty exp(-rate * d), 1 at the robot itself."""
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return math.exp(-params.decay_rate * distance)


def u2(entropy_bits: float, cell_count: int, rho: float, gamma: float) -> float:
    """Map-side utility: (1 - E/L) * rho + gamma."""
    if cell_count < 1:
        raise ValueError("cell_count must be >= 1")
    return (1.0 - entropy_bits / cell_count) * rho + gamma


@dataclass
class CandidateScore:
    point: object
    reward: float
    path: object          # GridPath, or None when unreachable
    gain: float           # log spanning-tree gain along the path
    rho: float
    gamma: float
    entropy_bits: float
    cell_count: int


def score_candidates(
    pose,
    grid: OccupancyGrid,
    graph: PoseGraph,
    candidates,
    plan_paths,
    uparams: UtilityParams,
    gparams: GraphBuildParams,
) -> list[CandidateScore]:
    """Evaluate every candidate frontier for one agent.

    plan_paths(goals) must return one GridPath or None per goal.
    Reward = u1_weight * gain + (1 - E/L) * rho + gamma; unreachable
    candidates keep a suppression sentinel so row indices stay aligned.
    """
    if not candidates:
        raise ValueError("no candidates")
    paths = plan_paths([(c.x, c.y) for c in candidates])

    base = base_log_spanning_trees(graph)
    gains: list[float | None] = []
    for path in paths:
        if path is None:
            gains.append(None)
        else:
            gains.append(trajectory_gain(graph, path.waypoints, gparams, base))
    reachable = [g for g in gains if g is not None]
    if not reachable:
        raise ValueError("no viable candidates")
    rho_map = iter(normalize_gains(reachable))

    scores = []
    for cand, path, gain in zip(candidates, paths, gains):
        if path is None:
            scores.append(CandidateScore(cand, SUPPRESSED, None, 0.0, 0.0, 0.0, 0.0, 0))
            continue
        rho = next(rho_map)
        ent, count = path_entropy(grid, path.cells)
        gamma = decay(math.hypot(cand.x - pose[0], cand.y - pose[1]), uparams)
        reward = uparams.u1_weight * gain + u2(ent, count, rho, gamma)
        scores.append(CandidateScore(cand, reward, path, gain, rho, gamma, ent, count))
    return scores

