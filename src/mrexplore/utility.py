"""Per-candidate reward computation: path entropy, distance decay and the
combined exploration utility."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import ENTROPY_BITS, UNKNOWN, OccupancyGrid, require_finite
from .posegraph import (
    GainBase,
    GraphBuildParams,
    PoseGraph,
    normalize_gains,
    trajectory_gain,
)


@dataclass(frozen=True)
class UtilityParams:
    decay_rate: float = 0.1     # per-meter exponential decay of distant goals
    u1_weight: float = 1.0      # weighting of the graph-connectivity term

    def __post_init__(self):
        require_finite(self, ("decay_rate", "u1_weight"))
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
    point: tuple[float, float]
    reward: float
    path: object          # GridPath to the point
    gain: float           # log spanning-tree gain along the path
    rho: float
    gamma: float
    entropy_bits: float
    cell_count: int


def path_gains(graph: PoseGraph, paths, gparams: GraphBuildParams) -> list[float]:
    """Log spanning-tree gain along each path, each bit-identical to
    extending a copy of the graph along that path alone (see GainBase).
    One GainBase of the graph serves every path, and grows them as one
    shortest-path tree: a path that plan_many reports as extending an
    earlier path of the list is grown only past their shared prefix, so
    paths is best plan_many's reached paths, in order."""
    base = GainBase(graph, gparams)
    return [trajectory_gain(graph, growth, base) for growth in base.grow(paths)]


def score_candidates(
    pose,
    grid: OccupancyGrid,
    graph: PoseGraph,
    candidates,
    paths,
    uparams: UtilityParams,
    gparams: GraphBuildParams,
) -> list[CandidateScore]:
    """Evaluate every candidate frontier for one agent, given the GridPath
    to each; one score per candidate, in order. Callers pass reachable
    candidates only.

    Reward = u1_weight * gain + (1 - E/L) * rho + gamma, with rho the gains
    max-normalized over the candidates.
    """
    if not candidates:
        raise ValueError("no candidates")
    gains = path_gains(graph, paths, gparams)
    scores = []
    for cand, path, gain, rho in zip(candidates, paths, gains, normalize_gains(gains),
                                     strict=True):
        ent, count = path_entropy(grid, path.cells)
        gamma = decay(math.hypot(cand[0] - pose[0], cand[1] - pose[1]), uparams)
        reward = uparams.u1_weight * gain + u2(ent, count, rho, gamma)
        scores.append(CandidateScore(cand, reward, path, gain, rho, gamma, ent, count))
    return scores
