"""Frontier detection and the three-stage point filtering pipeline:
cross-agent merge with dedup, near-border classification against the
merged map, and adaptive list-size control."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import FREE, UNKNOWN, OccupancyGrid, grid_to_world, world_to_grid


@dataclass(frozen=True)
class FrontierPoint:
    x: float
    y: float
    source_agent: int = -1


@dataclass
class FilterParams:
    """Knobs of the filtering pipeline.

    rad/per_unk drive the near-border disc test; min_pts/max_pts bound the
    filtered list size; rad_step/perc_step are the relaxation increments
    used when the list is out of bounds.
    """

    rad: float = 1.0
    per_unk: float = 60.0
    min_pts: int = 0
    max_pts: int = 10
    rad_step: float = 0.25
    perc_step: float = 10.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rad, self.per_unk, self.min_pts,
                                       self.max_pts, self.rad_step, self.perc_step))):
            raise ValueError("filter parameters must be finite")
        if self.rad <= 0 or self.rad_step <= 0 or self.perc_step <= 0:
            raise ValueError("rad, rad_step and perc_step must be positive")
        # a step that float arithmetic absorbs would relax the list forever
        if self.per_unk > 0 and self.per_unk - self.perc_step == self.per_unk:
            raise ValueError("perc_step is too small to lower per_unk")
        if self.rad + self.rad_step == self.rad:
            raise ValueError("rad_step is too small to raise rad")
        if not 0 <= self.per_unk <= 100:
            raise ValueError("per_unk must be in [0, 100]")
        if not 0 <= self.min_pts < self.max_pts:
            raise ValueError("need 0 <= min_pts < max_pts")


@dataclass
class FilterOutcome:
    points: list[FrontierPoint]
    final_rad: float
    final_perc: float
    exhausted: bool
    iterations: int


def detect_frontiers(grid: OccupancyGrid, source_agent: int = -1) -> list[FrontierPoint]:
    """Frontier cells are Free cells 4-adjacent to Unknown; they are grouped
    into 8-connected clusters and each cluster yields one point at the member
    cell nearest the cluster centroid. Cluster order follows the row-major
    position of each cluster's seed cell."""
    cells = grid.cells
    free = cells == FREE
    unknown = cells == UNKNOWN
    if not free.any() or not unknown.any():
        return []

    near_unknown = np.zeros_like(unknown)
    near_unknown[1:, :] |= unknown[:-1, :]
    near_unknown[:-1, :] |= unknown[1:, :]
    near_unknown[:, 1:] |= unknown[:, :-1]
    near_unknown[:, :-1] |= unknown[:, 1:]
    frontier_mask = free & near_unknown

    points: list[FrontierPoint] = []
    remaining = frontier_mask.copy()
    seeds = np.argwhere(frontier_mask)  # row-major order
    for row, col in seeds:
        if not remaining[row, col]:
            continue
        # flood fill this 8-connected cluster
        stack = [(int(row), int(col))]
        remaining[row, col] = False
        members = []
        while stack:
            r, c = stack.pop()
            members.append((r, c))
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < grid.height and 0 <= cc < grid.width and remaining[rr, cc]:
                        remaining[rr, cc] = False
                        stack.append((rr, cc))
        mr = sum(m[0] for m in members) / len(members)
        mc = sum(m[1] for m in members) / len(members)
        best = min(members, key=lambda m: ((m[0] - mr) ** 2 + (m[1] - mc) ** 2, m))
        wx, wy = grid_to_world(best[1], best[0], grid)
        points.append(FrontierPoint(wx, wy, source_agent))
    return points


@lru_cache(maxsize=64)
def _disc_offsets(rad_cells: float) -> np.ndarray:
    """Integer offsets (i, j) with i^2 + j^2 <= rad_cells^2, as an (N, 2) array."""
    r = int(math.floor(rad_cells))
    span = np.arange(-r, r + 1)
    ii, jj = np.meshgrid(span, span, indexing="ij")
    keep = ii * ii + jj * jj <= rad_cells * rad_cells
    return np.stack([ii[keep], jj[keep]], axis=1)


def disc_unknown_stats(point, grid: OccupancyGrid, rad: float) -> tuple[int, int]:
    """(unknown count, total in-bounds count) over the discretized disc of
    world radius rad centered on the point's cell."""
    cx, cy = world_to_grid(point.x, point.y, grid)
    offsets = _disc_offsets(rad / grid.resolution)
    xs = cx + offsets[:, 0]
    ys = cy + offsets[:, 1]
    ok = (xs >= 0) & (xs < grid.width) & (ys >= 0) & (ys < grid.height)
    total = int(np.count_nonzero(ok))
    if total == 0:
        return 0, 0
    unk = int(np.count_nonzero(grid.cells[ys[ok], xs[ok]] == UNKNOWN))
    return unk, total


def is_near_border(point, merged: OccupancyGrid, rad: float, per_unk: float) -> bool:
    """True when at least per_unk percent of the in-bounds disc cells around
    the point are Unknown. A point whose disc falls entirely outside the map
    is never near the border."""
    unk, total = disc_unknown_stats(point, merged, rad)
    if total == 0:
        return False
    return 100.0 * unk / total >= per_unk


def merge_points(
    lists: list[list[FrontierPoint]],
    merged: OccupancyGrid,
    params: FilterParams,
    rad: float | None = None,
    per_unk: float | None = None,
) -> list[FrontierPoint]:
    """Concatenate per-agent lists, keep near-border points only, and drop
    duplicates (two points are duplicates when they land in the same cell of
    the merged map). First-seen order is preserved."""
    rad = params.rad if rad is None else rad
    per_unk = params.per_unk if per_unk is None else per_unk
    unique: list[FrontierPoint] = []
    seen_cells: set[tuple[int, int]] = set()
    for agent_list in lists:
        for p in agent_list:
            if not is_near_border(p, merged, rad, per_unk):
                continue
            cell = world_to_grid(p.x, p.y, merged)
            if cell in seen_cells:
                continue
            seen_cells.add(cell)
            unique.append(p)
    return unique


def enforce_list_bounds(
    uni_pts: list[FrontierPoint],
    raw_pts: list[FrontierPoint],
    merged: OccupancyGrid,
    params: FilterParams,
) -> FilterOutcome:
    """Keep refiltering until min_pts < |list| < max_pts.

    Too small: refilter the raw list with the acceptance percentage lowered
    by perc_step. Too large: refilter the current list with the disc radius
    raised by rad_step. The percentage floors at 0 and the radius ceilings
    at the map diagonal; when a needed relaxation is already clamped the
    current best-effort list is returned with exhausted=True.
    """
    rad = params.rad
    perc = params.per_unk
    max_rad = math.hypot(merged.width, merged.height) * merged.resolution
    pts = list(uni_pts)
    exhausted = False
    iterations = 0

    while len(pts) <= params.min_pts or len(pts) >= params.max_pts:
        if len(pts) <= params.min_pts:
            if perc <= 0.0:
                exhausted = True
                break
            perc = max(0.0, perc - params.perc_step)
            pts = merge_points([raw_pts], merged, params, rad=params.rad, per_unk=perc)
        else:
            if rad >= max_rad:
                exhausted = True
                break
            rad = min(max_rad, rad + params.rad_step)
            pts = merge_points([pts], merged, params, rad=rad, per_unk=params.per_unk)
        iterations += 1
    return FilterOutcome(pts, rad, perc, exhausted, iterations)


def filter_pipeline(
    lists: list[list[FrontierPoint]],
    merged: OccupancyGrid,
    params: FilterParams,
) -> FilterOutcome:
    """Full pipeline: merge + dedup, then list-size control."""
    raw = [p for agent_list in lists for p in agent_list]
    uni = merge_points(lists, merged, params)
    return enforce_list_bounds(uni, raw, merged, params)
