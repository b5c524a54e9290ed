"""Simulated lidar: ray casting against the true world and scan integration.

Each scan walks its beams once, all in lockstep with numpy. The walk is an
exact cell walk (every crossed cell is visited, corner grazes with zero
chord are skipped), so thin walls cannot be leaked through. It yields the
ranges and the cells the scan proves free or occupied; integration applies
those cells to a map and walks no beams itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    FREE,
    OCCUPIED,
    GroundTruthMap,
    OccupancyGrid,
    world_to_grid,
)

_EPS = 1e-12


@dataclass
class LidarScan:
    """One 360-degree scan and the cells its beams proved.

    ranges[k] is the distance along beam k, or max_range + 1 when the beam
    hit nothing within max_range. free_cells and occupied_cells are sorted
    flat indices (col + row * width) in frame, the (resolution, origin_x,
    origin_y, width, height) of the map the scan was cast in. A cell one
    beam crossed and another stopped in is in both; integration makes it
    Occupied.
    """

    beam_count: int
    max_range: float
    pose: tuple[float, float, float]  # x, y, heading
    ranges: np.ndarray
    frame: tuple[float, float, float, int, int]
    free_cells: np.ndarray
    occupied_cells: np.ndarray

    @property
    def no_hit(self) -> float:
        return self.max_range + 1.0


def _frame(grid) -> tuple[float, float, float, int, int]:
    return (grid.resolution, grid.origin_x, grid.origin_y, grid.width, grid.height)


def raycast(truth: GroundTruthMap, pose, beam_count: int, max_range: float) -> LidarScan:
    """Cast beam_count equally spaced beams over 360 degrees from pose.

    The reported range is the distance along the beam to the midpoint of its
    chord through the first Occupied cell it crosses: within half a cell of
    that cell's center, and exactly the center distance for walls hit
    square-on. Deterministic, noise free.

    The walk also records what the scan proves: a cell a beam crosses before
    its stop is free, and the stop cell is occupied, each only when the
    midpoint of the beam's chord through it lies within max_range.
    """
    px, py, heading = pose
    cx0, cy0 = world_to_grid(px, py, truth)
    if not truth.in_bounds(cx0, cy0):
        raise ValueError("robot pose outside the map")
    if truth.cells[cy0, cx0] == OCCUPIED:
        raise ValueError("robot embedded in obstacle")

    res = truth.resolution
    width, height = truth.width, truth.height
    n_cells = width * height
    occ_flat = (truth.cells == OCCUPIED).ravel()
    theta = heading + 2.0 * math.pi * np.arange(beam_count) / beam_count
    dx, dy = np.cos(theta), np.sin(theta)

    # Per-beam walk state: cell coords, distances t_max_x/y to the next
    # cell boundary and per-cell increments t_dx/y.
    cx = np.full(beam_count, cx0, dtype=np.int64)
    cy = np.full(beam_count, cy0, dtype=np.int64)
    # A beam within about 1e-308 rad of an axis has a subnormal direction
    # component, and its t_dx or t_dy and t_max overflow to inf, the
    # right limit.
    with np.errstate(divide="ignore", over="ignore"):
        t_dx = np.where(dx != 0.0, res / np.abs(dx), np.inf)
        t_dy = np.where(dy != 0.0, res / np.abs(dy), np.inf)
        pos_x = truth.origin_x + (cx0 + 1) * res - px
        neg_x = truth.origin_x + cx0 * res - px
        t_max_x = np.where(dx > 0, pos_x / np.where(dx != 0, dx, 1.0),
                           np.where(dx < 0, neg_x / np.where(dx != 0, dx, 1.0),
                                    np.inf))
        pos_y = truth.origin_y + (cy0 + 1) * res - py
        neg_y = truth.origin_y + cy0 * res - py
        t_max_y = np.where(dy > 0, pos_y / np.where(dy != 0, dy, 1.0),
                           np.where(dy < 0, neg_y / np.where(dy != 0, dy, 1.0),
                                    np.inf))
    step_x = np.sign(dx).astype(np.int64)
    step_y = np.sign(dy).astype(np.int64)

    ranges = np.full(beam_count, max_range + 1.0, dtype=np.float64)
    t_stop = max_range + 2.0 * res
    # A step by an increment longer than t_stop lands past t_stop and ends
    # the walk, so inf walks the same cells. It also keeps t_max + t_d in
    # the loop from overflowing without an errstate around the loop, which
    # would slow each of its ufunc calls by about 2%.
    t_dx[t_dx > t_stop] = np.inf
    t_dy[t_dy > t_stop] = np.inf
    t_entry = np.zeros(beam_count)
    active = np.ones(beam_count, dtype=bool)
    free = np.zeros(n_cells, dtype=bool)
    occupied = np.zeros(n_cells, dtype=bool)

    while active.any():
        t_exit = np.minimum(t_max_x, t_max_y)
        crossed = active & (t_exit - t_entry > _EPS)
        idx = np.clip(cy * width + cx, 0, n_cells - 1)
        occ_here = crossed & occ_flat[idx]
        mid = 0.5 * (t_entry + t_exit)
        seen = crossed & (mid <= max_range)
        free[idx[seen & ~occ_here]] = True
        if occ_here.any():
            hit = occ_here & seen
            ranges[hit] = mid[hit]
            occupied[idx[hit]] = True
            active &= ~occ_here  # beams stop at their first occupied cell

        take_x = t_max_x < t_max_y
        t_entry = np.where(take_x, t_max_x, t_max_y)
        cx = np.where(take_x, cx + step_x, cx)
        cy = np.where(take_x, cy, cy + step_y)
        t_max_x = np.where(take_x, t_max_x + t_dx, t_max_x)
        t_max_y = np.where(take_x, t_max_y, t_max_y + t_dy)
        active &= (t_entry <= t_stop)
        active &= (cx >= 0) & (cx < width) & (cy >= 0) & (cy < height)

    return LidarScan(beam_count, max_range, (px, py, heading), ranges,
                     _frame(truth), np.flatnonzero(free), np.flatnonzero(occupied))


def integrate_scan(grid: OccupancyGrid, scan: LidarScan) -> OccupancyGrid:
    """Fold a scan into the grid: its free cells become Free unless the grid
    has them Occupied, then its occupied cells become Occupied.

    Occupied cells are never demoted. Idempotent for a fixed scan. Raises
    ValueError when the grid's geometry differs from the frame the scan was
    cast in.
    """
    if _frame(grid) != scan.frame:
        raise ValueError("grid geometry differs from the frame of the scan")
    out = grid.copy()
    flat = out.cells.ravel()
    free = scan.free_cells
    flat[free[flat[free] != OCCUPIED]] = FREE
    flat[scan.occupied_cells] = OCCUPIED
    return out
