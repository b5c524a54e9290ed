"""Simulated lidar: ray casting against the true world and scan integration.

One walk per call casts the beams of every pose given, all in lockstep with
numpy over the shared true map; the simulator makes one such call per tick
for every robot's beams. The walk is an exact cell walk (every crossed cell
is visited, corner grazes with zero chord are skipped), so thin walls cannot
be leaked through. It marks the cells each scan's beams see, and the true
map gives each seen cell its state, free or occupied; integration applies
those cells to a map and walks no beams itself, and hands back the map
itself when they change nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GroundTruthMap,
    OccupancyGrid,
    require_same_frame,
    world_to_grid,
)

_EPS = 1e-12


@dataclass
class LidarScan:
    """The cells one 360-degree scan from one pose proved. raycast casts
    several in one walk; each is the scan its pose gives alone.

    free_cells and occupied_cells are strictly increasing flat indices
    (col + row * width) in frame, the OccupancyGrid.frame of the map the
    scan was cast in. They are Free and Occupied cells of the true map, so
    no cell is in both.
    """

    frame: tuple[float, float, float, int, int]
    free_cells: np.ndarray
    occupied_cells: np.ndarray


def raycast(truth: GroundTruthMap, poses, beam_count: int,
            max_range: float) -> list[LidarScan]:
    """Cast beam_count equally spaced beams over 360 degrees from each pose
    in the sequence poses, all in one walk over the shared true map, and
    return one LidarScan per pose, in order. A pose's scan does not depend
    on the other poses cast with it; raycast(truth, [pose], n, r)[0] is the
    scan of one pose.

    A beam sees each cell it crosses, up to and including the first
    Occupied one, where it stops, when the midpoint of its chord through
    the cell lies within max_range. The true map splits a scan's seen
    cells into its free and occupied ones.
    Deterministic, noise free. Raises ValueError when some pose lies
    outside the map or in an obstacle. The walk's distances stay below
    3 * (max_range + 2 * resolution), which must be a finite float.
    """
    res = truth.resolution
    width, height = truth.width, truth.height
    starts = []
    for px, py, _ in poses:
        cx0, cy0 = world_to_grid(px, py, truth)
        if not truth.in_bounds(cx0, cy0):
            raise ValueError("robot pose outside the map")
        if truth.cells[cy0, cx0] == OCCUPIED:
            raise ValueError("robot embedded in obstacle")
        starts.append((cx0, cy0))
    if not starts:
        return []
    n_poses = len(starts)

    # Per-beam walk state, one row per pose and one column per beam:
    # distances t_max_x/y to the next cell boundary, per-cell increments
    # t_dx/y and step directions.
    cx0, cy0 = np.array(starts).T[:, :, None]
    px, py, heading = np.array(poses, dtype=float).T[:, :, None]
    theta = heading + 2.0 * math.pi * np.arange(beam_count) / beam_count
    dx, dy = np.cos(theta), np.sin(theta)
    # A beam along an axis divides by a zero direction component, and one
    # within about 1e-308 rad of it by a subnormal one; its t_dx or t_dy and
    # t_max overflow to inf, the right limit.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_dx = np.where(dx != 0.0, res / np.abs(dx), np.inf)
        t_dy = np.where(dy != 0.0, res / np.abs(dy), np.inf)
        edge_x = truth.origin_x + (cx0 + (dx > 0)) * res - px
        edge_y = truth.origin_y + (cy0 + (dy > 0)) * res - py
        t_max_x = np.where(dx != 0.0, edge_x / dx, np.inf)
        t_max_y = np.where(dy != 0.0, edge_y / dy, np.inf)
    dx, dy, t_dx, t_dy, t_max_x, t_max_y = (
        a.ravel() for a in (dx, dy, t_dx, t_dy, t_max_x, t_max_y))

    # Each pose owns one block of a flat layout of the map framed by a ring
    # of cells outside it: code is 1 for Occupied, 0 for Free and 2 for the
    # ring. A beam's cell is its flat index idx in its owner's block, so one
    # gather of code tells whether the beam left the map or hit a wall, and
    # the cells it sees go straight into the owner's block of seen.
    wp, hp = width + 2, height + 2
    n_pad = wp * hp
    code = np.full((hp, wp), 2, dtype=np.int8)
    code[1:-1, 1:-1] = truth.cells == OCCUPIED
    code = np.tile(code.ravel(), n_poses)
    owner = np.arange(n_poses)[:, None]
    idx = np.repeat(owner * n_pad + (cy0 + 1) * wp + cx0 + 1, beam_count)
    step_x = np.sign(dx).astype(np.int64)
    step_y = np.sign(dy).astype(np.int64) * wp

    t_stop = max_range + 2.0 * res
    # A step by an increment longer than t_stop lands past t_stop and ends
    # the walk, so inf walks the same cells. It also keeps t_max + t_d in
    # the loop from overflowing without an errstate around the loop, which
    # would slow each of its ufunc calls by about 2%.
    t_dx[t_dx > t_stop] = np.inf
    t_dy[t_dy > t_stop] = np.inf
    t_entry = np.zeros(idx.size)
    seen = np.zeros(n_poses * n_pad, dtype=bool)
    here = code[idx]

    # The walk holds only live beams, all on the map: a beam is dropped on
    # the step it stops at an occupied cell, passes t_stop or leaves the map.
    while idx.size:
        t_exit = np.minimum(t_max_x, t_max_y)
        crossed = t_exit - t_entry > _EPS
        seen[idx[crossed & (0.5 * (t_entry + t_exit) <= max_range)]] = True
        live = ~(crossed & (here == 1))  # beams stop at their first occupied cell

        take_x = t_max_x < t_max_y
        t_entry = t_exit  # the boundary this step crosses
        idx = np.where(take_x, idx + step_x, idx + step_y)
        t_max_x = np.where(take_x, t_max_x + t_dx, t_max_x)
        t_max_y = np.where(take_x, t_max_y, t_max_y + t_dy)
        here = code[idx]
        live &= t_entry <= t_stop
        live &= here != 2
        if not live.all():
            keep = np.flatnonzero(live)
            (idx, here, t_max_x, t_max_y, t_dx, t_dy, step_x, step_y,
             t_entry) = (a[keep] for a in (idx, here, t_max_x, t_max_y, t_dx,
                                           t_dy, step_x, step_y, t_entry))

    # A beam sees only cells of the map, so the true map splits each pose's
    # seen cells into its free and occupied ones.
    seen = seen.reshape(n_poses, hp, wp)[:, 1:-1, 1:-1].reshape(n_poses, -1)
    wall = truth.cells.ravel() == OCCUPIED
    return [LidarScan(truth.frame, np.flatnonzero(s & ~wall), np.flatnonzero(s & wall))
            for s in seen]


def integrate_scan(grid: OccupancyGrid, scan: LidarScan) -> OccupancyGrid:
    """Fold a scan into the grid: its free cells become Free unless the grid
    has them Occupied, then its occupied cells become Occupied.

    Returns grid itself when the scan proves nothing new: none of its free
    cells is Unknown in grid and all its occupied cells are already
    Occupied. Otherwise returns a new grid; grid is never mutated, so a
    caller may take an unchanged grid object for an unchanged map.
    Occupied cells are never demoted. Idempotent for a fixed scan. Raises
    ValueError when the grid's frame differs from the one the scan was cast
    in.
    """
    require_same_frame(grid, scan)
    free = scan.free_cells
    occupied = scan.occupied_cells
    flat = grid.cells.ravel()
    # a Free cell stays Free, so only Unknown free cells change
    new_free = free[flat[free] == UNKNOWN]
    if not new_free.size and (flat[occupied] == OCCUPIED).all():
        return grid
    out = grid.copy()
    flat = out.cells.ravel()
    flat[new_free] = FREE
    flat[occupied] = OCCUPIED
    return out
