"""Simulated lidar: ray casting against the true world and scan integration.

One walk per call casts the beams of every pose given, all in lockstep with
numpy over the shared true map; the simulator makes one such call per tick
for every robot's beams. The walk is an exact cell walk, the traversal of
Amanatides and Woo ("A Fast Voxel Traversal Algorithm for Ray Tracing",
1987): every crossed cell is visited and corner grazes with zero chord are
skipped, so thin walls cannot be leaked through. Each step makes one stop
test; a stopped beam is parked on its cell, and the walk drops its stopped
beams only once they are more than a quarter of it. The walk makes its
range tests only on a step where some beam's exit is past max_range: a
beam's entry is never past its exit, as both only grow, so on any other
step every chord midpoint is within range and no beam stops on range, and
the scans are the same as with a range test on every step. A scan is an
occupancy grid, the true map's state on the cells its beams see and
Unknown elsewhere; integration merges it into a map by the merge rule.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (
    OCCUPIED,
    UNKNOWN,
    GroundTruthMap,
    OccupancyGrid,
    finite_numbers,
    int_at_least,
    merge_maps,
    require_same_frame,
    world_to_grid,
)

_EPS = 1e-12


def walk_bound(max_range: float, resolution: float) -> float:
    """A bound on every sum raycast's walk forms, for beams of max_range on
    a map of cells resolution wide; raycast accepts max_range only when it
    is a finite float.

    Every beam in the walk, a parked one too, crosses one cell boundary
    per step, and the walk takes a step only while some beam has not passed
    max_range, which a beam does within sqrt(2) * max_range / resolution + 2
    steps. So no beam passes sqrt(2) * max_range + 5 * resolution, and a sum
    adds at most two increments of up to max_range + 2 * resolution to a
    beam's distance. Parked beams keep stepping, so this is more than the
    3 * (max_range + 2 * resolution) that bounds a walk of live beams.
    """
    return 5.0 * (max_range + 2.0 * resolution)


def raycast(truth: GroundTruthMap, poses, beam_count: int,
            max_range: float) -> list[OccupancyGrid]:
    """Cast beam_count equally spaced beams over 360 degrees from each pose
    in the sequence poses, all in one walk over the shared true map, and
    return one scan per pose, in order. A pose's scan does not depend on
    the other poses cast with it; raycast(truth, [pose], n, r)[0] is the
    scan of one pose. A beam sees each cell it crosses, up to and
    including the first Occupied one, where it stops, when the midpoint of
    its chord through the cell lies within max_range. A scan is an
    OccupancyGrid in the true map's frame, with the true map's state on
    the cells its beams see and Unknown elsewhere; it may share cells with
    the call's other scans, so nothing may write into it.
    Deterministic, noise free. Raises ValueError, naming the argument, when
    beam_count is not an integer of at least 1, when max_range is not
    finite and positive or walk_bound(max_range, resolution) is not a
    finite float, or when some pose is not three finite numbers, or lies
    outside the map or in an obstacle.
    """
    res = truth.resolution
    if not int_at_least(beam_count, 1):
        raise ValueError("beam_count must be an integer >= 1")
    if not (finite_numbers((max_range,), 1) and max_range > 0.0
            and math.isfinite(walk_bound(max_range, res))):
        raise ValueError(f"max_range must be finite and positive, and small enough for "
                         f"the walk at map resolution {res}")
    width, height = truth.width, truth.height
    starts = []
    for i, pose in enumerate(poses):
        if not finite_numbers(pose, 3):
            raise ValueError(f"poses[{i}] is not three finite numbers (x, y, heading)")
        cx0, cy0 = world_to_grid(pose[0], pose[1], truth)
        if not truth.in_bounds(cx0, cy0):
            raise ValueError(f"poses[{i}] is outside the map")
        if truth.cells[cy0, cx0] == OCCUPIED:
            raise ValueError(f"poses[{i}] is embedded in an obstacle")
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

    # An increment longer than max_range + 2 * res would only be taken after
    # the beam has stopped past max_range, so inf walks the same cells. It
    # also keeps t_max + t_d in the loop from overflowing without an
    # errstate around the loop, which would slow each of its ufunc calls by
    # about 2%.
    t_stop = max_range + 2.0 * res
    t_dx[t_dx > t_stop] = np.inf
    t_dy[t_dy > t_stop] = np.inf
    t_entry = np.zeros(idx.size)
    seen = np.zeros(n_poses * n_pad, dtype=bool)

    # A beam stops in the step that crosses an occupied cell or reaches the
    # ring, or whose cell it leaves past max_range: the next chord's midpoint
    # lies at t_exit or beyond. Stopped beams are dropped once they are more
    # than a quarter of the walk; until then they are parked, with no step,
    # on their last cell, which they can see again only with a longer chord
    # (the ring is cut from seen), and they stop again on later steps.
    # The range tests are made only on a step where some beam's exit is
    # past max_range. That is exact: t_entry <= t_exit, as both only grow,
    # so on any other step every chord midpoint is within range and no beam
    # stops on range. The visibility test is written t_entry + t_exit <=
    # 2 * max_range; doubling is exact, and finite because walk_bound is.
    two_range = 2.0 * max_range
    while idx.size:
        here = code[idx]
        t_exit = np.minimum(t_max_x, t_max_y)
        crossed = visible = t_exit - t_entry > _EPS
        stop = here + crossed >= 2
        if t_exit.max() > max_range:
            visible = crossed & (t_entry + t_exit <= two_range)
            stop |= t_exit > max_range
        seen[idx[visible]] = True
        n_stop = np.count_nonzero(stop)
        if 4 * n_stop > idx.size:
            keep = np.flatnonzero(~stop)
            (idx, t_max_x, t_max_y, t_dx, t_dy, step_x, step_y, t_exit) = (
                a[keep] for a in (idx, t_max_x, t_max_y, t_dx, t_dy, step_x, step_y,
                                  t_exit))
        elif n_stop:
            step_x[stop] = 0
            step_y[stop] = 0

        take_x = t_max_x < t_max_y
        t_entry = t_exit  # the boundary this step crosses
        idx += np.where(take_x, step_x, step_y)
        t_max_x = np.where(take_x, t_max_x + t_dx, t_max_x)
        t_max_y = np.where(take_x, t_max_y, t_max_y + t_dy)

    # Each pose's block of seen, cut of its ring, lines up with the true map.
    cells = np.where(seen.reshape(n_poses, hp, wp)[:, 1:-1, 1:-1], truth.cells, UNKNOWN)
    return [OccupancyGrid(*truth.frame, c) for c in cells]


def integrate_scan(grid: OccupancyGrid, scan: OccupancyGrid) -> OccupancyGrid:
    """Fold a scan into the grid by the merge rule, merge_maps([grid, scan]).

    The scan's free cells become Free unless the grid has them Occupied,
    then its occupied cells become Occupied, and cells it did not see stay:
    over the ordered states Unknown < Free < Occupied, with unseen cells
    Unknown in the scan, that is max(old, scan) cell by cell. Returns grid
    itself iff no free cell is Unknown in grid and every occupied cell is
    already Occupied, that is iff max(old, scan) == old, which holds exactly
    when no scan cell is above the grid's; only otherwise is the merged grid
    built, and it is new, never the scan. Nothing is mutated, so a caller
    may take an unchanged grid object for an unchanged map. Occupied cells
    are never demoted, and a second fold of the same scan returns its input.
    Raises ValueError when the grid's frame differs from the scan's, also
    for a scan that would change nothing.
    """
    require_same_frame(grid, scan)
    if not (scan.cells > grid.cells).any():
        return grid
    return merge_maps([grid, scan])
