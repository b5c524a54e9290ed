"""Grid path planning (Dijkstra over the 8-connected lattice) and ideal
path following."""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .grid import OCCUPIED, OccupancyGrid, grid_to_world, world_to_grid

_SQRT2 = math.sqrt(2.0)


class NoPathError(Exception):
    """Raised when the goal cannot be reached."""


@dataclass
class GridPath:
    cells: list[tuple[int, int]]       # (cx, cy) from start to goal
    length_m: float
    waypoints: list[tuple[float, float]]  # cell centers in world coords

    @property
    def goal(self) -> tuple[float, float]:
        return self.waypoints[-1]


def _run_dijkstra(grid: OccupancyGrid, start_cell, goal_idxs=None):
    """Single-source shortest paths with deterministic (cost, row, col)
    priority ordering. Unknown cells are traversable at axis cost, Occupied
    cells block, diagonal moves may not cut corners. Stops early once every
    goal index is settled. The neighbor handling is unrolled on flat indices
    for speed; ties are resolved by the heap ordering alone."""
    width, height = grid.width, grid.height
    res = grid.resolution
    diag = _SQRT2 * res
    occ = (grid.cells == OCCUPIED).astype(np.uint8).reshape(-1).tobytes()

    n = width * height
    dist = [math.inf] * n
    parent = [-1] * n
    done = bytearray(n)

    sx, sy = start_cell
    sidx = sy * width + sx
    dist[sidx] = 0.0
    heap = [(0.0, sy, sx)]
    pending = set(goal_idxs) if goal_idxs is not None else None
    push = heappush
    pop = heappop
    last_row = height - 1
    last_col = width - 1

    while heap:
        d, cy, cx = pop(heap)
        idx = cy * width + cx
        if done[idx]:
            continue
        done[idx] = 1
        if pending is not None:
            pending.discard(idx)
            if not pending:
                break

        rt = cx < last_col
        lf = cx > 0
        dn = cy < last_row
        up = cy > 0
        r_free = rt and not occ[idx + 1]
        l_free = lf and not occ[idx - 1]
        d_free = dn and not occ[idx + width]
        u_free = up and not occ[idx - width]

        nd = d + res
        if r_free and nd < dist[idx + 1]:
            dist[idx + 1] = nd
            parent[idx + 1] = idx
            push(heap, (nd, cy, cx + 1))
        if l_free and nd < dist[idx - 1]:
            dist[idx - 1] = nd
            parent[idx - 1] = idx
            push(heap, (nd, cy, cx - 1))
        if d_free and nd < dist[idx + width]:
            dist[idx + width] = nd
            parent[idx + width] = idx
            push(heap, (nd, cy + 1, cx))
        if u_free and nd < dist[idx - width]:
            dist[idx - width] = nd
            parent[idx - width] = idx
            push(heap, (nd, cy - 1, cx))

        nd = d + diag  # diagonals may not cut corners
        if r_free and d_free:
            j = idx + width + 1
            if not occ[j] and nd < dist[j]:
                dist[j] = nd
                parent[j] = idx
                push(heap, (nd, cy + 1, cx + 1))
        if r_free and u_free:
            j = idx - width + 1
            if not occ[j] and nd < dist[j]:
                dist[j] = nd
                parent[j] = idx
                push(heap, (nd, cy - 1, cx + 1))
        if l_free and d_free:
            j = idx + width - 1
            if not occ[j] and nd < dist[j]:
                dist[j] = nd
                parent[j] = idx
                push(heap, (nd, cy + 1, cx - 1))
        if l_free and u_free:
            j = idx - width - 1
            if not occ[j] and nd < dist[j]:
                dist[j] = nd
                parent[j] = idx
                push(heap, (nd, cy - 1, cx - 1))
    return dist, parent


def _extract_path(grid, dist, parent, goal_idx) -> GridPath:
    width = grid.width
    chain = []
    idx = goal_idx
    while idx != -1:
        chain.append(idx)
        idx = parent[idx]
    chain.reverse()
    cells = [(i % width, i // width) for i in chain]
    waypoints = [grid_to_world(cx, cy, grid) for cx, cy in cells]
    return GridPath(cells, dist[goal_idx], waypoints)


def _start_cell(grid, start):
    scx, scy = world_to_grid(start[0], start[1], grid)
    if not grid.in_bounds(scx, scy):
        raise NoPathError("start outside the grid")
    if grid.cells[scy, scx] == OCCUPIED:
        raise NoPathError("start inside an obstacle")
    return scx, scy


def plan_many(grid: OccupancyGrid, start, goals) -> list[GridPath | None]:
    """Shortest 8-connected paths by metric cost (axis = resolution,
    diagonal = sqrt(2) * resolution) from the start point to each goal
    point, from one Dijkstra pass; unreachable goals yield None. Each path
    is the one a pass for its goal alone would give."""
    scx, scy = _start_cell(grid, start)
    goal_idxs = []
    for g in goals:
        gcx, gcy = world_to_grid(g[0], g[1], grid)
        if not grid.in_bounds(gcx, gcy) or grid.cells[gcy, gcx] == OCCUPIED:
            goal_idxs.append(None)
        else:
            goal_idxs.append(gcy * grid.width + gcx)
    wanted = [i for i in goal_idxs if i is not None]
    dist, parent = _run_dijkstra(grid, (scx, scy), goal_idxs=wanted)

    paths: list[GridPath | None] = []
    for gidx in goal_idxs:
        if gidx is None or not math.isfinite(dist[gidx]):
            paths.append(None)
        else:
            paths.append(_extract_path(grid, dist, parent, gidx))
    return paths


def plan(grid: OccupancyGrid, start, goal) -> GridPath:
    """plan_many for a single goal; raises NoPathError when it is
    unreachable."""
    path = plan_many(grid, start, [goal])[0]
    if path is None:
        raise NoPathError("no path")
    return path


def cumulative_lengths(path: GridPath) -> list[float]:
    """Arclength of each waypoint along the path polyline."""
    pts = path.waypoints
    out = [0.0]
    for (ax, ay), (bx, by) in zip(pts[:-1], pts[1:]):
        out.append(out[-1] + math.hypot(bx - ax, by - ay))
    return out


def project_arclength(path: GridPath, point) -> float:
    """Arclength of the polyline point closest to the given world point
    (earliest on ties)."""
    px, py = point[0], point[1]
    pts = path.waypoints
    if len(pts) == 1:
        return 0.0
    best_s, best_d2 = 0.0, math.inf
    acc = 0.0
    for (ax, ay), (bx, by) in zip(pts[:-1], pts[1:]):
        vx, vy = bx - ax, by - ay
        ln = math.hypot(vx, vy)
        if ln > 0:
            t = ((px - ax) * vx + (py - ay) * vy) / (ln * ln)
            t = min(1.0, max(0.0, t))
        else:
            t = 0.0
        qx, qy = ax + t * vx, ay + t * vy
        d2 = (px - qx) ** 2 + (py - qy) ** 2
        if d2 < best_d2 - 1e-12:
            best_d2 = d2
            best_s = acc + t * ln
        acc += ln
    return best_s


def pose_at(path: GridPath, s: float, fallback_heading: float = 0.0):
    """Pose on the polyline at arclength s (clamped to the ends); heading
    faces along the segment containing s."""
    pts = path.waypoints
    if len(pts) == 1:
        return (pts[0][0], pts[0][1], fallback_heading)
    cum = cumulative_lengths(path)
    total = cum[-1]
    if s >= total:
        ax, ay = pts[-2]
        gx, gy = pts[-1]
        return (gx, gy, math.atan2(gy - ay, gx - ax))
    s = max(0.0, s)
    for i in range(len(pts) - 1):
        if cum[i + 1] >= s and cum[i + 1] > cum[i]:
            t = (s - cum[i]) / (cum[i + 1] - cum[i])
            ax, ay = pts[i]
            bx, by = pts[i + 1]
            return (
                ax + t * (bx - ax),
                ay + t * (by - ay),
                math.atan2(by - ay, bx - ax),
            )
    gx, gy = pts[-1]
    return (gx, gy, fallback_heading)

