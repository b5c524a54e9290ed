"""Grid path planning (a bucket Dijkstra over the 8-connected lattice, in
numpy wavefronts) and ideal path following."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# The 8 moves as (dx, dy): axis moves cost resolution, diagonals
# sqrt(2) * resolution.
_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _run_dijkstra(grid: OccupancyGrid, start_cell, goal_idxs):
    """Single-source shortest paths on the grid padded with one Occupied
    ring, in flat indices of that padded grid. Unknown cells are
    traversable at axis cost, Occupied cells block, diagonal moves may not
    cut corners. Stops once every goal index is settled.

    A bucket search: each step settles every open cell whose tentative
    distance is below min(open) + resolution. Every move costs at least
    resolution, so no later relaxation can lower them. A distance is the
    least fl(dist[i] + w) over the cell's neighbours, which does not depend
    on the order cells settle in, so the distances equal those of a
    per-cell heap bit for bit. The parent of a cell is the neighbour that
    gives its distance with the least (dist, row, col), the one a heap
    ordered by (cost, row, col) settles first. Returns (dist, parent)."""
    pw = grid.width + 2
    free = np.zeros((grid.height + 2, pw), dtype=bool)
    free[1:-1, 1:-1] = grid.cells != OCCUPIED
    free = free.reshape(-1)
    n = free.size
    res = grid.resolution
    offsets = np.array([dy * pw + dx for dx, dy in _MOVES])
    weights = np.array([res] * 4 + [_SQRT2 * res] * 4)

    # allowed[i, k]: move k from cell i lands on a free cell without
    # cutting a corner. The ring cells are never sources, so the rows from
    # pw + 1 to n - pw - 1 cover every cell a move can start from.
    lo, hi = pw + 1, n - pw - 1
    allowed = np.zeros((n, 8), dtype=bool)
    for k, (dx, dy) in enumerate(_MOVES):
        ok = free[lo + offsets[k]:hi + offsets[k]]
        if dx and dy:
            ok = ok & free[lo + dx:hi + dx] & free[lo + dy * pw:hi + dy * pw]
        allowed[lo:hi, k] = ok

    sx, sy = start_cell
    start = (sy + 1) * pw + sx + 1
    dist = np.full(n, np.inf)
    dist[start] = 0.0
    settled = np.zeros(n, dtype=bool)
    queued = np.zeros(n, dtype=bool)  # has entered the front
    queued[start] = True
    slot = np.empty(n, dtype=np.intp)
    goals = np.asarray(goal_idxs, dtype=np.intp)
    front = np.array([start])
    while front.size:
        d = dist[front]
        now = d < d.min() + res
        batch = front[now]
        settled[batch] = True
        if settled[goals].all():
            break
        nb = batch[:, None] + offsets
        nd = dist[batch][:, None] + weights
        ok = allowed[batch] & (nd < dist[nb])
        nb = nb[ok]
        np.minimum.at(dist, nb, nd[ok])
        # Keep one position per cell (whichever write to slot stands) and
        # drop cells already in the front. np.unique would hash or sort,
        # which costs several times more on fronts of a few hundred cells.
        seq = np.arange(nb.size)
        slot[nb] = seq
        nb = nb[(slot[nb] == seq) & ~queued[nb]]
        queued[nb] = True
        front = np.concatenate((front[~now], nb))

    # A neighbour i with dist[i] + w == dist[j] has dist[i] < dist[j], so it
    # settled before j; an unsettled cell is too far to give a settled one
    # its distance.
    cells = np.flatnonzero(settled)
    target = dist[cells]
    best = np.full(cells.size, np.inf)
    parent = np.full(n, -1)
    best_src = np.full(cells.size, -1)
    for k in range(8):
        src = cells - offsets[k]
        ds = dist[src]
        take = (allowed[src, k] & (ds + weights[k] == target)
                & ((ds < best) | ((ds == best) & (src < best_src))))
        best[take] = ds[take]
        best_src[take] = src[take]
    parent[cells] = best_src
    return dist, parent


def _extract_path(grid, dist, parent, goal_idx) -> GridPath:
    pw = grid.width + 2
    chain = []
    idx = goal_idx
    while idx != -1:
        chain.append(idx)
        idx = parent[idx]
    chain.reverse()
    cells = [(i % pw - 1, i // pw - 1) for i in chain]
    waypoints = [grid_to_world(cx, cy, grid) for cx, cy in cells]
    return GridPath(cells, float(dist[goal_idx]), waypoints)


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
    point, from one search; unreachable goals yield None. Each path is the
    one a search for its goal alone would give."""
    scx, scy = _start_cell(grid, start)
    pw = grid.width + 2
    goal_idxs = []
    for g in goals:
        gcx, gcy = world_to_grid(g[0], g[1], grid)
        if not grid.in_bounds(gcx, gcy) or grid.cells[gcy, gcx] == OCCUPIED:
            goal_idxs.append(None)
        else:
            goal_idxs.append((gcy + 1) * pw + gcx + 1)
    wanted = [i for i in goal_idxs if i is not None]
    dist, parent = _run_dijkstra(grid, (scx, scy), wanted)
    parent = parent.tolist()

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

