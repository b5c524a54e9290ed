"""Grid path planning (a bucket Dijkstra over the 8-connected lattice, in
numpy wavefronts) and ideal path following."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import OCCUPIED, OccupancyGrid, finite_numbers, grid_to_world, world_to_grid

_SQRT2 = math.sqrt(2.0)


class NoPathError(ValueError):
    """Raised when the goal cannot be reached, or the start is off the grid
    or in an obstacle; a ValueError, as for any bad argument."""


@dataclass
class GridPath:
    """A path from start to goal. extends and shared record where
    plan_many's shortest-path tree branches: extends is the position, among
    the reached paths of the same call in order, of an earlier path whose
    first shared cells and waypoints this one repeats (None, with shared
    0, when none does). They are left out of equality and repr. A path may
    be shared by several requests and robots, so nothing writes into one:
    its cells and waypoints are only read."""

    cells: list[tuple[int, int]]       # (cx, cy) from start to goal
    length_m: float
    waypoints: list[tuple[float, float]]  # cell centers in world coords
    extends: int | None = field(default=None, compare=False, repr=False)
    shared: int = field(default=0, compare=False, repr=False)

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
    cut corners. Stops once every goal index is settled, leaving out the
    goals that no move can leave: a move between two free cells is allowed
    both ways, corner checks included, so no move enters such a goal
    either, and it stays unreached unless it is the start, which the first
    step settles. Otherwise one walled-in goal would hold the search open
    until the front empties.

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
    goals = goals[allowed[goals].any(axis=1)]
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

    # The parent pass runs densely over every non-ring cell j, move by move:
    # the sources j - offsets[k] are then one contiguous slice. Moves go in
    # descending offset order, so each cell sees its sources in ascending
    # index order, and a strict < keeps the least (dist, index) among the
    # neighbours i with dist[i] + w == dist[j]. Such an i has dist[i] <
    # dist[j], so it settled before j; an unsettled cell is too far to give
    # a settled one its distance. Unsettled cells, unreached or left open
    # by the early stop, get parent -1.
    target = dist[lo:hi]
    best = np.full(hi - lo, np.inf)
    parent = np.full(n, -1)
    cells = np.arange(lo, hi)
    for k in np.argsort(-offsets):
        o = offsets[k]
        ds = dist[lo - o:hi - o]
        take = allowed[lo - o:hi - o, k] & (ds + weights[k] == target) & (ds < best)
        np.copyto(best, ds, where=take)
        np.copyto(parent[lo:hi], cells - o, where=take)
    parent[~settled] = -1
    return dist, parent


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
    one a search for its goal alone would give.

    The paths branch from one shortest-path tree, and each reports the
    prefix it shares with an earlier one: its `extends` is that path's
    position among the reached paths (the result without its Nones), and
    its `shared` the number of cells, and waypoints, they share. Raises
    ValueError, naming the argument, when the start is not two or three
    finite numbers (a point, or a pose whose heading is not read) or some
    goal is not two (x, y), and NoPathError, a ValueError, when the start
    is off the grid or in an obstacle."""
    if not (finite_numbers(start, 2) or finite_numbers(start, 3)):
        raise ValueError("start is not two or three finite numbers (x, y[, heading])")
    scx, scy = _start_cell(grid, start)
    pw = grid.width + 2
    goal_idxs = []
    for i, g in enumerate(goals):
        if not finite_numbers(g, 2):
            raise ValueError(f"goals[{i}] is not two finite numbers (x, y)")
        gcx, gcy = world_to_grid(g[0], g[1], grid)
        if not grid.in_bounds(gcx, gcy) or grid.cells[gcy, gcx] == OCCUPIED:
            goal_idxs.append(None)
        else:
            goal_idxs.append((gcy + 1) * pw + gcx + 1)
    wanted = [i for i in goal_idxs if i is not None]
    dist, parent = _run_dijkstra(grid, (scx, scy), wanted)

    # Each reached goal's parent chain is walked, goal first, only until it
    # meets a cell an earlier chain walked; that cell's path is then a
    # prefix of the new one. walked[cell] = (r, n): the cell ends the first
    # n cells of the r-th reached path. `fresh` holds every walked cell
    # once, so only the distinct cells are converted to cells and waypoints.
    parent_of = parent.item
    fresh, walked, pieces, r = [], {}, [], 0
    for gidx in goal_idxs:
        length = math.inf if gidx is None else float(dist[gidx])
        if not math.isfinite(length):
            pieces.append(None)
            continue
        begin = len(fresh)
        while gidx != -1 and gidx not in walked:
            fresh.append(gidx)
            gidx = parent_of(gidx)
        base, keep = walked.get(gidx, (None, 0))
        end = len(fresh)
        for i in range(begin, end):
            walked[fresh[i]] = (r, keep + end - i)
        pieces.append((base, keep, slice(begin, end), length))
        r += 1
    fresh = np.array(fresh, dtype=np.intp)
    cx = fresh % pw - 1
    cy = fresh // pw - 1
    xs, ys = grid_to_world(cx, cy, grid)
    cells = list(zip(cx.tolist(), cy.tolist()))
    waypoints = list(zip(xs.tolist(), ys.tolist()))
    paths, reached = [], []
    for piece in pieces:
        if piece is None:
            paths.append(None)
            continue
        base, keep, span, length = piece
        path_cells, path_waypoints = cells[span][::-1], waypoints[span][::-1]
        if base is not None:
            path_cells = reached[base].cells[:keep] + path_cells
            path_waypoints = reached[base].waypoints[:keep] + path_waypoints
        path = GridPath(path_cells, length, path_waypoints, base, keep)
        paths.append(path)
        reached.append(path)
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
    s = max(0.0, s)
    if s >= total:
        ax, ay = pts[-2]
        gx, gy = pts[-1]
        return (gx, gy, math.atan2(gy - ay, gx - ax))
    # 0 <= s < total, and the last segment of non-zero length ends at
    # exactly total (later ones add 0.0), so some segment takes s
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

