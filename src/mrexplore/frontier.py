"""Frontier detection and the three-stage point filtering pipeline:
cross-agent merge with dedup, near-border classification against the
merged map, and adaptive list-size control.

Both layers run as whole-array numpy steps. Detection labels the
8-connected clusters of frontier cells by hooking roots to the smaller
root, over the frontier cells' own adjacency table. Filtering counts the
Unknown and in-bounds cells of every point's disc in one (points x disc
offsets) gather; a percentage relaxation only rethresholds counts it
already has."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .grid import (
    FREE,
    UNKNOWN,
    OccupancyGrid,
    finite_numbers,
    grid_to_world,
    int_at_least,
    require_finite,
    world_to_grid,
)


@dataclass(frozen=True)
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
        require_finite(self, [f.name for f in fields(self)])
        for name in ("min_pts", "max_pts"):
            if not int_at_least(getattr(self, name), 0):
                raise ValueError(f"{name}: must be an integer >= 0")
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
    points: list[tuple[float, float]]
    final_rad: float
    final_perc: float
    exhausted: bool
    iterations: int


def detect_frontiers(grid: OccupancyGrid) -> list[tuple[float, float]]:
    """Frontier cells are Free cells 4-adjacent to Unknown; they are grouped
    into 8-connected clusters and each cluster yields one (x, y) point at the
    member cell nearest the cluster centroid, ties to the least (row, col).
    Cluster order follows each cluster's least row-major cell."""
    cells = grid.cells
    unknown = cells == UNKNOWN
    near_unknown = np.zeros_like(unknown)
    near_unknown[1:, :] |= unknown[:-1, :]
    near_unknown[:-1, :] |= unknown[1:, :]
    near_unknown[:, 1:] |= unknown[:, :-1]
    near_unknown[:, :-1] |= unknown[:, 1:]

    # Frontier cells as flat indices of the grid padded with one empty ring,
    # so no neighbour index wraps to another row; row-major, so sorted.
    pw = grid.width + 2
    padded = np.zeros((grid.height + 2, pw), dtype=bool)
    padded[1:-1, 1:-1] = (cells == FREE) & near_unknown
    flat = np.flatnonzero(padded)
    k = flat.size
    if not k:
        return []
    # Position of each frontier cell in `flat`; read only at frontier cells.
    position = np.empty(padded.size, dtype=np.intp)
    position[flat] = np.arange(k)

    # Each 8-adjacency once, from the earlier cell to the later one.
    nb = flat[:, None] + np.array([1, pw - 1, pw, pw + 1])
    adjacent = padded.reshape(-1)[nb]
    lo = np.nonzero(adjacent)[0]
    hi = position[nb[adjacent]]
    label = _least_member_labels(k, lo, hi)

    # Clusters numbered by their least member, which comes first in `flat`.
    is_root = label == np.arange(k)
    cluster = (np.cumsum(is_root) - 1)[label]
    rows = flat // pw - 1
    cols = flat % pw - 1
    size = np.bincount(cluster)
    n = size.size
    mr = np.bincount(cluster, rows) / size
    mc = np.bincount(cluster, cols) / size
    # Python's float ** 2 calls the C library's pow, which does not always
    # round as d * d does; float_power calls the same pow, so the distances
    # and so the choice among near-ties are those of the scalar expression.
    d2 = np.float_power(rows - mr[cluster], 2) + np.float_power(cols - mc[cluster], 2)
    least = np.full(n, np.inf)
    np.minimum.at(least, cluster, d2)
    tied = np.flatnonzero(d2 == least[cluster])
    best = np.full(n, k)
    np.minimum.at(best, cluster[tied], tied)

    xs, ys = grid_to_world(cols[best], rows[best], grid)
    return list(zip(xs.tolist(), ys.tolist()))


def _least_member_labels(k: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Connected components of the graph on nodes 0..k-1 with edges
    (lo[i], hi[i]): each node's label is the least node of its component.

    Each round hooks the larger root of every edge whose ends have
    different roots onto the smaller one, then jumps pointers until every
    node points at its root. A root only ever points to a smaller node, so
    no cycle forms, and a component's least node stays its root."""
    label = np.arange(k)
    while lo.size:
        ra, rb = label[lo], label[hi]
        split = ra != rb
        if not split.any():
            break
        lo, hi, ra, rb = lo[split], hi[split], ra[split], rb[split]
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = label[label]
            if not (jumped != label).any():
                break
            label = jumped
    return label


@lru_cache(maxsize=64)
def _disc_offsets(rad_cells: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer offsets (i, j) with i^2 + j^2 <= rad_cells^2, as an array of
    the i and an array of the j."""
    r = int(math.floor(rad_cells))
    span = np.arange(-r, r + 1)
    ii, jj = np.meshgrid(span, span, indexing="ij")
    keep = ii * ii + jj * jj <= rad_cells * rad_cells
    return ii[keep], jj[keep]


# Most (point, disc cell) pairs gathered at once. A radius step can grow the
# disc towards the map diagonal; gathering a long list of such discs at once
# would take memory in proportion to both.
_GATHER_CELLS = 1 << 16


def _disc_counts(cells: np.ndarray, grid: OccupancyGrid, rad: float) -> tuple[np.ndarray, np.ndarray]:
    """(unknown counts, in-bounds counts) over the discretized disc of world
    radius rad centred on each (cx, cy) row of the (P, 2) cell array."""
    # A disc reaching past every map cell from every centre adds only
    # out-of-bounds cells, which count for nothing, so it is clamped to that
    # reach plus one cell. The reach is the map diagonal for centres on the
    # map (or none), so calls on one map share the clamped disc.
    lo, hi = cells.min(axis=0, initial=0).tolist(), cells.max(axis=0, initial=0).tolist()
    reach = math.hypot(max(grid.width - 1, hi[0], grid.width - 1 - lo[0]),
                       max(grid.height - 1, hi[1], grid.height - 1 - lo[1]))
    di, dj = _disc_offsets(min(rad / grid.resolution, reach + 1.0))
    step = max(1, _GATHER_CELLS // di.size)
    if len(cells) > step:
        parts = [_disc_counts(cells[s:s + step], grid, rad)
                 for s in range(0, len(cells), step)]
        return tuple(np.concatenate(counts) for counts in zip(*parts))
    xs = cells[:, :1] + di
    ys = cells[:, 1:] + dj
    # A negative coordinate reads as a huge unsigned one, so one comparison
    # bounds each axis.
    ok = (xs.view(np.uintp) < grid.width) & (ys.view(np.uintp) < grid.height)
    unknown = np.take(grid.cells.reshape(-1), ys * grid.width + xs, mode="clip") == UNKNOWN
    unknown &= ok
    return unknown.sum(axis=1), ok.sum(axis=1)


def _near_border(unk, total, per_unk: float):
    """The near-border rule on disc counts: at least per_unk percent of the
    in-bounds disc cells are Unknown. A disc wholly outside the map
    (total 0) is never near the border."""
    return (total > 0) & (100.0 * unk / np.maximum(total, 1) >= per_unk)


def _cells_of(points, grid: OccupancyGrid, name: str) -> np.ndarray:
    """(P, 2) array of the (x, y) points' (cx, cy) cells. Raises
    ValueError naming the argument name when some point is not two
    numbers, or a coordinate is not finite or its cell does not fit the
    index type."""
    try:
        return np.array([world_to_grid(x, y, grid) for x, y in points],
                        dtype=np.intp).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must hold (x, y) points with finite coordinates "
                         f"whose cells fit the index type") from None


def disc_unknown_stats(points, grid: OccupancyGrid, rad: float) -> tuple[np.ndarray, np.ndarray]:
    """(unknown counts, in-bounds counts), one of each per point, over the
    discretized disc of world radius rad centred on the point's cell.
    Raises ValueError naming points for a bad coordinate (see _cells_of),
    and naming rad unless it is a finite number of at least 0."""
    if not (finite_numbers((rad,), 1) and rad >= 0):
        raise ValueError("rad must be a finite number >= 0")
    return _disc_counts(_cells_of(points, grid, "points"), grid, rad)


def _first_per_cell(idx: np.ndarray, cells: np.ndarray) -> list[int]:
    """The entries of idx, in order, whose row of the (P, 2) cell array no
    earlier entry's row equals: first-seen dedup by cell."""
    seen: set[tuple[int, int]] = set()
    kept = []
    for i, cell in zip(idx.tolist(), map(tuple, cells[idx].tolist())):
        if cell not in seen:
            seen.add(cell)
            kept.append(i)
    return kept


def _keep_near(pts, cells: np.ndarray, counts, per_unk: float):
    """The points, and their cells, whose disc counts pass the near-border
    rule at per_unk, dropping any whose cell an earlier kept point holds."""
    kept = _first_per_cell(np.flatnonzero(_near_border(*counts, per_unk)), cells)
    return [pts[i] for i in kept], cells[kept]


def _gather(lists: list[list[tuple[float, float]]], merged: OccupancyGrid, rad: float):
    """The per-agent lists concatenated, with each point's merged-map cell
    and the disc counts at rad: the arguments of _keep_near but for the
    percentage."""
    pts = [p for agent_list in lists for p in agent_list]
    cells = _cells_of(pts, merged, "lists")
    return pts, cells, _disc_counts(cells, merged, rad)


def merge_points(
    lists: list[list[tuple[float, float]]],
    merged: OccupancyGrid,
    params: FilterParams,
) -> list[tuple[float, float]]:
    """Concatenate per-agent lists, keep near-border points only, and drop
    duplicates (two points are duplicates when they land in the same cell of
    the merged map). First-seen order is preserved."""
    return _keep_near(*_gather(lists, merged, params.rad), params.per_unk)[0]


def filter_pipeline(
    lists: list[list[tuple[float, float]]],
    merged: OccupancyGrid,
    params: FilterParams,
) -> FilterOutcome:
    """Full pipeline: merge_points, then refilter until
    min_pts < |list| < max_pts.

    Too small: refilter the raw list at the original radius params.rad,
    with the acceptance percentage lowered by perc_step. Too large:
    refilter the current list with the disc radius raised by rad_step, at
    the original percentage params.per_unk, not at the lowered one. So a
    list that a lowered percentage has filled past max_pts is retested
    against params.per_unk and can empty; the loop then goes back to the
    percentage, which may already be at 0, and ends exhausted.
    The percentage floors at 0 and the radius ceilings at the map
    diagonal; when a needed relaxation is already clamped the current
    best-effort list is returned with exhausted=True.

    The raw points' disc counts at params.rad are gathered once: the merge
    and every percentage step only threshold them, and a radius step
    gathers for the current list alone. Raises ValueError naming lists for
    a bad coordinate (see _cells_of), as merge_points does.
    """
    raw = _gather(lists, merged, params.rad)
    pts, cells = _keep_near(*raw, params.per_unk)
    rad = params.rad
    perc = params.per_unk
    max_rad = math.hypot(merged.width, merged.height) * merged.resolution
    exhausted = False
    iterations = 0

    while len(pts) <= params.min_pts or len(pts) >= params.max_pts:
        if len(pts) <= params.min_pts:
            if perc <= 0.0:
                exhausted = True
                break
            perc = max(0.0, perc - params.perc_step)
            pts, cells = _keep_near(*raw, perc)
        else:
            if rad >= max_rad:
                exhausted = True
                break
            rad = min(max_rad, rad + params.rad_step)
            pts, cells = _keep_near(pts, cells, _disc_counts(cells, merged, rad),
                                    params.per_unk)
        iterations += 1
    return FilterOutcome(pts, rad, perc, exhausted, iterations)
