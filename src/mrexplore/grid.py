"""Occupancy grid types, coordinate transforms, entropy and map fusion."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Cell states. Unknown uses the ROS occupancy-grid convention of -1.
UNKNOWN = -1
FREE = 0
OCCUPIED = 1


def finite_numbers(values, count: int) -> bool:
    """Whether values is exactly count finite numbers. A value that is not a
    number, or an int too large for a float, counts as not finite
    (math.isfinite raises TypeError or OverflowError on it)."""
    try:
        return len(values) == count and all(map(math.isfinite, values))
    except (TypeError, OverflowError):
        return False


def int_at_least(value, least: int) -> bool:
    """Whether value is a Python or numpy integer of at least least."""
    return isinstance(value, (int, np.integer)) and value >= least


def require_finite(obj, names) -> None:
    """Raise ValueError naming the first of obj's attributes in names that is
    not a finite number (see finite_numbers)."""
    for name in names:
        if not finite_numbers((getattr(obj, name),), 1):
            raise ValueError(f"{name}: must be finite and fit in a float")


def _check_frame(grid) -> None:
    if not (int_at_least(grid.width, 1) and int_at_least(grid.height, 1)):
        raise ValueError("width and height must be integers >= 1")
    require_finite(grid, ("resolution", "origin_x", "origin_y"))
    if grid.resolution <= 0:
        raise ValueError("resolution must be positive")


@dataclass
class OccupancyGrid:
    """Tri-state 2D occupancy grid with world-frame metadata.

    Cell states live in a (height, width) int8 array; linear index is
    col + row * width. A cell's entropy follows from its state alone
    (see ENTROPY_BITS). Every grid of a run shares one frame (see frame).
    """

    resolution: float
    origin_x: float
    origin_y: float
    width: int
    height: int
    cells: np.ndarray = field(default=None)  # type: ignore[assignment]

    _fill = UNKNOWN  # state of every cell when no cells are given

    def __post_init__(self):
        _check_frame(self)
        if self.cells is None:
            self.cells = np.full((self.height, self.width), self._fill, dtype=np.int8)
        else:
            self.cells = np.asarray(self.cells, dtype=np.int8)
            if self.cells.shape != (self.height, self.width):
                raise ValueError("cells shape does not match width/height")

    @property
    def frame(self) -> tuple[float, float, float, int, int]:
        """(resolution, origin_x, origin_y, width, height)."""
        return (self.resolution, self.origin_x, self.origin_y, self.width, self.height)

    def copy(self) -> "OccupancyGrid":
        return type(self)(*self.frame, self.cells.copy())

    def in_bounds(self, cx: int, cy: int) -> bool:
        return 0 <= cx < self.width and 0 <= cy < self.height

    def known_count(self) -> int:
        return int(np.count_nonzero(self.cells != UNKNOWN))


class GroundTruthMap(OccupancyGrid):
    """Binary simulation world: every cell is Free or Occupied."""

    _fill = FREE

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.cells == UNKNOWN):
            raise ValueError("ground truth map may not contain unknown cells")

    def blank_grid(self) -> OccupancyGrid:
        """All-unknown OccupancyGrid in this map's frame."""
        return OccupancyGrid(*self.frame)


def require_same_frame(a, b) -> None:
    """Raise ValueError unless a and b have equal frames, compared exactly:
    the one rule for whether two grids line up."""
    if a.frame != b.frame:
        raise ValueError(f"grid geometry differs: frame {a.frame} is not {b.frame}")


def world_to_grid(x: float, y: float, grid) -> tuple[int, int]:
    """World point -> integer cell coords; out-of-bounds coords are returned
    as-is for the caller to bounds-check."""
    cx = math.floor((x - grid.origin_x) / grid.resolution)
    cy = math.floor((y - grid.origin_y) / grid.resolution)
    return cx, cy


def grid_to_world(cx, cy, grid):
    """Cell coords -> world coordinates of the cell center; given arrays of
    cell coords, arrays of world coordinates."""
    x = grid.origin_x + (cx + 0.5) * grid.resolution
    y = grid.origin_y + (cy + 0.5) * grid.resolution
    return x, y


def cell_entropy(p: float) -> float:
    """Bernoulli entropy in bits, with 0*log2(0) taken as 0. Raises
    ValueError unless p is a number in [0, 1]."""
    if not (finite_numbers((p,), 1) and 0.0 <= p <= 1.0):
        raise ValueError("p must be a probability in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


# Entropy in bits of one cell per state, indexed by state - UNKNOWN
# (Unknown, Free, Occupied). Each state stands for one occupancy
# probability: Unknown 0.5, at maximum entropy; Free 0.05 and Occupied
# 0.95, small symmetric margins so mapped space adds little path entropy.
ENTROPY_BITS = np.array([cell_entropy(0.5), cell_entropy(0.05), cell_entropy(0.95)])


def map_entropy(grid: OccupancyGrid) -> float:
    """Total entropy of the grid in bits (sum of per-cell entropies).

    A cell's entropy depends on its state alone, so the sum reduces to
    counting cells per state; this keeps an all-unknown N-cell grid at
    exactly N bits.
    """
    total = 0.0
    for state, bits in zip((UNKNOWN, FREE, OCCUPIED), ENTROPY_BITS.tolist()):
        n = int(np.count_nonzero(grid.cells == state))
        if n:
            total += n * bits
    return total


def merge_maps(grids: list[OccupancyGrid]) -> OccupancyGrid:
    """Cell-wise fusion of grids that share one frame, the one fusion rule:
    of a scan into a map, and of maps into one. Known states override
    Unknown, and Occupied overrides Free on conflict. The states are ordered
    Unknown < Free < Occupied, so this is a cell-wise max. Raises ValueError
    for no grids or for a grid in another frame.
    """
    if not grids:
        raise ValueError("nothing to merge")
    first = grids[0]
    cells = first.cells.copy()
    for g in grids[1:]:
        require_same_frame(first, g)
        np.maximum(cells, g.cells, out=cells)
    return OccupancyGrid(*first.frame, cells)


def coverage_percent(grid: OccupancyGrid, truth: GroundTruthMap) -> float:
    """Percentage of truth cells the grid has resolved to a known state."""
    require_same_frame(grid, truth)
    total = truth.width * truth.height
    return 100.0 * grid.known_count() / total


def inflate_obstacles(grid: OccupancyGrid, cells: int) -> OccupancyGrid:
    """New grid with Occupied dilated by `cells` (Chebyshev radius).

    Used to keep the point robot away from walls when planning. A radius
    of max(width, height) already reaches every cell from any cell, so
    larger radii dilate no further. Raises ValueError unless cells is an
    integer of at least 0.
    """
    if not int_at_least(cells, 0):
        raise ValueError("cells must be an integer >= 0")
    occ = grid.cells == OCCUPIED
    grown = occ.copy()
    for _ in range(min(cells, max(grid.width, grid.height))):
        padded = np.pad(grown, 1, mode="constant")
        grown = (
            padded[0:-2, 0:-2] | padded[0:-2, 1:-1] | padded[0:-2, 2:]
            | padded[1:-1, 0:-2] | padded[1:-1, 1:-1] | padded[1:-1, 2:]
            | padded[2:, 0:-2] | padded[2:, 1:-1] | padded[2:, 2:]
        )
    out = grid.copy()
    out.cells[grown] = OCCUPIED
    return out

