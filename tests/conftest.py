import numpy as np
import pytest
from hypothesis import settings

from mrexplore.grid import FREE, OCCUPIED, UNKNOWN, GroundTruthMap, OccupancyGrid

# Timing is not under test, and a busy host can run one example past
# hypothesis's deadline, so no property test has one. A test's own
# @settings sets its example count and inherits this.
settings.register_profile("no_deadline", deadline=None)
settings.load_profile("no_deadline")


@pytest.fixture
def box5() -> GroundTruthMap:
    """5x5 world: 3x3 free interior, occupied ring."""
    cells = np.full((5, 5), OCCUPIED, dtype=np.int8)
    cells[1:4, 1:4] = FREE
    return GroundTruthMap(1.0, 0.0, 0.0, 5, 5, cells)


@pytest.fixture
def open_arena() -> GroundTruthMap:
    cells = np.full((100, 100), FREE, dtype=np.int8)
    return GroundTruthMap(1.0, 0.0, 0.0, 100, 100, cells)


def grid_from_rows(rows, resolution=1.0, origin=(0.0, 0.0)) -> OccupancyGrid:
    """Build a grid from strings: '#' occupied, '.' free, '?' unknown.
    rows[0] is the y=0 row."""
    lookup = {"#": OCCUPIED, ".": FREE, "?": UNKNOWN}
    cells = np.array([[lookup[ch] for ch in row] for row in rows], dtype=np.int8)
    h, w = cells.shape
    return OccupancyGrid(resolution, origin[0], origin[1], w, h, cells)


def truth_from_rows(rows, resolution=1.0, origin=(0.0, 0.0)) -> GroundTruthMap:
    lookup = {"#": OCCUPIED, ".": FREE}
    cells = np.array([[lookup[ch] for ch in row] for row in rows], dtype=np.int8)
    h, w = cells.shape
    return GroundTruthMap(resolution, origin[0], origin[1], w, h, cells)
