import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrexplore.grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GroundTruthMap,
    OccupancyGrid,
    cell_entropy,
    coverage_percent,
    grid_to_world,
    inflate_obstacles,
    map_entropy,
    merge_maps,
    world_to_grid,
)

from conftest import grid_from_rows


class TestTransforms:
    def test_basic(self):
        g = OccupancyGrid(0.1, -5.0, -5.0, 100, 100)
        assert world_to_grid(0.0, 0.0, g) == (50, 50)

    def test_identity_origin(self):
        g = OccupancyGrid(1.0, 0.0, 0.0, 10, 10)
        assert world_to_grid(0.0, 0.0, g) == (0, 0)

    def test_floor_formula(self):
        # hand evaluation: (1.3+2.5)/0.25 = 15.2 -> 15, (-0.7+2.5)/0.25 = 7.2 -> 7
        g = OccupancyGrid(0.25, -2.5, -2.5, 40, 40)
        assert world_to_grid(1.3, -0.7, g) == (15, 7)

    def test_roundtrip_all_cells(self):
        g = OccupancyGrid(0.25, -2.0, 3.0, 12, 9)
        for cy in range(g.height):
            for cx in range(g.width):
                x, y = grid_to_world(cx, cy, g)
                assert world_to_grid(x, y, g) == (cx, cy)

    def test_out_of_bounds_returned_as_is(self):
        g = OccupancyGrid(1.0, 0.0, 0.0, 10, 10)
        assert world_to_grid(-3.5, 42.0, g) == (-4, 42)


class TestEntropy:
    def test_half_is_one_bit(self):
        assert cell_entropy(0.5) == 1.0

    def test_certain_cells_zero(self):
        assert cell_entropy(0.0) == 0.0
        assert cell_entropy(1.0) == 0.0

    def test_point_nine(self):
        # closed form: -(0.9 log2 0.9 + 0.1 log2 0.1) = 0.4689955936...
        assert cell_entropy(0.9) == pytest.approx(0.4689955936, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cell_entropy(-0.01)
        with pytest.raises(ValueError):
            cell_entropy(1.01)

    def test_symmetry(self):
        for p in (0.05, 0.2, 0.37, 0.45):
            assert cell_entropy(p) == pytest.approx(cell_entropy(1.0 - p), abs=1e-12)

    def test_map_entropy_all_unknown(self):
        g = OccupancyGrid(1.0, 0.0, 0.0, 2, 2)
        assert map_entropy(g) == 4.0

    def test_map_entropy_known_grid(self):
        # Free and Occupied cells stand for p = 0.05 and 0.95:
        # 4 * 0.2863969571 = 1.1455878284
        g = grid_from_rows(["#.", ".#"])
        assert map_entropy(g) == pytest.approx(1.1455878284, abs=1e-9)

    def test_map_entropy_mixed(self):
        # cells {0.5, 0.95, 0.05}: 1 + 2 * 0.2863969571 = 1.5727939142
        g = grid_from_rows(["?#."])
        assert map_entropy(g) == pytest.approx(1.5727939142, abs=1e-9)

    def test_entropy_upper_bound(self):
        rng = np.random.RandomState(7)
        for _ in range(20):
            w, h = rng.randint(1, 9, size=2)
            cells = rng.choice([UNKNOWN, FREE, OCCUPIED], size=(h, w)).astype(np.int8)
            g = OccupancyGrid(1.0, 0.0, 0.0, int(w), int(h), cells)
            e = map_entropy(g)
            assert 0.0 <= e <= w * h + 1e-12
            if np.all(cells == UNKNOWN):
                assert e == w * h


class TestFrame:
    @pytest.mark.parametrize("cls", [OccupancyGrid, GroundTruthMap])
    @pytest.mark.parametrize("index", [0, 1, 2])  # resolution, origin_x, origin_y
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, cls, index, value):
        frame = [1.0, 0.0, 0.0]
        frame[index] = value
        with pytest.raises(ValueError, match="finite"):
            cls(*frame, 2, 2)


class TestMerge:
    def test_single_grid_identity(self):
        g = grid_from_rows(["?.#", ".?."])
        m = merge_maps([g])
        assert np.array_equal(m.cells, g.cells)
        assert (m.origin_x, m.origin_y) == (g.origin_x, g.origin_y)

    def test_known_overrides_unknown(self):
        a = grid_from_rows(["."])
        b = grid_from_rows(["?"])
        assert merge_maps([a, b]).cells[0, 0] == FREE
        assert merge_maps([b, a]).cells[0, 0] == FREE

    def test_conflict_rule_all_pairs(self):
        # cell-wise oracle over all 9 state pairs
        precedence = {UNKNOWN: 0, FREE: 1, OCCUPIED: 2}
        states = [UNKNOWN, FREE, OCCUPIED]
        for sa in states:
            for sb in states:
                a = OccupancyGrid(1.0, 0, 0, 1, 1, np.array([[sa]], dtype=np.int8))
                b = OccupancyGrid(1.0, 0, 0, 1, 1, np.array([[sb]], dtype=np.int8))
                got = merge_maps([a, b]).cells[0, 0]
                want = sa if precedence[sa] >= precedence[sb] else sb
                assert got == want, (sa, sb)

    def test_mismatched_resolution_raises(self):
        a = OccupancyGrid(1.0, 0, 0, 2, 2)
        b = OccupancyGrid(0.5, 0, 0, 2, 2)
        with pytest.raises(ValueError):
            merge_maps([a, b])

    def test_union_bounding_box(self):
        a = OccupancyGrid(1.0, 0.0, 0.0, 2, 2,
                          np.full((2, 2), FREE, dtype=np.int8))
        b = OccupancyGrid(1.0, 3.0, 1.0, 2, 2,
                          np.full((2, 2), OCCUPIED, dtype=np.int8))
        m = merge_maps([a, b])
        assert (m.width, m.height) == (5, 3)
        assert m.cells[0, 0] == FREE
        assert m.cells[1, 3] == OCCUPIED
        assert m.cells[0, 2] == UNKNOWN  # covered by neither

    def test_idempotent_and_order_insensitive(self):
        rng = np.random.RandomState(3)
        for _ in range(25):
            grids = [
                OccupancyGrid(1.0, 0, 0, 4, 4,
                              rng.choice([UNKNOWN, FREE, OCCUPIED],
                                         size=(4, 4)).astype(np.int8))
                for _ in range(3)
            ]
            m1 = merge_maps(grids)
            assert np.array_equal(merge_maps([m1, m1]).cells, m1.cells)
            for perm in ((2, 0, 1), (1, 2, 0), (2, 1, 0)):
                m2 = merge_maps([grids[i] for i in perm])
                assert np.array_equal(m1.cells, m2.cells)


@st.composite
def lattice_grid(draw, res=0.5):
    """A small random tri-state grid whose origin lies on the res lattice."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ox, oy = draw(st.integers(-5, 5)) * res, draw(st.integers(-5, 5)) * res
    cells = draw(arrays(np.int8, (h, w),
                        elements=st.sampled_from([UNKNOWN, FREE, OCCUPIED])))
    return OccupancyGrid(res, ox, oy, w, h, cells)


def same_map(a, b):
    return ((a.resolution, a.origin_x, a.origin_y, a.width, a.height)
            == (b.resolution, b.origin_x, b.origin_y, b.width, b.height)
            and np.array_equal(a.cells, b.cells))


class TestMergeProperties:
    @given(lattice_grid(), lattice_grid())
    def test_commutative(self, a, b):
        assert same_map(merge_maps([a, b]), merge_maps([b, a]))

    @given(lattice_grid())
    def test_idempotent(self, a):
        assert same_map(merge_maps([a, a]), a)

    @given(lattice_grid(), lattice_grid())
    def test_merging_inputs_again_changes_nothing(self, a, b):
        m = merge_maps([a, b])
        assert same_map(merge_maps([m, a, b]), m)


class TestCoverage:
    def test_bounds(self, box5):
        g = box5.blank_grid()
        assert coverage_percent(g, box5) == 0.0
        g.cells[:] = FREE
        assert coverage_percent(g, box5) == 100.0

    def test_half_known(self):
        truth = GroundTruthMap(1.0, 0, 0, 2, 2)
        g = grid_from_rows(["..", "??"])
        assert coverage_percent(g, truth) == 50.0

    def test_geometry_mismatch(self):
        truth = GroundTruthMap(1.0, 0, 0, 3, 3)
        g = OccupancyGrid(1.0, 0, 0, 2, 2)
        with pytest.raises(ValueError):
            coverage_percent(g, truth)


class TestInflate:
    def test_dilation(self):
        g = grid_from_rows([".....",
                            ".....",
                            "..#..",
                            ".....",
                            "....."])
        out = inflate_obstacles(g, 1)
        occ = np.argwhere(out.cells == OCCUPIED)
        assert len(occ) == 9  # 3x3 block around the seed
        assert out.cells[0, 0] == FREE

    def test_zero_is_copy(self):
        g = grid_from_rows(["#?."])
        out = inflate_obstacles(g, 0)
        assert np.array_equal(out.cells, g.cells)
        out.cells[0, 2] = OCCUPIED
        assert g.cells[0, 2] == FREE  # no aliasing
