import numpy as np
import pytest

from mrexplore.grid import FREE, OCCUPIED, UNKNOWN, OccupancyGrid
from mrexplore.pgm import load_grid, load_truth, meta_path_for, render_pixels, save_grid
from mrexplore.worlds import make_world

from conftest import grid_from_rows


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        g = grid_from_rows([
            "#?.",
            ".?#",
            "???",
        ], resolution=0.25, origin=(-1.5, 2.0))
        path = str(tmp_path / "map.pgm")
        save_grid(g, path)
        back = load_grid(path)
        assert np.array_equal(back.cells, g.cells)
        assert back.resolution == g.resolution
        assert back.origin_x == g.origin_x
        assert back.origin_y == g.origin_y

    def test_double_roundtrip_stable(self, tmp_path):
        g = make_world("two_wings")
        belief = OccupancyGrid(g.resolution, g.origin_x, g.origin_y,
                               g.width, g.height, g.cells.copy())
        p1 = str(tmp_path / "a.pgm")
        p2 = str(tmp_path / "b.pgm")
        save_grid(belief, p1)
        save_grid(load_grid(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_meta_sidecar_written(self, tmp_path):
        g = grid_from_rows(["?."])
        path = str(tmp_path / "m.pgm")
        save_grid(g, path)
        meta = open(meta_path_for(path)).read()
        assert "resolution" in meta
        assert "occupied_threshold" in meta


class TestP2:
    def test_ascii_pgm_with_comment(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# a comment\n3 2\n255\n0 128 255\n255 0 128\n")
        (tmp_path / "a.meta").write_text(
            "resolution: 0.5\norigin_x: 1.0\norigin_y: -1.0\n"
            "occupied_threshold: 100\nfree_threshold: 200\n"
        )
        g = load_grid(str(path))
        assert g.width == 3 and g.height == 2
        assert g.cells[0, 0] == OCCUPIED
        assert g.cells[0, 1] == UNKNOWN
        assert g.cells[0, 2] == FREE
        assert g.resolution == 0.5

    def test_maxval_scaled_to_thresholds(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n3 1\n15\n0 7 15\n")
        (tmp_path / "a.meta").write_text(
            "resolution: 1.0\norigin_x: 0\norigin_y: 0\n")
        g = load_grid(str(path))
        assert list(g.cells[0]) == [OCCUPIED, UNKNOWN, FREE]


class TestErrors:
    @pytest.mark.parametrize("data", [
        b"P2\n2 1\n255\n0 300\n",
        b"P2\n2 1\n255\n-5 255\n",
        b"P2\n2 1\n15\n0 16\n",
        b"P5\n2 1\n15\n\x00\xc8",
    ], ids=["p2_above_255", "p2_negative", "p2_above_maxval", "p5_above_maxval"])
    def test_sample_outside_maxval(self, tmp_path, data):
        path = tmp_path / "x.pgm"
        path.write_bytes(data)
        (tmp_path / "x.meta").write_text(
            "resolution = 1.0\norigin_x = 0\norigin_y = 0\n")
        with pytest.raises(ValueError, match="outside 0.."):
            load_grid(str(path))

    @pytest.mark.parametrize("size", [b"-1 4", b"4 -1", b"0 4", b"-2 -4"])
    def test_non_positive_size(self, tmp_path, size):
        # 8 bytes: reshape would infer -1 as 2 and load a 2x4 map
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + b"\xff" * 8)
        (tmp_path / "x.meta").write_text(
            "resolution = 1.0\norigin_x = 0\norigin_y = 0\n")
        with pytest.raises(ValueError, match="non-positive size"):
            load_grid(str(path))

    def test_missing_meta_key(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x80")
        (tmp_path / "x.meta").write_text("resolution = 1.0\n")
        with pytest.raises(ValueError, match="origin_x"):
            load_grid(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        (tmp_path / "x.meta").write_text(
            "resolution = 1.0\norigin_x = 0\norigin_y = 0\n"
        )
        with pytest.raises(ValueError, match="PGM"):
            load_grid(str(path))

    def test_truth_rejects_unknown_pixels(self, tmp_path):
        g = grid_from_rows(["?."])
        path = str(tmp_path / "t.pgm")
        save_grid(g, path)
        with pytest.raises(ValueError, match="unknown"):
            load_truth(str(path))

    def test_truth_loads_binary_map(self, tmp_path):
        g = grid_from_rows(["#.", ".#"])
        path = str(tmp_path / "t.pgm")
        save_grid(g, path)
        t = load_truth(path)
        assert np.array_equal(t.cells, g.cells)


class TestRender:
    def test_pixel_values(self):
        g = grid_from_rows(["#?."])
        px = render_pixels(g)
        assert list(px[0]) == [0, 128, 255]
