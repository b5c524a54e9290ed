"""PGM map files (P2/P5) with a plain-text metadata sidecar.

The sidecar lives next to the image with a .meta suffix and carries
resolution, origin_x, origin_y, occupied_threshold, free_threshold.
Samples are scaled from 0..maxval to 0..255; a sample outside 0..maxval
is an error. Pixels below occupied_threshold load as Occupied, above
free_threshold as Free, everything between as Unknown.
"""

from __future__ import annotations

import os

import numpy as np

from .grid import FREE, OCCUPIED, UNKNOWN, GroundTruthMap, OccupancyGrid

# Grayscale rendering values shared with the quality metrics.
PIXEL_OCCUPIED = 0
PIXEL_UNKNOWN = 128
PIXEL_FREE = 255

DEFAULT_OCCUPIED_THRESHOLD = 100
DEFAULT_FREE_THRESHOLD = 200


def meta_path_for(map_path: str) -> str:
    stem, _ = os.path.splitext(map_path)
    return stem + ".meta"


def render_pixels(grid) -> np.ndarray:
    """Grid -> uint8 grayscale image (Occupied=0, Unknown=128, Free=255)."""
    img = np.full((grid.height, grid.width), PIXEL_UNKNOWN, dtype=np.uint8)
    img[grid.cells == FREE] = PIXEL_FREE
    img[grid.cells == OCCUPIED] = PIXEL_OCCUPIED
    return img


def _read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()

    # tokenize the header, skipping '#' comments
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated PGM header")
    magic = tokens[0]
    width, height, maxval = (int(t) for t in tokens[1:4])
    if width <= 0 or height <= 0:  # reshape would infer a -1
        raise ValueError(f"{path}: non-positive size {width}x{height}")
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")

    if magic == b"P5":
        i += 1  # single whitespace after maxval
        raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=i)
    elif magic == b"P2":
        values = data[i:].split()
        if len(values) < width * height:
            raise ValueError(f"{path}: truncated P2 raster")
        raster = np.array([int(v) for v in values[: width * height]], dtype=np.int64)
    else:
        raise ValueError(f"{path}: not a PGM file (magic {magic!r})")
    if np.any((raster < 0) | (raster > maxval)):
        raise ValueError(f"{path}: sample outside 0..{maxval}")
    if maxval != 255:
        raster = raster.astype(np.int64) * 255 // maxval  # onto the 0..255 thresholds
    return raster.astype(np.uint8, copy=False).reshape(height, width)


def _read_meta(path: str) -> dict[str, float]:
    meta: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, value = line.split(sep, 1)
                    break
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    continue
                key, value = parts
            meta[key.strip()] = float(value.strip())
    return meta


def load_grid(map_path: str) -> OccupancyGrid:
    """Load a PGM + sidecar pair as an OccupancyGrid."""
    pixels = _read_pgm(map_path)
    meta = _read_meta(meta_path_for(map_path))
    for key in ("resolution", "origin_x", "origin_y"):
        if key not in meta:
            raise ValueError(f"{meta_path_for(map_path)}: missing key {key}")
    occ_thr = meta.get("occupied_threshold", DEFAULT_OCCUPIED_THRESHOLD)
    free_thr = meta.get("free_threshold", DEFAULT_FREE_THRESHOLD)

    height, width = pixels.shape
    cells = np.full((height, width), UNKNOWN, dtype=np.int8)
    cells[pixels < occ_thr] = OCCUPIED
    cells[pixels > free_thr] = FREE
    return OccupancyGrid(
        meta["resolution"], meta["origin_x"], meta["origin_y"],
        width, height, cells,
    )


def load_truth(map_path: str) -> GroundTruthMap:
    """Load a PGM world map; every pixel must resolve to Free or Occupied."""
    g = load_grid(map_path)
    return GroundTruthMap(*g.frame, g.cells)


def save_grid(grid, map_path: str) -> None:
    """Write grid as binary PGM (P5) plus its metadata sidecar.

    Round-trips bit-exactly: the written pixel values fall on the correct
    side of the written thresholds.
    """
    pixels = render_pixels(grid)
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    with open(map_path, "wb") as f:
        f.write(header)
        f.write(pixels.tobytes())
    with open(meta_path_for(map_path), "w", encoding="utf-8") as f:
        f.write(f"resolution = {grid.resolution!r}\n")
        f.write(f"origin_x = {grid.origin_x!r}\n")
        f.write(f"origin_y = {grid.origin_y!r}\n")
        f.write(f"occupied_threshold = {DEFAULT_OCCUPIED_THRESHOLD}\n")
        f.write(f"free_threshold = {DEFAULT_FREE_THRESHOLD}\n")
