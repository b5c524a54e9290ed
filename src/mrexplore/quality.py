"""Map-quality metrics: SSIM, RMSE and occupied-set alignment error."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import OCCUPIED, require_same_frame
from .pgm import render_pixels

SSIM_WINDOW = 7
# stabilizing constants for the 0-255 dynamic range
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2


@dataclass
class MapQuality:
    ssim: float
    rmse: float
    alignment_error: float


def _window_means(img: np.ndarray, win: int) -> np.ndarray:
    """Mean over every win x win window (valid positions only), via an
    integral image."""
    s = np.cumsum(np.cumsum(img, axis=0), axis=1)
    s = np.pad(s, ((1, 0), (1, 0)))
    total = (
        s[win:, win:] - s[:-win, win:] - s[win:, :-win] + s[:-win, :-win]
    )
    return total / (win * win)


def ssim_index(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over sliding SSIM_WINDOW-wide windows
    (stride 1), narrowed to the image's shorter side."""
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    win = min(SSIM_WINDOW, a.shape[0], a.shape[1])

    mu_a = _window_means(a, win)
    mu_b = _window_means(b, win)
    mu_aa = _window_means(a * a, win)
    mu_bb = _window_means(b * b, win)
    mu_ab = _window_means(a * b, win)

    var_a = mu_aa - mu_a * mu_a
    var_b = mu_bb - mu_b * mu_b
    cov = mu_ab - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + _C1) * (2.0 * cov + _C2)
    den = (mu_a * mu_a + mu_b * mu_b + _C1) * (var_a + var_b + _C2)
    return float(np.mean(num / den))


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError("image shapes differ")
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(math.sqrt(np.mean(diff * diff)))


def alignment_error(grid, truth) -> float:
    """Symmetric mean nearest-neighbor distance (in cells) between the two
    occupied-cell sets. 0 when both sets coincide; NaN if exactly one set
    is empty."""
    occ_a = grid.cells == OCCUPIED
    occ_b = truth.cells == OCCUPIED
    cells_a, cells_b = np.argwhere(occ_a), np.argwhere(occ_b)
    if len(cells_a) == 0 and len(cells_b) == 0:
        return 0.0
    if len(cells_a) == 0 or len(cells_b) == 0:
        return float("nan")
    return float(
        0.5 * (_directed_nn_mean(cells_a, occ_b) + _directed_nn_mean(cells_b, occ_a))
    )


@functools.cache
def _rings(radius: int) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """The cell offsets of length at most radius, as (d2, rows, cols) per
    squared length d2, in increasing d2. Built on first use, not at import,
    which the simulator's set-up pays."""
    rows, cols = np.mgrid[-radius:radius + 1, -radius:radius + 1].reshape(2, -1)
    sq = rows * rows + cols * cols
    return [(float(d2), rows[sq == d2], cols[sq == d2])
            for d2 in sorted(set(sq[sq <= radius * radius].tolist()))]


# a cell with no occupied cell within _NEAR cells is compared with all of them
_NEAR = 8


def _nearest_d2(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each src cell's least squared distance, in cells, to a True cell of
    the mask dst (which holds one): the offsets of _rings(_NEAR) are tried in
    increasing length, and a cell with no True cell that near is compared
    with every one. Squared distances of cells are integers, so each is
    exact."""
    wp = dst.shape[1] + 2 * _NEAR
    flat = np.pad(dst, _NEAR).ravel()
    at = (src[:, 0] + _NEAR) * wp + src[:, 1] + _NEAR
    d2 = np.empty(len(src))
    left = np.arange(len(src))
    for ring_d2, rows, cols in _rings(_NEAR):
        hit = flat[at[left, None] + rows * wp + cols].any(axis=1)
        d2[left[hit]] = ring_d2
        left = left[~hit]
        if not left.size:
            return d2
    far = src[left].astype(np.float64)
    pts = np.argwhere(dst).astype(np.float64)
    # 64 far cells at a time, so that no temporary holds more than
    # 64 x len(pts) values
    d2[left] = np.concatenate([
        ((far[i:i + 64, :1] - pts[:, 0]) ** 2 + (far[i:i + 64, 1:] - pts[:, 1]) ** 2)
        .min(axis=1) for i in range(0, len(far), 64)])
    return d2


def _directed_nn_mean(src: np.ndarray, dst: np.ndarray) -> float:
    """Mean distance, in cells, from each src cell to its nearest True cell
    of the mask dst."""
    d2 = _nearest_d2(src, dst)
    # summed per 512 src points, then over those sums in order: the
    # grouping sets the rounding of alignment_error
    return sum(np.sqrt(d2[i:i + 512]).sum() for i in range(0, len(src), 512)) / len(src)


def map_quality(grid, truth) -> MapQuality:
    """Compare a belief grid against the ground truth on the grayscale
    renderings (Occupied=0, Unknown=128, Free=255)."""
    require_same_frame(grid, truth)
    img_a = render_pixels(grid)
    img_b = render_pixels(truth)
    return MapQuality(
        ssim=ssim_index(img_a, img_b),
        rmse=rmse(img_a, img_b),
        alignment_error=alignment_error(grid, truth),
    )
