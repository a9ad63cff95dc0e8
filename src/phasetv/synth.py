"""Synthetic phase images, masks, noise, and error metrics."""

from __future__ import annotations

import numpy as np

from .circle import _wrap_array, dist


def gen_atan2(n: int) -> np.ndarray:
    """Angular coordinate field sampled on an n x n grid over [-1/2, 1/2]^2.

    Pixel (i, j) carries atan2(y_i, x_j); the result winds once around the
    circle along any loop enclosing the center.
    """
    if n < 2:
        raise ValueError("need at least a 2x2 grid")
    coords = np.linspace(-0.5, 0.5, n)
    return _wrap_array(np.arctan2(coords[:, None], coords[None, :]))


def gen_wrapped_ramp(shape, slope: float, direction: str = "horizontal") -> np.ndarray:
    """Linear phase ramp wrapped to [-pi, pi).

    ``direction`` selects the coordinate the ramp follows: "horizontal"
    increases along columns, "vertical" along rows.
    """
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if not np.isfinite(slope):
        raise ValueError("slope must be finite")
    if direction == "horizontal":
        line = slope * np.arange(n_cols, dtype=float)
        return _wrap_array(np.broadcast_to(line, (n_rows, n_cols)).copy())
    if direction == "vertical":
        line = slope * np.arange(n_rows, dtype=float)
        return _wrap_array(np.broadcast_to(line[:, None], (n_rows, n_cols)).copy())
    raise ValueError("direction must be 'horizontal' or 'vertical'")


def gen_blocks(shape=(128, 128)) -> np.ndarray:
    """Constant background (-2) with a constant block (1) and a wrapped
    ramp block.

    The blocks cover rows 0.15-0.45 and 0.55-0.9 of the image and columns
    0.2-0.8, as fractions rounded to half-open index ranges.  The ramp
    block increases linearly downward, spanning 4 pi radians (two wraps)
    from its first to its last row.
    """
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if n_rows < 64 or n_cols < 64:
        raise ValueError("blocks image needs shape at least 64x64")
    x = np.full((n_rows, n_cols), -2.0)
    c0, c1 = round(0.2 * n_cols), round(0.8 * n_cols)
    x[round(0.15 * n_rows):round(0.45 * n_rows), c0:c1] = 1.0
    r0, r1 = round(0.55 * n_rows), round(0.9 * n_rows)
    ramp = 4.0 * np.pi * np.arange(r1 - r0, dtype=float) / max(r1 - r0 - 1, 1)
    x[r0:r1, c0:c1] = ramp[:, None]
    return _wrap_array(x)


def mask_subsample3(shape) -> np.ndarray:
    """Keep every third row and column: known iff row%3 == 0 and col%3 == 0."""
    n_rows, n_cols = int(shape[0]), int(shape[1])
    rows = np.arange(n_rows) % 3 == 0
    cols = np.arange(n_cols) % 3 == 0
    return rows[:, None] & cols[None, :]


def mask_random(shape, fraction_lost: float, seed: int) -> np.ndarray:
    """Destroy exactly round(fraction_lost * N * M) pixels, uniformly."""
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if not (0.0 <= fraction_lost <= 1.0):
        raise ValueError("fraction_lost must lie in [0, 1]")
    count = int(round(fraction_lost * n_rows * n_cols))
    rng = np.random.default_rng(seed)
    lost = rng.choice(n_rows * n_cols, size=count, replace=False)
    known = np.ones(n_rows * n_cols, dtype=bool)
    known[lost] = False
    return known.reshape(n_rows, n_cols)


def mask_disc(shape, radius: float) -> np.ndarray:
    """Unknown disc of the given radius at the center of the image."""
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rr = np.arange(n_rows)[:, None] - (n_rows - 1) / 2.0
    cc = np.arange(n_cols)[None, :] - (n_cols - 1) / 2.0
    return rr**2 + cc**2 > radius**2


def mask_band(shape, start: int, width: int, orientation: str = "vertical") -> np.ndarray:
    """Unknown strip of consecutive columns (vertical) or rows (horizontal)."""
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if width < 0 or start < 0:
        raise ValueError("start and width must be nonnegative")
    known = np.ones((n_rows, n_cols), dtype=bool)
    if orientation == "vertical":
        known[:, start : start + width] = False
    elif orientation == "horizontal":
        known[start : start + width, :] = False
    else:
        raise ValueError("orientation must be 'vertical' or 'horizontal'")
    return known


def add_wrapped_gaussian_noise(x, sigma: float, seed: int) -> np.ndarray:
    """Add centered Gaussian noise of standard deviation ``sigma``, wrapped."""
    x = np.asarray(x, dtype=float)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return _wrap_array(x + sigma * rng.standard_normal(x.shape))


def cyclic_error(x, y) -> tuple[float, float]:
    """Mean squared and maximal geodesic error between two phase images."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    d = dist(x, y)
    return float(np.mean(d**2)), float(np.max(d))
