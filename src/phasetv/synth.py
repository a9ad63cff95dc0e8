"""Synthetic phase images, masks, noise, and error metrics."""

from __future__ import annotations

import numpy as np

from .circle import (_check_choice, _check_finite, _check_int, _check_nonnegative, _check_real,
                     _check_same_shape, _check_shape, _wrap_array, dist)


def _check_seed(seed) -> int:
    seed = _check_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def gen_atan2(n: int) -> np.ndarray:
    """Angular coordinate field sampled on an n x n grid over [-1/2, 1/2]^2.

    Pixel (i, j) carries atan2(y_i, x_j); the result winds once around the
    circle along any loop enclosing the center.
    """
    if _check_int(n, "n") < 2:
        raise ValueError("n must be at least 2")
    coords = np.linspace(-0.5, 0.5, n)
    return _wrap_array(np.arctan2(coords[:, None], coords[None, :]))


def gen_wrapped_ramp(shape, slope: float, direction: str = "horizontal") -> np.ndarray:
    """Linear phase ramp wrapped to [-pi, pi).

    ``slope`` is any finite real, in radians per pixel; ``direction``
    selects the coordinate the ramp follows: "horizontal" increases along
    columns, "vertical" along rows.
    """
    n_rows, n_cols = _check_shape(shape)
    slope = _check_real(slope, "slope")
    if not np.isfinite(slope):
        raise ValueError("slope must be finite")
    horizontal = _check_choice(direction, "direction", ("horizontal", "vertical")) == "horizontal"
    line = slope * np.arange(n_cols if horizontal else n_rows, dtype=float)
    line = line if horizontal else line[:, None]
    return _wrap_array(np.broadcast_to(line, (n_rows, n_cols)).copy())


def gen_blocks(shape=(128, 128)) -> np.ndarray:
    """Constant background (-2) with a constant block (1) and a wrapped
    ramp block.

    The blocks cover rows 0.15-0.45 and 0.55-0.9 of the image and columns
    0.2-0.8, as fractions rounded to half-open index ranges.  The ramp
    block increases linearly downward, spanning 4 pi radians (two wraps)
    from its first to its last row.
    """
    n_rows, n_cols = _check_shape(shape)
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
    n_rows, n_cols = _check_shape(shape)
    rows = np.arange(n_rows) % 3 == 0
    cols = np.arange(n_cols) % 3 == 0
    return rows[:, None] & cols[None, :]


def mask_random(shape, fraction_lost: float, seed: int) -> np.ndarray:
    """Destroy exactly round(fraction_lost * N * M) pixels, uniformly.

    ``fraction_lost`` must be a real in [0, 1] and ``seed`` a nonnegative
    integer, neither a bool, else a ``ValueError`` names the argument."""
    n_rows, n_cols = _check_shape(shape)
    fraction_lost = _check_real(fraction_lost, "fraction_lost")
    if not (0.0 <= fraction_lost <= 1.0):
        raise ValueError(f"fraction_lost must lie in [0, 1], got {fraction_lost!r}")
    seed = _check_seed(seed)
    count = int(round(fraction_lost * n_rows * n_cols))
    rng = np.random.default_rng(seed)
    lost = rng.choice(n_rows * n_cols, size=count, replace=False)
    known = np.ones(n_rows * n_cols, dtype=bool)
    known[lost] = False
    return known.reshape(n_rows, n_cols)


def mask_disc(shape, radius: float) -> np.ndarray:
    """Unknown disc of the given radius at the center of the image."""
    n_rows, n_cols = _check_shape(shape)
    radius = _check_nonnegative(radius, "radius")
    rr = np.arange(n_rows)[:, None] - (n_rows - 1) / 2.0
    cc = np.arange(n_cols)[None, :] - (n_cols - 1) / 2.0
    return rr**2 + cc**2 > radius**2


def mask_band(shape, start: int, width: int, orientation: str = "vertical") -> np.ndarray:
    """Unknown strip of ``width`` consecutive columns (vertical) or rows
    (horizontal), the first of them ``start``.

    ``start`` and ``width`` must be nonnegative integers (not bools), and
    ``start`` must lie inside the image along the chosen orientation;
    otherwise a ``ValueError`` names the argument.  A band that runs past
    the far edge is clipped to the image.
    """
    n_rows, n_cols = _check_shape(shape)
    _check_choice(orientation, "orientation", ("vertical", "horizontal"))
    start = _check_int(start, "start")
    width = _check_int(width, "width")
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    extent, lines = (n_cols, "columns") if orientation == "vertical" else (n_rows, "rows")
    if not 0 <= start < extent:
        raise ValueError(f"start must index one of the image's {extent} {lines}, got {start}")
    known = np.ones((n_rows, n_cols), dtype=bool)
    if orientation == "vertical":
        known[:, start : start + width] = False
    else:
        known[start : start + width, :] = False
    return known


def add_wrapped_gaussian_noise(x, sigma: float, seed: int) -> np.ndarray:
    """Add centered Gaussian noise of standard deviation ``sigma``, wrapped.

    ``x`` must hold finite reals (of any shape and range, on purpose: the
    result is wrapped), ``sigma`` a finite nonnegative real and ``seed`` a
    nonnegative integer, neither a bool, else a ``ValueError`` names one."""
    x = _check_finite(x, "x")
    sigma = _check_nonnegative(sigma, "sigma")
    seed = _check_seed(seed)
    if sigma == 0:
        return _wrap_array(x)
    rng = np.random.default_rng(seed)
    return _wrap_array(x + sigma * rng.standard_normal(x.shape))


def cyclic_error(x, y) -> tuple[float, float]:
    """Mean squared and maximal geodesic error between two non-empty arrays
    of finite reals of one shape, else a ``ValueError`` names one; any
    shape and any finite values (read modulo 2*pi) on purpose."""
    x = _check_finite(x, "x")
    y = _check_finite(y, "y")
    _check_same_shape("y", y.shape, x.shape, "x's")
    if x.size == 0:
        raise ValueError(f"x and y must be non-empty, got shape {x.shape}")
    d = dist(x, y)
    return float(np.mean(d**2)), float(np.max(d))
