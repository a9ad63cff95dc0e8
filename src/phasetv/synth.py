"""Synthetic phase images, masks, noise, and error metrics."""

from __future__ import annotations

import numpy as np

from .circle import (_FLOAT_MAX, _check_choice, _check_finite, _check_number, _check_same_shape,
                     _check_shape, _wrap_array, dist)


def gen_atan2(n: int) -> np.ndarray:
    """Angular coordinate field sampled on an n x n grid over [-1/2, 1/2]^2.

    Pixel (i, j) carries atan2(y_i, x_j); the result winds once around the
    circle along any loop enclosing the center.  ``n`` is an integer of at least 2.
    """
    coords = np.linspace(-0.5, 0.5, _check_number(n, "n", 2, integer=True))
    return _wrap_array(np.arctan2(coords[:, None], coords[None, :]))


def gen_wrapped_ramp(shape, slope: float, direction: str = "horizontal") -> np.ndarray:
    """Linear phase ramp wrapped to [-pi, pi).

    ``slope``, in radians per pixel, has |slope| <= (largest float) / (n - 1)
    rounded down, for the n pixels of a line; ``direction`` selects the
    coordinate the ramp follows: "horizontal" increases along columns,
    "vertical" along rows.
    """
    n_rows, n_cols = _check_shape(shape)
    horizontal = _check_choice(direction, "direction", ("horizontal", "vertical")) == "horizontal"
    n = n_cols if horizontal else n_rows
    # Rounded down: the quotient rounded to nearest may overflow times n - 1.
    bound = np.nextafter(_FLOAT_MAX / max(n - 1, 1), 0.0)
    line = _check_number(slope, "slope", -bound, bound) * np.arange(n, dtype=float)
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
    n_rows, n_cols = _check_shape(shape, least=64)
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

    ``fraction_lost`` is in [0, 1] and ``seed`` a nonnegative integer."""
    n_rows, n_cols = _check_shape(shape)
    fraction_lost = _check_number(fraction_lost, "fraction_lost", 0.0, 1.0)
    count = int(round(fraction_lost * n_rows * n_cols))
    rng = np.random.default_rng(_check_number(seed, "seed", 0, integer=True))
    lost = rng.choice(n_rows * n_cols, size=count, replace=False)
    known = np.ones(n_rows * n_cols, dtype=bool)
    known[lost] = False
    return known.reshape(n_rows, n_cols)


def mask_disc(shape, radius: float) -> np.ndarray:
    """Unknown disc of the given nonnegative radius at the center of the
    image; a radius above n_rows + n_cols, all unknown, is clamped to it."""
    n_rows, n_cols = _check_shape(shape)
    radius = min(_check_number(radius, "radius", 0.0), n_rows + n_cols)
    rr = np.arange(n_rows)[:, None] - (n_rows - 1) / 2.0
    cc = np.arange(n_cols)[None, :] - (n_cols - 1) / 2.0
    return rr**2 + cc**2 > radius**2


def mask_band(shape, start: int, width: int, orientation: str = "vertical") -> np.ndarray:
    """Unknown strip of ``width`` consecutive columns (vertical) or rows
    (horizontal), the first of them ``start``.

    ``width`` is a nonnegative integer and ``start`` one that indexes a
    line of the image along the chosen orientation.  A band that runs past
    the far edge is clipped to the image.
    """
    n_rows, n_cols = _check_shape(shape)
    _check_choice(orientation, "orientation", ("vertical", "horizontal"))
    extent = n_cols if orientation == "vertical" else n_rows
    start = _check_number(start, "start", 0, extent - 1, integer=True)
    width = _check_number(width, "width", 0, integer=True)
    known = np.ones((n_rows, n_cols), dtype=bool)
    if orientation == "vertical":
        known[:, start : start + width] = False
    else:
        known[start : start + width, :] = False
    return known


def add_wrapped_gaussian_noise(x, sigma: float, seed: int) -> np.ndarray:
    """Add centered Gaussian noise of standard deviation ``sigma``, wrapped.

    ``x`` must hold finite reals (of any shape and range, on purpose: it is
    wrapped first), ``sigma`` be in [0, 1e300] and ``seed`` a nonnegative
    integer, else a ``ValueError`` names the argument."""
    x = _wrap_array(_check_finite(x, "x"))
    sigma = _check_number(sigma, "sigma", 0.0, 1e300)
    rng = np.random.default_rng(_check_number(seed, "seed", 0, integer=True))
    return x if sigma == 0 else _wrap_array(x + sigma * rng.standard_normal(x.shape))


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
