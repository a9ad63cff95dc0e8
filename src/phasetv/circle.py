"""Wrapped-angle arithmetic on the unit circle.

Angles are stored as their canonical representant in [-pi, pi).  Only
differences modulo 2*pi are meaningful for such data, so every derived
quantity here (distances, filtered differences) is built from the wrap
operation.  :func:`check_phase_image` is the contract of every public
entry that takes a phase image.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
_INV_TWO_PI = 1.0 / TWO_PI
_BELOW_HALF = np.nextafter(0.5, 0.0)
_EVERY_PIXEL = object()
_FLOAT_MAX = float(np.finfo(float).max)
# Entries per block of dist: its scratch, beside the result, is a few
# blocks of 256 KB.
_DIST_BLOCK = 1 << 15
# The kinds of _check_number; float first, since an exact type match skips
# the abstract class check, which takes about 0.2 us.
_INTEGERS = (int, np.integer)
_REALS = (float, numbers.Real)
# The largest lam of prox_data and lambda0 of the solver: the data prox forms
# f * lam with |f| <= pi (lam = 2*lambda0 in the solver), finite up to 2.9e307.
_LAMBDA0_MAX = 1e300

# The three tap patterns with an analytically known proximal mapping.
_ALLOWED_TAPS = (
    (-1.0, 1.0),
    (1.0, -2.0, 1.0),
    (-1.0, 1.0, 1.0, -1.0),
)


def _check_finite(value, what: str) -> np.ndarray:
    """``value`` as a float array; ``ValueError`` naming ``what`` unless it
    is a finite real number or an array of them (not of bools, strings,
    None or complex numbers)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite real numbers")
    return arr.astype(float, copy=False)


@dataclass(frozen=True)
class DifferenceFilter:
    """A zero-sum tap vector defining an absolute cyclic difference.

    Only the forward first difference, the centered second difference and
    the mixed (cross) second difference are supported; for these the
    variational definition of the cyclic difference reduces to the wrapped
    inner product, which everything downstream relies on; other ``taps``
    raise a ``ValueError``.  ``name`` is a free label, not checked.
    """

    taps: tuple[float, ...]
    name: str
    # |taps|^2, computed once: the sweep scales by it on every group step.
    norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        taps = tuple(np.atleast_1d(_check_finite(self.taps, "taps")).tolist())
        if taps not in _ALLOWED_TAPS:
            raise ValueError(f"unsupported difference filter taps {self.taps!r}")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "norm_sq", float(sum(t * t for t in taps)))

    @property
    def arity(self) -> int:
        return len(self.taps)


FIRST_DIFF = DifferenceFilter((-1.0, 1.0), "first")
SECOND_DIFF = DifferenceFilter((1.0, -2.0, 1.0), "second")
MIXED_DIFF = DifferenceFilter((-1.0, 1.0, 1.0, -1.0), "mixed")


def _signed_wrap(t, out=None, tmp=None, half=0.5) -> np.ndarray:
    """``t - 2*pi*floor(t / (2*pi) + half)`` in five passes, without a clamp.

    Writes into ``out`` (may be ``t``) with the scratch ``tmp``, either
    allocated when not given.  Near an odd multiple of pi the result may
    pass either end of [-pi, pi) by the rounding of 2*pi*k; with ``half``
    1/2 an exact tie maps to -pi.  Non-finite input gives NaN."""
    if out is None:
        out = np.empty(np.shape(t))
    if tmp is None:
        tmp = np.empty(np.shape(t))
    k = np.multiply(t, _INV_TWO_PI, out=tmp)
    k += half
    np.floor(k, out=k)
    k *= TWO_PI
    return np.subtract(t, k, out=out)


def _wrap_array(arr, out=None, tmp=None) -> np.ndarray:
    """The canonical wrap, without validation: :func:`_signed_wrap` with
    the largest double below 1/2 as ``half``, clamped.  Every t in [-pi, pi)
    gets k = +0 and is kept bit for bit; pi and -pi give -pi."""
    arr = np.asarray(arr, dtype=float)
    w = _signed_wrap(arr, out=out, tmp=tmp, half=_BELOW_HALF)
    # Both stray ends are the point -pi up to the rounding of 2*pi*k; a
    # boolean assignment touches only the rare stray entries.
    w[w < -np.pi] = -np.pi
    w[w >= np.pi] = -np.pi
    return w


def _scalar(a):
    """``a`` as a float when it is 0-d, else ``a`` itself: scalar input
    gives scalar output."""
    return float(a) if np.ndim(a) == 0 else a


def check_phase_values(x, what: str, where=None, error=ValueError) -> None:
    """Raise ``error`` unless ``x`` holds finite angles in [-pi, pi) where
    ``where`` (boolean, of its shape) is True, or on every pixel without
    it, and ``ValueError`` unless its dtype is of ints or floats.  The
    message names ``what`` and, unless ``x`` is 0-d, the first bad pixel in
    row-major order."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be real numbers, got {x.dtype}")
    bad = ~((x >= -np.pi) & (x < np.pi))
    if where is not None:
        bad &= where
    if bad.any():
        pixel = np.unravel_index(np.argmax(bad), bad.shape)
        at = f" at pixel ({', '.join(str(int(i)) for i in pixel)})" if pixel else ""
        raise error(f"{what} value {float(x[pixel])!r} out of [-pi, pi){at}")


def _check_same_shape(name: str, shape, ref_shape, ref: str) -> None:
    """``ValueError`` unless ``shape``, of ``name``, is ``ref_shape``, of ``ref`` ("x's")."""
    if shape != ref_shape:
        raise ValueError(f"{name} has shape {shape}, not {ref} {ref_shape}")


def _check_image(a, what: str, shape=None, of: str = "", kinds: str = "iuf") -> np.ndarray:
    """``a`` as an array; ``ValueError`` naming ``what`` unless it has ``shape``
    (that of ``of``) when given and is a non-empty 2-D image of dtype ``kinds``:
    "iuf" ints or floats (not bools, strings, objects or complex), "b" a mask."""
    a = np.asarray(a)
    if shape is not None:
        _check_same_shape(what, a.shape, tuple(shape), of)
    if a.ndim != 2 or a.size == 0 or a.dtype.kind not in kinds:
        noun = "boolean" if kinds == "b" else "real"
        raise ValueError(f"{what} must be a non-empty {noun} 2-D image,"
                         f" got {a.dtype} of shape {a.shape}")
    return a


def _check_number(value, what: str, lo=-_FLOAT_MAX, hi=_FLOAT_MAX, integer=False,
                  open_lo=False):
    """``value`` as a float, or as an int when ``integer``: the one scalar
    contract.  ``ValueError`` naming ``what``, the interval and the value
    unless it is a Python or numpy real (integer when ``integer``), not a
    bool, in [lo, hi], or (lo, hi] when ``open_lo``.  The default bounds
    make every finite float valid, NaN and the infinities invalid."""
    if not isinstance(value, bool) and isinstance(value, _INTEGERS if integer else _REALS):
        try:  # converted first: numpy would compare a float32 in float32
            number = int(value) if integer else float(value)
        except OverflowError:  # an int or a fraction beyond every float
            number = np.nan
        if (lo < number if open_lo else lo <= number) and number <= hi:
            return number
    noun = "an integer" if integer else "a real number"
    raise ValueError(f"{what} must be {noun} in {'(' if open_lo else '['}{lo:g}, {hi:g}],"
                     f" got {value!r}")


def check_phase_image(x, what: str, mask=_EVERY_PIXEL, error=ValueError, shape=None, of=""):
    """``x`` as a float image, checked as every public entry checks one:
    ``x`` and ``mask``, if given, by :func:`_check_image`, then ``error``
    unless ``x`` holds angles in [-pi, pi) where the mask is True."""
    x = _check_image(x, what, shape, of).astype(float, copy=False)
    if mask is not _EVERY_PIXEL:
        mask = _check_image(mask, "mask", x.shape, f"{what}'s", kinds="b")
    check_phase_values(x, what, where=None if mask is _EVERY_PIXEL else mask, error=error)
    return x


def _check_choice(value, what: str, choices: tuple[str, ...]) -> str:
    """``value``; ``ValueError`` naming ``what`` unless it is a str in ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{what} must be one of {choices}, got {value!r}")
    return value


def _check_shape(shape, least: int = 1) -> tuple[int, int]:
    """``shape`` as (rows, cols); ``ValueError`` naming it unless it holds
    two integers of at least ``least``, as :func:`_check_number` takes them."""
    try:
        n_rows, n_cols = (_check_number(n, "shape", least, integer=True) for n in shape)
    except (TypeError, ValueError):
        raise ValueError(f"shape must be two positive integers >= {least}, got {shape!r}") from None
    return n_rows, n_cols


def _tap_sum(cols, out=None) -> np.ndarray:
    """Inner product of patches with the taps of their filter, unwrapped.

    ``cols`` holds one array per stencil position, all of one shape (1-D
    columns or the strided 2-D windows of a lattice); the arity selects
    the filter, since each supported filter has its own.  The taps are
    written out in the summation order of ``(values * taps).sum(axis=-1)``:
    ``v1 - v0``, ``v0 - 2*v1 + v2`` and ``v1 - v0 + v2 - v3``.  No BLAS
    call is involved, so an entry does not depend on how many patches are
    batched together or on the memory layout of ``cols``.
    """
    if len(cols) == 2:
        theta = np.subtract(cols[1], cols[0], out=out)
    elif len(cols) == 3:
        theta = np.multiply(cols[1], -2.0, out=out)
        np.add(cols[0], theta, out=theta)
        theta += cols[2]
    else:
        theta = np.subtract(cols[1], cols[0], out=out)
        theta += cols[2]
        theta -= cols[3]
    return theta


def _near_wrap(t, tmp) -> np.ndarray:
    """Overwrite ``t`` with ``t - 2*pi*rint(t / (2*pi))`` and return it.

    Four in-place passes with the scratch array ``tmp``.  Unlike
    :func:`_signed_wrap` it rounds a tie to even, so an odd multiple of pi
    may land on either end of [-pi, pi]: read only its absolute value or
    its square.  For |t| up to the solver's 40*pi the absolute value is
    within 2 ulp of ``t`` (and at least 2e-15) of ``|wrap(t)|``, and may
    pass pi by that much.  Non-finite input gives NaN.
    """
    k = np.multiply(t, _INV_TWO_PI, out=tmp)
    np.rint(k, out=k)
    np.multiply(k, TWO_PI, out=k)
    return np.subtract(t, k, out=t)


def wrap(t):
    """Reduce radians to the canonical representant in [-pi, pi).

    The identity, bit for bit, on [-pi, pi); elsewhere the result differs
    from ``t`` by an integer multiple of 2*pi, and pi maps to -pi.  ``t``
    (a float or an array of any shape, on purpose) must hold finite real
    numbers, else a ``ValueError`` names it.
    """
    return _scalar(_wrap_array(_check_finite(t, "t")))


def dist(p, q):
    """Geodesic distance on the circle, |wrap(q - p)|, in [0, pi]; ``p`` and ``q`` as for
    :func:`wrap`, of shapes that broadcast, subtracted once wrapped so as not to overflow."""
    p, q = np.broadcast_arrays(_check_finite(p, "p"), _check_finite(q, "q"))
    d = np.empty(p.shape)
    # Block by block of the flat result, so that the scratch stays small; a
    # flat slice of the broadcast p or q is a copy of one block.
    out = d.reshape(-1)
    wp, tmp = (np.empty(min(out.size, _DIST_BLOCK)) for _ in range(2))
    for lo in range(0, out.size, _DIST_BLOCK):
        block = out[lo:lo + _DIST_BLOCK]
        n = block.size
        _wrap_array(q.flat[lo:lo + n], out=block, tmp=tmp[:n])
        block -= _wrap_array(p.flat[lo:lo + n], out=wp[:n], tmp=tmp[:n])
        np.abs(_wrap_array(block, out=block, tmp=tmp[:n]), out=block)
    return _scalar(d)
