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
    # |taps|^2, computed once: the sweep divides by it on every group step.
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

FILTERS = (FIRST_DIFF, SECOND_DIFF, MIXED_DIFF)


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


def check_phase_image(x, what: str, mask=_EVERY_PIXEL, error=ValueError, shape=None, of=""):
    """``x`` as a float image, checked as every public entry checks one:
    ``x`` and ``mask``, if given, by :func:`_check_image`, then ``error``
    unless ``x`` holds angles in [-pi, pi) where the mask is True."""
    x = _check_image(x, what, shape, of).astype(float, copy=False)
    if mask is not _EVERY_PIXEL:
        mask = _check_image(mask, "mask", x.shape, f"{what}'s", kinds="b")
    check_phase_values(x, what, where=None if mask is _EVERY_PIXEL else mask, error=error)
    return x


def _check_real(value, what: str) -> float:
    """``value`` as a float; ``ValueError`` naming ``what`` unless it is a
    real number (a Python or numpy int or float).  bool is a numbers.Real,
    but True is no weight or step size."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _check_nonnegative(value, what: str) -> float:
    """``value`` as a float; ``ValueError`` naming ``what`` unless it is a
    finite nonnegative real number."""
    value = _check_real(value, what)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"{what} must be finite and nonnegative, got {value!r}")
    return value


def _check_choice(value, what: str, choices: tuple[str, ...]) -> str:
    """``value``; ``ValueError`` naming ``what`` unless it is a str in ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{what} must be one of {choices}, got {value!r}")
    return value


def _check_int(value, what: str) -> int:
    """``value`` as an int; ``ValueError`` naming ``what`` unless it is a
    Python or numpy integer.  bool is an int subclass, but True is no
    count or index."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_shape(shape) -> tuple[int, int]:
    """``shape`` as (rows, cols); ``ValueError`` naming it unless it holds
    two positive Python or numpy integers (not bools)."""
    try:
        n_rows, n_cols = (_check_int(n, "shape") for n in shape)
        if n_rows >= 1 and n_cols >= 1:
            return n_rows, n_cols
    except (TypeError, ValueError):
        pass
    raise ValueError(f"shape must be two positive integers, got {shape!r}")


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
    p = _wrap_array(_check_finite(p, "p"))
    q = _wrap_array(_check_finite(q, "q"))
    return _scalar(np.abs(_wrap_array(q - p)))
