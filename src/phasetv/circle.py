"""Wrapped-angle arithmetic on the unit circle.

Angles are stored as their canonical representant in [-pi, pi).  Only
differences modulo 2*pi are meaningful for such data, so every derived
quantity here (distances, filtered differences) is built from the wrap
operation.  All functions accept floats or numpy arrays; scalar input
gives scalar output.  Internally the sweep's theta is wrapped by a
clamp-free floor-half form, canonical outputs by the same form with a
half one ulp smaller and a clamp, and the energy's |theta| by a rint form.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
_INV_TWO_PI = 1.0 / TWO_PI
_BELOW_HALF = np.nextafter(0.5, 0.0)

# The three tap patterns with an analytically known proximal mapping.
_ALLOWED_TAPS = {
    (-1.0, 1.0),
    (1.0, -2.0, 1.0),
    (-1.0, 1.0, 1.0, -1.0),
}


@dataclass(frozen=True)
class DifferenceFilter:
    """A zero-sum tap vector defining an absolute cyclic difference.

    Only the forward first difference, the centered second difference and
    the mixed (cross) second difference are supported; for these the
    variational definition of the cyclic difference reduces to the wrapped
    inner product, which everything downstream relies on.
    """

    taps: tuple[float, ...]
    name: str
    # |taps|^2, computed once: the sweep divides by it on every group step.
    norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        taps = tuple(float(t) for t in self.taps)
        object.__setattr__(self, "taps", taps)
        if taps not in _ALLOWED_TAPS:
            raise ValueError(f"unsupported difference filter taps {taps}")
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


def _first_invalid_angle(x: np.ndarray, where=None):
    """(row, col) of the first entry that is not an angle in [-pi, pi).

    NaN and infinities fail both comparisons or one of them, so they count
    as invalid.  Only entries where ``where`` is True are considered.
    Returns None when every considered entry is valid.
    """
    bad = ~((x >= -np.pi) & (x < np.pi))
    if where is not None:
        bad &= where
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def check_phase_values(x, what: str, where=None, error=ValueError) -> None:
    """Raise ``error`` unless ``x`` holds finite angles in [-pi, pi).

    The message names ``what`` and, unless ``x`` is 0-d, the first bad
    pixel in row-major order.  ``where`` (boolean, the shape of ``x``)
    restricts the check to the pixels where it is True.
    """
    x = np.asarray(x, dtype=float)
    pixel = _first_invalid_angle(x, where)
    if pixel is not None:
        at = f" at pixel ({', '.join(str(i) for i in pixel)})" if pixel else ""
        raise error(f"{what} value {float(x[pixel])!r} out of [-pi, pi){at}")


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


def _check_finite(value, what: str) -> np.ndarray:
    """``value`` as a float array; ``ValueError`` naming ``what`` unless it
    is a finite real number or an array of them (not of bools, strings,
    None or complex numbers)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite real numbers")
    return arr.astype(float, copy=False)


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
    (a float or an array) must hold finite real numbers, else a
    ``ValueError`` names it.
    """
    return _scalar(_wrap_array(_check_finite(t, "t")))


def dist(p, q):
    """Geodesic distance on the circle, |wrap(q - p)|, in [0, pi]; ``p``
    and ``q`` as for :func:`wrap`."""
    p = _check_finite(p, "p")
    q = _check_finite(q, "q")
    return _scalar(np.abs(wrap(q - p)))
