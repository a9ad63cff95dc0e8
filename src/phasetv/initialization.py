"""Fill the unknown region by propagating zero-difference extrapolations.

Every difference filter has stencil configurations in which exactly one
pixel is unknown; setting that pixel so the wrapped difference vanishes
extends the known data without creating new energy.  Second differences
extrapolate linear trends (the natural companion of the second-order
regularizer), so they are preferred over the mixed difference, which is
preferred over plain first-order copying.

The fill runs in rounds over the set of pending (not yet filled) pixels.
A round tests each pending pixel against a priority chain of (kind,
position) pairs: the kinds in the preference order above, and within a
kind the pixel's position in the stencil from the last down to the first,
so the placement whose leading pixel lies up or left is tried first.  The
first pair whose other pixels are all in the image and already filled
gives the value.  Tests and values read the state from the start of the
round and the fills are written when it ends, so a band or disc grows
inward one layer per round from all of its boundaries, the nearest data
wins, and the order in which pixels are visited cannot matter.  Rounds
stop when one fills nothing.  Pixels that no active stencil can reach (an
unknown component with no known contact) are left at 0 and counted as
unreachable.
"""

from __future__ import annotations

import numpy as np

from .circle import _wrap_array, check_phase_values
from .model import _FAMILIES, Weights, _check_mask, _family_weights

# Border of the filled mask: the largest offset, so that every placement of
# a stencil over an image pixel stays inside it, and one that leaves the
# image fails the test.
_PAD = 2


# The fills take ``v``, the values at the stencil positions (None at the
# position ``t`` being filled), as arrays over the pixels being filled.
def _fill_first(v, t):
    return v[1 - t]


def _fill_second(v, t):
    if t == 0:
        return _wrap_array(2.0 * v[1] - v[2])
    if t == 2:
        return _wrap_array(2.0 * v[1] - v[0])
    # Middle pixel: two zero-difference solutions half a turn apart; take
    # the one closer to the left/top neighbor, the first on a tie.
    cand = _wrap_array(0.5 * (v[0] + v[2]))
    alt = _wrap_array(cand + np.pi)
    near = np.abs(_wrap_array(cand - v[0])) <= np.abs(_wrap_array(alt - v[0]))
    return np.where(near, cand, alt)


def _fill_mixed(v, t):
    if t == 0:
        return _wrap_array(v[1] + v[2] - v[3])
    if t == 1:
        return _wrap_array(v[0] - v[2] + v[3])
    if t == 2:
        return _wrap_array(v[0] - v[1] + v[3])
    return _wrap_array(v[1] + v[2] - v[0])


# Families of ``model._FAMILIES`` in fill preference order: second
# differences, then mixed, then first.
_FILL_ORDER = (4, 5, 6, 0, 1, 2, 3)
_FILLS = {"first": _fill_first, "second": _fill_second, "mixed": _fill_mixed}


def _active_kinds(weights: Weights):
    """(offsets from the leading pixel as (row, col) displacements, fill)
    of each family with a positive weight, in fill preference order."""
    family_weights = _family_weights(weights)
    return [
        (_FAMILIES[i][1], _FILLS[_FAMILIES[i][0].name])
        for i in _FILL_ORDER
        if family_weights[i] > 0.0
    ]


def _propagate(f, known, weights: Weights):
    """``initialize``, plus what it did: returns ``(x, rounds, filled,
    unreachable)``, the rounds that filled something, the pixels filled
    and the unknown pixels left at 0."""
    f = np.asarray(f)
    if f.ndim != 2 or f.size == 0 or np.iscomplexobj(f):
        raise ValueError(f"f must be a non-empty real 2-D image, got {f.dtype} of shape {f.shape}")
    f = f.astype(float, copy=False)
    known = _check_mask(f.shape, known)
    check_phase_values(f, "f", where=known)
    n_rows, n_cols = f.shape

    # Flat indices address the filled mask, which has a border of _PAD
    # never-filled pixels, and separately x, which has none, so that x is
    # never copied out of a padded array.  x is C order for any layout of f
    # and known, so x_flat is a view.
    width = n_cols + 2 * _PAD
    filled = np.zeros((n_rows + 2 * _PAD, width), dtype=bool)
    filled[_PAD:_PAD + n_rows, _PAD:_PAD + n_cols] = known
    filled_flat = filled.ravel()
    x = np.ascontiguousarray(np.where(known, f, 0.0))
    x_flat = x.ravel()
    # The priority chain: per (kind, position t) pair, the offsets of the
    # stencil's other positions from position t, in the filled mask and in
    # x (None at t itself).
    chain = []
    for offsets, fill in _active_kinds(weights):
        for t in range(len(offsets) - 1, -1, -1):
            rel = [(dr - offsets[t][0], dc - offsets[t][1]) for dr, dc in offsets]
            others = [dr * width + dc for u, (dr, dc) in enumerate(rel) if u != t]
            others_x = [None if u == t else dr * n_cols + dc for u, (dr, dc) in enumerate(rel)]
            chain.append((fill, t, others, others_x))
    # The unknown pixels in x and in the filled mask, where each row above
    # adds the 2 * _PAD border columns.
    pending_x = np.flatnonzero(~known)
    pending = pending_x // n_cols * (2 * _PAD) + pending_x + _PAD * (width + 1)
    unknown = pending.size

    rounds = 0
    while pending.size:
        todo = np.arange(pending.size)  # entries of pending no pair has filled
        at = pending  # pending[todo]
        hits, values = [], []
        for fill, t, others, others_x in chain:
            ok = filled_flat[at + others[0]]
            for d in others[1:]:
                ok &= filled_flat[at + d]
            if not ok.any():
                continue
            hits.append(todo[ok])
            at_x = pending_x[hits[-1]]
            values.append(fill([None if d is None else x_flat[at_x + d] for d in others_x], t))
            todo = todo[~ok]
            at = pending[todo]
        if not hits:
            break
        done = np.concatenate(hits)
        x_flat[pending_x[done]] = np.concatenate(values)
        filled_flat[pending[done]] = True
        pending, pending_x = pending[todo], pending_x[todo]
        rounds += 1
    unreachable = int(pending.size)
    return x, rounds, unknown - unreachable, unreachable


def initialize(f, mask, weights: Weights) -> np.ndarray:
    """Return an image equal to ``f`` on known pixels with the unknown
    region filled by zero-difference propagation.

    ``f`` must be a non-empty real 2-D image with angles in [-pi, pi) on
    the known pixels; otherwise a ``ValueError`` names the first bad pixel.
    Its unknown pixels are not read.
    """
    return _propagate(f, mask, weights)[0]
