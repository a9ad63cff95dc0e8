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
round: each fill is written into the image at once, since a fill reads
only pixels that were filled before the round, but the mask of filled
pixels is updated only when the round ends.  So a band or disc grows
inward one layer per round from all of its boundaries, the nearest data
wins, and the order in which pixels are visited cannot matter.  A round
walks the pending pixels in chunks of ``_CHUNK``, which bounds its
temporaries whatever the size of the image.  Rounds stop when one fills
nothing.  Pixels that no active stencil can reach (an unknown component
with no known contact) are left at 0 and counted as unreachable.
"""

from __future__ import annotations

import numpy as np

from .circle import _wrap_array, check_phase_image
from .model import _FAMILIES, Weights, _family_weights

# Border of the filled mask: the largest offset, so that every placement of
# a stencil over an image pixel stays inside it, and one that leaves the
# image fails the test.
_PAD = 2
# Pending pixels per chunk of a round.  The round's temporaries, some tens
# of bytes per pixel of a chunk, stay below about 5 MB.
_CHUNK = 1 << 16


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
    f = check_phase_image(f, "f", known)
    known = np.asarray(known)
    n_rows, n_cols = f.shape

    # Flat indices address the filled mask, which has a border of _PAD
    # never-filled pixels; a fill maps them into x, which has none, so that
    # x is never copied out of a padded array.
    width = n_cols + 2 * _PAD
    filled = np.zeros((n_rows + 2 * _PAD, width), dtype=bool)
    filled_flat = filled.ravel()
    inside = filled[_PAD:_PAD + n_rows, _PAD:_PAD + n_cols]
    x = np.zeros((n_rows, n_cols))
    np.copyto(x, f, where=known)
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
    # The unknown pixels, found while the mask holds them; then it holds
    # the known ones.
    np.logical_not(known, out=inside)
    pending = np.flatnonzero(filled_flat)
    np.logical_not(inside, out=inside)
    unknown = pending.size

    rounds = 0
    while pending.size:
        # Each chunk of pending moves the entries it fills to its end and
        # keeps those left, ``n_left`` of them, at its front.
        chunks = [pending[lo:lo + _CHUNK] for lo in range(0, pending.size, _CHUNK)]
        n_left = [_fill_chunk(chunk, chain, filled_flat, x_flat, width) for chunk in chunks]
        if sum(n_left) == pending.size:
            break
        kept = 0
        for chunk, n in zip(chunks, n_left):
            filled_flat[chunk[n:]] = True
            pending[kept:kept + n] = chunk[:n]
            kept += n
        pending = pending[:kept]
        rounds += 1
    unreachable = int(pending.size)
    return x, rounds, unknown - unreachable, unreachable


def _fill_chunk(chunk, chain, filled_flat, x_flat, width) -> int:
    """Fill what the priority chain can of the pending pixels ``chunk``
    (flat indices into the filled mask, of row width ``width``), writing
    the values into ``x_flat`` at once; reorder ``chunk`` to hold the pixels
    left first, then those filled, and return how many are left."""
    n_cols = width - 2 * _PAD
    left, hits = chunk, []
    for fill, t, others, others_x in chain:
        ok = filled_flat[left + others[0]]
        for d in others[1:]:
            ok &= filled_flat[left + d]
        if not ok.any():
            continue
        hit = left[ok]
        hits.append(hit)
        # The index in x: less 2 * _PAD border columns per row above, n_cols
        # per row of the top border and _PAD columns to the left.
        at_x = hit - hit // width * (2 * _PAD) - _PAD * (n_cols + 1)
        x_flat[at_x] = fill([None if d is None else x_flat[at_x + d] for d in others_x], t)
        left = left[~ok]
    if hits:
        chunk[left.size:] = np.concatenate(hits)
        chunk[:left.size] = left
    return left.size


def initialize(f, mask, weights: Weights) -> np.ndarray:
    """Return an image equal to ``f`` on known pixels with the unknown
    region filled by zero-difference propagation.

    ``f`` and ``mask`` as :func:`phasetv.circle.check_phase_image` checks
    them, ``f`` on the known pixels only: the others are not read.
    """
    return _propagate(f, mask, weights)[0]
