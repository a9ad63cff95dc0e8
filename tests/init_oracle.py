"""Scalar reference for the propagation initializer.

This is the pixel-by-pixel form of ``phasetv.initialize``: raster scans
over the pending pixels, alternating forward and backward, each fill
computed by trying the stencil kinds in preference order and the pixel's
stencil positions from the last down to the first.  Fills are written
after the scan, so every scan reads the state from its start.  Tests
compare the array form against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from phasetv import wrap

_H2 = ((0, 0), (0, 1), (0, 2))
_V2 = ((0, 0), (1, 0), (2, 0))
_MIX = ((0, 0), (1, 0), (0, 1), (1, 1))
_H1 = ((0, 0), (0, 1))
_V1 = ((0, 0), (1, 0))
_D1 = ((0, 0), (1, 1))
_A1 = ((0, 1), (1, 0))


def _fill_first(values, t):
    return values[1 - t]


def _fill_second(values, t):
    if t == 0:
        return wrap(2.0 * values[1] - values[2])
    if t == 2:
        return wrap(2.0 * values[1] - values[0])
    cand = wrap(0.5 * (values[0] + values[2]))
    alt = wrap(cand + np.pi)
    if abs(wrap(cand - values[0])) <= abs(wrap(alt - values[0])):
        return cand
    return alt


def _fill_mixed(values, t):
    v = values
    if t == 0:
        return wrap(v[1] + v[2] - v[3])
    if t == 1:
        return wrap(v[0] - v[2] + v[3])
    if t == 2:
        return wrap(v[0] - v[1] + v[3])
    return wrap(v[1] + v[2] - v[0])


def _active_kinds(weights, n_rows, n_cols):
    a1, a2, a3, a4 = weights.alpha
    b1, b2 = weights.beta
    table = (
        (_H2, _fill_second, b1, 1, 3),
        (_V2, _fill_second, b2, 3, 1),
        (_MIX, _fill_mixed, weights.gamma, 2, 2),
        (_H1, _fill_first, a1, 1, 2),
        (_V1, _fill_first, a2, 2, 1),
        (_D1, _fill_first, a3, 2, 2),
        (_A1, _fill_first, a4, 2, 2),
    )
    kinds = []
    for offsets, solve, weight, need_rows, need_cols in table:
        if weight > 0.0 and n_rows >= need_rows and n_cols >= need_cols:
            kinds.append((offsets, solve))
    return kinds


def _try_fill(r, c, kinds, x, filled, n_rows, n_cols):
    for offsets, solve in kinds:
        for t in range(len(offsets) - 1, -1, -1):
            r0 = r - offsets[t][0]
            c0 = c - offsets[t][1]
            values = []
            ok = True
            for u, (dr, dc) in enumerate(offsets):
                ru, cu = r0 + dr, c0 + dc
                if not (0 <= ru < n_rows and 0 <= cu < n_cols):
                    ok = False
                    break
                if u != t:
                    if not filled[ru, cu]:
                        ok = False
                        break
                    values.append(x[ru, cu])
                else:
                    values.append(None)
            if ok:
                return solve(values, t)
    return None


def oracle_initialize(f, known, weights):
    """Return ``(x, rounds, filled, unreachable)`` as the scalar scan
    computes them; ``rounds`` counts the scans that filled something."""
    f = np.asarray(f, dtype=float)
    n_rows, n_cols = f.shape
    x = np.where(known, f, 0.0)
    filled = known.copy()
    kinds = _active_kinds(weights, n_rows, n_cols)
    pending = [(int(r), int(c)) for r, c in zip(*np.nonzero(~known))]

    rounds = 0
    forward = True
    while pending:
        remaining = []
        fills = []
        scan = pending if forward else reversed(pending)
        for r, c in scan:
            value = _try_fill(r, c, kinds, x, filled, n_rows, n_cols)
            if value is None:
                remaining.append((r, c))
            else:
                fills.append((r, c, value))
        if not fills:
            break
        for r, c, value in fills:
            x[r, c] = value
            filled[r, c] = True
        rounds += 1
        remaining.sort()
        pending = remaining
        forward = not forward
    return x, rounds, int(np.count_nonzero(filled & ~known)), len(pending)
