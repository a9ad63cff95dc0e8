"""One-patch forms of the cyclic difference and its prox, and their oracles.

The library works on whole stencil columns at once; these helpers apply
its kernels to a single patch.  ``signed_cyclic_diff`` and
``abs_cyclic_diff`` call ``circle._tap_sum`` and ``circle._signed_wrap``,
as ``prox._prox_step`` does, and ``prox_diff`` calls
``prox.shrink_columns``, so a test built on them checks the code the
sweep runs.  ``oracle_cyclic_diff`` (enumeration over base-point shifts)
and ``oracle_prox_diff`` (grid search) are independent references, and
``oracle_prox_data`` is the data prox in its first, allocating form,
against which the library's in-place kernel is checked bit for bit.
``gather`` reads a group of any form from an image through
``StencilGroup.flat_index``, as ``model._bind`` reads the forms the
library binds, and ``scatter``, its inverse, writes the columns back, for
the per-group reference sweeps.  ``FILTERS`` lists the three difference
filters.
"""

from __future__ import annotations

import numpy as np

from phasetv import dist
from phasetv.circle import (
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    TWO_PI,
    DifferenceFilter,
    _signed_wrap,
    _tap_sum,
    _wrap_array,
)
from phasetv.model import StencilGroup
from phasetv.prox import shrink_columns

FILTERS = (FIRST_DIFF, SECOND_DIFF, MIXED_DIFF)


def _check_patch(x, filt: DifferenceFilter) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != filt.arity:
        raise ValueError(
            f"patch of length {x.size} does not match filter arity {filt.arity}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("patch values must be finite")
    return x


def _columns(x: np.ndarray) -> list[np.ndarray]:
    """The patch as stencil columns of length one, copied."""
    return [x[j : j + 1].copy() for j in range(x.size)]


def signed_cyclic_diff(x, filt: DifferenceFilter) -> float:
    """Wrapped inner product of a patch with the filter taps, in [-pi, pi)."""
    x = _check_patch(x, filt)
    return float(_signed_wrap(_tap_sum(_columns(x)))[0])


def abs_cyclic_diff(x, filt: DifferenceFilter) -> float:
    """Absolute cyclic difference |wrap(<x, taps>)|, in [0, pi].

    For the first-order filter this equals the geodesic distance of the
    two patch values.
    """
    return abs(signed_cyclic_diff(x, filt))


def prox_diff(f, lam: float, filt: DifferenceFilter) -> np.ndarray:
    """Prox of ``lam * |wrap(<., taps>)|`` at the patch ``f``, wrapped.

    Minimizes ``0.5 * sum_j dist(x_j, f_j)^2 + lam * |wrap(<x, taps>)|``.
    In the antipodal case ``|theta| == pi`` the minimizer is a two-point
    set; this returns the branch the sweep takes.
    """
    cols = _columns(_check_patch(f, filt))
    shrink_columns(cols, lam, filt)
    out = np.concatenate(cols)
    return _wrap_array(out, out=out)


def prox_diff_objective(x, f, lam: float, filt: DifferenceFilter) -> float:
    """Objective minimized by :func:`prox_diff`, evaluated at ``x``."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    fidelity = 0.5 * float(np.sum(dist(f, x) ** 2))
    return fidelity + lam * abs_cyclic_diff(x, filt)


def oracle_cyclic_diff(x, filt: DifferenceFilter) -> float:
    """Base-point-shift minimization of the filtered difference, by enumeration.

    Evaluates min over alpha of |<wrap(x + alpha), taps>| exactly.  Because
    the taps sum to zero, the objective is piecewise constant in alpha with
    breakpoints where some x_j + alpha crosses an odd multiple of pi, so one
    representative per interval suffices.  Agrees with
    :func:`abs_cyclic_diff` for the supported filters.
    """
    x = _check_patch(x, filt)
    taps = np.asarray(filt.taps)
    breakpoints = np.unique(_wrap_array(np.pi - x))
    if breakpoints.size == 1:
        reps = breakpoints + np.pi
    else:
        mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
        closing = 0.5 * (breakpoints[-1] + breakpoints[0] + TWO_PI)
        reps = np.append(mids, closing)
    shifted = _wrap_array(x[None, :] + reps[:, None])
    return float(np.min(np.abs(shifted @ taps)))


def oracle_prox_diff(f, lam: float, filt: DifferenceFilter, grid_step: float = 1e-3) -> np.ndarray:
    """Grid-search substitute for :func:`prox_diff`.

    Samples the one-parameter family ``f - t*s*taps`` for
    ``t in [0, lam + pi]`` and returns the sampled point with the smallest
    objective.  As a structural safety net it additionally checks that no
    random off-family perturbation of the winner improves the objective by
    more than the grid resolution allows, and raises if one does.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size != filt.arity:
        raise ValueError(
            f"patch of length {f.size} does not match filter arity {filt.arity}"
        )
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive")
    if not (0.0 < grid_step <= 1e-3):
        raise ValueError("grid_step must be in (0, 1e-3]")

    taps = np.asarray(filt.taps)
    theta = float(_wrap_array(f @ taps))
    s = 1.0 if theta >= 0.0 else -1.0
    ts = np.arange(0.0, lam + np.pi + grid_step, grid_step)
    candidates = f[None, :] - np.outer(ts * s, taps)
    fidelity = 0.5 * np.sum(dist(f[None, :], candidates) ** 2, axis=1)
    penalty = lam * np.abs(_wrap_array(candidates @ taps))
    objective = fidelity + penalty
    best_idx = int(np.argmin(objective))
    best = _wrap_array(candidates[best_idx])
    best_obj = float(objective[best_idx])

    # One grid step bounds how far above the true minimum the winner can
    # sit; a perturbation beating that margin means the family assumption
    # is broken.
    slack = (np.pi + lam) * filt.norm_sq * grid_step + 1e-9
    rng = np.random.default_rng(0)
    for scale in (2.0 * grid_step, 0.05, 0.5):
        perturbed = best[None, :] + rng.normal(0.0, scale, size=(64, filt.arity))
        pert_obj = 0.5 * np.sum(dist(f[None, :], perturbed) ** 2, axis=1)
        pert_obj += lam * np.abs(_wrap_array(perturbed @ taps))
        if np.any(pert_obj < best_obj - slack):
            raise RuntimeError("grid-search result is not locally optimal")
    return best


def oracle_prox_data(g, f, lam: float):
    """The data prox as first written, one temporary array per operation.

    Same contract as ``phasetv.prox_data``: the componentwise minimizer of
    ``dist(g, x)^2 + lam * dist(f, x)^2``, scalar in, scalar out.
    """
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    if g.shape != f.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {f.shape}")
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        out = g.copy()
    else:
        diff = g - f
        v = np.where(np.abs(diff) <= np.pi, 0.0, np.sign(diff))
        ratio = lam / (1.0 + lam)
        out = _wrap_array((g + lam * f) / (1.0 + lam) + ratio * TWO_PI * v)
    if out.ndim == 0:
        return float(out)
    return out


def gather(image: np.ndarray, group: StencilGroup) -> list[np.ndarray]:
    """The group's values in the 2-D ``image``, one new array per stencil
    position, in stencil order, for a group of any form."""
    return [image.flat[c] for c in group.flat_index()]


def scatter(image: np.ndarray, group: StencilGroup, vals) -> None:
    """Write ``vals``, as :func:`gather` returns them, back to the group's
    pixels of the 2-D ``image``."""
    for c, v in zip(group.flat_index(), vals):
        image.flat[c] = v
