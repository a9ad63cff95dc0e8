"""Closed-form proximal mappings for cyclic difference penalties.

Two mappings are provided: the prox of ``lam * |wrap(<x, taps>)|`` for the
three supported difference filters, and the prox of the wrapped quadratic
data-fidelity term used by the noisy model.  Both have analytical
solutions.
"""

from __future__ import annotations

import numpy as np

from .circle import TWO_PI, DifferenceFilter, _theta_columns, _wrap_array


def _prox_step(cols, lam: float, filt: DifferenceFilter, theta_out=None, step_out=None):
    """theta and the signed step of the difference prox, per patch.

    ``cols`` holds the patches as one array per stencil position.  Returns
    ``(theta, step)`` with ``theta = wrap(<v, taps>)`` and
    ``step = copysign(min(lam, |theta| / |taps|^2), theta)``; the shrunk
    patches are ``v - step * taps``, up to multiples of 2*pi.  Invalid
    operations are silenced; non-finite input gives a NaN theta and step.
    """
    with np.errstate(invalid="ignore"):
        theta = _theta_columns(cols, out=theta_out, tmp=step_out)
    step = np.abs(theta, out=step_out)
    step /= filt.norm_sq
    np.minimum(step, lam, out=step)
    np.copysign(step, theta, out=step)
    return theta, step


def _apply_step(cols, step, filt: DifferenceFilter, tmp=None) -> None:
    """Overwrite each column ``v_j`` with ``v_j - step * taps_j``, unwrapped.

    The taps are +-1 and -2, so ``v + step``, ``v - step`` and
    ``v + 2*step`` are the exact values of ``v - step * tap``.  The output
    is not reduced to [-pi, pi): it is some representative of the prox,
    which is all a further prox step needs, since theta is wrapped and
    the taps are integers.  ``tmp`` is an optional scratch array of the
    column length.
    """
    for v, tap in zip(cols, filt.taps):
        if tap == 1.0:
            v -= step
        elif tap == -1.0:
            v += step
        else:
            v += np.multiply(step, -tap, out=tmp)


def shrink_columns(cols, lam: float, filt: DifferenceFilter, theta_buf=None, step_buf=None) -> None:
    """Difference prox of every patch, in place on its columns.

    ``cols`` is a list of float arrays, one per stencil position, each
    holding that position's value for every patch; they are overwritten
    with the prox output, which is not wrapped: each entry moves by at
    most pi/2 from its input, which may itself be any representative of
    its angle.  ``theta_buf`` and ``step_buf`` are optional
    scratch arrays of the column length.  Raises ``ValueError`` before
    writing anything if a patch holds a non-finite value.  In the
    (measure-zero) antipodal case, where the prox is two-valued, the step
    always follows the sign of the wrapped theta (-pi), which is what the
    sweep solver requires for determinism.
    """
    theta, step = _prox_step(cols, lam, filt, theta_buf, step_buf)
    # A NaN step (from non-finite input) makes the sum NaN; finite steps
    # are bounded by lam and cannot overflow it.
    if not np.isfinite(np.sum(step)):
        raise ValueError("non-finite values in proximal input")
    _apply_step(cols, step, filt, tmp=theta)


def prox_diff_batch(values: np.ndarray, lam: float, filt: DifferenceFilter) -> np.ndarray:
    """Apply the difference prox to every row of an (n, arity) array; the
    output is wrapped to [-pi, pi)."""
    values = np.asarray(values, dtype=float)
    cols = [values[:, j].copy() for j in range(filt.arity)]
    shrink_columns(cols, lam, filt)
    out = np.stack(cols, axis=1)
    return _wrap_array(out, out=out)


def prox_data(g, f, lam: float):
    """Componentwise prox of the wrapped quadratic distance to ``f``.

    Minimizes ``sum_j (dist(g_j, x_j)^2 + lam * dist(f_j, x_j)^2)``.  On the
    real line the solution would be the weighted average
    ``(g + lam*f) / (1 + lam)``; on the circle a correction of
    ``2*pi * lam/(1+lam)`` is added wherever the representants of ``g`` and
    ``f`` lie more than pi apart, so that the average is taken along the
    shorter arc.

    Accepts scalars or arrays of any (common) shape; ``lam`` must be
    nonnegative.  ``lam = 0`` returns ``g`` unchanged; ``lam -> inf``
    approaches ``f``.
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
