"""Closed-form proximal mappings for cyclic difference penalties.

Two mappings are provided: the prox of ``lam * |wrap(<x, taps>)|`` for the
three supported difference filters, and the prox of the wrapped quadratic
data-fidelity term used by the noisy model.  Both have analytical
solutions, and each has one in-place kernel that the sweep solver runs on
its reused buffers; the public functions wrap those same kernels.
"""

from __future__ import annotations

import numpy as np

from .circle import (TWO_PI, DifferenceFilter, _check_finite, _check_nonnegative,
                     _check_same_shape, _scalar, _signed_wrap, _tap_sum, _wrap_array,
                     check_phase_values)


def _prox_step(cols, lam: float, filt: DifferenceFilter, theta_out=None, step_out=None):
    """theta and the signed step of the difference prox, per patch.

    ``cols`` holds the patches as one array per stencil position.  Returns
    ``(theta, step)`` with ``theta`` the signed wrap of ``<v, taps>`` and
    ``step = clip(theta / |taps|^2, -lam, lam)``; the shrunk patches are
    ``v - step * taps``, up to multiples of 2*pi.  Since IEEE division is
    sign-symmetric, the clip gives the bits of
    ``copysign(min(lam, |theta| / |taps|^2), theta)``, -0.0 and the
    antipodal theta included.
    """
    theta = _tap_sum(cols, theta_out)
    theta = _signed_wrap(theta, out=theta, tmp=step_out)
    step = np.divide(theta, filt.norm_sq, out=step_out)
    step.clip(-lam, lam, out=step)
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
    its angle.  The input must be finite and is not checked (see
    :mod:`phasetv.solver`).  ``theta_buf`` and ``step_buf`` are optional
    scratch arrays of the column length.  In the (measure-zero) antipodal
    case, where the prox is two-valued, the step always follows the sign
    of the wrapped theta (-pi for an exact tie), which is what the sweep
    solver requires for determinism.
    """
    theta, step = _prox_step(cols, lam, filt, theta_buf, step_buf)
    _apply_step(cols, step, filt, tmp=theta)


def prox_diff_batch(values: np.ndarray, lam: float, filt: DifferenceFilter) -> np.ndarray:
    """Apply the prox of ``filt``, a :class:`DifferenceFilter`, with a finite
    nonnegative ``lam`` to every row of an (n, arity) array of finite reals
    (any of them, and n = 0, on purpose); the output is wrapped to
    [-pi, pi).  Other input raises a ``ValueError`` naming the argument."""
    values = _check_finite(values, "values")
    lam = _check_nonnegative(lam, "lam")
    if not isinstance(filt, DifferenceFilter):
        raise ValueError(f"filt must be a DifferenceFilter, got {filt!r}")
    if values.ndim != 2 or values.shape[1] != filt.arity:
        raise ValueError(f"values must be an (n, {filt.arity}) array, got shape {values.shape}")
    cols = [values[:, j].copy() for j in range(filt.arity)]
    shrink_columns(cols, lam, filt)
    out = np.stack(cols, axis=1)
    return _wrap_array(out, out=out)


def _prox_data_into(g, f, lam: float, a, b) -> None:
    """Overwrite ``g`` with the data prox of ``g`` towards ``f``, in place.

    ``g``, ``f`` and the scratch arrays ``a`` and ``b`` are float arrays of
    one shape; ``lam`` is positive.  The operations and their roundings
    are those of the closed form: ``d = g - f``, ``v = sign(d)`` zeroed
    where ``|d| <= pi``, then ``wrap((g + lam*f) / (1 + lam) + c*v)`` with
    ``c = 2*pi * lam/(1+lam)``.  ``c*v`` is formed as ``c * (|d| > pi) *
    sign(d)``, whose zeroed entries may be -0.0; adding one leaves a -0.0
    average at -0.0, where the closed form gives +0.0.
    """
    d = np.subtract(g, f, out=a)
    far = np.greater(np.abs(d, out=b), np.pi, out=b)
    far *= (lam / (1.0 + lam)) * TWO_PI
    shift = np.sign(d, out=a)
    shift *= far
    avg = np.multiply(f, lam, out=b)
    avg += g
    avg /= 1.0 + lam
    avg += shift
    _wrap_array(avg, out=g, tmp=a)


def prox_data(g, f, lam: float):
    """Componentwise prox of the wrapped quadratic distance to ``f``.

    Minimizes ``sum_j (dist(g_j, x_j)^2 + lam * dist(f_j, x_j)^2)``.  On the
    real line the solution would be the weighted average
    ``(g + lam*f) / (1 + lam)``; on the circle a correction of
    ``2*pi * lam/(1+lam)`` is added wherever the representants of ``g`` and
    ``f`` lie more than pi apart, so that the average is taken along the
    shorter arc.

    Accepts scalars or arrays of any common shape, empty ones included, on
    purpose.  ``g`` and ``f`` must hold angles in [-pi, pi) and ``lam`` be a
    finite nonnegative real; otherwise a ``ValueError`` names the argument.
    ``lam = 0`` returns ``g`` unchanged; ``lam -> inf`` approaches ``f``.
    """
    lam = _check_nonnegative(lam, "lam")
    _check_same_shape("f", np.shape(f), np.shape(g), "g's")
    check_phase_values(g, "g")
    check_phase_values(f, "f")
    out = np.array(g, dtype=float)
    f = np.asarray(f, dtype=float)
    if lam != 0.0:
        _prox_data_into(out, f, lam, np.empty(out.shape), np.empty(out.shape))
    return _scalar(out)
