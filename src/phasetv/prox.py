"""Closed-form proximal mappings for cyclic difference penalties.

Two mappings are provided: the prox of ``lam * |wrap(<x, taps>)|`` for the
three supported difference filters, and the prox of the wrapped quadratic
data-fidelity term used by the noisy model.  Both have analytical
solutions; grid-search oracles for testing live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, DifferenceFilter, _theta_columns, _wrap_array, dist

# Width of the band around |theta| == pi treated as the antipodal
# (two-valued) case.  Measure-zero in exact arithmetic.
ANTIPODAL_TOL = 1e-12


@dataclass(frozen=True)
class ProxDiffResult:
    """Output of :func:`prox_diff`.

    ``secondary`` is populated only in the antipodal case, where the
    minimizer is a two-element set; both candidates then achieve the same
    objective value.  Iterative callers should use ``primary``.
    """

    primary: np.ndarray
    secondary: np.ndarray | None = None


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
    writing anything if a patch holds a non-finite value.  Always takes the
    primary branch in the (measure-zero) antipodal case, which is what the
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


def prox_diff(f, lam: float, filt: DifferenceFilter) -> ProxDiffResult:
    """Proximal mapping of ``lam * |wrap(<., taps>)|`` at the patch ``f``.

    Minimizes ``0.5 * sum_j dist(x_j, f_j)^2 + lam * |wrap(<x, taps>)|``.
    With ``theta = wrap(<f, taps>)``, ``s = sign(theta)`` and
    ``m = min(lam, |theta| / |taps|^2)`` the minimizer is
    ``wrap(f - s*m*taps)``; if ``|theta| == pi`` (antipodal case) the
    reflected point ``wrap(f + s*m*taps)`` attains the same objective and
    is returned as ``secondary``.

    Parameters
    ----------
    f : sequence of float
        Patch of wrapped angles, length equal to the filter arity.
    lam : float
        Positive prox parameter.
    filt : DifferenceFilter
        One of the supported difference filters.
    """
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if f.ndim != 1 or f.size != filt.arity:
        raise ValueError(
            f"patch of length {f.size} does not match filter arity {filt.arity}"
        )
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive")
    if not np.all(np.isfinite(f)):
        raise ValueError("patch values must be finite")

    # Each patch entry becomes a column of length one.
    theta, step = _prox_step(f[:, None], lam, filt)
    primary = f.copy()
    _apply_step(primary[:, None], step, filt)
    _wrap_array(primary, out=primary)
    secondary = None
    if np.pi - abs(float(theta[0])) <= ANTIPODAL_TOL:
        secondary = f.copy()
        _apply_step(secondary[:, None], -step, filt)
        _wrap_array(secondary, out=secondary)
    return ProxDiffResult(primary=primary, secondary=secondary)


def prox_diff_objective(x, f, lam: float, filt: DifferenceFilter) -> float:
    """Objective minimized by :func:`prox_diff`, evaluated at ``x``."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    fidelity = 0.5 * float(np.sum(dist(f, x) ** 2))
    penalty = lam * abs(float(_wrap_array(x @ filt.tap_array())))
    return fidelity + penalty


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


def oracle_prox_diff(f, lam: float, filt: DifferenceFilter, grid_step: float = 1e-3) -> np.ndarray:
    """Grid-search substitute for :func:`prox_diff`; tests only.

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

    taps = filt.tap_array()
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
