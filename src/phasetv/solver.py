"""Cyclic proximal point solver.

One sweep applies the proximal mapping of every group of
:func:`phasetv.model.stencil_groups` in label order, with the parameter
``lambda_k = lambda0 / (k + 1)``.  In noiseless mode the known pixels a
group touches are reset to the data after it; in noisy mode the data term
is a group of its own.  The difference groups leave their pixels
unwrapped, since the next step needs each angle only modulo 2*pi.  A
group moves a pixel by at most pi/2, so within a sweep |x| stays below
about 10*pi and |theta| below about 40*pi.  The image is wrapped once per
sweep, before the data term, whose shorter-arc test needs angles in
[-pi, pi).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .circle import _check_int, _check_real, _wrap_array
from .model import (Weights, _check_problem, _scratch, energy_from_groups, gather, scatter,
                    stencil_groups)
from .prox import _prox_data_into, shrink_columns

# Pixels per block of the once-per-sweep wrap: the block and its scratch
# take 512 KB, which stays in a typical L2 cache through the wrap's passes.
_WRAP_BLOCK = 1 << 15


class NumericalError(RuntimeError):
    """Non-finite values appeared during a sweep."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for :func:`run_cppa`.

    Energies are recorded every ``record_energy_every`` sweeps, plus
    always at sweep 0 and the final sweep.
    """

    lambda0: float = np.pi / 2.0
    max_sweeps: int = 700
    record_energy_every: int = 1

    def __post_init__(self):
        lambda0 = _check_real(self.lambda0, "lambda0")
        if not (np.isfinite(lambda0) and lambda0 > 0.0):
            raise ValueError("lambda0 must be positive")
        object.__setattr__(self, "lambda0", lambda0)
        for name in ("max_sweeps", "record_energy_every"):
            value = _check_int(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SolverReport:
    image: np.ndarray
    energy_trace: tuple[tuple[int, float], ...]
    sweeps: int
    wall_time: float


def lambda_schedule(k: int, lambda0: float) -> float:
    """Step parameter of sweep ``k`` (0-based): lambda0 / (k + 1).

    The sequence diverges in sum while its squares sum to a finite value,
    the two conditions the cyclic scheme needs.
    """
    if k < 0:
        raise ValueError("sweep index must be nonnegative")
    return lambda0 / (k + 1.0)


def run_cppa(
    x0,
    f,
    mask,
    weights: Weights,
    model_kind: str,
    config: SolverConfig | None = None,
) -> SolverReport:
    """Minimize the chosen model energy starting from ``x0``.

    ``x0`` is typically the output of the initializer and must agree with
    ``f`` on known pixels in noiseless mode.  ``f`` must hold angles in
    [-pi, pi) on the known pixels, and so must ``x0`` wherever it is known
    or finite; a violation raises ``ValueError`` naming the argument and
    the first bad pixel.  A non-finite ``x0`` on an unknown pixel raises
    :class:`NumericalError` at sweep 0.  Returns the final image, the
    energy trace as (sweep, energy) pairs (sweep 0 is the energy of
    ``x0``), the executed sweep count and the wall time in seconds.  Each
    energy is that of the image after the sweep's wrap, so the last one
    is ``energy`` of the returned image bit for bit.  In noiseless mode the
    known pixels keep the bits of ``f``.
    """
    if config is None:
        config = SolverConfig()
    x0, f, known = _check_problem(x0, f, mask, model_kind, start=True)
    noiseless = model_kind == "noiseless"
    groups = stencil_groups(x0.shape, known, weights, model_kind)

    n_cols = x0.shape[1]
    x2d = np.array(x0, order="C")
    if noiseless:
        # x0 equals f on the known pixels but may differ in a zero's sign.
        np.copyto(x2d, f, where=known)
    x = x2d.reshape(-1)
    f_flat = f.reshape(-1)
    # The difference groups with their noiseless projection: the flat
    # indices and data of the known pixels the group touches, reset after
    # each group step.  The data term, if any, runs last with its data,
    # which the energy reads as well.
    steps = []
    data = f_data = None
    for g in groups:
        if len(g) == 0:
            continue
        if g.filt is None:
            data, f_data = g, gather(f, g)[0]
        elif noiseless:
            touched = np.concatenate(g.flat_index(known))
            steps.append((g, touched, f_flat[touched]))
        else:
            steps.append((g, None, None))
    scratch = _scratch(groups)
    *columns, theta_buf, step_buf = scratch
    wrap_tmp = np.empty(min(x.size, _WRAP_BLOCK))
    # The flat range of the rows that hold an unknown pixel; noisy mode
    # moves every pixel.  Outside it every pixel is known and holds f: the
    # projection after each group step puts back what the step moved.
    band = range(0, x.size)
    if noiseless:
        moving = np.flatnonzero(~known.all(axis=1))
        band = range(moving[0] * n_cols, (moving[-1] + 1) * n_cols) if moving.size else range(0)

    def wrap_iterate():
        # Block by block, so that the scratch stays small and the wrap's
        # passes stay in cache.  The wrap keeps the known pixels, which
        # hold f, bit for bit.
        for lo in range(band.start, band.stop, wrap_tmp.size):
            block = x[lo:min(lo + wrap_tmp.size, band.stop)]
            _wrap_array(block, out=block, tmp=wrap_tmp[:block.size])

    def record(trace, sweep):
        value = energy_from_groups(x2d, f, groups, scratch, f_data)
        if not np.isfinite(value):
            raise NumericalError(f"energy became non-finite at sweep {sweep}")
        trace.append((sweep, value))

    start = time.perf_counter()
    trace: list[tuple[int, float]] = []
    record(trace, 0)
    for k in range(config.max_sweeps):
        lam = lambda_schedule(k, config.lambda0)
        for g, touched, values in steps:
            n = len(g)
            vals = gather(x2d, g, columns)
            try:
                shrink_columns(vals, lam * g.weight, g.filt, theta_buf[:n], step_buf[:n])
            except ValueError as exc:
                raise NumericalError(
                    f"non-finite values at sweep {k}, subfunctional J{g.label}"
                ) from exc
            scatter(x2d, g, vals)
            if noiseless:
                x[touched] = values
        wrap_iterate()
        if data is not None:
            # Data term: prox parameter 2*lam because the closed form
            # weighs the fidelity without the usual 1/2.
            n = len(data)
            vals = gather(x2d, data, columns)
            _prox_data_into(vals[0], f_data, 2.0 * lam, theta_buf[:n], step_buf[:n])
            scatter(x2d, data, vals)
        sweep = k + 1
        if sweep % config.record_energy_every == 0 or sweep == config.max_sweeps:
            record(trace, sweep)

    return SolverReport(
        image=x2d,
        energy_trace=tuple(trace),
        sweeps=config.max_sweeps,
        wall_time=time.perf_counter() - start,
    )
