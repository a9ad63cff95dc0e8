"""Cyclic proximal point solver.

One sweep applies the proximal mapping of every group of
:func:`phasetv.model.stencil_groups` in label order, with the parameter
``lambda_k = lambda0 / (k + 1)``.  In noiseless mode the known pixels a
group touches are reset to the data after it; in noisy mode the data term
is a group of its own.

Finite in, finite throughout: :func:`run_cppa` checks that ``x0`` and
``f`` hold finite angles, the weights are finite and ``lambda0 <= 1e300``,
and the sweep checks nothing.  A difference prox moves a pixel by ``step
* tap`` with ``|step| <= |theta| / |taps|^2``, theta being a signed wrap,
so by at most pi/2 whatever ``lam`` is; the data prox averages two finite
angles with the weight ``2*lam``, and ``f * 2*lam`` stays finite.  This
bounded step is what the convergence of the cyclic proximal point
algorithm rests on (Bacak, SIAM J. Optim. 2014).  Only the energy, a
weighted sum, can overflow, for a weight near the largest float.

The difference groups leave their pixels unwrapped, since the next step
needs each angle only modulo 2*pi; by that bound, within a sweep |x| stays
below about 10*pi and |theta| below about 40*pi.  The image is wrapped
once per sweep, before the data term, whose shorter-arc test needs angles
in [-pi, pi).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .circle import _check_int, _check_real, _wrap_array
from .model import Weights, _bind, _check_problem, _energy, _scratch, gather, stencil_groups
from .prox import _prox_data_into, shrink_columns

# The largest lambda0: the noisy data prox forms f * 2*lambda0 with |f| <= pi,
# which overflows from about 2.9e307.
_LAMBDA0_MAX = 1e300

# Pixels per block of the once-per-sweep wrap: it caps the scratch at 256 KB
# (2 MB for a whole 512^2 image).  It buys no speed: on 262,144 pixels the whole
# image and blocks of 16k-131k took 179-231 us per wrap, 8k or less 254-364 us.
_WRAP_BLOCK = 1 << 15


class NumericalError(RuntimeError):
    """The energy of an iterate overflowed, which finite input can make
    happen only through a weight near the largest float."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for :func:`run_cppa`.

    ``lambda0`` is a real number in (0, 1e300].  Energies are
    recorded every ``record_energy_every`` sweeps, plus always at sweep 0
    and the final sweep.
    """

    lambda0: float = np.pi / 2.0
    max_sweeps: int = 700
    record_energy_every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "lambda0", _check_lambda0(self.lambda0))
        for name in ("max_sweeps", "record_energy_every"):
            value = _check_int(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SolverReport:
    """What :func:`run_cppa` returns, unchecked: the final ``image``, the
    ``energy_trace`` of (sweep, energy) pairs, ``sweeps`` and ``wall_time``."""

    image: np.ndarray
    energy_trace: tuple[tuple[int, float], ...]
    sweeps: int
    wall_time: float


def _check_lambda0(value) -> float:
    """``value`` as a float; ``ValueError`` naming lambda0 unless it is a
    real number in (0, ``_LAMBDA0_MAX``]."""
    lambda0 = _check_real(value, "lambda0")
    if not 0.0 < lambda0 <= _LAMBDA0_MAX:
        raise ValueError(f"lambda0 must be positive and at most {_LAMBDA0_MAX:g}")
    return lambda0


def lambda_schedule(k: int, lambda0: float) -> float:
    """Step parameter of sweep ``k`` (0-based): lambda0 / (k + 1).

    The sequence diverges in sum while its squares sum to a finite value,
    the two conditions the cyclic scheme needs.  ``k`` must be a
    nonnegative integer and ``lambda0`` in (0, 1e300], as for
    :class:`SolverConfig`; otherwise a ``ValueError`` names the argument.
    """
    if _check_int(k, "k") < 0:
        raise ValueError("sweep index k must be nonnegative")
    return _check_lambda0(lambda0) / (k + 1.0)


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
    ``f`` on known pixels in noiseless mode.  ``x0``, ``f`` and ``mask``
    are checked as by :func:`energy`; ``config`` None (on purpose) runs
    ``SolverConfig()``.  An overflowing energy raises
    :class:`NumericalError`.  Returns the final image, the energy
    trace as (sweep, energy) pairs (sweep 0 is the energy of ``x0``), the
    executed sweep count and the wall time in seconds.  Each energy is
    that of the image after the sweep's wrap, so the last one is
    ``energy`` of the returned image bit for bit.  In noiseless mode the
    known pixels keep the bits of ``f``.
    """
    if config is None:
        config = SolverConfig()
    if not isinstance(config, SolverConfig):
        raise ValueError(f"config must be a SolverConfig, got {config!r}")
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
    scratch = _scratch(groups)
    *columns, theta_buf, step_buf = scratch
    # Each group step is bound once: its columns, the copies between them
    # and x2d, and its scratch, all cut to the group's length.  In
    # noiseless mode the last copy is the projection, which resets the
    # known pixels the group touches to f.  The data term, if any, runs
    # last with its data, which the energy reads as well.
    steps = []
    data = f_data = None
    for g in groups:
        n = len(g)
        if n == 0:
            continue
        cols, loads, stores = _bind(x2d, g, columns)
        if g.filt is None:
            data = (cols, loads, stores, theta_buf[:n], step_buf[:n])
            f_data = gather(f, g)[0]
            continue
        if noiseless:
            touched = np.concatenate(g.flat_index(known))
            stores.append(partial(x.__setitem__, touched, f_flat[touched]))
        steps.append((g.weight, g.filt, cols, loads, stores, theta_buf[:n], step_buf[:n]))
    wrap_tmp = np.empty(min(x.size, _WRAP_BLOCK))
    # The flat range of the rows that hold an unknown pixel; noisy mode
    # moves every pixel.  Outside it every pixel is known and holds f: the
    # projection after each group step puts back what the step moved.
    band = range(0, x.size)
    if noiseless:
        moving = np.flatnonzero(~known.all(axis=1))
        band = range(moving[0] * n_cols, (moving[-1] + 1) * n_cols) if moving.size else range(0)

    def wrap_iterate():
        # Block by block, so that the scratch stays small.  The wrap keeps
        # the known pixels, which hold f, bit for bit.
        for lo in range(band.start, band.stop, wrap_tmp.size):
            block = x[lo:min(lo + wrap_tmp.size, band.stop)]
            _wrap_array(block, out=block, tmp=wrap_tmp[:block.size])

    def record(trace, sweep):
        value = _energy(x2d, f, groups, scratch, f_data)
        if not np.isfinite(value):
            raise NumericalError(f"energy became non-finite at sweep {sweep}")
        trace.append((sweep, value))

    start = time.perf_counter()
    trace: list[tuple[int, float]] = []
    record(trace, 0)
    for k in range(config.max_sweeps):
        lam = lambda_schedule(k, config.lambda0)
        for weight, filt, cols, loads, stores, theta, step in steps:
            for load in loads:
                load()
            shrink_columns(cols, lam * weight, filt, theta, step)
            for store in stores:
                store()
        wrap_iterate()
        if data is not None:
            # Data term: prox parameter 2*lam because the closed form
            # weighs the fidelity without the usual 1/2.
            cols, loads, stores, a, b = data
            for load in loads:
                load()
            _prox_data_into(cols[0], f_data, 2.0 * lam, a, b)
            for store in stores:
                store()
        sweep = k + 1
        if sweep % config.record_energy_every == 0 or sweep == config.max_sweeps:
            record(trace, sweep)

    return SolverReport(
        image=x2d,
        energy_trace=tuple(trace),
        sweeps=config.max_sweeps,
        wall_time=time.perf_counter() - start,
    )
