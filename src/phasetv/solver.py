"""Cyclic proximal point solver.

One sweep applies the proximal mapping of every SubFunctional in cycle
order with the diminishing parameter ``lambda_k = lambda0 / (k + 1)``,
which is square-summable but not summable.  Stencils inside one
SubFunctional are pixel-disjoint, so their proximal mappings are applied
in a single vectorized gather/compute/scatter step whose result does not
depend on stencil order.  In noiseless mode the known pixels are reset to
the data after every SubFunctional (projection onto the constraint set);
in noisy mode the data term is a SubFunctional of its own, handled by the
componentwise prox of the wrapped quadratic.

The sweep kernel works column by column on the lattice groups of
:func:`phasetv.model.stencil_groups`; no stencil coordinates are built.
A group that holds its whole lattice (every difference group in noisy
mode and under ``mask_subsample3``) is gathered by one
strided copy per stencil position, ``np.copyto(buf, x[rows, cols])``,
into scratch buffers reused across groups and sweeps, and scattered back
by the reverse copy.  Only partial lattices, such as the stencils around
a disc, use the index form and go through ``np.take`` and ``x[c] = v``.
Between gather and scatter the arithmetic runs on the contiguous
buffers: theta from the explicit taps of the filter family, then the
shrink and wrap in place (``prox.shrink_columns``).  Running the ufuncs
on the strided views directly instead measured slower, since every pass
then reads strided memory.  The projection rewrites only the known
pixels the group touched, from a small per-group index and value array,
instead of every known pixel of the image.  The recorded energy runs the
same theta routine as :func:`phasetv.model.energy`, over the groups in
enumeration order, so the last trace entry equals ``energy`` of the
returned image bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .circle import FILTERS, check_phase_values
from .model import Weights, gather, stencil_energy, stencil_groups
from .prox import prox_data, shrink_columns


class NumericalError(RuntimeError):
    """Non-finite values appeared during a sweep."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for :func:`run_cppa`.

    ``order`` optionally permutes the cycle; it is a tuple of positions
    into the enumerated SubFunctional sequence (default: enumeration
    order, i.e. ascending labels).  Energies are recorded every
    ``record_energy_every`` sweeps, plus always at sweep 0 and the final
    sweep.
    """

    lambda0: float = np.pi / 2.0
    max_sweeps: int = 700
    order: tuple[int, ...] | None = None
    record_energy_every: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.lambda0) and self.lambda0 > 0.0):
            raise ValueError("lambda0 must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.record_energy_every < 1:
            raise ValueError("record_energy_every must be at least 1")


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
    ``x0``), the executed sweep count and the wall time in seconds.
    """
    if config is None:
        config = SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    f = np.asarray(f, dtype=float)
    if x0.shape != f.shape or x0.ndim != 2:
        raise ValueError(f"image shapes disagree: {x0.shape} vs {f.shape}")
    known = np.asarray(mask)
    if known.shape != x0.shape or known.dtype != bool:
        raise ValueError("mask must be boolean with the image shape")
    check_phase_values(f, "f", where=known)
    check_phase_values(x0, "x0", where=known | np.isfinite(x0))
    noiseless = model_kind == "noiseless"
    if noiseless and not np.array_equal(x0[known], f[known]):
        raise ValueError("x0 must equal f on known pixels in noiseless mode")

    groups = stencil_groups(x0.shape, known, weights, model_kind)
    if config.order is not None and sorted(config.order) != list(range(len(groups))):
        raise ValueError(f"order must be a permutation of 0..{len(groups) - 1}")

    n_cols = x0.shape[1]
    x2d = np.array(x0, order="C")
    x = x2d.reshape(-1)
    f_flat = f.reshape(-1)
    # Per group label: the data at the group's pixels (data term), or the
    # flat indices and data of the known pixels the group touches, which
    # the noiseless projection resets after each group step.
    reset = {}
    for g in groups:
        if g.filt is None:
            reset[g.label] = (None, gather(f, g)[0])
        elif noiseless:
            touched = np.concatenate(g.flat_index(n_cols, known))
            reset[g.label] = (touched, f_flat[touched])
    cycle = groups if config.order is None else [groups[i] for i in config.order]
    width = max(map(len, groups), default=0)
    columns = [np.empty(width) for _ in range(max(f.arity for f in FILTERS))]
    theta_buf = np.empty(width)
    step_buf = np.empty(width)

    def scatter(g, vals):
        if g.index is None:
            for w, v in zip(g.windows, vals):
                np.copyto(x2d[w], v.reshape(g.shape))
        else:
            for c, v in zip(g.index, vals):
                x[c] = v

    def record(trace, sweep):
        value = 0
        for g in groups:
            n = len(g)
            ref = reset[g.label][1] if g.filt is None else None
            value += stencil_energy(gather(x2d, g, columns), g.filt, g.weight, ref,
                                    theta_buf[:n], step_buf[:n])
        if not np.isfinite(value):
            raise NumericalError(f"energy became non-finite at sweep {sweep}")
        trace.append((sweep, value))

    start = time.perf_counter()
    trace: list[tuple[int, float]] = []
    record(trace, 0)
    for k in range(config.max_sweeps):
        lam = lambda_schedule(k, config.lambda0)
        for g in cycle:
            n = len(g)
            if n == 0:
                continue
            vals = gather(x2d, g, columns)
            if g.filt is None:
                # Data term: prox parameter 2*lam because the closed form
                # weighs the fidelity without the usual 1/2.
                scatter(g, [prox_data(vals[0], reset[g.label][1], 2.0 * lam)])
                continue
            try:
                shrink_columns(vals, lam * g.weight, g.filt, theta_buf[:n], step_buf[:n])
            except ValueError as exc:
                raise NumericalError(
                    f"non-finite values at sweep {k}, subfunctional J{g.label}"
                ) from exc
            scatter(g, vals)
            if noiseless:
                touched, values = reset[g.label]
                x[touched] = values
        sweep = k + 1
        if sweep % config.record_energy_every == 0 or sweep == config.max_sweeps:
            record(trace, sweep)

    return SolverReport(
        image=x2d,
        energy_trace=tuple(trace),
        sweeps=config.max_sweeps,
        wall_time=time.perf_counter() - start,
    )
