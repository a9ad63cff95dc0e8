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

The sweep kernel works column by column.  Before the first sweep each
group is packed into one contiguous flat ``intp`` index array per stencil
position, and the enumerated SubFunctionals (with their (n, arity, 2)
coordinates) are dropped, so only this one index copy stays alive.  A
group step gathers its columns into scratch buffers reused across groups
and sweeps, computes theta from the explicit taps of its filter family,
shrinks and wraps the columns in place (``prox.shrink_columns``) and
scatters them back.  The projection then rewrites only the known pixels
the group touched, from a small per-group index and value array, instead
of every known pixel of the image.  The recorded energy runs the same
theta routine as :func:`phasetv.model.energy`, over the groups in
enumeration order, so the last trace entry equals ``energy`` of the
returned image bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .circle import FILTERS, DifferenceFilter, check_phase_values
from .model import Weights, enumerate_stencils, flat_columns, stencil_energy
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


@dataclass(frozen=True)
class _Packed:
    """One SubFunctional in the solver's index form.

    ``cols`` holds one flat index array per stencil position.  ``known``
    and ``known_values`` are the known pixels among them and their data
    values (noiseless mode; empty otherwise); for the data term
    ``known_values`` is the data at its single column.
    """

    label: int
    filt: DifferenceFilter | None
    weight: float
    cols: tuple[np.ndarray, ...]
    known: np.ndarray
    known_values: np.ndarray


def _pack(groups: list, n_cols: int, known_flat, f_flat, noiseless: bool) -> list[_Packed]:
    """Convert SubFunctionals to the column form, emptying ``groups``.

    Each SubFunctional is released as soon as it is packed, so its
    coordinates and its flat indices coexist for one group at a time.
    """
    packed = []
    groups.reverse()
    while groups:
        g = groups.pop()
        cols = tuple(flat_columns(g.pixels, n_cols))
        if g.is_data_term:
            known = cols[0]
        elif noiseless:
            known = np.concatenate([c[known_flat[c]] for c in cols])
        else:
            known = cols[0][:0]
        packed.append(_Packed(g.label, g.filt, g.weight, cols, known, f_flat[known]))
    return packed


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

    groups = enumerate_stencils(x0.shape, known, weights, model_kind)
    if config.order is not None and sorted(config.order) != list(range(len(groups))):
        raise ValueError(f"order must be a permutation of 0..{len(groups) - 1}")

    n_rows, n_cols = x0.shape
    x = x0.reshape(-1).copy()
    packed = _pack(groups, n_cols, known.reshape(-1), f.reshape(-1), noiseless)
    cycle = packed if config.order is None else [packed[i] for i in config.order]
    width = max((p.cols[0].size for p in packed), default=0)
    columns = [np.empty(width) for _ in range(max(f.arity for f in FILTERS))]
    theta_buf = np.empty(width)
    step_buf = np.empty(width)

    def gather(p, n):
        return [np.take(x, c, out=b[:n], mode="clip") for c, b in zip(p.cols, columns)]

    def record(trace, sweep):
        value = 0
        for p in packed:
            n = p.cols[0].size
            value += stencil_energy(gather(p, n), p.filt, p.weight, p.known_values,
                                    theta_buf[:n], step_buf[:n])
        if not np.isfinite(value):
            raise NumericalError(f"energy became non-finite at sweep {sweep}")
        trace.append((sweep, value))

    start = time.perf_counter()
    trace: list[tuple[int, float]] = []
    record(trace, 0)
    for k in range(config.max_sweeps):
        lam = lambda_schedule(k, config.lambda0)
        for p in cycle:
            n = p.cols[0].size
            if n == 0:
                continue
            vals = gather(p, n)
            if p.filt is None:
                # Data term: prox parameter 2*lam because the closed form
                # weighs the fidelity without the usual 1/2.
                x[p.cols[0]] = prox_data(vals[0], p.known_values, 2.0 * lam)
                continue
            try:
                shrink_columns(vals, lam * p.weight, p.filt, theta_buf[:n], step_buf[:n])
            except ValueError as exc:
                raise NumericalError(
                    f"non-finite values at sweep {k}, subfunctional J{p.label}"
                ) from exc
            for c, v in zip(p.cols, vals):
                x[c] = v
            if noiseless:
                x[p.known] = p.known_values
        sweep = k + 1
        if sweep % config.record_energy_every == 0 or sweep == config.max_sweeps:
            record(trace, sweep)

    return SolverReport(
        image=x.reshape(n_rows, n_cols),
        energy_trace=tuple(trace),
        sweeps=config.max_sweeps,
        wall_time=time.perf_counter() - start,
    )
