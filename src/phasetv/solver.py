"""Cyclic proximal point solver.

One sweep applies the proximal mapping of every group of
:func:`phasetv.model.stencil_groups` in label order, with the parameter
``lambda_k = lambda0 / (k + 1)``: each difference group's prox, then the
image wrap (weight 0), then in noisy mode the data term's prox (weight
2).  :func:`_plan` binds every step once, cut by one rule into blocks of
at most ``_BLOCK`` = 2^15 entries of its columns (a group's, the flat
crop for the wrap, the data term's reference and values), one
``(weight, kernel, loads, stores)`` entry of one list per block.  The
step's loads (a run's phase loads and row-end saves, an index form's
gather) go on its first block, and its stores (the row-end restores, the
projection, a run's copy-out, an index form's scatter) on its last.  For
every entry the sweep runs the loads, ``kernel(lam * weight)`` and the
stores, with no branch.  In noiseless mode the last store of a
difference group resets the known pixels it touches to the data.

In noiseless mode only the stencils that touch an unknown pixel carry
energy and the known pixels never move, so :func:`run_cppa` solves the
problem on the crop ``model._box`` of the image, which holds every such
stencil and keeps the label of each residue class: the cycle order is
part of the algorithm (Bacak, SIAM J. Optim. 2014).  The run steps on a
C-contiguous copy of the crop and writes it back; in noisy mode, or with
no unknown pixel, the crop is the image.

Each maximal run of lattice difference groups (whole lattices or dense
forms) of one stride (rs, cs) steps on the phases ``x[a::rs, b::cs]``.
Phase p = a*cs + b is held flat at ``[p*H*W, (p+1)*H*W)`` of one buffer
that all runs share, padded to (H, W) = (ceil(rows / rs), ceil(cols /
cs)).  A run loads its phases once and stores them once.  Since a
family's arity is rs*cs, each stencil position of a group lies in a
phase of its own, and its column is the contiguous slice of that phase
from its first pixel to its last, so every ufunc is 1-D and unit-stride.
The (nr-1)*(W-nc) row-end entries of a slice, which pair pixels across
rows or with padding, go through the arithmetic too; they hold finite
values, and a load saves them and a store puts them back.  In noiseless
mode the projection after each step of a run resets every known pixel
of its phases, so a dense form can step its whole lattice: a stencil
that touches no unknown pixel moves only known pixels, and they are back
before any other group reads them.  Each pixel sees the same operations
in the same order as when every group is stepped on the image in index
form, so the output is the same bit for bit.

A group's prox makes 10-14 elementwise passes over its columns, which
hold up to 131k entries each: a block's columns and scratch stay in a
core's L2 cache between passes, where a whole group's would stream from
memory on every pass.  Every step is elementwise, so the blocks keep
every bit.

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
below about 10*pi and |theta| below about 40*pi.  The wrap step wraps
the image once per sweep, before the data term, whose shorter-arc test
needs angles in [-pi, pi).

The output is continuous in the input except where a stencil's wrapped
difference theta reaches +-pi: there the prox is two-valued and takes
theta's sign, so one rounding can move a pixel by a whole step.  A
vortex, such as :func:`phasetv.gen_atan2`'s centre, makes such pairs.
In the 64x64 atan2 disc of radius 16 (alpha 0.5, beta and gamma 0.25),
from the initializer, the diagonal pair (31, 31), (32, 32) has theta one
ulp past -pi at its first step and one ulp below +pi after a global
phase shift; after 200 sweeps the two runs differ by up to 0.37 rad.
A transpose or flip of the problem, with the weights permuted to match,
reorders the cycle, and another order may settle in another minimum: 30
sweeps on drawn problems of up to 12x12 ended up to 94% apart in energy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .circle import _LAMBDA0_MAX, _check_number, _wrap_array
from .model import Weights, _bind, _box, _check_problem, _energy, _reads, _scratch, stencil_groups
from .prox import _prox_data_into, shrink_columns


# The most entries of a step's columns one entry passes through its kernel:
# a first-difference block, two columns and two scratch buffers, is 1 MB and
# fits in a core's L2 cache; smaller blocks pay more in per-call overhead.
_BLOCK = 1 << 15


class NumericalError(RuntimeError):
    """The energy of an iterate overflowed, which finite input can make
    happen only through a weight near the largest float."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for :func:`run_cppa`.

    ``lambda0`` is a real number in (0, 1e300], ``max_sweeps`` and
    ``record_energy_every`` positive integers.  Energies are recorded every
    ``record_energy_every`` sweeps, plus always at sweep 0 and the final
    sweep.
    """

    lambda0: float = np.pi / 2.0
    max_sweeps: int = 700
    record_energy_every: int = 1

    def __post_init__(self):
        lambda0 = _check_number(self.lambda0, "lambda0", 0.0, _LAMBDA0_MAX, open_lo=True)
        object.__setattr__(self, "lambda0", lambda0)
        for name in ("max_sweeps", "record_energy_every"):
            value = _check_number(getattr(self, name), name, 1, integer=True)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SolverReport:
    """What :func:`run_cppa` returns, unchecked: the final ``image``, the
    ``energy_trace`` of (sweep, energy) pairs, ``sweeps`` and ``wall_time``."""

    image: np.ndarray
    energy_trace: tuple[tuple[int, float], ...]
    sweeps: int
    wall_time: float


def lambda_schedule(k: int, lambda0: float) -> float:
    """Step parameter of sweep ``k`` (0-based): lambda0 / (k + 1).

    The sequence diverges in sum while its squares sum to a finite value,
    the two conditions the cyclic scheme needs.  ``k`` must be a
    nonnegative integer and ``lambda0`` in (0, 1e300], as for
    :class:`SolverConfig`; otherwise a ``ValueError`` names the argument.
    """
    k = _check_number(k, "k", 0, integer=True)
    return _check_number(lambda0, "lambda0", 0.0, _LAMBDA0_MAX, open_lo=True) / (k + 1.0)


def _stride(group):
    """The stride (rs, cs) of a difference group in whole or dense lattice
    form, else None."""
    if group.index is not None or group.filt is None:
        return None
    rows, cols = group.windows[0]
    return rows.step, cols.step


def _phase_shape(shape, stride) -> tuple[int, int]:
    """(H, W) = (ceil(rows / rs), ceil(cols / cs)): the shape to which each
    phase of the stride (rs, cs) of an image of ``shape`` is padded."""
    return -(-shape[0] // stride[0]), -(-shape[1] // stride[1])


def _bind_run(image: np.ndarray, run, pool: np.ndarray, fixed=None):
    """:func:`phasetv.model._bind`, ``fixed`` included, for a run of lattice
    difference groups of one stride: one ``(cols, loads, stores)`` per
    group, bound on the phases of ``image`` in ``pool`` as the module
    docstring lays them out; ``pool`` must be that long and finite.
    """
    rs, cs = stride = _stride(run[0])
    H, W = _phase_shape(image.shape, stride)
    phases = [pool[p * H * W:(p + 1) * H * W] for p in range(rs * cs)]

    def views(a):
        return [a[p // cs::rs, p % cs::cs] for p in range(rs * cs)]

    pairs = [(v, ph.reshape(H, W)[:v.shape[0], :v.shape[1]]) for v, ph in zip(views(image), phases)]
    if fixed is not None:
        ids, vals = [], []
        for p, (m, v) in enumerate(zip(*map(views, fixed))):
            i, k = np.nonzero(m)
            ids.append(p * H * W + i * W + k)
            vals.append(v[i, k])
        project = partial(pool.__setitem__, np.concatenate(ids), np.concatenate(vals))
    bound = []
    for g in run:
        nr, nc = g.shape
        cols, loads, stores = [], [], []
        for r, c in g.windows:
            phase = phases[r.start % rs * cs + c.start % cs]
            o = r.start // rs * W + c.start // cs
            cols.append(phase[o:o + (nr - 1) * W + nc])
            if nr > 1 and nc < W:
                ends = phase[o:o + (nr - 1) * W].reshape(nr - 1, W)[:, nc:]
                saved = np.empty(ends.shape)
                loads.append(partial(np.copyto, saved, ends))
                stores.append(partial(np.copyto, ends, saved))
        if fixed is not None:
            stores.append(project)
        bound.append((cols, loads, stores))
    bound[0][1][:0] = [partial(np.copyto, ph, v) for v, ph in pairs]
    bound[-1][2].extend(partial(np.copyto, v, ph) for v, ph in pairs)
    return bound


def _wrap(cols, lam, theta_buf, step_buf):
    # theta_buf may be shorter than its block; the known pixels keep f's bits.
    _wrap_array(cols[0], out=cols[0], tmp=step_buf)


def _plan(x2d: np.ndarray, f: np.ndarray, known: np.ndarray, weights: Weights, model_kind: str):
    """``(steps, energy)``: the steps of a sweep on the C-contiguous image
    ``x2d``, bound once as the module docstring lays them out, and a
    function that returns the energy of ``x2d``, for the checked problem
    of the data ``f`` and the mask ``known`` of its shape."""
    groups = stencil_groups(x2d.shape, known, weights, model_kind)
    live = [g for g in groups if len(g)]
    # The runs share one pool, and their columns are no longer than a phase.
    shapes = [(math.prod(s), *_phase_shape(x2d.shape, s)) for s in set(map(_stride, live)) if s]
    pool = np.zeros(max((p * h * w for p, h, w in shapes), default=0))
    columns, ref, theta_buf = _scratch(groups, max((h * w for _, h, w in shapes), default=0))
    fixed = (known, f) if model_kind == "noiseless" else None
    bound = []
    for stride, run in groupby(live, _stride):
        run = list(run)
        if stride is None:
            bound += [_bind(x2d, g, columns, fixed) for g in run]
        else:
            bound += _bind_run(x2d, run, pool, fixed)
    # The binds' temporaries can set the run's peak, so the step scratch
    # comes after them.  It holds a block of any step, the wrap's included.
    step_buf = np.empty(max(theta_buf.size, min(x2d.size, _BLOCK)))
    reads = _reads(x2d, f, groups, columns, ref)
    # The data term's weight is 2, as its closed form weighs the fidelity
    # without the usual 1/2; it steps on the columns that the energy reads.
    plan = [(g.weight, cols, partial(shrink_columns, filt=g.filt), loads, stores)
            for g, (cols, loads, stores) in zip(live, bound) if g.filt is not None]
    plan.append((0.0, [x2d.reshape(-1)], _wrap, (), ()))
    if live and live[-1].filt is None:
        plan.append((2.0, [c.reshape(-1) for c in reads[-1][1]], _prox_data_into, *bound[-1][1:]))
    steps = []
    for weight, cols, kernel, loads, stores in plan:
        n = cols[0].size
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            block = partial(kernel, [c[lo:hi] for c in cols],
                            theta_buf=theta_buf[:hi - lo], step_buf=step_buf[:hi - lo])
            steps.append((weight, block, loads if lo == 0 else (), stores if hi == n else ()))
    return steps, partial(_energy, reads, theta_buf, step_buf)


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
    executed sweep count and the wall time of the whole call, setup
    included, in seconds.  Each energy is that of the image after the
    sweep's wrap, so the last one is ``energy`` of the returned image bit
    for bit.  In noiseless mode the known pixels keep the bits of ``f``.
    """
    start = time.perf_counter()
    if config is None:
        config = SolverConfig()
    if not isinstance(config, SolverConfig):
        raise ValueError(f"config must be a SolverConfig, got {config!r}")
    x0, f, known = _check_problem(x0, f, mask, model_kind, start=True)
    noiseless = model_kind == "noiseless"
    image = np.array(x0, order="C")
    if noiseless:
        # x0 equals f on the known pixels but may differ in a zero's sign.
        np.copyto(image, f, where=known)
    # The run steps on the crop, a view when it is the whole image.
    box = _box(known, noiseless)
    x2d = np.ascontiguousarray(image[box])
    steps, energy = _plan(x2d, f[box], known[box], weights, model_kind)

    def record(trace, sweep):
        value = energy()
        if not np.isfinite(value):
            raise NumericalError(f"energy became non-finite at sweep {sweep}")
        trace.append((sweep, value))

    trace: list[tuple[int, float]] = []
    record(trace, 0)
    for k in range(config.max_sweeps):
        lam = lambda_schedule(k, config.lambda0)
        for weight, kernel, loads, stores in steps:
            for load in loads:
                load()
            kernel(lam * weight)
            for store in stores:
                store()
        sweep = k + 1
        if sweep % config.record_energy_every == 0 or sweep == config.max_sweeps:
            record(trace, sweep)

    image[box] = x2d
    return SolverReport(
        image=image,
        energy_trace=tuple(trace),
        sweeps=config.max_sweeps,
        wall_time=time.perf_counter() - start,
    )
