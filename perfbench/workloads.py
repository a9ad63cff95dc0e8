"""Workload definitions, seeded inputs and the per-operation correctness gate.

Shared by ``run.py`` (the entry point), ``worker.py`` (the in-process
restoration loop) and ``golden.py``.  Importing this module needs the
phasetv sources on ``sys.path``; the entry points arrange that.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

import phasetv as pt

DEFAULT_SEED = 0

NOISE_SIGMA = 0.3
LOST_FRACTION = 0.2


@dataclass(frozen=True)
class Workload:
    """One restoration problem and how it is driven.

    ``record_every`` equal to ``sweeps`` records the energy at the first
    and last sweep only.  ``rmse_ceiling`` is the quality gate at the
    standard size; it is ``inf`` for the shrunken self-test variants.
    ``via_cli`` selects the closed loop over the CLI chain instead of the
    in-process library loop.
    """

    name: str
    scene: str
    size: int
    mask: str
    alpha: tuple[float, float, float, float]
    beta: tuple[float, float]
    gamma: float
    kind: str
    sweeps: int
    record_every: int
    rmse_ceiling: float
    via_cli: bool
    render_hue: bool

    @property
    def noiseless(self) -> bool:
        return self.kind == "noiseless"

    @property
    def disc_radius(self) -> float:
        return self.size / 4.0

    @property
    def ramp_slope(self) -> float:
        # Spans 4*pi from the first to the last column.
        return 4.0 * math.pi / (self.size - 1)

    def weights(self) -> pt.Weights:
        return pt.Weights(alpha=self.alpha, beta=self.beta, gamma=self.gamma)

    def solver_config(self) -> pt.SolverConfig:
        return pt.SolverConfig(max_sweeps=self.sweeps, record_energy_every=self.record_every)

    def shrunk(self, size: int, sweeps: int) -> "Workload":
        """The same workload at another size and sweep count (no rmse gate)."""
        record_every = sweeps if self.record_every == self.sweeps else self.record_every
        return dataclasses.replace(
            self, size=size, sweeps=sweeps, record_every=record_every, rmse_ceiling=math.inf
        )

    def warmup(self) -> "Workload":
        """One sweep on the same inputs: every code path and array size of
        an operation at a fraction of its cost; discarded before timing."""
        return dataclasses.replace(self, sweeps=1, record_every=1, rmse_ceiling=math.inf)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Workload":
        d = dict(d)
        d["alpha"] = tuple(d["alpha"])
        d["beta"] = tuple(d["beta"])
        return cls(**d)


WORKLOADS = {
    w.name: w
    for w in (
        # The sweep kernel dominates: ~30 sweeps over 1.8 M stencils with
        # every family on; index arrays of ~75 MB.
        Workload(
            name="sweep-512", scene="atan2", size=512, mask="subsample3",
            alpha=(1.0, 1.0, 1.0, 1.0), beta=(1.0, 1.0), gamma=1.0,
            kind="noiseless", sweeps=30, record_every=30,
            rmse_ceiling=0.0037, via_cli=False, render_hue=False,
        ),
        # The pure-Python initializer dominates: 12,892 unknown pixels in
        # one disc; the sweeps only touch stencils near the hole.
        Workload(
            name="init-disc-256", scene="atan2", size=256, mask="disc",
            alpha=(0.5, 0.5, 0.5, 0.5), beta=(0.25, 0.25), gamma=0.25,
            kind="noiseless", sweeps=100, record_every=100,
            rmse_ceiling=0.037, via_cli=False, render_hue=False,
        ),
        # Noisy model through the CLI chain: every stencil kept, the data
        # prox runs, the energy is recorded every sweep, and file I/O and
        # process start-up are on the measured path.
        Workload(
            name="noisy-cli-256", scene="ramp", size=256, mask="random",
            alpha=(0.5, 0.5, 0.5, 0.5), beta=(1.5, 1.5), gamma=1.5,
            kind="noisy", sweeps=100, record_every=1,
            rmse_ceiling=0.047, via_cli=True, render_hue=True,
        ),
    )
}


def phase_offset(seed: int) -> float:
    """Global phase shift of the fixed scenes; the model is invariant to it."""
    return float(np.random.default_rng(seed).uniform(-math.pi, math.pi))


def scene(w: Workload, seed: int):
    """Ground-truth image and known-pixel mask; only a random mask uses ``seed``."""
    n = w.size
    if w.scene == "atan2":
        truth = pt.gen_atan2(n)
    else:
        truth = pt.gen_wrapped_ramp((n, n), w.ramp_slope)
    if w.mask == "subsample3":
        known = pt.mask_subsample3((n, n))
    elif w.mask == "disc":
        known = pt.mask_disc((n, n), w.disc_radius)
    else:
        known = pt.mask_random((n, n), LOST_FRACTION, seed)
    return truth, known


def seeded_inputs(w: Workload, truth, known, seed: int):
    """Observed image ``f`` and reference for a scene at ``seed``.

    Fixed scenes get the seeded global offset; the noisy workload gets
    seeded wrapped Gaussian noise (its mask is seeded where it is drawn).
    Unknown pixels of ``f`` carry 0, so no hidden data reaches the solver.
    """
    if w.noiseless:
        truth = pt.wrap(truth + phase_offset(seed))
        observed = truth
    else:
        observed = pt.add_wrapped_gaussian_noise(truth, NOISE_SIGMA, seed)
    return np.where(known, observed, 0.0), truth


def rmse(w: Workload, x, truth, known) -> float:
    """Cyclic RMSE: unknown pixels in noiseless mode, all pixels in noisy mode."""
    if w.noiseless:
        d = pt.dist(x[~known], truth[~known])
    else:
        d = pt.dist(x, truth)
    return float(np.sqrt(np.mean(d**2)))


def check_output(w: Workload, x, f, known, truth, energy_first, energy_last):
    """Correctness gate of one operation; returns (metrics, failures)."""
    failures = []
    if not (np.all(np.isfinite(x)) and np.all(x >= -math.pi) and np.all(x < math.pi)):
        failures.append("output not finite or outside [-pi, pi)")
    if w.noiseless and not np.array_equal(
        x[known].view(np.uint64), f[known].view(np.uint64)
    ):
        failures.append("known pixels differ from the data")
    if not energy_last <= energy_first:
        failures.append(f"final energy {energy_last!r} above first {energy_first!r}")
    err = rmse(w, x, truth, known)
    if not err <= w.rmse_ceiling:
        failures.append(f"rmse {err!r} above ceiling {w.rmse_ceiling}")
    return {"rmse": err, "final_energy": float(energy_last)}, failures
