"""End-to-end acceptance checks for the cyclic restoration pipeline.

Every test prints a single ``criterion N: PASS/FAIL`` line with the
measured numbers (run ``pytest -s`` to see them all) and then asserts,
so a failed criterion is visible both in the log and in the pytest
summary.  The heavyweight reconstruction problems live in module scope
fixtures because the energy criterion re-inspects their traces.
"""

import dataclasses
import time

import numpy as np
import pytest

from phasetv.circle import (
    FILTERS,
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    dist,
    wrap,
)
from phasetv.initialization import initialize
from phasetv.model import Weights, enumerate_stencils, stencil_groups
from phasetv.prox import prox_data
from phasetv.solver import SolverConfig, run_cppa
from phasetv.synth import (
    add_wrapped_gaussian_noise,
    cyclic_error,
    gen_atan2,
    gen_wrapped_ramp,
    mask_band,
    mask_disc,
    mask_random,
    mask_subsample3,
)

from cyclic_oracle import (
    abs_cyclic_diff,
    oracle_cyclic_diff,
    oracle_prox_diff,
    prox_diff,
    prox_diff_objective,
)

RAMP_SLOPE = 4.0 * np.pi / 63.0


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _rmse(x, y):
    mse, _ = cyclic_error(x, y)
    return float(np.sqrt(mse))


@pytest.fixture(scope="module")
def ramp_run():
    img = gen_wrapped_ramp((64, 64), RAMP_SLOPE)
    known = mask_band((64, 64), start=27, width=10)
    f = np.where(known, img, 0.0)
    weights = Weights(alpha=(0, 0, 0, 0), beta=(1, 1), gamma=1.0)
    start = time.perf_counter()
    x0 = initialize(f, known, weights)
    report = run_cppa(
        x0, f, known, weights, "noiseless",
        SolverConfig(lambda0=np.pi / 2, max_sweeps=1000, record_energy_every=1),
    )
    elapsed = time.perf_counter() - start
    return {"img": img, "known": known, "x0": x0, "report": report,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def constant_run():
    img = np.full((64, 64), 1.234)
    known = mask_random((64, 64), 0.20, seed=5)
    f = np.where(known, img, 0.0)
    weights = Weights(alpha=(2, 2, 2, 2), beta=(0, 0), gamma=0.0)
    x0 = initialize(f, known, weights)
    report = run_cppa(
        x0, f, known, weights, "noiseless",
        SolverConfig(max_sweeps=500, record_energy_every=1),
    )
    return {"img": img, "known": known, "x0": x0, "report": report}


@pytest.fixture(scope="module")
def disc_run():
    img = gen_atan2(64)
    known = mask_disc((64, 64), 16.0)
    f = np.where(known, img, 0.0)
    combined = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(0.25, 0.25), gamma=0.25)
    x0 = initialize(f, known, combined)
    report = run_cppa(
        x0, f, known, combined, "noiseless",
        SolverConfig(max_sweeps=2000, record_energy_every=1),
    )
    first_only = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(0, 0), gamma=0.0)
    x0_first = initialize(f, known, first_only)
    report_first = run_cppa(
        x0_first, f, known, first_only, "noiseless",
        SolverConfig(max_sweeps=2000, record_energy_every=200),
    )
    return {"img": img, "known": known, "report": report,
            "report_first": report_first}


@pytest.fixture(scope="module")
def noisy_run():
    clean = gen_wrapped_ramp((64, 64), RAMP_SLOPE)
    noisy = add_wrapped_gaussian_noise(clean, 0.3, seed=7)
    known = mask_random((64, 64), 0.20, seed=11)
    f = np.where(known, noisy, 0.0)
    weights = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(1.5, 1.5), gamma=1.5)
    x0 = initialize(f, known, weights)
    report = run_cppa(
        x0, f, known, weights, "noisy",
        SolverConfig(max_sweeps=2000, record_energy_every=1),
    )
    return {"clean": clean, "known": known, "x0": x0, "report": report}


def test_criterion_01_prox_diff_matches_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    obj_gap = -np.inf
    for filt in FILTERS:
        for lam in (0.05, 0.5, 5.0):
            for _ in range(1000):
                fv = rng.uniform(-np.pi, np.pi, filt.arity)
                got = prox_diff(fv, lam, filt)
                ref = oracle_prox_diff(fv, lam, filt, grid_step=1e-3)
                worst = max(worst, float(np.max(np.abs(got - ref))))
                gap = prox_diff_objective(got, fv, lam, filt) - prox_diff_objective(
                    ref, fv, lam, filt
                )
                obj_gap = max(obj_gap, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-3 and obj_gap <= 1e-9 and elapsed < 60.0
    _report(
        1, ok,
        f"max coord diff {worst:.3e} <= 2e-3, objective gap {obj_gap:.3e} "
        f"<= 1e-9, {elapsed:.1f} s < 60 s",
    )


def test_criterion_02_prox_data_matches_grid():
    rng = np.random.default_rng(202)
    grid = np.arange(-np.pi, np.pi, 1e-4)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        g = rng.uniform(-np.pi, np.pi)
        fv = rng.uniform(-np.pi, np.pi)
        lam = rng.uniform(0.05, 5.0)
        got = prox_data(g, fv, lam)
        vals = dist(g, grid) ** 2 + lam * dist(fv, grid) ** 2
        ref = grid[int(np.argmin(vals))]
        worst = max(worst, abs(wrap(got - ref)))
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-4 and elapsed < 60.0
    _report(2, ok, f"max diff {worst:.3e} <= 2e-4, {elapsed:.1f} s < 60 s")


def test_criterion_03_difference_definitions_agree():
    rng = np.random.default_rng(303)
    worst = 0.0
    worst_shift = 0.0
    for filt in FILTERS:
        for _ in range(10_000):
            x = rng.uniform(-np.pi, np.pi, filt.arity)
            worst = max(
                worst, abs(abs_cyclic_diff(x, filt) - oracle_cyclic_diff(x, filt))
            )
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, filt.arity)
            alpha = rng.uniform(-10.0, 10.0)
            shifted = wrap(x + alpha)
            worst_shift = max(
                worst_shift,
                abs(abs_cyclic_diff(x, filt) - abs_cyclic_diff(shifted, filt)),
            )
    ok = worst <= 1e-12 and worst_shift <= 1e-12
    _report(
        3, ok,
        f"max oracle diff {worst:.3e} <= 1e-12, "
        f"max shift drift {worst_shift:.3e} <= 1e-12",
    )


def test_criterion_04_ramp_band_reconstruction(ramp_run):
    _, max_err = cyclic_error(ramp_run["report"].image, ramp_run["img"])
    elapsed = ramp_run["elapsed"]
    ok = max_err <= 1e-2 and elapsed < 30.0
    _report(4, ok, f"max cyclic error {max_err:.3e} <= 1e-2, {elapsed:.1f} s < 30 s")


def test_criterion_05_constant_reconstruction(constant_run):
    _, max_err = cyclic_error(constant_run["report"].image, constant_run["img"])
    ok = max_err <= 1e-3
    _report(5, ok, f"max cyclic error {max_err:.3e} <= 1e-3")


def test_criterion_06_atan2_disc(disc_run):
    unknown = ~disc_run["known"]
    img = disc_run["img"]
    rmse = _rmse(disc_run["report"].image[unknown], img[unknown])
    rmse_first = _rmse(disc_run["report_first"].image[unknown], img[unknown])
    ok = rmse <= 0.05 and rmse_first > rmse
    _report(
        6, ok,
        f"combined rmse {rmse:.4f} <= 0.05, first-order rmse {rmse_first:.4f} "
        f"strictly larger",
    )


def test_criterion_07_initialization_exactness(ramp_run):
    _, max_err = cyclic_error(ramp_run["x0"], ramp_run["img"])
    ok = max_err <= 1e-9
    _report(7, ok, f"init max cyclic error {max_err:.3e} <= 1e-9")


def test_criterion_08_energy_monotone_and_settled(
    ramp_run, constant_run, disc_run, noisy_run
):
    checks = []
    details = []
    for name, run in (
        ("ramp", ramp_run),
        ("constant", constant_run),
        ("disc", disc_run),
        ("noisy", noisy_run),
    ):
        trace = run["report"].energy_trace
        j_init = trace[0][1]
        j_final = trace[-1][1]
        tail = [e for _, e in trace[-10:]]
        drift = max(abs(b - a) for a, b in zip(tail, tail[1:]))
        bound = 1e-6 * (1.0 + j_init)
        checks.append(j_final <= j_init and drift < bound)
        details.append(f"{name}: J {j_init:.3g}->{j_final:.3g}, "
                       f"drift {drift:.2e} < {bound:.2e}")
    _report(8, all(checks), "; ".join(details))


def test_criterion_09_disjointness_and_determinism(monkeypatch):
    import phasetv.solver as solver_mod

    rng = np.random.default_rng(909)
    all_on = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)

    families = [
        ((0, 0), (0, 1)),
        ((0, 0), (1, 0)),
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((0, 0), (0, 1), (0, 2)),
        ((0, 0), (1, 0), (2, 0)),
        ((0, 0), (1, 0), (0, 1), (1, 1)),
    ]
    partition_ok = True
    for _ in range(50):
        shape = (int(rng.integers(1, 14)), int(rng.integers(1, 14)))
        known = rng.random(shape) < rng.uniform(0.2, 0.9)
        groups = enumerate_stencils(shape, known, all_on, "noiseless")
        seen = set()
        for g in groups:
            pixels = [tuple(map(tuple, s)) for s in g.pixels]
            flat = [p for s in pixels for p in s]
            partition_ok &= len(flat) == len(set(flat))
            for s in pixels:
                partition_ok &= s not in seen
                seen.add(s)
        expected = set()
        unknown = ~known
        for offsets in families:
            off = np.asarray(offsets)
            for r in range(shape[0] - off[:, 0].max()):
                for c in range(shape[1] - off[:, 1].max()):
                    s = tuple((r + dr, c + dc) for dr, dc in offsets)
                    if any(unknown[p] for p in s):
                        expected.add(s)
        partition_ok &= seen == expected

    img = gen_atan2(24)
    known = mask_disc((24, 24), 6.0)
    f = np.where(known, img, 0.0)
    x0 = initialize(f, known, all_on)
    cfg = SolverConfig(max_sweeps=12, record_energy_every=4)
    ref = run_cppa(x0, f, known, all_on, "noiseless", cfg)
    ref_noisy = run_cppa(x0, f, known, all_on, "noisy", cfg)

    # The solver takes its groups from stencil_groups.  The replacement
    # hands it every group in index form with the stencils permuted, so
    # the lattice path is compared against a shuffled index path.
    calls = []

    def shuffled(shape, mask, weights, kind):
        calls.append(kind)
        out = []
        for g in stencil_groups(shape, mask, weights, kind):
            perm = rng.permutation(len(g))
            index = g.flat_index()[0][perm]
            out.append(dataclasses.replace(g, index=index))
        return out

    monkeypatch.setattr(solver_mod, "stencil_groups", shuffled)
    bitwise_ok = True
    for _ in range(5):
        rep = run_cppa(x0, f, known, all_on, "noiseless", cfg)
        bitwise_ok &= np.array_equal(ref.image, rep.image)
        rep_noisy = run_cppa(x0, f, known, all_on, "noisy", cfg)
        bitwise_ok &= np.array_equal(ref_noisy.image, rep_noisy.image)
    bitwise_ok &= calls == ["noiseless", "noisy"] * 5

    ok = partition_ok and bitwise_ok
    _report(
        9, ok,
        f"partition exact on 50 instances: {partition_ok}, "
        f"bitwise identical under shuffled stencil order in index form "
        f"({len(calls)} patched calls): {bitwise_ok}",
    )


def test_criterion_10_noisy_model_denoises(noisy_run):
    clean = noisy_run["clean"]
    base = _rmse(noisy_run["x0"], clean)
    final = _rmse(noisy_run["report"].image, clean)
    reduction = 1.0 - final / base
    ok = reduction >= 0.5
    _report(
        10, ok,
        f"rmse {base:.4f} -> {final:.4f}, reduction {100 * reduction:.1f}% >= 50%",
    )


def test_criterion_11_throughput():
    img = gen_atan2(128)
    known = mask_subsample3((128, 128))
    f = np.where(known, img, 0.0)
    weights = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    x0 = initialize(f, known, weights)
    report = run_cppa(
        x0, f, known, weights, "noiseless",
        SolverConfig(max_sweeps=700, record_energy_every=100),
    )
    ok = report.wall_time <= 300.0
    _report(11, ok, f"128x128, 700 sweeps in {report.wall_time:.1f} s <= 300 s")
