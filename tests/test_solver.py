import dataclasses
import time
from itertools import groupby

import numpy as np
import pytest

from phasetv import (
    NumericalError,
    SolverConfig,
    Weights,
    cyclic_error,
    dist,
    energy,
    energy_from_groups,
    enumerate_stencils,
    gen_wrapped_ramp,
    initialize,
    lambda_schedule,
    mask_band,
    mask_disc,
    mask_random,
    mask_subsample3,
    prox_data,
    run_cppa,
    wrap,
)
import phasetv.solver as solver_mod
from phasetv.model import stencil_groups
from phasetv.prox import shrink_columns

from cyclic_oracle import gather, scatter


def test_lambda_schedule_values():
    lam0 = np.pi / 2
    assert lambda_schedule(0, lam0) == pytest.approx(np.pi / 2)
    assert lambda_schedule(1, lam0) == pytest.approx(np.pi / 4)
    assert lambda_schedule(2, lam0) == pytest.approx(np.pi / 6)
    assert lambda_schedule(np.int64(3), 2) == 0.5
    with pytest.raises(ValueError, match=r"^k must be an integer in \[0, .*, got -1$"):
        lambda_schedule(-1, lam0)
    for bad in (True, 1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="^k must be an integer"):
            lambda_schedule(bad, 1.0)
    for bad in ("a", None, True, 1j):
        with pytest.raises(ValueError, match="^lambda0 must be a real number"):
            lambda_schedule(0, bad)
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf, np.nextafter(1e300, np.inf)):
        with pytest.raises(ValueError, match=r"^lambda0 must be a real number in \(0, 1e\+300\], got"):
            lambda_schedule(0, bad)
    assert lambda_schedule(0, 1e300) == 1e300


def test_lambda_schedule_sum_conditions():
    lam0 = np.pi / 2
    k = np.arange(1_000_000)
    lams = lam0 / (k + 1.0)
    assert np.sum(lams) >= lam0 * np.log(len(k) + 1)
    assert np.sum(lams**2) <= lam0**2 * np.pi**2 / 6


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lambda0=0.0)
    for bad in ("1.5", None, True, False, 1 + 0j):
        with pytest.raises(ValueError, match="lambda0 must be a real number"):
            SolverConfig(lambda0=bad)
    for bad in (-1.0, np.inf, np.nan, 1e301):
        with pytest.raises(ValueError, match=r"^lambda0 must be a real number in \(0, 1e\+300\]"):
            SolverConfig(lambda0=bad)
    for good in (2, np.float32(0.5), np.int64(3), 1e300):
        config = SolverConfig(lambda0=good)
        assert type(config.lambda0) is float and config.lambda0 == good
    with pytest.raises(ValueError):
        SolverConfig(max_sweeps=0)
    with pytest.raises(ValueError):
        SolverConfig(record_energy_every=0)
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="max_sweeps must be an integer"):
            SolverConfig(max_sweeps=bad)
    for bad in (1.5, 1.0, False, "2"):
        with pytest.raises(ValueError, match="record_energy_every must be an integer"):
            SolverConfig(record_energy_every=bad)
    config = SolverConfig(max_sweeps=np.int64(4), record_energy_every=np.int32(2))
    assert type(config.max_sweeps) is int and config.max_sweeps == 4
    assert type(config.record_energy_every) is int and config.record_energy_every == 2


def test_everything_known_is_identity():
    rng = np.random.default_rng(30)
    f = rng.uniform(-np.pi, np.pi, (6, 6))
    known = np.ones((6, 6), bool)
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    rep = run_cppa(f, f, known, w, "noiseless", SolverConfig(max_sweeps=5))
    assert np.array_equal(rep.image, f)


def test_single_unknown_between_two_values():
    # Minimizers of |x| + |1 - x| fill the whole interval [0, 1]; the
    # iteration must land inside it and reach the optimal energy.
    f = np.array([[0.0, 0.0, 1.0]])
    known = np.array([[True, False, True]])
    w = Weights(alpha=(1, 0, 0, 0), beta=(0, 0), gamma=0.0)
    x0 = initialize(f, known, w)
    rep = run_cppa(x0, f, known, w, "noiseless", SolverConfig(max_sweeps=3000))
    center = rep.image[0, 1]
    assert -1e-3 <= center <= 1.0 + 1e-3
    final = energy(rep.image, f, known, w, "noiseless")
    assert final <= 1.0 + 1e-9


def test_ramp_reconstruction_small():
    ramp = gen_wrapped_ramp((24, 32), 4 * np.pi / 31, "horizontal")
    known = mask_band((24, 32), start=13, width=6)
    w = Weights(alpha=(0, 0, 0, 0), beta=(1, 1), gamma=1.0)
    f = np.where(known, ramp, 0.0)
    x0 = initialize(f, known, w)
    rep = run_cppa(x0, f, known, w, "noiseless", SolverConfig(max_sweeps=300))
    _, max_err = cyclic_error(rep.image, ramp)
    assert max_err <= 1e-2


def test_constraint_pixels_bit_exact():
    rng = np.random.default_rng(31)
    u = rng.uniform(-np.pi, np.pi, (10, 10))
    known = rng.random((10, 10)) < 0.6
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    first_known, second_known = (tuple(p) for p in np.argwhere(known)[:2])
    # The per-sweep wrap must keep the angle one ulp below pi, small angles
    # and -0.0 bit for bit, which array_equal alone would not see for -0.0.
    for k in (0, 3, 6, 12, 300):
        f = u * 10.0**-k
        f[first_known] = -0.0
        f[second_known] = np.nextafter(np.pi, 0.0)
        x0 = initialize(f, known, w)
        rep = run_cppa(x0, f, known, w, "noiseless", SolverConfig(max_sweeps=20))
        assert np.array_equal(rep.image[known].view(np.uint64), f[known].view(np.uint64)), k


def test_known_pixels_keep_f_bits_outside_the_crop():
    # Only pixel (3, 1) is unknown, so the run steps on rows 0-5 and cols
    # 0-3 only.  x0 equals f there up to the sign of zero, which the
    # noiseless precondition accepts; the result must still carry f's bits.
    f = np.random.default_rng(32).uniform(-np.pi, np.pi, (6, 6))
    f[0, 0] = f[5, 5] = -0.0
    f[3, 4] = np.nextafter(np.pi, 0.0)
    known = np.ones((6, 6), bool)
    known[3, 1] = False
    x0 = np.where(known, f, 0.5)
    x0[0, 0] = x0[5, 5] = 0.0
    w = Weights(alpha=(1, 1, 0, 0), beta=(1, 1), gamma=1.0)
    for sweeps in (1, 5):
        rep = run_cppa(x0, f, known, w, "noiseless", SolverConfig(max_sweeps=sweeps))
        assert np.array_equal(rep.image[known].view(np.uint64), f[known].view(np.uint64))


def test_precondition_checked():
    f = np.zeros((3, 3))
    x0 = f.copy()
    x0[1, 1] = 0.2
    known = np.ones((3, 3), bool)
    w = Weights(alpha=(1, 1, 0, 0), beta=(0, 0), gamma=0.0)
    with pytest.raises(ValueError):
        run_cppa(x0, f, known, w, "noiseless", SolverConfig(max_sweeps=1))


def test_non_finite_start_raises_value_error_naming_x0():
    # The start is checked on every pixel, so a NaN or inf never reaches
    # the sweep.  In the 3 x 1 case no stencil holds the unknown middle
    # pixel, so no later check could see it.
    w = Weights(alpha=(1, 1, 0, 0), beta=(0, 0), gamma=0.0)
    f = np.zeros((2, 2))
    known = np.array([[True, True], [True, False]])
    x0 = f.copy()
    x0[1, 1] = np.inf
    column = np.zeros((3, 1))
    middle = np.array([[True], [False], [True]])
    start = column.copy()
    start[1, 0] = np.nan
    cases = ((x0, f, known, w, r"inf .* at pixel \(1, 1\)"),
             (start, column, middle, Weights(alpha=(1, 0, 0, 0)), r"nan .* at pixel \(1, 0\)"))
    for x0, f, known, weights, where in cases:
        for kind in ("noiseless", "noisy"):
            with pytest.raises(ValueError, match=rf"^x0 value {where}$"):
                run_cppa(x0, f, known, weights, kind, SolverConfig(max_sweeps=3))


def test_energy_overflow_raises_numerical_error():
    # Finite input keeps the sweep finite, but a weight near the largest
    # float makes the weighted sum of the energy overflow.
    f = np.array([[0.0, 3.0, -3.0]])
    known = np.array([[True, False, True]])
    x0 = np.where(known, f, 0.0)
    w = Weights(alpha=(1e308, 1, 0, 0))
    for kind in ("noiseless", "noisy"):
        with pytest.raises(NumericalError, match="^energy became non-finite at sweep 0$"):
            run_cppa(x0, f, known, w, kind, SolverConfig(max_sweeps=3))


def test_determinism():
    rng = np.random.default_rng(32)
    f = rng.uniform(-np.pi, np.pi, (12, 12))
    known = rng.random((12, 12)) < 0.7
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    x0 = initialize(f, known, w)
    cfg = SolverConfig(max_sweeps=15)
    a = run_cppa(x0, f, known, w, "noiseless", cfg)
    b = run_cppa(x0, f, known, w, "noiseless", cfg)
    assert np.array_equal(a.image, b.image)
    assert a.energy_trace == b.energy_trace


def test_energy_trace_recording():
    rng = np.random.default_rng(34)
    f = rng.uniform(-np.pi, np.pi, (8, 8))
    known = rng.random((8, 8)) < 0.7
    w = Weights(alpha=(1, 1, 0, 0), beta=(0, 0), gamma=0.0)
    x0 = initialize(f, known, w)
    rep = run_cppa(x0, f, known, w, "noiseless", SolverConfig(max_sweeps=25, record_energy_every=10))
    sweeps = [s for s, _ in rep.energy_trace]
    assert sweeps == [0, 10, 20, 25]
    values = np.array([e for _, e in rep.energy_trace])
    assert np.all(np.isfinite(values)) and np.all(values >= 0)
    assert rep.wall_time >= 0


def test_wall_time_covers_the_setup(monkeypatch):
    # The clock starts at the top of run_cppa: a slow stencil_groups, part
    # of the setup, shows in wall_time.  The call count shows that the run
    # looks the name up in solver, where the patch sits.
    calls = []

    def slow_groups(*args):
        calls.append(args)
        time.sleep(0.2)
        return stencil_groups(*args)

    f = gen_wrapped_ramp((8, 8), 0.3)
    known = mask_band((8, 8), start=3, width=2)
    w = Weights(alpha=(1, 1, 0, 0))
    monkeypatch.setattr(solver_mod, "stencil_groups", slow_groups)
    rep = run_cppa(f, f, known, w, "noiseless", SolverConfig(max_sweeps=1))
    assert len(calls) == 1
    assert rep.wall_time >= 0.2


def test_noisy_mode_moves_known_pixels():
    rng = np.random.default_rng(35)
    clean = np.full((8, 8), 0.3)
    f = clean + rng.normal(0, 0.2, (8, 8))
    known = np.ones((8, 8), bool)
    known[4, 4] = False
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    x0 = initialize(f, known, w)
    rep = run_cppa(x0, f, known, w, "noisy", SolverConfig(max_sweeps=200))
    assert not np.array_equal(rep.image[known], f[known])
    mse_before, _ = cyclic_error(np.where(known, f, x0), clean)
    mse_after, _ = cyclic_error(rep.image, clean)
    assert mse_after < mse_before


@pytest.mark.parametrize("kind", ["noiseless", "noisy"])
def test_recorded_energy_equals_public_energy(kind):
    rng = np.random.default_rng(36)
    f = rng.uniform(-np.pi, np.pi, (13, 11))
    known = rng.random((13, 11)) < 0.6
    w = Weights(alpha=(1, 0.5, 1, 0.25), beta=(1, 2), gamma=0.75)
    x0 = initialize(f, known, w)
    rep = run_cppa(x0, f, known, w, kind, SolverConfig(max_sweeps=7, record_energy_every=3))
    assert rep.energy_trace[0][1] == energy(x0, f, known, w, kind)
    assert rep.energy_trace[-1][1] == energy(rep.image, f, known, w, kind)
    groups = enumerate_stencils(f.shape, known, w, kind)
    for x in (x0, rep.image):
        assert energy_from_groups(x, f, groups) == energy(x, f, known, w, kind)


def test_out_of_range_data_rejected_naming_the_pixel():
    img = gen_wrapped_ramp((12, 12), 0.4, "horizontal")
    known = np.zeros((12, 12), bool)
    known[::3, ::3] = True
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    f = np.where(known, img, 0.0)
    x0 = initialize(f, known, w)
    scaled = 10.0 * f
    first_bad = tuple(int(i) for i in np.argwhere(known & (np.abs(scaled) >= np.pi))[0])
    with pytest.raises(ValueError, match=r"^f value .* at pixel \(%d, %d\)" % first_bad):
        run_cppa(10.0 * x0, scaled, known, w, "noiseless", SolverConfig(max_sweeps=1))
    with pytest.raises(ValueError, match=r"^f value"):
        initialize(scaled, known, w)


def test_nan_data_reported_as_bad_f():
    f = np.zeros((4, 4))
    known = np.ones((4, 4), bool)
    known[1, 1] = False
    f[2, 3] = np.nan
    w = Weights(alpha=(1, 1, 0, 0), beta=(0, 0), gamma=0.0)
    for kind in ("noiseless", "noisy"):
        with pytest.raises(ValueError, match=r"^f value nan .* at pixel \(2, 3\)"):
            run_cppa(f, f, known, w, kind, SolverConfig(max_sweeps=1))
    with pytest.raises(ValueError, match=r"^f value nan .* at pixel \(2, 3\)"):
        initialize(f, known, w)


def test_x0_out_of_range_rejected_and_unknown_data_ignored():
    f = np.zeros((3, 3))
    known = np.ones((3, 3), bool)
    known[1, 1] = False
    w = Weights(alpha=(1, 1, 0, 0), beta=(0, 0), gamma=0.0)
    x0 = f.copy()
    x0[1, 1] = 4.0
    with pytest.raises(ValueError, match=r"^x0 value 4\.0 .* at pixel \(1, 1\)"):
        run_cppa(x0, f, known, w, "noiseless", SolverConfig(max_sweeps=1))
    # f is never read on unknown pixels, so any value there is accepted.
    f[1, 1] = np.nan
    x0 = initialize(f, known, w)
    rep = run_cppa(x0, f, known, w, "noiseless", SolverConfig(max_sweeps=2))
    assert np.all(np.isfinite(rep.image))


def _index_groups(calls):
    """A stand-in for ``stencil_groups`` that returns every group in index
    form, stencils in their enumeration order."""

    def groups(shape, mask, weights, kind):
        calls.append(kind)
        return [dataclasses.replace(g, index=g.flat_index()[0], keep=None)
                for g in stencil_groups(shape, mask, weights, kind)]

    return groups


def _bits(report):
    energies = np.array([e for _, e in report.energy_trace])
    return report.image.view(np.uint64), [s for s, _ in report.energy_trace], energies.view(np.uint64)


def _random_weights(rng, active=None):
    """Weights with the families flagged in ``active`` (7 characters of
    0/1), or at least one random family, on at random strengths."""
    if active is None:
        on = rng.random(7) < 0.5
        on[rng.integers(7)] = True
    else:
        on = np.array([c == "1" for c in active])
    w7 = np.where(on, rng.uniform(0.1, 2.0, 7), 0.0)
    return Weights(alpha=tuple(w7[:4]), beta=tuple(w7[4:6]), gamma=w7[6])


def test_lattice_form_matches_index_form(monkeypatch):
    # Runs of whole and dense lattice groups of one stride step on flat
    # phase buffers; the index form steps on the image itself.
    rng = np.random.default_rng(38)
    cases = []
    shapes = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (2, 2), (1, 13), (13, 1), (13, 13)]
    shapes += [(int(rng.integers(1, 14)), int(rng.integers(1, 14))) for _ in range(40)]
    for i, shape in enumerate(shapes):
        f = rng.uniform(-np.pi, np.pi, shape)
        # Every fifth case knows every pixel or none; the rest a random share.
        if i % 5 == 0:
            known = np.full(shape, bool(rng.integers(0, 2)))
        else:
            known = rng.random(shape) < rng.uniform(0.1, 0.9)
        w = _random_weights(rng)
        x0 = initialize(f, known, w)
        cases += [(x0, f, known, w, kind) for kind in ("noiseless", "noisy")]
    # Every residue of rows and cols mod 6, the lcm of the strides, with the
    # families of the (2, 1) run (vertical, diagonal and anti-diagonal first
    # differences) dropped in turn.
    shapes = [(r, c) for r in range(6, 12) for c in range(6, 12)] + [(1, 9), (9, 1), (3, 3)]
    families = ["1111111", "1011111", "1101111", "1110111", "1010111", "0001011", "0100001"]
    for i, shape in enumerate(shapes):
        f = rng.uniform(-np.pi, np.pi, shape)
        x0 = rng.uniform(-np.pi, np.pi, shape)
        problems = [("noiseless", mask_subsample3(shape)), ("noiseless", np.zeros(shape, bool)),
                    ("noisy", rng.random(shape) < 0.7), ("noiseless", rng.random(shape) < 0.2)]
        for active in families[i % 7], families[(i + 3) % 7]:
            w = _random_weights(rng, active)
            cases += [(np.where(known, f, x0), f, known, w, kind) for kind, known in problems]
    # Noiseless holes whose groups take the dense form on the hole's crop:
    # holes and off-centre discs against every edge and corner, holes whose
    # first unknown row or col is 0-5 (so the crop's origin is rounded down
    # to 0 or 6), two far-apart holes whose joint crop is sparse, and random
    # loss on both sides of the density threshold.
    for i, shape in enumerate([(20, 22), (23, 19), (27, 27), (18, 31)]):
        n_rows, n_cols = shape
        holes = [(rows, cols) for rows in (slice(0, 9), slice(6, n_rows - 5), slice(n_rows - 9, None))
                 for cols in (slice(0, 10), slice(7, n_cols - 6), slice(n_cols - 10, None))]
        holes += [(slice(s, s + 11), slice(t, t + 11)) for s, t in zip(range(6), (5, 0, 3, 1, 4, 2))]
        holes += [(slice(r, r + 1), slice(0, n_cols)) for r in (0, 4, n_rows - 1)]
        holes += [(slice(0, n_rows), slice(c, c + 2)) for c in (3, n_cols - 2)]
        masks = []
        for rows, cols in holes:
            known = np.ones(shape, bool)
            known[rows, cols] = False
            masks.append(known)
        rr, cc = np.ogrid[:n_rows, :n_cols]
        for cy, cx in ((0, 0), (n_rows - 3, 2), (4, n_cols - 1), (n_rows - 1, n_cols - 5),
                       (n_rows // 2 + 1, 5)):
            masks.append((rr - cy) ** 2 + (cc - cx) ** 2 > float(rng.uniform(20, 60)))
        known = np.ones(shape, bool)
        known[1:3, 2:4] = known[-3:-1, -4:-2] = False
        masks.append(known)
        masks += [rng.random(shape) >= p for p in (0.2, 0.35, 0.5, 0.7)]
        for j, known in enumerate(masks):
            f = rng.uniform(-np.pi, np.pi, shape)
            w = _random_weights(rng, families[(i + j) % 7] if j % 2 else "1111111")
            cases.append((np.where(known, f, rng.uniform(-np.pi, np.pi, shape)), f, known, w,
                          "noiseless"))
    seen = dict.fromkeys(("empty", "lattice", "dense", "index", "row ends", "long run",
                          "split run"), 0)
    calls = []
    cfg = SolverConfig(max_sweeps=3)
    for x0, f, known, w, kind in cases:
        # The groups the solver steps: those of the crop.
        crop = known[solver_mod._box(known, kind == "noiseless")]
        groups = stencil_groups(crop.shape, crop, w, kind)
        seen["empty"] += sum(len(g) == 0 for g in groups)
        seen["lattice"] += sum(g.index is None and g.keep is None for g in groups)
        seen["dense"] += sum(g.index is None and g.keep is not None for g in groups)
        seen["index"] += sum(g.index is not None for g in groups)
        live = [g for g in groups if len(g)]
        runs = [(s, list(run)) for s, run in groupby(live, solver_mod._stride)]
        strides = [s for s, _ in runs]
        seen["split run"] += any(a and a == c and b is None
                                 for a, b, c in zip(strides, strides[1:], strides[2:]))
        for stride, run in runs:
            seen["long run"] += stride is not None and len(run) > 1
            for g in run if stride else ():
                nr, nc = g.shape
                seen["row ends"] += nr > 1 and nc < solver_mod._phase_shape(crop.shape, stride)[1]
        lattice = run_cppa(x0, f, known, w, kind, cfg)
        with monkeypatch.context() as m:
            m.setattr(solver_mod, "stencil_groups", _index_groups(calls))
            index = run_cppa(x0, f, known, w, kind, cfg)
        for a, b in zip(_bits(lattice), _bits(index)):
            assert np.array_equal(a, b), (f.shape, kind)
    assert len(calls) == len(cases)
    assert all(count > 0 for count in seen.values()), seen


def test_run_on_the_crop_matches_the_run_on_the_whole_image(monkeypatch):
    # The noiseless run solves on the hole's crop.  Its margin of 2 must
    # hold every stencil that touches an unknown pixel, and its origin,
    # rounded down to a multiple of 6, must keep each residue class's label
    # and so the cycle order: then the image and the energy trace are those
    # of the run on the whole image, bit for bit.
    rng = np.random.default_rng(39)
    cases = []
    for shape in ((23, 26), (30, 19), (17, 33)):
        n_rows, n_cols = shape
        # Holes against every edge and corner (those at the far edges clamp
        # the crop there), holes whose first unknown row and col are 0-7,
        # two far-apart holes and random loss.
        holes = [[(rows, cols)] for rows in (slice(0, 4), slice(9, 13), slice(n_rows - 4, None))
                 for cols in (slice(0, 5), slice(10, 14), slice(n_cols - 5, None))]
        holes += [[(slice(s, s + 4), slice(t, t + 3))] for s, t in zip(range(8), (3, 7, 0, 5, 2, 6, 1, 4))]
        holes.append([(slice(1, 3), slice(2, 4)), (slice(-3, -1), slice(-4, -2))])
        masks = []
        for hole in holes:
            known = np.ones(shape, bool)
            for rows, cols in hole:
                known[rows, cols] = False
            masks.append(known)
        masks += [rng.random(shape) >= p for p in (0.05, 0.3)]
        for j, known in enumerate(masks):
            f = rng.uniform(-np.pi, np.pi, shape)
            w = _random_weights(rng, None if j % 2 else "1111111")
            cases.append((np.where(known, f, rng.uniform(-np.pi, np.pi, shape)), f, known, w))
    cfg = SolverConfig(max_sweeps=3)
    crops = 0
    boxed = []

    def whole_image(known, noiseless):
        boxed.append(noiseless)
        return np.s_[:, :]

    for x0, f, known, w in cases:
        box = solver_mod._box(known, True)
        crops += f[box].shape != f.shape
        cropped = run_cppa(x0, f, known, w, "noiseless", cfg)
        with monkeypatch.context() as m:
            m.setattr(solver_mod, "_box", whole_image)
            whole = run_cppa(x0, f, known, w, "noiseless", cfg)
        for a, b in zip(_bits(cropped), _bits(whole)):
            assert np.array_equal(a, b), (f.shape, box)
    assert crops > len(cases) // 2
    # Every patched run took its crop from the patch.
    assert boxed == [True] * len(cases)


def test_model_kind_and_mask_rejected():
    f = np.zeros((3, 4))
    known = np.ones((3, 4), bool)
    known[1, 1] = False
    w = Weights(alpha=(1, 1, 0, 0), beta=(0, 0), gamma=0.0)
    cfg = SolverConfig(max_sweeps=1)
    with pytest.raises(ValueError, match="model_kind"):
        run_cppa(f, f, known, w, "fancy", cfg)
    for bad in (known.astype(np.uint8), known[:, :3], known[None]):
        with pytest.raises(ValueError, match="mask"):
            run_cppa(f, f, bad, w, "noiseless", cfg)


def test_image_arguments_must_be_real_2d_images():
    # A complex image must not lose its imaginary part silently, and a
    # 3-D one is named as such, not as a shape mismatch with itself.
    f = np.zeros((3, 4))
    known = np.ones((3, 4), bool)
    known[1, 1] = False
    w = Weights(alpha=(1, 1, 0, 0), beta=(0, 0), gamma=0.0)
    z, e = f + 0j, np.zeros((0, 5))
    rule = "must be a non-empty real 2-D image, got"
    for x, g, bad, got in ((z, f, "x", "complex128"), (f, z, "f", "complex128"),
                           (f[None], f[None], "x", r"float64 of shape \(1, 3, 4\)"),
                           (e, e, "x", r"float64 of shape \(0, 5\)")):
        for kind in ("noiseless", "noisy"):
            with pytest.raises(ValueError, match=rf"^{bad} {rule} {got}"):
                energy(x, g, known, w, kind)
            start = "x0" if bad == "x" else bad
            with pytest.raises(ValueError, match=rf"^{start} {rule} {got}"):
                run_cppa(x, g, known, w, kind, SolverConfig(max_sweeps=1))
    with pytest.raises(ValueError, match="^f must be a non-empty real 2-D image, got complex"):
        initialize(z, known, w)


def test_weights_and_config_of_another_type_rejected():
    f = np.zeros((4, 5))
    known = np.ones((4, 5), bool)
    known[2, 2] = False
    w = Weights(alpha=(1, 1, 0, 0), beta=(0, 0), gamma=0.0)
    for bad in ((1, 1, 1, 1), {"gamma": 1.0}, None, dataclasses.asdict(w)):
        message = "^weights must be a Weights, got "
        with pytest.raises(ValueError, match=message):
            initialize(f, known, bad)
        with pytest.raises(ValueError, match=message):
            stencil_groups(f.shape, known, bad, "noiseless")
        for kind in ("noiseless", "noisy"):
            with pytest.raises(ValueError, match=message):
                energy(f, f, known, bad, kind)
            with pytest.raises(ValueError, match=message):
                run_cppa(f, f, known, bad, kind, SolverConfig(max_sweeps=1))
    for bad in ({"max_sweeps": 1}, (np.pi / 2, 1, 1), 5, w):
        with pytest.raises(ValueError, match="^config must be a SolverConfig, got "):
            run_cppa(f, f, known, w, "noiseless", bad)


def _wrapped_reference(x0, f, known, weights, kind, cfg):
    """The sweep with every column wrapped right after its shrink, in index
    form, with the whole constraint set projected after each group."""
    x2d = np.array(x0, order="C")
    x = x2d.reshape(-1)
    f_known = f[known]
    for k in range(cfg.max_sweeps):
        lam = lambda_schedule(k, cfg.lambda0)
        for g in stencil_groups(x2d.shape, known, weights, kind):
            if len(g) == 0:
                continue
            vals = gather(x2d, g)
            if g.filt is None:
                vals = [prox_data(vals[0], gather(f, g)[0], 2.0 * lam)]
            else:
                shrink_columns(vals, lam * g.weight, g.filt)
            for c, v in zip(g.flat_index(), vals):
                x[c] = wrap(v)
            if kind == "noiseless":
                x2d[known] = f_known
    return x2d


def test_lifted_sweep_matches_wrapped_reference():
    rng = np.random.default_rng(39)
    for i in range(30):
        shape = (int(rng.integers(1, 16)), int(rng.integers(1, 16)))
        if i % 3 == 1:
            # Rough data and lambda0 = 50: every step takes its
            # |theta| / |taps|^2 cap, the largest move, so the iterate
            # strays furthest from [-pi, pi) between wraps.
            f = rng.uniform(-np.pi, np.pi, shape)
            w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
            cfg = SolverConfig(lambda0=50.0, max_sweeps=6)
        else:
            # Angles at several scales: wrapping a small angle drops its
            # low bits, which the known-pixel check must be able to see.
            f = rng.uniform(-1.0, 1.0, shape) * rng.choice([0.01, 1.0, 3.1], shape)
            active = rng.random(7) < 0.5
            active[rng.integers(7)] = True
            w7 = np.where(active, rng.uniform(0.1, 2.0, 7), 0.0)
            w = Weights(alpha=tuple(w7[:4]), beta=tuple(w7[4:6]), gamma=w7[6])
            cfg = SolverConfig(lambda0=float(rng.uniform(0.2, 3.0)), max_sweeps=6)
        if i % 5 == 0:
            known = np.full(shape, bool(rng.integers(0, 2)))
        else:
            known = rng.random(shape) < rng.uniform(0.1, 0.9)
        x0 = np.where(known, f, rng.uniform(-np.pi, np.pi, shape))
        for kind in ("noiseless", "noisy"):
            got = run_cppa(x0, f, known, w, kind, cfg).image
            want = _wrapped_reference(x0, f, known, w, kind, cfg)
            assert np.all((got >= -np.pi) & (got < np.pi)), (i, kind)
            assert np.max(dist(got, want)) <= 1e-12, (i, kind)
            if kind == "noiseless":
                assert np.array_equal(got[known].view(np.uint64), f[known].view(np.uint64))


def _noisy_reference(x0, f, known, weights, cfg):
    """Noisy ``run_cppa`` from the public per-group kernels: each group
    gathered, shrunk by ``shrink_columns`` or moved by ``prox_data`` and
    scattered back, the whole image wrapped once per sweep before the data
    term.  Returns the image and the energy after every sweep."""
    groups = stencil_groups(f.shape, known, weights, "noisy")
    x = np.array(x0, order="C")
    trace = [energy_from_groups(x, f, groups)]
    for k in range(cfg.max_sweeps):
        lam = lambda_schedule(k, cfg.lambda0)
        for g in groups[:-1]:
            if len(g):
                vals = gather(x, g)
                shrink_columns(vals, lam * g.weight, g.filt)
                scatter(x, g, vals)
        x[...] = wrap(x)
        data = groups[-1]
        if len(data):
            scatter(x, data, [prox_data(gather(x, data)[0], gather(f, data)[0], 2.0 * lam)])
        trace.append(energy_from_groups(x, f, groups))
    return x, trace


def test_noisy_sweep_matches_public_kernels_bitwise():
    rng = np.random.default_rng(42)
    for i in range(30):
        shape = (int(rng.integers(1, 16)), int(rng.integers(1, 16)))
        f = rng.uniform(-np.pi, np.pi, shape)
        if i % 5 == 0:
            known = np.full(shape, bool(rng.integers(0, 2)))
        else:
            known = rng.random(shape) < rng.uniform(0.1, 0.9)
        active = rng.random(7) < 0.5
        active[rng.integers(7)] = True
        w7 = np.where(active, rng.uniform(0.1, 2.0, 7), 0.0)
        w = Weights(alpha=tuple(w7[:4]), beta=tuple(w7[4:6]), gamma=w7[6])
        cfg = SolverConfig(lambda0=float(rng.uniform(0.2, 50.0)), max_sweeps=6)
        x0 = np.where(known, f, rng.uniform(-np.pi, np.pi, shape))
        rep = run_cppa(x0, f, known, w, "noisy", cfg)
        want, trace = _noisy_reference(x0, f, known, w, cfg)
        assert np.array_equal(rep.image.view(np.uint64), want.view(np.uint64)), i
        assert [e for _, e in rep.energy_trace] == trace, i


def test_global_phase_shift_commutes_with_restoration():
    # x0 is drawn, not initialized: the initializer's middle-pixel tie
    # can pick the other side of the circle once the data is shifted.
    rng = np.random.default_rng(40)
    for i in range(30):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        f = rng.uniform(-np.pi, np.pi, shape)
        known = rng.random(shape) < rng.uniform(0.1, 0.9)
        x0 = np.where(known, f, rng.uniform(-np.pi, np.pi, shape))
        active = rng.random(7) < 0.5
        active[rng.integers(7)] = True
        w7 = np.where(active, rng.uniform(0.1, 2.0, 7), 0.0)
        w = Weights(alpha=tuple(w7[:4]), beta=tuple(w7[4:6]), gamma=w7[6])
        cfg = SolverConfig(lambda0=float(rng.uniform(0.2, 3.0)), max_sweeps=50)
        c = float(rng.uniform(-10.0, 10.0))
        for kind in ("noiseless", "noisy"):
            rep = run_cppa(x0, f, known, w, kind, cfg)
            shifted = run_cppa(wrap(x0 + c), wrap(f + c), known, w, kind, cfg)
            assert np.max(dist(shifted.image, wrap(rep.image + c))) <= 1e-10, (i, kind)
            e, e_shifted = rep.energy_trace[-1][1], shifted.energy_trace[-1][1]
            assert abs(e_shifted - e) <= 1e-10 * max(1.0, e), (i, kind)


def _whole_image_wrap_reference(x0, f, known, weights, cfg):
    """Noiseless ``run_cppa`` with the once-per-sweep wrap and known-pixel
    restore run over the whole image, in index form; no energy trace."""
    x2d = np.array(x0, order="C")
    x = x2d.reshape(-1)
    f_flat = f.reshape(-1)
    steps = [(g, np.concatenate(g.flat_index(known)))
             for g in stencil_groups(f.shape, known, weights, "noiseless") if len(g)]
    for k in range(cfg.max_sweeps):
        lam = lambda_schedule(k, cfg.lambda0)
        for g, touched in steps:
            vals = gather(x2d, g)
            shrink_columns(vals, lam * g.weight, g.filt)
            for c, v in zip(g.flat_index(), vals):
                x[c] = v
            x[touched] = f_flat[touched]
        x2d[...] = np.where(known, f, wrap(x2d))
    return x2d


def test_wrap_on_the_crop_matches_whole_image_wrap():
    # Known pixels fill whole rows above and below the unknown ones, and
    # the run wraps only its crop.  The data sits around the seam at -pi
    # and lambda0 is large, so unwrapped group steps carry pixels of every
    # row of the crop out of [-pi, pi).
    rng = np.random.default_rng(41)
    shape = (20, 17)
    band = mask_band(shape, start=6, width=5, orientation="horizontal")
    first_row = np.ones(shape, bool)
    first_row[0, 9] = False
    last_row = np.ones(shape, bool)
    last_row[-1, 4] = False
    masks = {
        "band": band,
        "disc": mask_disc(shape, 5.0),
        "first row": first_row,
        "last row": last_row,
        "all known": np.ones(shape, bool),
        "vertical band": mask_band(shape, start=3, width=4),
    }
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    cfg = SolverConfig(lambda0=3.0, max_sweeps=8)
    for name, known in masks.items():
        for trial in range(3):
            f = wrap(np.pi + rng.normal(0.0, 0.8, shape))
            x0 = np.where(known, f, rng.uniform(-np.pi, np.pi, shape))
            got = run_cppa(x0, f, known, w, "noiseless", cfg).image
            want = _whole_image_wrap_reference(x0, f, known, w, cfg)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, trial)


def test_sweep_wraps_scattered_loss_in_blocks_of_32k_pixels(monkeypatch):
    # Two unknown pixels in opposite corners: the crop is the whole image,
    # while each group is a few stencils in index form.  The wrap's blocks
    # must not shrink to the groups' scratch: one per 32k pixels.
    n = 256
    known = np.ones((n, n), bool)
    known[1, 1] = known[-2, -2] = False
    f = np.where(known, gen_wrapped_ramp((n, n), 4 * np.pi / (n - 1)), 0.0)
    w = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(0.25, 0.25), gamma=0.25)
    x0 = initialize(f, known, w)
    calls, real = [], solver_mod._wrap_array

    def counted(block, out, tmp):
        calls.append(block.size)
        return real(block, out=out, tmp=tmp)

    monkeypatch.setattr(solver_mod, "_wrap_array", counted)
    run_cppa(x0, f, known, w, "noiseless", SolverConfig(max_sweeps=3))
    assert calls == [1 << 15] * 6


def test_group_blocks_keep_the_bits(monkeypatch):
    # Every step, the wrap and the data prox included, runs in blocks of
    # solver._BLOCK entries, its loads before the first and its stores after
    # the last.  Blocks of 7 and 61 entries cut through lattice rows and
    # row-end entries, and must give the image and the energy trace of a
    # run at the default size, bit for bit.
    rng = np.random.default_rng(41)
    all_on = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    ramp = gen_wrapped_ramp((49, 47), 0.2)
    noisy = wrap(ramp + rng.normal(0.0, 0.3, ramp.shape))
    lost = mask_random(ramp.shape, 0.2, 5)
    w = Weights(alpha=(0.5, 0.5, 0.5, 0.5), beta=(0.25, 0.25), gamma=0.25)
    cases = {
        # Padded phases with row ends: neither 2 nor 3 divides 49 or 47.
        "subsample3": (mask_subsample3(ramp.shape), ramp, all_on, "noiseless"),
        "index forms": (lost, ramp, all_on, "noiseless"),
        # The crop of this disc, rows and cols 12-51, keeps 18 dense forms.
        "dense forms": (mask_disc((64, 64), 18.0), gen_wrapped_ramp((64, 64), 0.2), w,
                        "noiseless"),
        "noisy": (lost, noisy, w, "noisy"),
    }
    cfg = SolverConfig(max_sweeps=3)
    for name, (known, truth, weights, kind) in cases.items():
        f = np.where(known, truth, 0.0)
        crop = known[solver_mod._box(known, kind == "noiseless")]
        groups = [g for g in stencil_groups(crop.shape, crop, weights, kind) if len(g)]
        form = {"index forms": "index", "dense forms": "keep"}.get(name)
        assert form is None or any(getattr(g, form) is not None for g in groups), name
        assert max(map(len, groups)) > 61, name
        x0 = initialize(f, known, weights)
        want = _bits(run_cppa(x0, f, known, weights, kind, cfg))
        for block in (7, 61):
            with monkeypatch.context() as m:
                m.setattr(solver_mod, "_BLOCK", block)
                got = _bits(run_cppa(x0, f, known, weights, kind, cfg))
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (name, block)


def _pointer(a):
    return a.__array_interface__["data"][0]


def _tiles(blocks, column):
    """Whether the blocks, each a 1-D slice, are consecutive in memory and
    hold, in order, the entries of ``column``, each once."""
    return (all(b.flags.c_contiguous for b in blocks)
            and all(_pointer(b) + b.nbytes == _pointer(c) for b, c in zip(blocks, blocks[1:]))
            and np.array_equal(np.concatenate(blocks), column))


def test_plan_cuts_every_step_by_one_block_rule(monkeypatch):
    # The plan of a sweep cuts each group's prox, the wrap and the data
    # prox into blocks of at most solver._BLOCK entries of the step's
    # columns, in the cycle's order, with the step's loads on its first
    # block and its stores on its last.  The wrap's blocks tile the crop
    # and the data prox's the data term, each exactly once.  In 49 x 47
    # neither 2 nor 3 divides the rows or the cols, so lattice columns
    # hold row ends.
    all_on = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    shape = (49, 47)
    ramp = gen_wrapped_ramp(shape, 0.2)
    noisy = wrap(ramp + np.random.default_rng(43).normal(0.0, 0.3, shape))
    cases = {
        "subsample3": (mask_subsample3(shape), ramp, "noiseless"),
        "noisy loss": (mask_random(shape, 0.2, 5), noisy, "noisy"),
        "denoising": (np.ones(shape, bool), noisy, "noisy"),
    }
    multiple = 0
    for block in (solver_mod._BLOCK, 61):
        for name, (known, truth, kind) in cases.items():
            f = np.where(known, truth, 0.0)
            x0 = initialize(f, known, all_on)
            if kind == "noisy":
                # Known values apart from the data, as after a sweep.
                x0 = wrap(x0 + 0.5)
            box = solver_mod._box(known, kind == "noiseless")
            x2d = np.ascontiguousarray(x0[box])
            f, known = f[box], known[box]
            groups = [g for g in stencil_groups(x2d.shape, known, all_on, kind) if len(g)]
            with monkeypatch.context() as m:
                m.setattr(solver_mod, "_BLOCK", block)
                steps, _ = solver_mod._plan(x2d, f, known, all_on, kind)
            # Each step's weight and column length, in the cycle's order.
            cycle = []
            for g in groups[:-1] if kind == "noisy" else groups:
                stride = solver_mod._stride(g)
                if stride is None:
                    cycle.append((g.weight, len(g)))
                else:
                    nr, nc = g.shape
                    cycle.append((g.weight, (nr - 1) * solver_mod._phase_shape(x2d.shape, stride)[1] + nc))
            cycle.append((0.0, x2d.size))
            if kind == "noisy":
                cycle.append((2.0, len(groups[-1])))
            cut, taken = [], 0
            for weight, length in cycle:
                blocks, total = [], 0
                while total < length:
                    blocks.append(steps[taken])
                    taken += 1
                    total += blocks[-1][1].args[0][0].size
                assert total == length, (name, block, weight)
                for w, kernel, loads, stores in blocks:
                    cols = kernel.args[0]
                    assert w == weight and 0 < cols[0].size <= block, (name, block)
                    assert all(c.shape == cols[0].shape for c in cols), (name, block)
                assert all(b[2] == () for b in blocks[1:]), (name, block, weight)
                assert all(b[3] == () for b in blocks[:-1]), (name, block, weight)
                multiple += len(blocks) > 1
                cut.append(blocks)
            assert taken == len(steps), (name, block)
            wrap_blocks = cut[len(groups) - (kind == "noisy")]
            assert wrap_blocks[0][2] == wrap_blocks[-1][3] == (), (name, block)
            assert _pointer(wrap_blocks[0][1].args[0][0]) == _pointer(x2d)
            assert _tiles([b[1].args[0][0] for b in wrap_blocks], x2d.reshape(-1)), (name, block)
            if kind == "noisy":
                data, data_blocks = groups[-1], cut[-1]
                # The loads gather the values; the reference is read at binding.
                for load in data_blocks[0][2]:
                    load()
                reference, values = ([b[1].args[0][j] for b in data_blocks] for j in (0, 1))
                ids = data.flat_index()[0]
                assert _tiles(values, x2d.reshape(-1)[ids]), (name, block)
                assert _tiles(reference, f.reshape(-1)[ids]), (name, block)
    assert multiple > 0


def test_run_ignores_the_memory_layout_of_its_inputs():
    # Fortran-ordered, transposed and strided views of x0, f and the mask
    # give the bits of C-ordered copies: with every pixel known the data
    # prox steps in place on the image, with 20% loss on gathered columns,
    # and the noiseless disc steps on its crop.
    rng = np.random.default_rng(44)
    shape = (23, 19)
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    ramp = gen_wrapped_ramp(shape, 0.3)
    noisy = wrap(ramp + rng.normal(0.0, 0.3, shape))
    cases = {
        "denoising": (noisy, np.ones(shape, bool), "noisy"),
        "noisy loss": (noisy, mask_random(shape, 0.2, 1), "noisy"),
        "disc": (ramp, mask_disc(shape, 6.0), "noiseless"),
    }

    def strided(a):
        wide = np.zeros((a.shape[0], 2 * a.shape[1]), a.dtype)
        wide[:, ::2] = a
        return wide[:, ::2]

    layouts = {"fortran": np.asfortranarray, "transposed": lambda a: a.T.copy().T,
               "strided": strided}
    cfg = SolverConfig(max_sweeps=4)
    for name, (truth, known, kind) in cases.items():
        f = np.where(known, truth, 0.0)
        x0 = initialize(f, known, w)
        want = _bits(run_cppa(x0, f, known, w, kind, cfg))
        for layout, make in layouts.items():
            args = [make(a) for a in (x0, f, known)]
            assert not any(a.flags.c_contiguous for a in args), layout
            got = _bits(run_cppa(*args, w, kind, cfg))
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (name, layout)
