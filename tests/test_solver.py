import dataclasses

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
    prox_data,
    run_cppa,
    wrap,
)
import phasetv.solver as solver_mod
from phasetv.model import gather, scatter, stencil_groups
from phasetv.prox import shrink_columns


def test_lambda_schedule_values():
    lam0 = np.pi / 2
    assert lambda_schedule(0, lam0) == pytest.approx(np.pi / 2)
    assert lambda_schedule(1, lam0) == pytest.approx(np.pi / 4)
    assert lambda_schedule(2, lam0) == pytest.approx(np.pi / 6)
    assert lambda_schedule(np.int64(3), 2) == 0.5
    with pytest.raises(ValueError, match="sweep index k must be nonnegative"):
        lambda_schedule(-1, lam0)
    for bad in (True, 1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="^k must be an integer"):
            lambda_schedule(bad, 1.0)
    for bad in ("a", None, True, 1j):
        with pytest.raises(ValueError, match="^lambda0 must be a real number"):
            lambda_schedule(0, bad)
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf, np.nextafter(1e300, np.inf)):
        with pytest.raises(ValueError, match="^lambda0 must be positive"):
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
        with pytest.raises(ValueError, match="lambda0 must be positive and at most 1e"):
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


def test_known_pixels_keep_f_bits_outside_the_row_band():
    # Only row 3 holds an unknown pixel, so the per-sweep wrap skips the
    # other rows.  x0 equals f there up to the sign of zero, which the
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
        return [dataclasses.replace(g, index=g.flat_index()[0])
                for g in stencil_groups(shape, mask, weights, kind)]

    return groups


def _bits(report):
    energies = np.array([e for _, e in report.energy_trace])
    return report.image.view(np.uint64), [s for s, _ in report.energy_trace], energies.view(np.uint64)


def test_lattice_form_matches_index_form(monkeypatch):
    rng = np.random.default_rng(38)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (2, 2), (1, 13), (13, 1), (13, 13)]
    shapes += [(int(rng.integers(1, 14)), int(rng.integers(1, 14))) for _ in range(40)]
    seen = {"empty": 0, "lattice": 0, "index": 0}
    calls = []
    cfg = SolverConfig(max_sweeps=3)
    for i, shape in enumerate(shapes):
        f = rng.uniform(-np.pi, np.pi, shape)
        # Every fifth case knows every pixel or none; the rest a random share.
        if i % 5 == 0:
            known = np.full(shape, bool(rng.integers(0, 2)))
        else:
            known = rng.random(shape) < rng.uniform(0.1, 0.9)
        active = rng.random(7) < 0.5
        active[rng.integers(7)] = True
        w7 = np.where(active, rng.uniform(0.1, 2.0, 7), 0.0)
        w = Weights(alpha=tuple(w7[:4]), beta=tuple(w7[4:6]), gamma=w7[6])
        x0 = initialize(f, known, w)
        for kind in ("noiseless", "noisy"):
            groups = stencil_groups(shape, known, w, kind)
            seen["empty"] += sum(len(g) == 0 for g in groups)
            seen["lattice"] += sum(g.index is None for g in groups)
            seen["index"] += sum(g.index is not None for g in groups)
            lattice = run_cppa(x0, f, known, w, kind, cfg)
            with monkeypatch.context() as m:
                m.setattr(solver_mod, "stencil_groups", _index_groups(calls))
                index = run_cppa(x0, f, known, w, kind, cfg)
            for a, b in zip(_bits(lattice), _bits(index)):
                assert np.array_equal(a, b), (shape, kind)
    assert len(calls) == 2 * len(shapes)
    assert all(count > 0 for count in seen.values()), seen


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


def test_row_band_wrap_matches_whole_image_wrap():
    # Known pixels fill whole rows above and below the unknown ones.  The
    # data sits around the seam at -pi and lambda0 is large, so unwrapped
    # group steps carry pixels of every band row out of [-pi, pi).
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
