"""Properties the model has by construction, checked on drawn inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from phasetv import (
    SolverConfig,
    Weights,
    dist,
    energy,
    initialize,
    mask_band,
    mask_disc,
    mask_random,
    run_cppa,
    wrap,
)
from phasetv.circle import _LAMBDA0_MAX, _wrap_array

_angles = st.floats(-np.pi, np.pi, allow_nan=False)
_canonical = st.floats(-np.pi, np.pi, exclude_max=True)
_weights = st.floats(0.0, 2.0, allow_nan=False)
_wide_weights = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@st.composite
def _masks(draw, shape):
    kind = draw(st.sampled_from(["band", "random", "disc"]))
    if kind == "band":
        orientation = draw(st.sampled_from(["vertical", "horizontal"]))
        extent = shape[1] if orientation == "vertical" else shape[0]
        start = draw(st.integers(0, extent - 1))
        return mask_band(shape, start, draw(st.integers(0, extent)), orientation)
    if kind == "random":
        return mask_random(shape, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32)))
    return mask_disc(shape, draw(st.floats(0.0, min(shape) / 2.0)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), slope=_angles, direction=st.floats(0.0, 2.0 * np.pi), offset=_angles,
       beta=st.tuples(_weights, _weights), gamma=_weights)
def test_wrapped_ramps_are_fixed_points_of_second_order_cppa(data, slope, direction, offset,
                                                             beta, gamma):
    # Second and mixed differences of a linear ramp vanish modulo 2*pi, so
    # the wrapped ramp has zero energy and every prox step leaves it be.
    shape = (data.draw(st.integers(3, 12)), data.draw(st.integers(3, 12)))
    known = data.draw(_masks(shape))
    if beta == (0.0, 0.0) and gamma == 0.0:
        gamma = 1.0
    w = Weights(alpha=(0, 0, 0, 0), beta=beta, gamma=gamma)
    rows, cols = np.indices(shape)
    ramp = wrap(offset + slope * (np.cos(direction) * cols + np.sin(direction) * rows))
    for kind in ("noiseless", "noisy"):
        rep = run_cppa(ramp, ramp, known, w, kind, SolverConfig(max_sweeps=20))
        assert np.max(dist(rep.image, ramp)) <= 1e-12, kind
        assert max(e for _, e in rep.energy_trace) <= 1e-10, kind
        assert energy(rep.image, ramp, known, w, kind) <= 1e-10, kind


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 24))
def test_first_order_rows_are_shortest_arc_interpolation(data, n):
    # On a 1 x n row, noiseless first-order inpainting fills each gap
    # between two known pixels along the shorter arc between them, at the
    # cost of their geodesic distance; an end gap copies its one known
    # neighbour at no cost.
    f = wrap(np.array(data.draw(st.lists(_angles, min_size=n, max_size=n))))[None, :]
    known = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))[None, :]
    w = Weights(alpha=(1, 0, 0, 0), beta=(0, 0), gamma=0.0)
    rep = run_cppa(initialize(f, known, w), f, known, w, "noiseless", SolverConfig(max_sweeps=30))
    row, f, idx = rep.image[0], f[0], np.flatnonzero(known[0])
    gaps = [(a, b) for a, b in zip(idx[:-1], idx[1:]) if b > a + 1]
    want = sum(dist(f[a], f[b]) for a, b in gaps)
    assert abs(rep.energy_trace[-1][1] - want) <= 1e-12
    for j in np.flatnonzero(~known[0]) if idx.size else ():
        a = idx[idx < j].max(initial=idx[0])
        b = idx[idx > j].min(initial=idx[-1])
        excess = dist(f[a], row[j]) + dist(row[j], f[b]) - dist(f[a], f[b])
        assert excess <= 1e-12, (j, a, b)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 12),
       lambda0=st.floats(0.0, exclude_min=True, allow_infinity=False),
       kind=st.sampled_from(["noiseless", "noisy"]), sweeps=st.integers(1, 5))
def test_finite_start_stays_finite_without_a_floating_point_error(data, rows, cols, lambda0,
                                                                  kind, sweeps):
    # The argument of the solver's module docstring: with the start, the
    # weights and lambda0 checked at the boundary, no operation of the
    # sweep overflows, divides by zero or makes a NaN.
    if lambda0 > _LAMBDA0_MAX:
        with pytest.raises(ValueError, match="^lambda0"):
            SolverConfig(lambda0=lambda0)
        return
    shape = (rows, cols)
    known = data.draw(_masks(shape))
    images = st.lists(_canonical, min_size=rows * cols, max_size=rows * cols)
    f, x0 = (np.reshape(data.draw(images), shape) for _ in range(2))
    if kind == "noiseless":
        x0 = np.where(known, f, x0)
    alpha = data.draw(st.tuples(_wide_weights, _wide_weights, _wide_weights, _wide_weights))
    beta = data.draw(st.tuples(_wide_weights, _wide_weights))
    gamma = data.draw(_wide_weights)
    if not any(alpha + beta + (gamma,)):
        gamma = 1.0
    w = Weights(alpha=alpha, beta=beta, gamma=gamma)
    config = SolverConfig(lambda0=lambda0, max_sweeps=sweeps)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rep = run_cppa(x0, f, known, w, kind, config)
    assert np.all((rep.image >= -np.pi) & (rep.image < np.pi))
    assert np.all(np.isfinite([e for _, e in rep.energy_trace]))


@settings(max_examples=500, deadline=None)
@given(t=_canonical)
def test_wrap_is_the_identity_on_canonical_angles(t):
    bits = np.array(t).view(np.uint64)
    assert np.array(wrap(t)).view(np.uint64) == bits
    assert _wrap_array(np.array([t])).view(np.uint64)[0] == bits


@settings(max_examples=500, deadline=None)
@given(p=_canonical, q=_canonical)
def test_dist_of_canonical_angles_is_abs_wrap_of_their_difference(p, q):
    # dist subtracts the wrapped operands, which are the operands bit for bit.
    assert np.array(dist(p, q)).view(np.uint64) == np.array(abs(wrap(q - p))).view(np.uint64)


@st.composite
def _holes(draw, shape):
    """A mask with one or two rectangular holes of up to half the image's
    side (at least 1), each of which may touch any edge."""
    known = np.ones(shape, bool)
    for _ in range(draw(st.integers(1, 2))):
        corner = [draw(st.integers(0, n - 1)) for n in shape]
        extent = [draw(st.integers(1, max(n // 2, 1))) for n in shape]
        known[tuple(slice(a, a + e) for a, e in zip(corner, extent))] = False
    return known


@st.composite
def _smooth_problems(draw, masks=_masks, side=16):
    """A mask drawn by ``masks``, weights and a wrapped ramp of up to
    ``side`` x ``side`` pixels, of slope at most 1 rad per pixel plus noise
    of at most 0.25 rad: neighbours differ by less than 2 rad, so no
    stencil's cyclic difference comes near the tie at +-pi."""
    shape = (draw(st.integers(1, side)), draw(st.integers(1, side)))
    known = draw(masks(shape))
    w7 = draw(st.lists(_weights, min_size=7, max_size=7))
    w7[draw(st.integers(0, 6))] = draw(st.floats(0.05, 2.0))
    w = Weights(alpha=tuple(w7[:4]), beta=tuple(w7[4:6]), gamma=w7[6])
    slope, offset = draw(st.floats(-1.0, 1.0)), draw(_angles)
    direction = draw(st.floats(0.0, 2.0 * np.pi))
    noise = np.random.default_rng(draw(st.integers(0, 2**32))).uniform(-0.25, 0.25, shape)
    rows, cols = np.indices(shape)
    f = wrap(offset + slope * (np.cos(direction) * cols + np.sin(direction) * rows) + noise)
    return f, known, w


@settings(max_examples=100, deadline=None)
@given(problem=_smooth_problems(), c=st.floats(-10.0, 10.0))
def test_initialize_commutes_with_a_global_phase_shift(problem, c):
    # Every fill is a wrapped integer combination of filled values, or the
    # nearer of two half-turn candidates, so it commutes with a shift up to
    # rounding: at most 3.0e-14 rad over 4000 drawn cases of up to 16x16,
    # so the bound is 1e-13.  Pixels no active stencil reaches stay at 0;
    # with data 1 every fill gives 1 exactly, which finds the reached ones.
    f, known, w = problem
    reached = initialize(np.ones(f.shape), known, w) == 1.0
    x = initialize(f, known, w)
    shifted = initialize(wrap(f + c), known, w)
    assert np.max(dist(shifted[reached], wrap(x + c)[reached]), initial=0.0) <= 1e-13
    assert np.all(shifted[~reached] == 0.0) and np.all(x[~reached] == 0.0)


@settings(max_examples=60, deadline=None)
@given(problem=_smooth_problems(), c=st.floats(-10.0, 10.0), lambda0=st.floats(0.2, 3.0),
       sweeps=st.integers(1, 40))
def test_noisy_restoration_commutes_with_a_global_phase_shift(problem, c, lambda0, sweeps):
    # Every prox commutes with a shift, so the run does up to rounding: at
    # most 4.4e-15 rad over 4000 drawn cases, so the bound is 1e-14.  Not
    # near a vortex, such as gen_atan2's centre, where the cyclic difference
    # of some stencil sits near +-pi and the prox picks a branch by its
    # sign: there a shift's rounding flips the branch and moves single
    # pixels by up to 0.37 rad (the noiseless 64x64 atan2 disc of radius
    # 16, 200 sweeps).  A rough start does the same: from the initializer
    # on a 8x13 image with 99 pixels unknown, some |theta| reached 3.07 and
    # one case in 4000 moved 3.0 rad.  So the start here is the smooth data
    # itself.
    f, known, w = problem
    cfg = SolverConfig(lambda0=lambda0, max_sweeps=sweeps)
    rep = run_cppa(f, f, known, w, "noisy", cfg)
    g = wrap(f + c)
    shifted = run_cppa(g, g, known, w, "noisy", cfg)
    assert np.max(dist(shifted.image, wrap(rep.image + c))) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(problem=_smooth_problems(_holes, 24), c=st.floats(-10.0, 10.0),
       lambda0=st.floats(0.2, 3.0), sweeps=st.integers(1, 40))
def test_noiseless_restoration_commutes_with_a_global_phase_shift(problem, c, lambda0, sweeps):
    # The noiseless run solves on the holes' crop and puts the shifted data
    # back on the known pixels, so it too commutes with a shift up to
    # rounding: at most 3.9e-15 rad over two sets of 4200 drawn cases of up
    # to 24x24 (about 80% with a hole at an edge), so the bound is 1e-14.
    # As above, the start is the smooth data, on the holes too, and not the
    # initializer's fill.
    f, known, w = problem
    cfg = SolverConfig(lambda0=lambda0, max_sweeps=sweeps)
    rep = run_cppa(f, f, known, w, "noiseless", cfg)
    g = wrap(f + c)
    shifted = run_cppa(g, g, known, w, "noiseless", cfg)
    assert np.max(dist(shifted.image, wrap(rep.image + c))) <= 1e-14


@st.composite
def _energy_problems(draw, side=12):
    """``(x, f, known, weights, kind)`` with canonical angles of up to
    ``side`` x ``side`` pixels, ``x`` carrying ``f`` on the known pixels in
    noiseless mode, and weights of wide range, one of them positive."""
    shape = (draw(st.integers(1, side)), draw(st.integers(1, side)))
    known = draw(_masks(shape))
    images = st.lists(_canonical, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    f, x = (np.reshape(draw(images), shape) for _ in range(2))
    kind = draw(st.sampled_from(["noiseless", "noisy"]))
    if kind == "noiseless":
        x = np.where(known, f, x)
    w7 = draw(st.lists(_wide_weights, min_size=7, max_size=7))
    if not any(w7):
        w7[draw(st.integers(0, 6))] = 1.0
    return x, f, known, Weights(alpha=tuple(w7[:4]), beta=tuple(w7[4:6]), gamma=w7[6]), kind


@settings(max_examples=200, deadline=None)
@given(problem=_energy_problems(), transpose=st.booleans(), flip_rows=st.booleans(),
       flip_cols=st.booleans())
def test_energy_is_invariant_under_the_dihedral_maps(problem, transpose, flip_rows, flip_cols):
    # The 8 maps of the square, as a transpose followed by flips.  A
    # transpose swaps the horizontal and vertical families (alpha1 and
    # alpha2, beta1 and beta2); one flip swaps the two diagonals (alpha3
    # and alpha4), two flips map each onto itself.  The stencils are summed
    # in another order and the taps of a reversed stencil too, so the
    # energy moves by rounding only: at most 5.2e-16 of itself over three
    # sets of 4000 drawn cases (a zero energy stayed 0 exactly), so the
    # bound is 2e-15.
    x, f, known, w, kind = problem
    a1, a2, a3, a4 = w.alpha
    b1, b2 = w.beta
    if transpose:
        a1, a2, b1, b2 = a2, a1, b2, b1
    if flip_rows != flip_cols:
        a3, a4 = a4, a3
    mapped = Weights(alpha=(a1, a2, a3, a4), beta=(b1, b2), gamma=w.gamma)

    def act(a):
        a = a.T if transpose else a
        return a[::-1 if flip_rows else 1, ::-1 if flip_cols else 1]

    base = energy(x, f, known, w, kind)
    assert abs(energy(act(x), act(f), act(known), mapped, kind) - base) <= 2e-15 * base
