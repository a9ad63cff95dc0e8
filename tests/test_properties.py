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
from phasetv.circle import _wrap_array
from phasetv.solver import _LAMBDA0_MAX

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
