"""Properties the model has by construction, checked on drawn inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from phasetv import SolverConfig, Weights, dist, energy, mask_band, mask_disc, mask_random, run_cppa, wrap

_angles = st.floats(-np.pi, np.pi, allow_nan=False)
_weights = st.floats(0.0, 2.0, allow_nan=False)


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
