import numpy as np
import pytest

from phasetv import (
    FILTERS,
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    DifferenceFilter,
    abs_cyclic_diff,
    dist,
    exp_map,
    signed_cyclic_diff,
    wrap,
)
from phasetv.circle import oracle_cyclic_diff

TWO_PI = 2.0 * np.pi


def test_wrap_basics():
    assert wrap(0.0) == 0.0
    assert wrap(3 * np.pi) == -np.pi
    assert wrap(np.pi) == -np.pi
    assert wrap(-np.pi) == -np.pi
    assert wrap(7.0) == pytest.approx(7.0 - TWO_PI, abs=1e-15)


def test_wrap_periodic_and_in_range():
    rng = np.random.default_rng(1)
    for _ in range(500):
        t = rng.uniform(-50, 50)
        k = rng.integers(-5, 6)
        assert abs(wrap(t + TWO_PI * k) - wrap(t)) < 1e-12
        assert -np.pi <= wrap(t) < np.pi


def test_wrap_rejects_non_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            wrap(bad)


def _mod_wrap(t):
    """The np.mod wrap the library used before its floor-based wrap."""
    w = np.mod(t + np.pi, TWO_PI) - np.pi
    return np.where(w >= np.pi, -np.pi, w)


def test_wrap_boundaries_stay_in_range_and_match_mod_form():
    rng = np.random.default_rng(3)
    odd = np.concatenate([
        np.arange(-63, 64, 2) * np.pi,
        np.arange(-318311, 318312, 2 * 1009) * np.pi,  # odd multiples up to ~1e6
    ])
    t = np.concatenate([
        odd,
        np.nextafter(odd, np.inf),
        np.nextafter(odd, -np.inf),
        [0.0, -0.0, 1e-300, -1e-300],
        rng.uniform(-1e6, 1e6, 20000),
        rng.uniform(-4 * np.pi, 4 * np.pi, 20000),
    ])
    w = wrap(t)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)
    # Beyond |t| ~ 15*pi the product 2*pi*k rounds at the scale of t,
    # where the mod form takes an exact remainder, so there the two forms
    # agree only to a couple of ulps of t; below that the bound is 2e-15.
    tol = np.maximum(2e-15, 2.0 * np.spacing(np.abs(t)))
    assert np.all(np.abs(_mod_wrap(w - _mod_wrap(t))) <= tol)


def test_dist_examples():
    assert dist(0.3, 0.3) == 0.0
    assert dist(-3.0, 3.0) == pytest.approx(TWO_PI - 6.0, abs=1e-15)
    assert dist(-np.pi / 2, np.pi / 2) == pytest.approx(np.pi, abs=1e-15)


def test_dist_properties():
    rng = np.random.default_rng(2)
    p, q, r = (rng.uniform(-np.pi, np.pi, 300) for _ in range(3))
    assert np.allclose(dist(p, q), dist(q, p))
    assert np.all(dist(p, q) <= np.pi)
    assert np.all(dist(p, q) >= 0.0)
    # triangle inequality with float slack
    assert np.all(dist(p, r) <= dist(p, q) + dist(q, r) + 1e-12)


def test_exp_map():
    assert exp_map(0.0, 0.0) == 0.0
    assert exp_map(1.0, TWO_PI) == pytest.approx(1.0, abs=1e-15)
    assert exp_map(3.0, 1.0) == pytest.approx(4.0 - TWO_PI, abs=1e-15)


def test_filter_constants():
    assert FIRST_DIFF.arity == 2 and FIRST_DIFF.norm_sq == 2.0
    assert SECOND_DIFF.arity == 3 and SECOND_DIFF.norm_sq == 6.0
    assert MIXED_DIFF.arity == 4 and MIXED_DIFF.norm_sq == 4.0
    for filt in FILTERS:
        assert sum(filt.taps) == 0.0


def test_filter_rejects_unknown_taps():
    with pytest.raises(ValueError):
        DifferenceFilter(taps=(1.0, 1.0), name="bad")
    with pytest.raises(ValueError):
        DifferenceFilter(taps=(-1.0, 2.0, -1.0), name="bad")


def test_signed_diff_examples():
    assert signed_cyclic_diff((0, 0, 0), SECOND_DIFF) == 0.0
    got = signed_cyclic_diff((-3.0, 3.0), FIRST_DIFF)
    assert got == pytest.approx(6.0 - TWO_PI, abs=1e-15)
    assert abs(got) == pytest.approx(dist(-3.0, 3.0), abs=1e-15)
    ramp = (np.pi - 0.1, -np.pi + 0.2, -np.pi + 0.5)
    assert signed_cyclic_diff(ramp, SECOND_DIFF) == pytest.approx(0.0, abs=1e-12)


def test_abs_diff_examples():
    for a in (-np.pi, -1.0, 0.0, 2.5):
        assert abs_cyclic_diff((a, a), FIRST_DIFF) == 0.0
    assert abs_cyclic_diff((-3.0, 3.0), FIRST_DIFF) == pytest.approx(TWO_PI - 6.0, abs=1e-15)
    assert abs_cyclic_diff((0.0, 0.0, 0.6), SECOND_DIFF) == pytest.approx(0.6, abs=1e-15)


def test_abs_diff_equals_dist_for_pairs():
    rng = np.random.default_rng(3)
    for _ in range(300):
        p, q = rng.uniform(-np.pi, np.pi, 2)
        assert abs_cyclic_diff((p, q), FIRST_DIFF) == pytest.approx(dist(p, q), abs=1e-15)


def test_arity_mismatch():
    with pytest.raises(ValueError):
        signed_cyclic_diff((0.0, 0.0), SECOND_DIFF)
    with pytest.raises(ValueError):
        abs_cyclic_diff((0.0, 0.0, 0.0), FIRST_DIFF)
    with pytest.raises(ValueError):
        oracle_cyclic_diff((0.0,), FIRST_DIFF)


def test_oracle_examples():
    assert oracle_cyclic_diff((0.0, 0.0), FIRST_DIFF) == pytest.approx(0.0, abs=1e-15)
    assert oracle_cyclic_diff((-3.0, 3.0), FIRST_DIFF) == pytest.approx(TWO_PI - 6.0, abs=1e-12)
    ramp = (np.pi - 0.1, -np.pi + 0.2, -np.pi + 0.5)
    assert oracle_cyclic_diff(ramp, SECOND_DIFF) == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_abs_diff():
    rng = np.random.default_rng(4)
    for filt in FILTERS:
        for _ in range(300):
            x = rng.uniform(-np.pi, np.pi, filt.arity)
            assert abs(oracle_cyclic_diff(x, filt) - abs_cyclic_diff(x, filt)) < 1e-12


def test_base_point_invariance():
    rng = np.random.default_rng(5)
    for filt in FILTERS:
        for _ in range(200):
            x = rng.uniform(-np.pi, np.pi, filt.arity)
            alpha = rng.uniform(-10, 10)
            shifted = np.array([wrap(v + alpha) for v in x])
            assert abs(
                abs_cyclic_diff(shifted, filt) - abs_cyclic_diff(x, filt)
            ) < 1e-12
