import warnings

import numpy as np
import pytest

from phasetv import (
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    DifferenceFilter,
    dist,
    wrap,
)

import phasetv.circle as circle_mod
from phasetv.circle import _near_wrap, _signed_wrap, _wrap_array

from cyclic_oracle import FILTERS, abs_cyclic_diff, oracle_cyclic_diff, signed_cyclic_diff

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
    # Bools, strings, None and complex numbers are no angles either; dist
    # names the argument that holds one.
    for bad in (np.inf, -np.inf, np.nan, "1", True, None, 1j, np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="^t must be finite real numbers$"):
            wrap(bad)
        with pytest.raises(ValueError, match="^p must be finite real numbers$"):
            dist(bad, 0.0)
        with pytest.raises(ValueError, match="^q must be finite real numbers$"):
            dist(0.0, bad)


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


def test_wrap_keeps_canonical_angles_bitwise():
    rng = np.random.default_rng(6)
    u = np.concatenate([
        rng.uniform(-np.pi, np.pi, 100000),
        [0.0, -0.0, 1e-300, -1e-300, -np.pi, np.nextafter(-np.pi, 0.0),
         np.nextafter(np.pi, 0.0)],
    ])
    assert np.array_equal(wrap(u).view(np.uint64), u.view(np.uint64))
    assert np.array_equal(_wrap_array(u).view(np.uint64), u.view(np.uint64))
    # The exact ties pi and -pi both map to -pi.
    assert wrap(np.pi) == -np.pi and wrap(-np.pi) == -np.pi
    assert np.array_equal(_wrap_array(np.array([np.pi, -np.pi])), [-np.pi, -np.pi])


def test_signed_wrap_matches_wrap_mod_two_pi():
    rng = np.random.default_rng(7)
    odd = np.arange(-41, 42, 2) * np.pi
    t = np.concatenate([
        odd,
        np.nextafter(odd, np.inf),
        np.nextafter(odd, -np.inf),
        np.arange(-20, 21) * TWO_PI,
        [0.0, -0.0, 1e-300, -1e-300],
        rng.uniform(-41 * np.pi, 41 * np.pi, 20000),
        rng.uniform(-np.pi, np.pi, 2000),
    ])
    tmp = np.empty_like(t)
    got = _signed_wrap(t, out=t.copy(), tmp=tmp)
    tol = np.maximum(2e-15, 2.0 * np.spacing(np.abs(t)))
    assert np.all(np.abs(_mod_wrap(got - wrap(t))) <= tol)
    # No clamp: the result may pass either end of [-pi, pi) by the
    # rounding of 2*pi*k, never by more than the tolerance.
    assert np.all(np.abs(got) <= np.pi + tol)
    assert np.array_equal(_signed_wrap(np.array([np.pi, -np.pi])), [-np.pi, -np.pi])
    # In place, and non-finite input gives NaN under the errstate the
    # sweep runs it in, with no warning escaping.
    bad = np.array([np.nan, np.inf, -np.inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            assert _signed_wrap(bad, out=bad, tmp=np.empty(4)) is bad
    assert np.isnan(bad[:3]).all() and bad[3] == 1.0


def _abs_wrap(t, tmp):
    """|wrap(t)| as the energy forms it, in place on ``t``."""
    return np.abs(_near_wrap(t, tmp), out=t)


def test_abs_wrap_matches_abs_of_wrap():
    rng = np.random.default_rng(4)
    odd = np.arange(-41, 42, 2) * np.pi
    t = np.concatenate([
        odd,
        np.nextafter(odd, np.inf),
        np.nextafter(odd, -np.inf),
        np.arange(-20, 21) * TWO_PI,
        [0.0, -0.0, 1e-300, -1e-300],
        rng.uniform(-40 * np.pi, 40 * np.pi, 20000),
        rng.uniform(-np.pi, np.pi, 2000),
    ])
    got = _abs_wrap(t.copy(), np.empty_like(t))
    # No clamp: near an odd multiple of pi the result may pass pi by the
    # rounding of 2*pi*k, never by more than the tolerance.
    tol = np.maximum(2e-15, 2.0 * np.spacing(np.abs(t)))
    assert np.all(got >= 0.0) and np.all(got <= np.pi + tol)
    assert np.all(np.abs(got - np.abs(wrap(t))) <= tol)
    # Zeros of either sign give +0.0; the buffer is overwritten in place.
    zeros = np.array([0.0, -0.0])
    assert _abs_wrap(zeros, np.empty(2)) is zeros
    assert not np.signbit(zeros).any() and not zeros.any()
    bad = np.array([np.nan, np.inf, -np.inf, 1.0])
    with np.errstate(invalid="ignore"):
        got = _abs_wrap(bad, np.empty(4))
    assert np.isnan(got[:3]).all() and got[3] == 1.0


def test_dist_examples():
    assert dist(0.3, 0.3) == 0.0
    assert dist(-3.0, 3.0) == pytest.approx(TWO_PI - 6.0, abs=1e-15)
    assert dist(-np.pi / 2, np.pi / 2) == pytest.approx(np.pi, abs=1e-15)


def test_dist_of_far_apart_operands_does_not_overflow():
    # q - p overflows here; dist subtracts the wrapped operands instead, so
    # neither a numpy overflow warning (an error under this suite's
    # filterwarnings) nor wrap's check of its own argument is reached.
    big = np.finfo(float).max
    for p, q in ((1e308, -1e308), (big, -big), (-big, 1e308), (1e308, 0.5)):
        assert dist(p, q) == abs(wrap(wrap(q) - wrap(p)))
        assert 0.0 <= dist(p, q) <= np.pi
    got = dist(np.array([1e308, 0.5]), np.array([-1e308, 0.25]))
    assert np.array_equal(got, [dist(1e308, -1e308), 0.25])


def test_dist_block_by_block_matches_each_entry(monkeypatch):
    # dist works through its flat result in blocks.  Blocks of 7 entries,
    # the last one partial, on same-shape, broadcast and 0-d operands give
    # the bits of dist on each entry alone.
    monkeypatch.setattr(circle_mod, "_DIST_BLOCK", 7)
    rng = np.random.default_rng(3)
    big = np.finfo(float).max
    col = rng.uniform(-10.0, 10.0, (9, 1))
    row = np.concatenate([rng.uniform(-10.0, 10.0, 4), [np.pi, -np.pi, big, -big]])
    square = rng.uniform(-4.0, 4.0, (5, 8))
    for p, q in ((col, row), (row, col), (square, square.T[::-1].T), (square, 0.5),
                 (np.float64(3.5), square), (col, 1e308)):
        got = dist(p, q)
        pp, qq = np.broadcast_arrays(p, q)
        want = [dist(float(a), float(b)) for a, b in zip(pp.flat, qq.flat)]
        assert got.shape == pp.shape and got.size > 7 and got.size % 7
        assert np.array_equal(got.reshape(-1).view(np.uint64), np.array(want).view(np.uint64))


def test_dist_properties():
    rng = np.random.default_rng(2)
    p, q, r = (rng.uniform(-np.pi, np.pi, 300) for _ in range(3))
    assert np.allclose(dist(p, q), dist(q, p))
    assert np.all(dist(p, q) <= np.pi)
    assert np.all(dist(p, q) >= 0.0)
    # triangle inequality with float slack
    assert np.all(dist(p, r) <= dist(p, q) + dist(q, r) + 1e-12)


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
