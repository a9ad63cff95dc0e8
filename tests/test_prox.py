import warnings

import numpy as np
import pytest

from phasetv import (
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    dist,
    prox_data,
    prox_diff_batch,
    wrap,
)
from phasetv import prox
from phasetv.prox import _prox_data_into, _prox_step, shrink_columns

from cyclic_oracle import (
    FILTERS,
    abs_cyclic_diff,
    oracle_prox_data,
    oracle_prox_diff,
    prox_diff,
    prox_diff_objective,
)


def test_zero_difference_is_fixed_point():
    out = prox_diff(np.array([0.3, 0.3]), 1.0, FIRST_DIFF)
    assert np.allclose(out, [0.3, 0.3])


def test_first_diff_example():
    out = prox_diff(np.array([0.0, 1.0]), 0.2, FIRST_DIFF)
    assert np.allclose(out, [0.2, 0.8], atol=1e-15)


def test_second_diff_example():
    out = prox_diff(np.array([0.0, 0.0, 0.6]), 1.0, SECOND_DIFF)
    assert np.allclose(out, [-0.1, 0.2, 0.5], atol=1e-15)
    assert abs_cyclic_diff(out, SECOND_DIFF) < 1e-12


def test_objective_decrease():
    rng = np.random.default_rng(10)
    for filt in FILTERS:
        for _ in range(200):
            f = rng.uniform(-np.pi, np.pi, filt.arity)
            lam = float(rng.uniform(0.01, 3.0))
            out = prox_diff(f, lam, filt)
            before = prox_diff_objective(f, f, lam, filt)
            after = prox_diff_objective(out, f, lam, filt)
            assert after <= before + 1e-12
            if abs_cyclic_diff(f, filt) > 1e-9:
                assert after < before


def test_threshold_saturation():
    rng = np.random.default_rng(11)
    for filt in FILTERS:
        for _ in range(200):
            f = rng.uniform(-np.pi, np.pi, filt.arity)
            lam = float(rng.uniform(0.01, 1.0))
            theta = abs_cyclic_diff(f, filt)
            out = prox_diff(f, lam, filt)
            after = abs_cyclic_diff(out, filt)
            if theta >= lam * filt.norm_sq:
                assert abs(after - (theta - lam * filt.norm_sq)) < 1e-10
            else:
                assert after < 1e-10


def test_base_point_equivariance():
    rng = np.random.default_rng(12)
    for filt in FILTERS:
        for _ in range(100):
            f = rng.uniform(-np.pi, np.pi, filt.arity)
            if np.pi - abs_cyclic_diff(f, filt) < 1e-6:
                continue
            lam = float(rng.uniform(0.05, 2.0))
            alpha = float(rng.uniform(-8, 8))
            shifted = np.array([wrap(v + alpha) for v in f])
            lhs = prox_diff(shifted, lam, filt)
            rhs = np.array([wrap(v + alpha) for v in prox_diff(f, lam, filt)])
            assert np.all(dist(lhs, rhs) < 1e-12)


def test_batch_matches_scalar_path():
    rng = np.random.default_rng(13)
    for filt in FILTERS:
        vals = rng.uniform(-np.pi, np.pi, (64, filt.arity))
        lam = 0.3
        batch = prox_diff_batch(vals, lam, filt)
        for row in range(vals.shape[0]):
            single = prox_diff(vals[row], lam, filt)
            assert np.array_equal(batch[row], single)


def _mod_wrap(t):
    w = np.mod(t + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w >= np.pi, -np.pi, w)


def _reference_prox(values, lam, filt):
    """The batched prox as first written: reduce, np.mod wrap, sign via where."""
    taps = np.asarray(filt.taps)
    theta = _mod_wrap((values * taps).sum(axis=-1))
    sign = np.where(theta >= 0.0, 1.0, -1.0)
    step = sign * np.minimum(lam, np.abs(theta) / filt.norm_sq)
    return _mod_wrap(values - step[:, None] * taps)


# One row per family with theta exactly -pi before the wrap, one with
# theta = +pi (which wraps to -pi), and rows with theta = +0.0 and -0.0.
_EDGE_ROWS = {
    "first": [[np.pi / 2, -np.pi / 2], [-np.pi / 2, np.pi / 2], [0.3, 0.3], [0.0, -0.0]],
    "second": [[-np.pi / 2, 0.0, -np.pi / 2], [np.pi / 2, 0.0, np.pi / 2],
               [0.3, 0.3, 0.3], [0.0, -0.0, -0.0]],
    "mixed": [[np.pi / 2, 0.0, -np.pi / 2, 0.0], [-np.pi / 2, 0.0, np.pi / 2, 0.0],
              [0.3, 0.3, 0.3, 0.3], [0.0, -0.0, 0.0, 0.0]],
}
# Patches whose |theta| / |taps|^2 equals lam exactly (the clip edge).
_CLIP_ROWS = {
    "first": [0.0, 0.5],
    "second": [0.0, 0.0, 0.5],
    "mixed": [0.2, 0.9, 0.4, 0.1],
}


@pytest.mark.parametrize("filt", FILTERS, ids=lambda f: f.name)
def test_column_kernel_matches_reference_formula(filt):
    rng = np.random.default_rng(16)
    cases = [
        (rng.uniform(-np.pi, np.pi, (4000, filt.arity)), 0.37),
        (rng.uniform(-np.pi, np.pi, (4000, filt.arity)), 5.0),
        (np.array(_EDGE_ROWS[filt.name]), 0.25),
    ]
    clip = np.array([_CLIP_ROWS[filt.name]])
    theta = float((clip * np.asarray(filt.taps)).sum(axis=-1)[0])
    assert wrap(theta) == theta and _mod_wrap(theta) == theta
    cases.append((clip, abs(theta) / filt.norm_sq))
    for values, lam in cases:
        cols = [values[:, j].copy() for j in range(filt.arity)]
        shrink_columns(cols, lam, filt)
        # The column kernel leaves its output unwrapped; the batch wraps it.
        got = np.stack(cols, axis=1)
        assert np.all(np.abs(_mod_wrap(got - _reference_prox(values, lam, filt))) <= 4e-15)
        batch = prox_diff_batch(values, lam, filt)
        assert np.all((batch >= -np.pi) & (batch < np.pi))
        assert np.array_equal(batch, wrap(got))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _four_pass_step(theta, lam, filt):
    """The step as computed before the clip form."""
    step = np.abs(theta)
    step /= filt.norm_sq
    np.minimum(step, lam, out=step)
    return np.copysign(step, theta, out=step)


@pytest.mark.parametrize("filt", FILTERS, ids=lambda f: f.name)
def test_step_matches_four_pass_formula_bitwise(filt, monkeypatch):
    rng = np.random.default_rng(17)
    # Through the real theta of random patches.
    cols = [rng.uniform(-np.pi, np.pi, 4000) for _ in range(filt.arity)]
    for lam in (0.37, np.pi / 2, 5.0, np.inf):
        with np.errstate(invalid="ignore"):
            theta, step = _prox_step(cols, lam, filt)
        assert np.array_equal(_bits(step), _bits(_four_pass_step(theta, lam, filt)))
    # On prescribed thetas: the wrap never returns -0.0, +pi or NaN for
    # finite input, so theta is fed to the step directly.
    random_theta = rng.uniform(-np.pi, np.pi, 4000)
    # |theta| / |taps|^2 is exactly edge_lam for the first random theta, and
    # one ulp above the lam after it.
    edge_lam = abs(float(random_theta[0])) / filt.norm_sq
    for lam in (0.37, np.pi / 2, edge_lam, np.nextafter(edge_lam, 0.0), np.inf):
        special = [0.0, -0.0, np.pi, -np.pi, np.nan, -np.nan, np.inf, -np.inf]
        for edge in (lam * filt.norm_sq, -lam * filt.norm_sq):
            special += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
        theta = np.concatenate([special, random_theta])
        monkeypatch.setattr(prox, "_signed_wrap",
                            lambda t, out=None, tmp=None: theta.copy())
        with np.errstate(invalid="ignore"):
            _, step = _prox_step(cols, lam, filt)
        assert np.array_equal(_bits(step), _bits(_four_pass_step(theta, lam, filt)))


def test_column_kernel_rejects_non_finite_before_writing():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^values must be finite"):
            prox_diff_batch(np.array([[0.0, 1.0, bad, 0.0]]), 0.5, MIXED_DIFF)


def test_batch_wraps_its_columns_first():
    # Any finite rows, the largest floats of both signs included: the columns
    # are wrapped before the tap sums, which keeps canonical input bit for bit.
    huge = np.finfo(float).max
    rows = np.array([[1.7e308, -1.7e308], [huge, -huge], [-huge, 0.5]])
    out = prox_diff_batch(rows, 1.0, FIRST_DIFF)
    assert np.array_equal(out, prox_diff_batch(wrap(rows), 1.0, FIRST_DIFF))
    assert np.all(out >= -np.pi) and np.all(out < np.pi)
    for filt in (SECOND_DIFF, MIXED_DIFF):
        big = np.resize([huge, -huge], (3, filt.arity))
        assert np.isfinite(prox_diff_batch(big, huge, filt)).all()


def test_prox_data_examples():
    assert prox_data(0.4, 0.2, 1.0) == pytest.approx(0.3, abs=1e-15)
    assert prox_data(3.0, -3.0, 1.0) == pytest.approx(-np.pi, abs=1e-15)
    g = np.array([0.1, -2.0])
    assert np.array_equal(prox_data(g, np.array([1.0, 1.0]), 0.0), g)


def test_prox_data_validation():
    with pytest.raises(ValueError):
        prox_data(np.zeros(3), np.zeros(2), 1.0)
    for lam in (-0.5, np.nan, np.inf, "1", None, True, np.True_, 1j):
        with pytest.raises(ValueError):
            prox_data(0.0, 0.0, lam)
    # Python and numpy ints and floats are accepted.
    for lam in (1, np.int64(1), np.float64(1.0)):
        assert prox_data(0.4, 0.2, lam) == prox_data(0.4, 0.2, 1.0)
    # lam is capped at 1e300, so that f * lam stays finite for |f| <= pi.
    assert prox_data(0.5, -3.0, 1e300) == -3.0
    for lam in (np.nextafter(1e300, np.inf), 1e308):
        with pytest.raises(ValueError, match=r"^lam must be a real number in \[0, 1e\+300\]"):
            prox_data(0.5, -3.0, lam)
    # g and f must be angles in [-pi, pi); a value outside, or a non-finite
    # one, is named instead of giving a wrong result or a numpy warning.
    cases = [(0.1, 50.0, "f"), (np.nan, 0.0, "g"), (np.inf, 0.0, "g"), (0.0, -np.inf, "f"),
             (np.pi, 0.0, "g"), (np.array([0.0, -4.0]), np.zeros(2), "g")]
    for g, f, name in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} value"):
                prox_data(g, f, 1.0)
    # A scalar has no pixel to name.
    with pytest.raises(ValueError, match=r"^g value nan out of \[-pi, pi\)$"):
        prox_data(np.nan, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^g value -4\.0 out of \[-pi, pi\) at pixel \(1\)$"):
        prox_data(np.array([0.0, -4.0]), np.zeros(2), 1.0)


def _data_prox_cases(rng):
    """(g, f) pairs covering the short-arc test's edge and tiny data."""
    pi = np.pi
    # |g - f| is exactly pi, and its floating-point neighbours, in both
    # directions: with f = +-0.0 or g = 0.0 the difference is exact.
    at_pi = [pi, np.nextafter(pi, 0.0), np.nextafter(pi, 4.0), -pi,
             np.nextafter(-pi, 0.0), np.nextafter(-pi, -4.0)]
    g_edge = np.array(at_pi + at_pi + [0.0] * 6)
    f_edge = np.array([0.0] * 6 + [-0.0] * 6 + [-d for d in at_pi])
    d = g_edge - f_edge
    assert np.any(np.abs(d) == pi) and np.any(np.abs(d) > pi) and np.any(np.abs(d) < pi)
    yield g_edge, f_edge
    # pi/2 - (-pi/2) is exactly pi as well.
    yield np.array([pi / 2, -pi / 2]), np.array([-pi / 2, pi / 2])
    g = rng.uniform(-pi, pi, 2000)
    yield g, g.copy()
    yield np.array([-0.0, 0.0, -0.0, 0.5]), np.array([-0.0, -0.0, 0.0, -0.0])
    for k in (0, 3, 6, 12, 300):
        scale = 10.0 ** -k
        g = rng.uniform(-pi, pi, 2000) * scale
        f = rng.uniform(-pi, pi, 2000) * scale
        g[0], f[1] = -0.0, -0.0
        yield g, f


def test_prox_data_matches_allocating_formula_bitwise():
    rng = np.random.default_rng(18)
    for g, f in _data_prox_cases(rng):
        for lam in (1e-300, 1e-6, 0.1, 1.0, np.pi / 7, 37.5, 1e6):
            expected = _bits(oracle_prox_data(g, f, lam))
            # The public function takes angles in [-pi, pi) only; the edge
            # cases beyond them reach the kernel below.
            ok = (g >= -np.pi) & (g < np.pi) & (f >= -np.pi) & (f < np.pi)
            g_ok, f_ok = (g, f) if ok.all() else (g[ok], f[ok])
            g_in, f_in = g_ok.copy(), f_ok.copy()
            assert np.array_equal(_bits(prox_data(g_ok, f_ok, lam)), expected[ok])
            assert np.array_equal(_bits(g_ok), _bits(g_in))
            assert np.array_equal(_bits(f_ok), _bits(f_in))
            # The kernel on leading parts of larger buffers, as the solver
            # calls it.
            n = g.size
            buf, a, b = np.empty(n + 5), np.empty(n + 3), np.empty(n + 7)
            buf[:n] = g
            _prox_data_into(buf[:n], f, lam, a[:n], b[:n])
            assert np.array_equal(_bits(buf[:n]), expected)
    for g, f, lam in ((0.4, 0.2, 1.0), (3.0, -3.0, 1.0), (np.pi / 2, -np.pi / 2, 0.25)):
        assert _bits(prox_data(g, f, lam)) == _bits(oracle_prox_data(g, f, lam))



def test_prox_data_limits():
    rng = np.random.default_rng(14)
    g = rng.uniform(-np.pi, np.pi, 100)
    f = rng.uniform(-np.pi, np.pi, 100)
    assert np.all(dist(prox_data(g, g, 1.7), g) < 1e-12)
    assert np.all(dist(prox_data(g, f, 1e6), f) < 1e-5)


def test_prox_data_stays_on_short_arc():
    rng = np.random.default_rng(15)
    for _ in range(300):
        g, f = rng.uniform(-np.pi, np.pi, 2)
        lam = float(rng.uniform(0.01, 10.0))
        x = prox_data(g, f, lam)
        assert dist(g, x) + dist(x, f) <= dist(g, f) + 1e-9


def test_oracle_prox_examples():
    got = oracle_prox_diff(np.array([0.3, 0.3]), 0.7, FIRST_DIFF)
    assert np.allclose(got, [0.3, 0.3], atol=1e-12)
    got = oracle_prox_diff(np.array([0.0, 1.0]), 0.2, FIRST_DIFF)
    assert np.allclose(got, [0.2, 0.8], atol=2e-3)
    got = oracle_prox_diff(np.array([0.0, 0.0, 0.6]), 1.0, SECOND_DIFF)
    assert np.allclose(got, [-0.1, 0.2, 0.5], atol=2e-3)


def test_oracle_prox_validation():
    with pytest.raises(ValueError):
        oracle_prox_diff(np.array([0.0, 1.0]), 0.2, FIRST_DIFF, grid_step=0.5)
    with pytest.raises(ValueError):
        oracle_prox_diff(np.array([0.0, 1.0]), -0.2, FIRST_DIFF)
