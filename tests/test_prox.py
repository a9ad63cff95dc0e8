import numpy as np
import pytest

from phasetv import (
    FILTERS,
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    abs_cyclic_diff,
    dist,
    prox_data,
    prox_diff,
    prox_diff_batch,
    prox_diff_objective,
    wrap,
)
from phasetv.prox import oracle_prox_diff, shrink_columns


def test_zero_difference_is_fixed_point():
    res = prox_diff(np.array([0.3, 0.3]), 1.0, FIRST_DIFF)
    assert np.allclose(res.primary, [0.3, 0.3])
    assert res.secondary is None


def test_first_diff_example():
    res = prox_diff(np.array([0.0, 1.0]), 0.2, FIRST_DIFF)
    assert np.allclose(res.primary, [0.2, 0.8], atol=1e-15)
    assert res.secondary is None


def test_second_diff_example():
    res = prox_diff(np.array([0.0, 0.0, 0.6]), 1.0, SECOND_DIFF)
    assert np.allclose(res.primary, [-0.1, 0.2, 0.5], atol=1e-15)
    assert abs_cyclic_diff(res.primary, SECOND_DIFF) < 1e-12


def test_antipodal_case_returns_both_minimizers():
    f = np.array([-np.pi / 2, np.pi / 2])
    res = prox_diff(f, 0.1, FIRST_DIFF)
    assert res.secondary is not None
    got = {tuple(np.round(res.primary, 12)), tuple(np.round(res.secondary, 12))}
    want = {
        tuple(np.round([-np.pi / 2 + 0.1, np.pi / 2 - 0.1], 12)),
        tuple(np.round([-np.pi / 2 - 0.1, np.pi / 2 + 0.1], 12)),
    }
    assert got == want
    obj_a = prox_diff_objective(res.primary, f, 0.1, FIRST_DIFF)
    obj_b = prox_diff_objective(res.secondary, f, 0.1, FIRST_DIFF)
    assert abs(obj_a - obj_b) < 1e-12


def test_prox_diff_validation():
    with pytest.raises(ValueError):
        prox_diff(np.array([0.0, 1.0]), 0.0, FIRST_DIFF)
    with pytest.raises(ValueError):
        prox_diff(np.array([0.0, 1.0]), -1.0, FIRST_DIFF)
    with pytest.raises(ValueError):
        prox_diff(np.array([0.0, 1.0, 2.0]), 1.0, FIRST_DIFF)
    with pytest.raises(ValueError):
        prox_diff(np.array([0.0, np.inf]), 1.0, FIRST_DIFF)


def test_objective_decrease():
    rng = np.random.default_rng(10)
    for filt in FILTERS:
        for _ in range(200):
            f = rng.uniform(-np.pi, np.pi, filt.arity)
            lam = float(rng.uniform(0.01, 3.0))
            res = prox_diff(f, lam, filt)
            before = prox_diff_objective(f, f, lam, filt)
            after = prox_diff_objective(res.primary, f, lam, filt)
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
            out = prox_diff(f, lam, filt).primary
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
            lhs = prox_diff(shifted, lam, filt).primary
            rhs = np.array([wrap(v + alpha) for v in prox_diff(f, lam, filt).primary])
            assert np.all(dist(lhs, rhs) < 1e-12)


def test_batch_matches_scalar_path():
    rng = np.random.default_rng(13)
    for filt in FILTERS:
        vals = rng.uniform(-np.pi, np.pi, (64, filt.arity))
        lam = 0.3
        batch = prox_diff_batch(vals, lam, filt)
        for row in range(vals.shape[0]):
            single = prox_diff(vals[row], lam, filt).primary
            assert np.array_equal(batch[row], single)


def _mod_wrap(t):
    w = np.mod(t + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w >= np.pi, -np.pi, w)


def _reference_prox(values, lam, filt):
    """The batched prox as first written: reduce, np.mod wrap, sign via where."""
    taps = filt.tap_array()
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
    theta = float((clip * filt.tap_array()).sum(axis=-1)[0])
    assert wrap(theta) == theta and _mod_wrap(theta) == theta
    cases.append((clip, abs(theta) / filt.norm_sq))
    for values, lam in cases:
        cols = [values[:, j].copy() for j in range(filt.arity)]
        shrink_columns(cols, lam, filt)
        got = np.stack(cols, axis=1)
        assert np.all((got >= -np.pi) & (got < np.pi))
        assert np.all(np.abs(_mod_wrap(got - _reference_prox(values, lam, filt))) <= 4e-15)
        assert np.array_equal(prox_diff_batch(values, lam, filt), got)


def test_column_kernel_rejects_non_finite_before_writing():
    cols = [np.array([0.1, np.nan]), np.array([0.2, 0.3])]
    before = [c.copy() for c in cols]
    with pytest.raises(ValueError):
        shrink_columns(cols, 0.5, FIRST_DIFF)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(cols, before))
    with pytest.raises(ValueError):
        prox_diff_batch(np.array([[0.0, 1.0, np.inf, 0.0]]), 0.5, MIXED_DIFF)


def test_prox_data_examples():
    assert prox_data(0.4, 0.2, 1.0) == pytest.approx(0.3, abs=1e-15)
    assert prox_data(3.0, -3.0, 1.0) == pytest.approx(-np.pi, abs=1e-15)
    g = np.array([0.1, -2.0])
    assert np.array_equal(prox_data(g, np.array([1.0, 1.0]), 0.0), g)


def test_prox_data_validation():
    with pytest.raises(ValueError):
        prox_data(np.zeros(3), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        prox_data(0.0, 0.0, -0.5)


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
