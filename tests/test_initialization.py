import numpy as np
import pytest

from phasetv import SECOND_DIFF, Weights, dist, gen_atan2, initialize, mask_disc, mask_random, wrap
import phasetv.initialization as init_mod
from phasetv.initialization import _propagate

from cyclic_oracle import abs_cyclic_diff
from init_oracle import oracle_initialize

W_SECOND = Weights(alpha=(0, 0, 0, 0), beta=(1, 1), gamma=0.0)
W_FIRST = Weights(alpha=(1, 1, 0, 0), beta=(0, 0), gamma=0.0)


def test_fully_known_unchanged():
    rng = np.random.default_rng(20)
    f = rng.uniform(-np.pi, np.pi, (5, 6))
    out = initialize(f, np.ones((5, 6), bool), W_SECOND)
    assert np.array_equal(out, f)


def test_linear_extrapolation():
    f = np.array([[0.5, 1.0, 0.0]])
    known = np.array([[True, True, False]])
    out = initialize(f, known, W_SECOND)
    assert out[0, 2] == pytest.approx(1.5, abs=1e-15)


def test_extrapolation_across_the_cut():
    f = np.array([[np.pi - 0.5, np.pi - 0.1, 0.0]])
    known = np.array([[True, True, False]])
    out = initialize(f, known, W_SECOND)
    assert out[0, 2] == pytest.approx(-np.pi + 0.3, abs=1e-12)
    assert abs_cyclic_diff(out[0], SECOND_DIFF) < 1e-12


def test_center_fill_prefers_value_near_left_neighbor():
    f = np.array([[0.0, 0.0, 1.0]])
    known = np.array([[True, False, True]])
    out = initialize(f, known, W_SECOND)
    assert out[0, 1] == pytest.approx(0.5, abs=1e-15)

    f = np.array([[0.0, 0.0, np.pi - 0.01]])
    out = initialize(f, known, W_SECOND)
    half = (np.pi - 0.01) / 2
    assert out[0, 1] == pytest.approx(half, abs=1e-12)


def test_first_diff_copies_neighbor():
    f = np.array([[0.7, 0.0]])
    known = np.array([[True, False]])
    out = initialize(f, known, W_FIRST)
    assert out[0, 1] == 0.7


def test_second_order_preferred_over_first():
    f = np.array([[0.0, 0.5, 0.0]])
    known = np.array([[True, True, False]])
    w = Weights(alpha=(1, 1, 0, 0), beta=(1, 1), gamma=0.0)
    out = initialize(f, known, w)
    assert out[0, 2] == pytest.approx(1.0, abs=1e-15)


def test_mixed_difference_fill():
    f = np.array([[0.2, -0.3], [0.9, 0.0]])
    known = np.array([[True, True], [True, False]])
    w = Weights(alpha=(0, 0, 0, 0), beta=(0, 0), gamma=1.0)
    out = initialize(f, known, w)
    assert out[1, 1] == pytest.approx(wrap(0.9 + (-0.3) - 0.2), abs=1e-15)


def test_band_fills_from_both_sides():
    f = np.zeros((1, 7))
    f[0, 5:] = 1.0
    known = np.ones((1, 7), bool)
    known[0, 2:5] = False
    out = initialize(f, known, W_FIRST)
    assert np.allclose(out[0], [0, 0, 0, 0, 1, 1, 1])


def test_ramp_band_reproduced_exactly():
    cols = np.arange(40)
    for direction in ("horizontal", "vertical"):
        ramp = np.vectorize(wrap)(0.35 * cols)
        if direction == "horizontal":
            img = np.tile(ramp, (12, 1))
            known = np.ones((12, 40), bool)
            known[:, 15:25] = False
        else:
            img = np.tile(ramp[:, None], (1, 12))
            known = np.ones((40, 12), bool)
            known[15:25, :] = False
        f = np.where(known, img, 0.0)
        out = initialize(f, known, W_SECOND)
        assert np.max(dist(out, img)) < 1e-9


def test_known_pixels_untouched():
    rng = np.random.default_rng(21)
    for _ in range(20):
        f = rng.uniform(-np.pi, np.pi, (9, 9))
        known = rng.random((9, 9)) < 0.5
        w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
        out = initialize(f, known, w)
        assert np.array_equal(out[known], f[known])


def test_idempotent_and_deterministic():
    rng = np.random.default_rng(22)
    f = rng.uniform(-np.pi, np.pi, (8, 8))
    known = rng.random((8, 8)) < 0.4
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    first = initialize(f, known, w)
    again = initialize(f, known, w)
    assert np.array_equal(first, again)
    refill = initialize(first, np.ones((8, 8), bool), w)
    assert np.array_equal(refill, first)


def test_unreachable_pixels_default_to_zero():
    f = np.zeros((4, 4))
    known = np.zeros((4, 4), bool)
    out = initialize(f, known, W_SECOND)
    assert np.array_equal(out, np.zeros((4, 4)))


def test_shape_validation():
    with pytest.raises(ValueError):
        initialize(np.zeros((3, 3)), np.ones((2, 2), bool), W_FIRST)
    with pytest.raises(ValueError):
        initialize(np.zeros(5), np.ones(5, bool), W_FIRST)
    with pytest.raises(ValueError, match=r"^f must be a non-empty .* shape \(0, 5\)"):
        initialize(np.zeros((0, 5)), np.ones((0, 5), bool), W_FIRST)


def _oracle_cases():
    """(f, known, weights) of the oracle comparisons: every mix of zero and
    non-zero weights, on row, column and block shapes up to 20x20 with
    known fractions from 0 (all unknown) to 0.9.  Half the images hold
    multiples of pi/4, which hit the tie of the middle-pixel fill and the
    wrap at -pi.  Then rounds long enough that a pair fills pixels after
    another pair of the same round has filled others: a 48x48 disc under
    all weights and under each family alone, and a random 20% loss under
    each family."""
    rng = np.random.default_rng(23)
    shapes = [(1, 1), (1, 20), (20, 1), (2, 2), (3, 7), (20, 20)]
    for subset in range(1, 2**7):
        on = np.array([(subset >> k) & 1 for k in range(7)], dtype=bool)
        vals = np.where(on, rng.uniform(0.1, 2.0, 7), 0.0)
        w = Weights(alpha=vals[:4], beta=vals[4:6], gamma=vals[6])
        for _ in range(4):
            if rng.random() < 0.5:
                shape = shapes[rng.integers(len(shapes))]
            else:
                shape = tuple(int(n) for n in rng.integers(1, 21, 2))
            if rng.random() < 0.5:
                f = rng.uniform(-np.pi, np.pi, shape)
            else:
                f = rng.integers(-4, 4, shape) * (np.pi / 4)
            yield f, rng.random(shape) < rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9]), w
    f = gen_atan2(48)
    disc, lost = mask_disc((48, 48), 14.0), mask_random((48, 48), 0.2, 3)
    yield np.where(disc, f, 0.0), disc, Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    for one in np.eye(7):
        w = Weights(alpha=one[:4], beta=one[4:6], gamma=one[6])
        for known in (disc, lost):
            yield np.where(known, f, 0.0), known, w


def test_matches_scalar_oracle_bitwise():
    for f, known, w in _oracle_cases():
        got, *counts = _propagate(f, known, w)
        want, *want_counts = oracle_initialize(f, known, w)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert counts == want_counts


def test_chunks_of_pending_do_not_change_the_fills(monkeypatch):
    # A round walks its pending pixels in chunks: fills are written at
    # once, the filled mask only at the round's end.  Chunks of 1, 3 and
    # 64 pixels split the rounds of the 48x48 cases into many chunks, with
    # a partial one last, and must give the oracle's bits.
    cases = [(f, known, w, oracle_initialize(f, known, w)) for f, known, w in _oracle_cases()]
    assert max(int(np.count_nonzero(~known)) for _, known, _, _ in cases) > 3 * 64
    for chunk in (1, 3, 64):
        monkeypatch.setattr(init_mod, "_CHUNK", chunk)
        for f, known, w, (want, *want_counts) in cases:
            got, *counts = _propagate(f, known, w)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (chunk, f.shape)
            assert counts == want_counts


def test_counts_all_unknown_unreachable():
    _, rounds, filled, unreachable = _propagate(
        np.zeros((4, 4)), np.zeros((4, 4), bool), W_SECOND
    )
    assert (rounds, filled, unreachable) == (0, 0, 16)


def test_counts_band_rounds():
    # Columns 2..4 of a 1x7 row fill from both sides: 2 and 4 in the first
    # round, 3 in the second.
    known = np.ones((1, 7), bool)
    known[0, 2:5] = False
    _, rounds, filled, unreachable = _propagate(np.zeros((1, 7)), known, W_FIRST)
    assert (rounds, filled, unreachable) == (2, 3, 0)


def test_layout_of_inputs_does_not_matter():
    # Fortran-ordered and transposed views (as from scipy.io.loadmat or
    # f.T) give the same bits as fresh C-ordered arrays.
    rng = np.random.default_rng(24)
    w = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)
    f = rng.uniform(-np.pi, np.pi, (9, 13))
    known = rng.random((9, 13)) < 0.4
    want, *want_counts = _propagate(f, known, w)
    assert want_counts[1] > 0
    got, *counts = _propagate(np.asfortranarray(f), np.asfortranarray(known), w)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert counts == want_counts
    # A transposed view against a C-ordered copy of the same transpose.
    want_t = initialize(np.ascontiguousarray(f.T), np.ascontiguousarray(known.T), w)
    got_t = initialize(f.T, known.T, w)
    assert np.array_equal(got_t.view(np.uint64), want_t.view(np.uint64))
