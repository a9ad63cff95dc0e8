import numpy as np
import pytest

from phasetv import (
    SECOND_DIFF,
    add_wrapped_gaussian_noise,
    cyclic_error,
    gen_atan2,
    gen_blocks,
    gen_wrapped_ramp,
    mask_band,
    mask_disc,
    mask_random,
    mask_subsample3,
    wrap,
)

from cyclic_oracle import abs_cyclic_diff

TWO_PI = 2.0 * np.pi


def test_atan2_field():
    img = gen_atan2(128)
    assert img.shape == (128, 128)
    assert np.all(img >= -np.pi) and np.all(img < np.pi)
    # pixel closest to (x, y) = (1/2, 0) is nearly phase 0
    assert abs(img[63, 127]) < 2.0 / 127
    # quarter-turn rotational symmetry of the sampled field
    rotated = np.rot90(img, k=1)
    shifted = wrap(img + np.pi / 2)
    assert np.max(np.abs(wrap(rotated - shifted))) < 1e-12
    with pytest.raises(ValueError):
        gen_atan2(1)
    for bad in (2.5, 2.0, True, "4", None):
        with pytest.raises(ValueError, match="^n must be an integer"):
            gen_atan2(bad)
    assert np.array_equal(gen_atan2(np.int64(5)), gen_atan2(5))


def test_ramp_examples():
    assert np.array_equal(gen_wrapped_ramp((3, 4), 0.0), np.zeros((3, 4)))
    row = gen_wrapped_ramp((1, 5), 2.0)[0]
    want = [0.0, 2.0, 4.0 - TWO_PI, 6.0 - TWO_PI, 8.0 - TWO_PI]
    assert np.allclose(row, want, atol=1e-12)
    for bad in (np.inf, np.nan, "1", True, None, 1j):
        with pytest.raises(ValueError, match="slope"):
            gen_wrapped_ramp((2, 2), bad)
    with pytest.raises(ValueError):
        gen_wrapped_ramp((2, 2), 1.0, "sideways")


def test_ramp_second_differences_vanish():
    img = gen_wrapped_ramp((4, 50), 0.41, "horizontal")
    for c in range(48):
        assert abs_cyclic_diff(img[0, c : c + 3], SECOND_DIFF) < 1e-12
    img = gen_wrapped_ramp((50, 4), 0.41, "vertical")
    for r in range(48):
        assert abs_cyclic_diff(img[r : r + 3, 0], SECOND_DIFF) < 1e-12


def test_blocks_image():
    img = gen_blocks((128, 128))
    assert img.shape == (128, 128)
    assert np.all(img >= -np.pi) and np.all(img < np.pi)
    # constant foreground block
    block = img[round(0.15 * 128) : round(0.45 * 128), round(0.2 * 128) : round(0.8 * 128)]
    assert np.all(block == block[0, 0])
    # ramp block has vanishing vertical second differences
    r0, r1 = round(0.55 * 128), round(0.9 * 128)
    c = 64
    for r in range(r0, r1 - 2):
        assert abs_cyclic_diff(img[r : r + 3, c], SECOND_DIFF) < 1e-12
    with pytest.raises(ValueError):
        gen_blocks((32, 32))


def test_subsample3_pattern():
    known = mask_subsample3((3, 3))
    assert known[0, 0] and known.sum() == 1
    assert mask_subsample3((1, 1)).all()
    assert mask_subsample3((257, 257)).sum() == 7396
    rng = np.random.default_rng(40)
    for _ in range(10):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        count = mask_subsample3(shape).sum()
        assert count == -(-shape[0] // 3) * -(-shape[1] // 3)


def test_random_mask():
    assert mask_random((5, 5), 0.0, seed=1).all()
    assert not mask_random((5, 5), 1.0, seed=1).any()
    m = mask_random((432, 426), 0.2, seed=3)
    assert (~m).sum() == 36_806
    assert np.array_equal(m, mask_random((432, 426), 0.2, seed=3))
    assert not np.array_equal(m, mask_random((432, 426), 0.2, seed=4))
    with pytest.raises(ValueError):
        mask_random((5, 5), 1.5, seed=0)
    # Both arguments are checked as numbers, with errors that name them.
    for bad in (True, np.True_, "0.5", None, 1 + 0j, np.nan, np.inf, -0.1):
        with pytest.raises(ValueError, match="fraction_lost"):
            mask_random((4, 4), bad, seed=1)
    for bad in (True, False, 1.5, 2.0, "1", None, -1, np.int64(-3)):
        with pytest.raises(ValueError, match="seed"):
            mask_random((4, 4), 0.5, seed=bad)
    # numpy numbers are accepted and give the masks of their Python values.
    assert np.array_equal(mask_random((6, 7), np.float32(0.25), seed=np.int64(5)),
                          mask_random((6, 7), 0.25, seed=5))
    assert mask_random((4, 4), 0, seed=0).all() and not mask_random((4, 4), 1, seed=0).any()


def test_disc_mask():
    known = mask_disc((64, 64), 16.0)
    assert not known[31, 31] and not known[32, 32]
    assert known[0, 0] and known[63, 63]
    assert known[31, 31 - 17] and not known[31, 31 - 10]
    single = mask_disc((9, 9), 0.0)
    assert (~single).sum() == 1 and not single[4, 4]
    for bad in (-1.0, np.nan, np.inf, -np.inf, "3", True, None):
        with pytest.raises(ValueError, match="radius"):
            mask_disc((9, 9), bad)


def test_band_mask():
    known = mask_band((8, 20), start=5, width=4)
    assert (~known).sum() == 8 * 4
    assert not known[:, 5:9].any() and known[:, :5].all() and known[:, 9:].all()
    horizontal = mask_band((20, 8), start=5, width=4, orientation="horizontal")
    assert not horizontal[5:9, :].any()
    with pytest.raises(ValueError, match="start"):
        mask_band((8, 8), start=-1, width=2)
    with pytest.raises(ValueError, match="width"):
        mask_band((8, 8), start=1, width=-1)
    with pytest.raises(ValueError):
        mask_band((8, 8), start=1, width=2, orientation="diag")
    # start must index a column (vertical) or a row (horizontal) of the image.
    with pytest.raises(ValueError, match="start"):
        mask_band((4, 4), start=9, width=2)
    with pytest.raises(ValueError, match="start"):
        mask_band((8, 20), start=8, width=1, orientation="horizontal")
    with pytest.raises(ValueError, match="start"):
        mask_band((20, 8), start=8, width=0)
    assert not mask_band((8, 20), start=7, width=1, orientation="horizontal")[7].any()
    for bad in (True, np.True_, 1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="start"):
            mask_band((8, 8), start=bad, width=2)
        with pytest.raises(ValueError, match="width"):
            mask_band((8, 8), start=1, width=bad)
    # A band that runs past the far edge is clipped; numpy ints are accepted.
    clipped = mask_band((4, 6), start=np.int64(4), width=np.int32(10))
    assert np.array_equal(clipped, np.arange(6)[None, :].repeat(4, axis=0) < 4)
    assert mask_band((4, 6), start=2, width=0).all()


def test_bad_shapes_rejected():
    builders = (
        lambda shape: gen_wrapped_ramp(shape, 0.5),
        gen_blocks,
        mask_subsample3,
        lambda shape: mask_random(shape, 0.5, seed=0),
        lambda shape: mask_disc(shape, 1.0),
        lambda shape: mask_band(shape, start=0, width=1),
    )
    bad_shapes = ((2.7, 3), (3, 2.0), (-2, 3), (-1, 5), (0, 4), (True, 3), ("3", 3),
                  (3,), (3, 4, 5), 5, None)
    for build in builders:
        for bad in bad_shapes:
            with pytest.raises(ValueError, match="^shape must be two positive integers"):
                build(bad)
    # numpy integers are accepted and give the images of their Python values.
    assert np.array_equal(mask_disc((np.int64(9), np.int32(7)), 2.0), mask_disc((9, 7), 2.0))
    assert np.array_equal(gen_blocks(np.array([64, 70])), gen_blocks((64, 70)))


def test_noise():
    rng = np.random.default_rng(41)
    x = rng.uniform(-np.pi, np.pi, (16, 16))
    assert np.array_equal(add_wrapped_gaussian_noise(x, 0.0, seed=0), x)
    # sigma 0 still wraps, and keeps a canonical x bit for bit.
    assert np.array_equal(add_wrapped_gaussian_noise(np.array([[4.0, -4.0]]), 0, 1),
                          wrap(np.array([[4.0, -4.0]])))
    edge = np.array([-0.0, 0.0, -np.pi, np.nextafter(np.pi, 0.0)])
    assert np.array_equal(add_wrapped_gaussian_noise(edge, 0.0, 1).view(np.uint64),
                          edge.view(np.uint64))
    noisy = add_wrapped_gaussian_noise(x, 0.3, seed=0)
    assert np.all(noisy >= -np.pi) and np.all(noisy < np.pi)
    assert np.array_equal(noisy, add_wrapped_gaussian_noise(x, 0.3, seed=0))
    for bad in (-0.1, np.nan, np.inf, -np.inf, True, "1", None):
        with pytest.raises(ValueError, match="sigma"):
            add_wrapped_gaussian_noise(x, bad, seed=0)
    for bad in (-1, 1.5, True, "1", None):
        with pytest.raises(ValueError, match="seed"):
            add_wrapped_gaussian_noise(x, 0.3, seed=bad)
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[3, 4] = bad
        with pytest.raises(ValueError, match="^x must be finite"):
            add_wrapped_gaussian_noise(y, 0.3, seed=0)


def test_noise_circular_std():
    zeros = np.zeros((1000, 1000))
    noisy = add_wrapped_gaussian_noise(zeros, 0.3, seed=5)
    resultant = np.abs(np.mean(np.exp(1j * noisy)))
    circ_std = np.sqrt(-2.0 * np.log(resultant))
    assert circ_std == pytest.approx(0.3, rel=0.01)


def test_cyclic_error():
    rng = np.random.default_rng(42)
    x = rng.uniform(-np.pi, np.pi, (10, 10))
    assert cyclic_error(x, x) == (0.0, 0.0)
    y = x.copy()
    y[0, 0] = wrap(x[0, 0] + np.pi)
    mse, max_err = cyclic_error(x, y)
    assert mse == pytest.approx(np.pi**2 / 100, abs=1e-12)
    assert max_err == pytest.approx(np.pi, abs=1e-12)
    shifted = np.vectorize(wrap)(x + TWO_PI)
    mse, max_err = cyclic_error(x, shifted)
    assert mse < 1e-28 and max_err < 1e-14
    with pytest.raises(ValueError):
        cyclic_error(x, x[:5])
