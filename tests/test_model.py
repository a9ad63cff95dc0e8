import re
import warnings

import numpy as np
import pytest

from phasetv import (
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    Weights,
    dist,
    energy,
    energy_from_groups,
    enumerate_stencils,
    mask_band,
    mask_disc,
    mask_random,
    mask_subsample3,
    wrap,
)
import phasetv.model as model_mod
from phasetv.model import DATA_LABEL, _bind, stencil_groups

from cyclic_oracle import abs_cyclic_diff, gather as oracle_gather, scatter

ALL_ON = Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=1.0)


def _flatten(group):
    return group.pixels[:, :, 0] * 10_000 + group.pixels[:, :, 1]


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(alpha=(1, 1, 1), beta=(1, 1), gamma=1.0)
    with pytest.raises(ValueError):
        Weights(alpha=(1, 1, 1, -1), beta=(1, 1), gamma=1.0)
    with pytest.raises(ValueError):
        Weights()
    with pytest.raises(ValueError):
        Weights(alpha=(0, 0, 0, 0), beta=(np.nan, 0), gamma=0.0)
    # Entries that are not finite nonnegative real numbers name their field.
    for bad in ("1", True, np.True_, None, 1j, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            Weights(alpha=(bad, 1, 1, 1), beta=(1, 1), gamma=1.0)
        with pytest.raises(ValueError, match="beta"):
            Weights(alpha=(1, 1, 1, 1), beta=(1, bad), gamma=1.0)
        with pytest.raises(ValueError, match="gamma"):
            Weights(alpha=(1, 1, 1, 1), beta=(1, 1), gamma=bad)
    with pytest.raises(ValueError, match="alpha"):
        Weights(alpha=None, beta=(1, 1), gamma=1.0)
    # Python and numpy ints and floats are accepted and stored as floats.
    w = Weights(alpha=(1, np.int64(2), np.float32(0.5), 0.25), beta=np.array([1, 2]),
                gamma=np.float64(3))
    assert w == Weights(alpha=(1.0, 2.0, 0.5, 0.25), beta=(1.0, 2.0), gamma=3.0)
    assert all(type(v) is float for v in w.alpha + w.beta + (w.gamma,))


def test_single_pixel_domain():
    known = np.ones((1, 1), dtype=bool)
    assert enumerate_stencils((1, 1), known, ALL_ON, "noiseless") == []
    noisy = enumerate_stencils((1, 1), known, ALL_ON, "noisy")
    assert len(noisy) == 1 and noisy[0].label == DATA_LABEL


def test_full_cycle_on_4x4():
    known = np.zeros((4, 4), dtype=bool)
    groups = enumerate_stencils((4, 4), known, ALL_ON, "noiseless")
    assert [g.label for g in groups] == list(range(1, 19))
    for g in groups:
        flat = _flatten(g).ravel()
        assert np.unique(flat).size == flat.size, f"overlap in J{g.label}"
    # mixed group with leading parity (0, 0): four 2x2 blocks fit on 4x4
    j15 = groups[14]
    assert j15.filt is MIXED_DIFF
    leads = {tuple(p) for p in j15.pixels[:, 0, :]}
    assert leads == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_one_row_first_diff_only():
    known = np.ones((1, 3), dtype=bool)
    known[0, 1] = False
    w = Weights(alpha=(1, 0, 0, 0), beta=(0, 0), gamma=0.0)
    groups = enumerate_stencils((1, 3), known, w, "noiseless")
    assert [g.label for g in groups] == [1, 2]
    assert all(len(g) == 1 for g in groups)


def test_zero_weight_families_omitted():
    known = np.zeros((6, 6), dtype=bool)
    groups = enumerate_stencils((6, 6), known, Weights(gamma=2.0), "noiseless")
    assert [g.label for g in groups] == [15, 16, 17, 18]
    assert all(g.weight == 2.0 for g in groups)


def test_diagonal_weight_scaling():
    known = np.zeros((6, 6), dtype=bool)
    w = Weights(alpha=(0, 0, 3.0, 3.0), beta=(0, 0), gamma=0.0)
    groups = enumerate_stencils((6, 6), known, w, "noiseless")
    assert [g.label for g in groups] == [5, 6, 7, 8]
    for g in groups:
        assert g.weight == pytest.approx(3.0 / np.sqrt(2.0))


def test_restriction_to_unknown_touching_stencils():
    known = np.ones((5, 7), dtype=bool)
    known[2, 3] = False
    groups = enumerate_stencils((5, 7), known, ALL_ON, "noiseless")
    for g in groups:
        if len(g) == 0:
            continue
        unknown_hits = (g.pixels[:, :, 0] == 2) & (g.pixels[:, :, 1] == 3)
        assert unknown_hits.any(axis=1).all(), f"J{g.label} kept a detached stencil"
    noisy = enumerate_stencils((5, 7), known, ALL_ON, "noisy")
    assert noisy[-1].label == DATA_LABEL
    assert len(noisy[-1]) == known.sum()


def _brute_force_family(shape, offsets):
    n_rows, n_cols = shape
    off = np.asarray(offsets)
    out = set()
    for r in range(n_rows - off[:, 0].max()):
        for c in range(n_cols - off[:, 1].max()):
            out.add(tuple((r + dr, c + dc) for dr, dc in offsets))
    return out


def test_partition_covers_every_stencil_exactly_once():
    rng = np.random.default_rng(42)
    families = {
        FIRST_DIFF: [((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 0), (1, 1)), ((0, 1), (1, 0))],
        SECOND_DIFF: [((0, 0), (0, 1), (0, 2)), ((0, 0), (1, 0), (2, 0))],
        MIXED_DIFF: [((0, 0), (1, 0), (0, 1), (1, 1))],
    }
    for _ in range(10):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        known = rng.random(shape) < 0.6
        groups = enumerate_stencils(shape, known, ALL_ON, "noisy")
        seen = set()
        for g in groups:
            if g.is_data_term:
                continue
            for stencil in g.pixels:
                tup = tuple(map(tuple, stencil))
                assert tup not in seen, f"duplicate stencil {tup}"
                seen.add(tup)
        expected = set()
        for offset_list in families.values():
            for offsets in offset_list:
                expected |= _brute_force_family(shape, offsets)
        assert seen == expected


def _stencil_sets(groups):
    return {g.label: {tuple(map(tuple, s)) for s in g.pixels} for g in groups if not g.is_data_term}


def test_noiseless_groups_hold_the_stencils_that_touch_an_unknown_pixel():
    # Each noiseless group, in whatever form, holds exactly the stencils of
    # its noisy (whole-lattice) namesake that touch an unknown pixel.
    rng = np.random.default_rng(47)
    masks = [rng.random((11, 13)) < p for p in (0.3, 0.6, 0.9)]
    for top, left in ((0, 0), (3, 4), (5, 7), (7, 6), (8, 13), (13, 2)):
        known = np.ones((24, 23), bool)
        known[top:top + 5, left:left + 4] = False
        masks.append(known)
    masks.append(~mask_disc((30, 30), 4.0))
    for known in masks:
        noisy = _stencil_sets(stencil_groups(known.shape, known, ALL_ON, "noisy"))
        noiseless = _stencil_sets(stencil_groups(known.shape, known, ALL_ON, "noiseless"))
        assert noisy.keys() == noiseless.keys()
        for label, stencils in noisy.items():
            touching = {s for s in stencils if any(not known[p] for p in s)}
            assert noiseless[label] == touching, label


def test_full_lattices_keep_the_lattice_form():
    # Every stencil touches an unknown pixel under mask_subsample3, and
    # noisy mode keeps every stencil, so those difference groups are whole
    # lattices.  The stencils around a disc that fills most of the image
    # are a dense part of each lattice and take the dense form; those of a
    # sparse random loss take the index form.
    for shape in ((12, 12), (13, 8)):
        sub = mask_subsample3(shape)
        for groups in (stencil_groups(shape, sub, ALL_ON, "noiseless"),
                       stencil_groups(shape, mask_disc(shape, 3.0), ALL_ON, "noisy")[:-1]):
            assert len(groups) == 18
            assert all(g.index is None and g.keep is None for g in groups)
    for shape, radius in (((16, 16), 7.0), ((20, 20), 9.0)):
        disc = stencil_groups(shape, mask_disc(shape, radius), ALL_ON, "noiseless")
        assert len(disc) == 18
        assert all(g.index is None and g.keep.shape == g.shape for g in disc)
        assert all(0 < len(g) < g.keep.size for g in disc)
    sparse = stencil_groups((16, 16), mask_random((16, 16), 0.1, 3), ALL_ON, "noiseless")
    assert len(sparse) == 18 and all(g.index is not None and g.keep is None for g in sparse)


def test_mask_and_kind_validation():
    with pytest.raises(ValueError):
        enumerate_stencils((2, 2), np.ones((3, 3), bool), ALL_ON, "noiseless")
    with pytest.raises(ValueError):
        enumerate_stencils((2, 2), np.ones((2, 2), dtype=np.uint8), ALL_ON, "noiseless")
    with pytest.raises(ValueError):
        enumerate_stencils((2, 2), np.ones((2, 2), bool), ALL_ON, "fancy")


def test_energy_constant_image():
    x = np.full((8, 8), 1.25)
    known = np.zeros((8, 8), dtype=bool)
    assert energy(x, x, known, ALL_ON, "noiseless") == 0.0


def test_energy_single_pair():
    x = np.array([[-3.0, 3.0]])
    known = np.zeros((1, 2), dtype=bool)
    w = Weights(alpha=(1, 0, 0, 0), beta=(0, 0), gamma=0.0)
    got = energy(x, x, known, w, "noiseless")
    assert got == pytest.approx(2 * np.pi - 6.0, abs=1e-12)


def test_energy_noisy_at_data_is_pure_regularizer():
    rng = np.random.default_rng(7)
    f = rng.uniform(-np.pi, np.pi, (6, 6))
    known = rng.random((6, 6)) < 0.5
    reg = energy(f, f, known, ALL_ON, "noisy")
    all_unknown = np.zeros((6, 6), dtype=bool)
    assert reg == pytest.approx(energy(f, f, all_unknown, ALL_ON, "noiseless"), abs=1e-12)


def test_energy_shift_invariance():
    rng = np.random.default_rng(8)
    f = rng.uniform(-np.pi, np.pi, (10, 10))
    known = rng.random((10, 10)) < 0.7
    x = np.where(known, f, rng.uniform(-np.pi, np.pi, (10, 10)))
    base = energy(x, f, known, ALL_ON, "noisy")
    for alpha in (0.9, -2.5):
        xs = np.vectorize(wrap)(x + alpha)
        fs = np.vectorize(wrap)(f + alpha)
        assert energy(xs, fs, known, ALL_ON, "noisy") == pytest.approx(base, abs=1e-10)


def test_energy_constraint_violation_rejected():
    f = np.zeros((3, 3))
    x = f.copy()
    x[0, 0] = 0.5
    known = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError):
        energy(x, f, known, ALL_ON, "noiseless")


def test_energy_ignores_untouched_pixels():
    # 1 row, alpha1 only, single unknown at column 1: the stencil over
    # columns 2..3 is dropped, so the value at column 3 cannot matter.
    w = Weights(alpha=(1, 0, 0, 0), beta=(0, 0), gamma=0.0)
    known = np.array([[True, False, True, True]])
    f = np.array([[0.1, 0.0, -0.4, 0.9]])
    e1 = energy(f, f, known, w, "noiseless")
    f2 = f.copy()
    f2[0, 3] = -2.0
    e2 = energy(f2, f2, known, w, "noiseless")
    assert e1 == pytest.approx(e2, abs=1e-15)


def test_energy_rejects_non_angles():
    known = np.zeros((4, 4), dtype=bool)
    known[0, 0] = True
    f = np.zeros((4, 4))
    for bad in (np.nan, 50.0, np.pi, -np.inf):
        x = f.copy()
        x[2, 3] = bad
        with pytest.raises(ValueError, match=r"x value .* at pixel \(2, 3\)"):
            energy(x, f, known, ALL_ON, "noiseless")
        with pytest.raises(ValueError, match=r"x value .* at pixel \(2, 3\)"):
            energy(x, f, known, ALL_ON, "noisy")
        g = f.copy()
        g[0, 0] = bad
        with pytest.raises(ValueError, match=r"f value .* at pixel \(0, 0\)"):
            energy(f, g, known, ALL_ON, "noisy")
        # f is not read on unknown pixels.
        g = f.copy()
        g[2, 3] = bad
        assert energy(f, g, known, ALL_ON, "noisy") == 0.0


def _random_case(rng, shape, kind):
    """Data, mask, an admissible image and a random weight subset."""
    f = rng.uniform(-np.pi, np.pi, shape)
    known = rng.random(shape) < rng.uniform(0.0, 1.0)
    x = rng.uniform(-np.pi, np.pi, shape)
    if kind == "noiseless":
        x = np.where(known, f, x)
    active = rng.random(7) < 0.5
    active[rng.integers(7)] = True
    w7 = np.where(active, rng.uniform(0.1, 2.0, 7), 0.0)
    return x, f, known, Weights(alpha=tuple(w7[:4]), beta=tuple(w7[4:6]), gamma=w7[6])


def _random_shapes(rng, count):
    shapes = [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (2, 2), (3, 3)]
    return shapes + [(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
                     for _ in range(count)]


def _close(a, b):
    return abs(a - b) <= 1e-12 * abs(b)


def test_energy_matches_stencil_by_stencil_sum():
    # Independent of the lattice windows and of the energy's wrap: every
    # stencil's coordinates, one patch at a time through the sweep's
    # wrapped inner product, summed in Python.
    rng = np.random.default_rng(43)
    seen = {"lattice": 0, "dense": 0, "index": 0, "data": 0, "whole data": 0}
    cases = [(shape, kind, _random_case(rng, shape, kind))
             for shape in _random_shapes(rng, 30) for kind in ("noiseless", "noisy")]
    # A disc that fills most of the image: dense groups.  Two bands that
    # do not: index forms.
    for shape, known in (((20, 20), mask_disc((20, 20), 9.0)),
                         ((18, 27), mask_band((18, 27), start=9, width=6)),
                         ((25, 14), mask_band((25, 14), start=4, width=7, orientation="horizontal"))):
        x, f, _, w = _random_case(rng, shape, "noiseless")
        cases.append((shape, "noiseless", (np.where(known, f, x), f, known, w)))
        cases.append((shape, "noiseless", (np.where(known, f, x), f, known, ALL_ON)))
    # Every pixel known: the data term as a whole lattice.
    for shape in ((20, 20), (7, 11)):
        x, f, _, w = _random_case(rng, shape, "noisy")
        cases.append((shape, "noisy", (x, f, np.ones(shape, bool), w)))
    for shape, kind, (x, f, known, w) in cases:
        want = 0.0
        for g in enumerate_stencils(shape, known, w, kind):
            if len(g) == 0:
                continue
            form = "index" if g.index is not None else "lattice" if g.keep is None else "dense"
            seen[("data" if form == "index" else "whole data") if g.is_data_term else form] += 1
            pix = g.pixels
            if g.is_data_term:
                rows, cols = pix[:, 0, 0], pix[:, 0, 1]
                want += float(np.sum(dist(x[rows, cols], f[rows, cols]) ** 2))
                continue
            want += g.weight * sum(abs_cyclic_diff(x[p[:, 0], p[:, 1]], g.filt)
                                   for p in pix)
        assert _close(energy(x, f, known, w, kind), want), (shape, kind)
    assert all(count > 0 for count in seen.values()), seen


def test_energy_on_the_crop_matches_the_whole_image_groups():
    # energy() sums the groups of the hole's crop.  They must hold every
    # stencil that touches an unknown pixel, in the order of the whole
    # image's groups, so the energy is that of energy_from_groups over the
    # whole image's groups bit for bit: holes against every edge and
    # corner (the crop clamps there), holes whose first unknown row and
    # col are 0-7 (the origin's rounding), two far-apart holes, random
    # loss, and each weight subset of the random draws.
    rng = np.random.default_rng(47)
    crops = 0
    for shape in ((23, 26), (30, 19), (17, 33)):
        n_rows, n_cols = shape
        holes = [[(rows, cols)] for rows in (slice(0, 4), slice(9, 13), slice(n_rows - 4, None))
                 for cols in (slice(0, 5), slice(10, 14), slice(n_cols - 5, None))]
        holes += [[(slice(s, s + 4), slice(t, t + 3))] for s, t in zip(range(8), (3, 7, 0, 5, 2, 6, 1, 4))]
        holes.append([(slice(1, 3), slice(2, 4)), (slice(-3, -1), slice(-4, -2))])
        masks = []
        for hole in holes:
            known = np.ones(shape, bool)
            for rows, cols in hole:
                known[rows, cols] = False
            masks.append(known)
        masks += [rng.random(shape) >= p for p in (0.05, 0.3)]
        for known in masks:
            x, f, _, w = _random_case(rng, shape, "noiseless")
            x = np.where(known, f, x)
            for weights in (w, ALL_ON):
                whole = energy_from_groups(x, f, stencil_groups(shape, known, weights, "noiseless"))
                got = energy(x, f, known, weights, "noiseless")
                assert np.float64(got).view(np.uint64) == np.float64(whole).view(np.uint64), shape
            crops += f[model_mod._box(known, True)].shape != shape
    assert crops > 50


def test_energy_from_groups_non_finite_gives_nan_silently():
    rng = np.random.default_rng(44)
    for shape in ((6, 7), (1, 5), (5, 1)):
        f = rng.uniform(-np.pi, np.pi, shape)
        known = rng.random(shape) < 0.5
        known[-1, -1] = False  # so that noiseless stencils read the bad pixel
        for kind in ("noiseless", "noisy"):
            groups = stencil_groups(shape, known, ALL_ON, kind)
            for bad in (np.nan, np.inf, -np.inf):
                x = f.copy()
                x[-1, -1] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert np.isnan(energy_from_groups(x, f, groups)), (shape, kind, bad)


def test_energy_from_groups_of_largest_floats_is_that_of_the_wrapped_image():
    # The two largest floats of opposite sign in one read stencil inside a
    # 2x2 hole: their difference overflows unless the image is wrapped first.
    huge = np.finfo(float).max
    f = np.random.default_rng(46).uniform(-np.pi, np.pi, (8, 8))
    known = np.ones((8, 8), bool)
    known[3:5, 3:5] = False
    for kind in ("noiseless", "noisy"):
        groups = stencil_groups(f.shape, known, ALL_ON, kind)
        for big in (huge, -huge):
            x = f.copy()
            x[3, 3], x[3, 4] = big, -big
            g = f.copy()
            g[2, 2], g[2, 3] = big, -big
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert energy_from_groups(x, f, groups) == energy_from_groups(wrap(x), f, groups)
                assert energy_from_groups(f, g, groups) == energy_from_groups(f, wrap(g), groups)
                for bad in (np.nan, np.inf, -np.inf):
                    x[3, 4] = bad
                    assert np.isnan(energy_from_groups(x, f, groups)), (kind, bad)


def test_energy_invariant_under_transpose_and_flip():
    # Transposing swaps the horizontal and vertical families (alpha1 and
    # alpha2, beta1 and beta2) and maps each diagonal family and the mixed
    # one onto itself; a horizontal flip swaps the two diagonals (alpha3
    # and alpha4).  The solver's output has no such symmetry, since its
    # cycle order is fixed, but the energy of any image does.
    rng = np.random.default_rng(45)
    for shape in _random_shapes(rng, 30):
        for kind in ("noiseless", "noisy"):
            x, f, known, w = _random_case(rng, shape, kind)
            a1, a2, a3, a4 = w.alpha
            b1, b2 = w.beta
            base = energy(x, f, known, w, kind)
            transposed = Weights(alpha=(a2, a1, a3, a4), beta=(b2, b1), gamma=w.gamma)
            assert _close(energy(x.T, f.T, known.T, transposed, kind), base), (shape, kind)
            flipped = Weights(alpha=(a1, a2, a4, a3), beta=w.beta, gamma=w.gamma)
            flip = np.s_[:, ::-1]
            assert _close(energy(x[flip], f[flip], known[flip], flipped, kind), base), \
                (shape, kind)


def test_scatter_undoes_gather_on_lattice_and_index_groups():
    rng = np.random.default_rng(45)
    shape = (16, 16)
    x = rng.uniform(-np.pi, np.pi, shape)
    cases = {
        "lattice": stencil_groups(shape, mask_subsample3(shape), ALL_ON, "noiseless"),
        "dense": stencil_groups(shape, mask_disc(shape, 7.0), ALL_ON, "noiseless"),
        "index": stencil_groups(shape, mask_random(shape, 0.1, 3), ALL_ON, "noiseless"),
        "data term": stencil_groups(shape, mask_disc(shape, 3.0), ALL_ON, "noisy")[-1:],
        "whole data term": stencil_groups(shape, np.ones(shape, bool), ALL_ON, "noisy")[-1:],
    }
    whole = cases["lattice"] + cases["whole data term"]
    assert all(g.index is None and g.keep is None for g in whole)
    assert all(g.index is None and g.keep is not None for g in cases["dense"])
    assert all(g.index is not None for g in cases["index"] + cases["data term"])
    for name, groups in cases.items():
        for g in groups:
            vals = oracle_gather(x, g)
            buffers = [np.full(len(g) + 3, np.nan) for _ in g.windows]
            cols, loads, _ = _bind(x, g, buffers)
            for load in loads:
                load()
            if g.index is None:
                # A lattice form is read in place, a dense one as its whole lattice.
                assert all(np.shares_memory(c, x) and np.array_equal(c, x[w])
                           for c, w in zip(cols, g.windows)), (name, g.label)
            if g.keep is None:
                assert all(np.array_equal(c.reshape(-1), v) for c, v in zip(cols, vals)), \
                    (name, g.label)
            y = np.full(shape, np.nan)
            scatter(y, g, vals)
            touched = np.zeros(x.size, bool)
            touched[np.concatenate(g.flat_index())] = True
            touched = touched.reshape(shape)
            assert np.array_equal(y[touched], x[touched]), (name, g.label)
            assert np.isnan(y[~touched]).all(), (name, g.label)
            moved = [v + 1.0 for v in vals]
            scatter(y, g, moved)
            assert all(np.array_equal(a, b) for a, b in zip(oracle_gather(y, g), moved)), \
                (name, g.label)


def test_energy_from_groups_rejects_another_image_shape():
    shape = (16, 16)
    known = mask_disc(shape, 4.0)
    f = np.zeros(shape)
    for kind in ("noiseless", "noisy"):
        groups = stencil_groups(shape, known, ALL_ON, kind)
        for bad in ((8, 8), (16, 20), (16, 16, 1), (256,)):
            names = rf"shape {re.escape(str(bad))}, not the groups' \(16, 16\)$"
            with pytest.raises(ValueError, match="^x has " + names):
                energy_from_groups(np.zeros(bad), f, groups)
            with pytest.raises(ValueError, match="^f has " + names):
                energy_from_groups(f, np.zeros(bad), groups)
        assert energy_from_groups(f, f, groups) == 0.0


@pytest.mark.parametrize("kind, fraction, form", [
    ("noiseless", 0.2, "index"), ("noiseless", 0.5, "dense"),
    ("noisy", 0.2, "data"), ("noisy", 0.0, "denoising"),
])
def test_scratch_buffers_share_no_memory(kind, fraction, form):
    # The data term's reference is read once per run into ``ref``; a gather
    # column or theta on the same memory would overwrite it.
    n = 24
    groups = stencil_groups((n, n), mask_random((n, n), fraction, 1), ALL_ON, kind)
    forms = {"index": [g.index is not None and g.filt is not None for g in groups],
             "dense": [g.keep is not None for g in groups],
             "data": [g.index is not None and g.filt is None for g in groups],
             "denoising": [g.filt is None and g.index is g.keep is None for g in groups]}
    assert any(forms[form])
    cols, ref, theta = model_mod._scratch(groups)
    assert (ref is None) == (form != "data")
    buffers = [*cols, theta] + ([] if ref is None else [ref])
    for i, a in enumerate(buffers):
        assert not any(np.shares_memory(a, b) for b in buffers[i + 1:])
