"""Energy models and their decomposition into disjoint stencil groups.

Two model kinds are supported. In ``noiseless`` mode the data pixels are
hard constraints and the energy is the weighted sum of absolute cyclic
differences over stencils that touch at least one unknown pixel. In
``noisy`` mode every in-domain stencil contributes and a quadratic
(cyclic) data-fidelity term over the known pixels is added.

The sweep solver needs the regularizer split into groups of stencils that
are pairwise pixel-disjoint, so their proximal mappings commute and can be
applied in one vectorized step.  ``stencil_groups`` produces that
split: first differences by parity of the leading index (two groups per
direction), second differences by residue mod 3 (three groups per
direction), mixed differences by the parity pair of the leading pixel
(four groups).  Groups are labeled 1..18 in that order; label 19 is the
data term.  Indices are 0-based and the residue-0 class always comes
first within a family.  Each group is a regular lattice, one strided
window of the image per stencil position, so it needs no coordinates;
only a partial lattice carries flat pixel indices.  ``energy`` and the
solver's energy trace both sum the groups in :func:`energy_from_groups`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import (
    FILTERS,
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    DifferenceFilter,
    _abs_wrap,
    _check_real,
    _check_shape,
    _near_wrap,
    _tap_sum,
    check_phase_values,
)

MODEL_KINDS = ("noiseless", "noisy")

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

DATA_LABEL = 19


@dataclass(frozen=True)
class Weights:
    """Regularizer weights.

    ``alpha`` weights the four first-difference directions (horizontal,
    vertical, diagonal, anti-diagonal; the diagonal pair is internally
    scaled by 1/sqrt(2)).  ``beta`` weights the horizontal and vertical
    second differences, ``gamma`` the mixed 2x2 difference.  All entries
    must be real numbers (Python or numpy ints and floats, not bools),
    nonnegative and at least one positive; they are stored as floats.
    """

    alpha: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    beta: tuple[float, float] = (0.0, 0.0)
    gamma: float = 0.0

    def __post_init__(self):
        alpha = _real_entries("alpha", self.alpha)
        beta = _real_entries("beta", self.beta)
        gamma = _check_real(self.gamma, "gamma")
        if len(alpha) != 4 or len(beta) != 2:
            raise ValueError("alpha needs 4 entries and beta 2")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        parts = alpha + beta + (gamma,)
        if any(not np.isfinite(w) or w < 0.0 for w in parts):
            raise ValueError("weights must be finite and nonnegative")
        if all(w == 0.0 for w in parts):
            raise ValueError("at least one weight must be positive")


def _real_entries(name: str, values) -> tuple[float, ...]:
    """``values`` as floats; ``ValueError`` naming ``name`` unless it is a
    sequence of real numbers."""
    try:
        entries = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of real numbers, got {values!r}") from None
    return tuple(_check_real(v, f"each entry of {name}") for v in entries)


def _check_mask(shape, mask) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.shape != tuple(shape):
        raise ValueError(f"mask shape {mask.shape} does not match image shape {tuple(shape)}")
    if mask.dtype != bool:
        raise ValueError("mask must be boolean (True = known pixel)")
    return mask


# Stencil families in cycle order: (filter, pixel offsets from the leading
# pixel, row modulus, col modulus).  The class list of a family enumerates
# residues with 0 first, row residue varying fastest.  The initializer reads
# the offsets from here as well.
_FAMILIES = (
    (FIRST_DIFF, ((0, 0), (0, 1)), 1, 2),
    (FIRST_DIFF, ((0, 0), (1, 0)), 2, 1),
    (FIRST_DIFF, ((0, 0), (1, 1)), 2, 1),
    (FIRST_DIFF, ((0, 1), (1, 0)), 2, 1),
    (SECOND_DIFF, ((0, 0), (0, 1), (0, 2)), 1, 3),
    (SECOND_DIFF, ((0, 0), (1, 0), (2, 0)), 3, 1),
    (MIXED_DIFF, ((0, 0), (1, 0), (0, 1), (1, 1)), 2, 2),
)


def _family_weights(weights: Weights) -> tuple[float, ...]:
    """The weight of each family of ``_FAMILIES``, in its order."""
    a1, a2, a3, a4 = weights.alpha
    b1, b2 = weights.beta
    return (a1, a2, a3 * _INV_SQRT2, a4 * _INV_SQRT2, b1, b2, weights.gamma)


def _window_ids(window, sel, n_cols: int) -> np.ndarray:
    """Flat indices of the pixels of ``image[window]`` where ``sel`` (of the
    window's shape) is True, in row-major order."""
    rows, cols = window
    i, k = np.nonzero(sel)
    return (rows.start + rows.step * i) * n_cols + (cols.start + cols.step * k)


@dataclass(frozen=True, eq=False)
class StencilGroup:
    """One summand of the split energy: pairwise pixel-disjoint stencils of
    one filter family, described by their lattice.

    ``windows[j]`` is a (row slice, col slice) pair: ``image[windows[j]]``
    is a strided view of shape ``shape`` holding the pixel at stencil
    position j of every stencil of the lattice, the stencils in row-major
    order of their leading pixels.  With ``index`` None the group is the
    whole lattice.  Otherwise it is a subset in index form: ``index[j]``
    holds the flat pixel indices of position j, one entry per stencil of
    the group, in the C-order image of shape ``image_shape``.  The data
    term has ``filt = None``, weight 1 and one position.
    """

    label: int
    filt: DifferenceFilter | None
    weight: float
    shape: tuple[int, int]
    image_shape: tuple[int, int]
    windows: tuple[tuple[slice, slice], ...]
    index: tuple[np.ndarray, ...] | None = None

    @property
    def is_data_term(self) -> bool:
        return self.filt is None

    @property
    def pixels(self) -> np.ndarray:
        """The stencils as an (n, arity, 2) int64 array of (row, col)
        pairs, in stencil order; built on each access."""
        return np.stack([np.stack(np.divmod(c, self.image_shape[1]), axis=1).astype(np.int64)
                         for c in self.flat_index()], axis=1)

    def __len__(self) -> int:
        if self.index is not None:
            return self.index[0].size
        return self.shape[0] * self.shape[1]

    def flat_index(self, where=None) -> list[np.ndarray]:
        """Index form: per stencil position, the flat indices of the
        group's pixels in stencil order; with ``where`` (a boolean image),
        only those of pixels where it is True."""
        if self.index is None:
            every = np.ones(self.shape, dtype=bool)
            return [_window_ids(w, every if where is None else where[w], self.image_shape[1])
                    for w in self.windows]
        if where is None:
            return list(self.index)
        where = where.reshape(-1)
        return [c[where[c]] for c in self.index]


def _lattice_group(label, filt, weight, windows, keep, image_shape) -> StencilGroup:
    """A group from its lattice and the mask ``keep`` of the stencils it
    keeps (None: all of them); a partial lattice gets the index form."""
    rows, cols = windows[0]
    shape = (len(range(rows.start, rows.stop, rows.step)),
             len(range(cols.start, cols.stop, cols.step)))
    index = None
    if keep is not None and not keep.all():
        index = tuple(_window_ids(w, keep, image_shape[1]) for w in windows)
    return StencilGroup(label, filt, float(weight), shape, image_shape, windows, index)


def stencil_groups(shape, mask, weights: Weights, model_kind: str) -> list[StencilGroup]:
    """Build the cycle of stencil groups for one problem instance.

    ``mask`` is boolean with True marking known pixels.  A family of
    stencils is emitted whenever its weight is positive and at least one
    stencil fits the image domain; its residue classes are then all
    present (possibly empty), so the cycle length depends only on which
    weights are active, not on the mask.  In ``noiseless`` mode stencils
    that touch no unknown pixel are dropped; in ``noisy`` mode all fitting
    stencils are kept and the data term, the stride-1 lattice over the
    whole image restricted to the known pixels, is appended as label 19.
    A group keeps the lattice form when it holds every stencil of its
    lattice, which is always the case in ``noisy`` mode; otherwise it
    gets the index form.
    """
    n_rows, n_cols = _check_shape(shape)
    known = _check_mask((n_rows, n_cols), mask)
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
    unknown = ~known if model_kind == "noiseless" else None

    groups: list[StencilGroup] = []
    label = 1
    for (filt, offsets, row_mod, col_mod), weight in zip(_FAMILIES, _family_weights(weights)):
        lead_rows = n_rows - max(dr for dr, _ in offsets)
        lead_cols = n_cols - max(dc for _, dc in offsets)
        if weight <= 0.0 or lead_rows < 1 or lead_cols < 1:
            label += row_mod * col_mod
            continue
        for col_res in range(col_mod):
            for row_res in range(row_mod):
                windows = tuple(
                    (slice(row_res + dr, lead_rows + dr, row_mod),
                     slice(col_res + dc, lead_cols + dc, col_mod))
                    for dr, dc in offsets
                )
                keep = None
                if unknown is not None:
                    keep = unknown[windows[0]].copy()
                    for w in windows[1:]:
                        keep |= unknown[w]
                groups.append(_lattice_group(label, filt, weight, windows, keep, known.shape))
                label += 1
    # Mixed classes are labeled 15..18 in the order (0,0),(1,0),(0,1),(1,1)
    # of the leading pixel's (row, col) parity, which the loop above emits
    # because the row residue varies fastest.
    if model_kind == "noisy":
        whole = ((slice(0, n_rows, 1), slice(0, n_cols, 1)),)
        groups.append(_lattice_group(DATA_LABEL, None, 1.0, whole, known, known.shape))
    return groups


# The public name of the stencil enumeration.
enumerate_stencils = stencil_groups


def gather(image: np.ndarray, group: StencilGroup, out=None) -> list[np.ndarray]:
    """The group's values in the 2-D ``image``, one contiguous array per
    stencil position, in stencil order.

    A lattice is read by a strided copy, an index form by ``np.take``.
    ``out`` optionally holds one buffer per position, of at least the
    group's length; the returned arrays are their leading parts.
    """
    n = len(group)
    if out is None:
        out = [np.empty(n) for _ in group.windows]
    vals = [b[:n] for b, _ in zip(out, group.windows)]
    if group.index is None:
        for v, w in zip(vals, group.windows):
            np.copyto(v.reshape(group.shape), image[w])
    else:
        flat = image.reshape(-1)
        for v, c in zip(vals, group.index):
            np.take(flat, c, out=v, mode="clip")
    return vals


def scatter(image: np.ndarray, group: StencilGroup, vals) -> None:
    """Write ``vals``, as :func:`gather` returns them, back to the group's
    pixels of the C-contiguous 2-D ``image``."""
    if group.index is None:
        for w, v in zip(group.windows, vals):
            np.copyto(image[w], v.reshape(group.shape))
    else:
        flat = image.reshape(-1)
        for c, v in zip(group.index, vals):
            flat[c] = v


def _scratch(groups) -> list[np.ndarray]:
    """Buffers for one group step or energy term of any of ``groups``: one
    per stencil position of the largest arity, plus two."""
    width = max(map(len, groups), default=0)
    return [np.empty(width) for _ in range(max(k.arity for k in FILTERS) + 2)]


def energy_from_groups(x: np.ndarray, f: np.ndarray, groups, scratch=None, f_data=None) -> float:
    """The energy at the 2-D image ``x``, summed over ``groups`` in order.

    A difference group adds ``weight * sum |wrap(<v, taps>)|`` over its
    stencils, the data term ``sum dist(v, f)^2`` over its pixels, with
    ``v`` read from ``x`` and the reference from ``f``.  A whole lattice
    forms its tap sums straight from the windows of ``x``; an index form
    and the data term are gathered first.  Either way the tap sums fill one
    contiguous buffer in stencil order, so both forms give the same bits.
    ``scratch`` optionally holds reusable buffers as made by
    ``_scratch(groups)``, and ``f_data`` the data term's reference
    ``gather(f, data_group)[0]``.  Non-finite values give NaN; an ``x`` or
    ``f`` not of the groups' image shape raises ``ValueError``.
    """
    for name, a in (("x", x), ("f", f)):
        if groups and np.shape(a) != groups[0].image_shape:
            raise ValueError(f"{name} has shape {np.shape(a)},"
                             f" not the groups' {groups[0].image_shape}")
    if scratch is None:
        scratch = _scratch(groups)
    *columns, theta_buf, tmp_buf = scratch
    total = 0
    with np.errstate(invalid="ignore"):
        for g in groups:
            n = len(g)
            theta, tmp = theta_buf[:n], tmp_buf[:n]
            if g.filt is None:
                if f_data is None:
                    f_data = gather(f, g, columns[1:])[0]
                np.subtract(gather(x, g, columns)[0], f_data, out=theta)
                total += float(np.sum(np.square(_near_wrap(theta, tmp), out=theta)))
                continue
            if g.index is None:
                _tap_sum([x[w] for w in g.windows], theta.reshape(g.shape))
            else:
                _tap_sum(gather(x, g, columns), theta)
            total += g.weight * float(np.sum(_abs_wrap(theta, tmp)))
    return total


def _check_problem(x, f, mask, model_kind: str, start: bool = False):
    """``(x, f, known)`` as float images and boolean mask, after the
    checks that ``energy`` and ``run_cppa`` document (``stencil_groups``
    checks ``model_kind``).  A solver ``start``, named ``x0``, is checked
    only where it is known or finite."""
    what = "x0" if start else "x"
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.shape != f.shape or x.ndim != 2:
        raise ValueError(f"image shapes disagree: {x.shape} vs {f.shape}")
    known = _check_mask(x.shape, mask)
    check_phase_values(f, "f", where=known)
    check_phase_values(x, what, where=known | np.isfinite(x) if start else None)
    if model_kind == "noiseless" and not np.array_equal(x[known], f[known]):
        raise ValueError(f"{what} must equal f on known pixels in noiseless mode")
    return x, f, known


def energy(x, f, mask, weights: Weights, model_kind: str) -> float:
    """Evaluate the model energy at ``x`` given data ``f``.

    ``x`` must hold angles in [-pi, pi) on every pixel and ``f`` on the
    known pixels; otherwise a ``ValueError`` names the argument and the
    first bad pixel.  In noiseless mode ``x`` must carry the data values
    on the known pixels exactly; that constraint is part of the model,
    not a soft term, and a violation raises ``ValueError``.
    """
    x, f, known = _check_problem(x, f, mask, model_kind)
    x = np.ascontiguousarray(x)
    return energy_from_groups(x, f, stencil_groups(x.shape, known, weights, model_kind))
