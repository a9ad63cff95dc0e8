"""Energy models and their decomposition into disjoint stencil groups.

Two model kinds are supported. In ``noiseless`` mode the data pixels are
hard constraints and the energy is the weighted sum of absolute cyclic
differences over stencils that touch at least one unknown pixel. In
``noisy`` mode every in-domain stencil contributes and a quadratic
(cyclic) data-fidelity term over the known pixels is added.

The sweep solver needs the regularizer split into groups of stencils that
are pairwise pixel-disjoint, so their proximal mappings commute and can be
applied in one vectorized step.  ``stencil_groups`` produces that split:
first differences by parity of the leading index (two groups per
direction), second differences by residue mod 3 (three groups per
direction), mixed differences by the parity pair of the leading pixel
(four groups).  Groups are labeled 1..18 in that order; label 19 is the
data term.  Indices are 0-based and the residue-0 class always comes first
within a family.  ``energy``, :func:`energy_from_groups` and the solver's
energy trace all sum the groups in ``_energy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .circle import (
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    DifferenceFilter,
    _check_choice,
    _check_image,
    _check_number,
    _check_shape,
    _near_wrap,
    _tap_sum,
    _wrap_array,
    check_phase_image,
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
    are reals in [0, largest float], at least one positive, stored as floats.
    """

    alpha: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    beta: tuple[float, float] = (0.0, 0.0)
    gamma: float = 0.0

    def __post_init__(self):
        alpha = _real_entries("alpha", self.alpha)
        beta = _real_entries("beta", self.beta)
        gamma = _check_number(self.gamma, "gamma", 0.0)
        if len(alpha) != 4 or len(beta) != 2:
            raise ValueError("alpha needs 4 entries and beta 2")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        if all(w == 0.0 for w in alpha + beta + (gamma,)):
            raise ValueError("at least one weight must be positive")


def _real_entries(name: str, values) -> tuple[float, ...]:
    """``values`` as floats; ``ValueError`` naming ``name`` unless it is a
    sequence of finite nonnegative real numbers."""
    try:
        entries = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of real numbers, got {values!r}") from None
    return tuple(_check_number(v, f"each entry of {name}", 0.0) for v in entries)


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
    """The weight of each family of ``_FAMILIES``, in its order;
    ``ValueError`` unless ``weights`` is a :class:`Weights`."""
    if not isinstance(weights, Weights):
        raise ValueError(f"weights must be a Weights, got {weights!r}")
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
    order of their leading pixels.  The group has one of three forms.  A
    whole lattice has ``index`` and ``keep`` None.  In dense form ``keep``,
    a boolean array of shape ``shape``, marks the stencils it holds.  In
    index form, which wins over ``keep``, ``index`` holds the flat index
    of each stencil's leading pixel in the C-order image of shape
    ``image_shape``, and position j lies ``offsets[j]`` further on.  The
    data term has ``filt = None``, weight 1 and one position.
    """

    label: int
    filt: DifferenceFilter | None
    weight: float
    shape: tuple[int, int]
    image_shape: tuple[int, int]
    windows: tuple[tuple[slice, slice], ...]
    index: np.ndarray | None = None
    keep: np.ndarray | None = None

    @property
    def is_data_term(self) -> bool:
        return self.filt is None

    @property
    def offsets(self) -> tuple[int, ...]:
        """The flat offset of each stencil position from the leading one."""
        (r0, c0), n_cols = self.windows[0], self.image_shape[1]
        return tuple((r.start - r0.start) * n_cols + c.start - c0.start for r, c in self.windows)

    @property
    def pixels(self) -> np.ndarray:
        """The stencils as an (n, arity, 2) int64 array of (row, col)
        pairs, in stencil order; built on each access."""
        return np.stack([np.stack(np.divmod(c, self.image_shape[1]), axis=1).astype(np.int64)
                         for c in self.flat_index()], axis=1)

    def __len__(self) -> int:
        if self.index is not None:
            return self.index.size
        if self.keep is not None:
            return int(np.count_nonzero(self.keep))
        return self.shape[0] * self.shape[1]

    def flat_index(self, where=None) -> list[np.ndarray]:
        """Index form: per stencil position, the flat indices of the
        group's pixels in stencil order; with ``where`` (a boolean image),
        only those of pixels where it is True."""
        lead = self.index
        if lead is None:
            held = np.ones(self.shape, dtype=bool) if self.keep is None else self.keep
            lead = _window_ids(self.windows[0], held, self.image_shape[1])
        ids = [lead + o for o in self.offsets]
        if where is None:
            return ids
        where = where.reshape(-1)
        return [c[where[c]] for c in ids]


# The least share of its lattice a group needs for the dense form, a
# measured break-even: the README's Performance section gives the timings.
_DENSE = 0.65


def _lattice_group(label, filt, weight, windows, keep, image_shape) -> StencilGroup:
    """A group from its lattice and the mask ``keep`` of the stencils it
    keeps (None: all); a partial lattice of a difference group that keeps
    at least ``_DENSE`` of its stencils takes the dense form, any other the
    index form."""
    shape = tuple(len(range(s.start, s.stop, s.step)) for s in windows[0])
    index = None
    if keep is not None and keep.all():
        keep = None
    if keep is not None and (filt is None or np.count_nonzero(keep) < _DENSE * keep.size):
        index, keep = _window_ids(windows[0], keep, image_shape[1]), None
    return StencilGroup(label, filt, float(weight), shape, image_shape, windows, index, keep)


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
    Partial lattices take the form :func:`_lattice_group` chooses.
    """
    n_rows, n_cols = _check_shape(shape)
    known = _check_image(mask, "mask", (n_rows, n_cols), "the image's", kinds="b")
    noiseless = _check_choice(model_kind, "model_kind", MODEL_KINDS) == "noiseless"
    unknown = ~known if noiseless else None

    groups: list[StencilGroup] = []
    label = 1
    for (filt, offsets, row_mod, col_mod), weight in zip(_FAMILIES, _family_weights(weights)):
        reach_rows = max(dr for dr, _ in offsets)
        reach_cols = max(dc for _, dc in offsets)
        if weight <= 0.0 or n_rows <= reach_rows or n_cols <= reach_cols:
            label += row_mod * col_mod
            continue
        for col_res in range(col_mod):
            for row_res in range(row_mod):
                windows = tuple(
                    (slice(row_res + dr, n_rows - reach_rows + dr, row_mod),
                     slice(col_res + dc, n_cols - reach_cols + dc, col_mod))
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
    if unknown is None:
        whole = ((slice(0, n_rows, 1), slice(0, n_cols, 1)),)
        groups.append(_lattice_group(DATA_LABEL, None, 1.0, whole, known, known.shape))
    return groups


# The public name of the stencil enumeration.
enumerate_stencils = stencil_groups


def _bind(image: np.ndarray, group: StencilGroup, out=None, fixed=None):
    """``(cols, loads, stores)``: the group's columns and the copies
    between them and the 2-D ``image``, bound once for many calls.

    ``cols`` are the leading parts of the buffers in ``out`` (fresh ones
    when None), one per stencil position.  Each of ``loads`` copies one
    position's pixels into its column, in stencil order; each of
    ``stores`` copies a column back into the C-contiguous ``image``.  With
    ``fixed``, a (mask, values) pair of images, the last store resets the
    group's pixels where the mask is True to the values.
    """
    n = len(group)
    if out is None:
        out = [np.empty(n) for _ in group.windows]
    cols = [b[:n] for b, _ in zip(out, group.windows)]
    if group.index is None and group.keep is None:
        pairs = [(image[w], c.reshape(group.shape)) for w, c in zip(group.windows, cols)]
        loads = [partial(np.copyto, c, v) for v, c in pairs]
        stores = [partial(np.copyto, v, c) for v, c in pairs]
    else:
        # Index form (a dense form is turned into it): position j reads the
        # one index through the image shifted by its offset.
        index = group.flat_index()[0] if group.index is None else group.index
        views = [image.reshape(-1)[o:] for o in group.offsets]
        loads = [partial(v.take, index, out=c, mode="clip") for v, c in zip(views, cols)]
        stores = [partial(v.__setitem__, index, c) for v, c in zip(views, cols)]
    if fixed is not None:
        touched = np.concatenate(group.flat_index(fixed[0]))
        stores.append(partial(image.reshape(-1).__setitem__, touched, fixed[1].flat[touched]))
    return cols, loads, stores


def gather(image: np.ndarray, group: StencilGroup, out=None) -> list[np.ndarray]:
    """The group's values in the 2-D ``image``, one contiguous array per
    stencil position, in stencil order.  ``out`` optionally holds one
    buffer per position, of at least the group's length; the returned
    arrays are their leading parts.
    """
    cols, loads, _ = _bind(image, group, out)
    for load in loads:
        load()
    return cols


def _scratch(groups, longest=0) -> list[np.ndarray]:
    """Buffers for one group step or energy term of any of ``groups``: a
    column per stencil position of the groups that gather (index forms and
    the data term) and, last, one for the data term's reference, as long as
    the longest of them, plus two as long as any group (a dense form: its
    lattice) or ``longest``."""
    gathered = [g for g in groups if g.index is not None or g.filt is None]
    width = max(map(len, gathered), default=0)
    arity = max((1 if g.filt is None else g.filt.arity for g in gathered), default=0)
    arity += any(g.filt is None for g in groups)
    longest = max([longest, *(len(g) if g.keep is None else g.keep.size for g in groups)])
    return [np.empty(width) for _ in range(arity)] + [np.empty(longest), np.empty(longest)]


def energy_from_groups(x, f, groups) -> float:
    """The energy at the 2-D image ``x``, summed over ``groups`` in order.

    A difference group adds ``weight * sum |wrap(<v, taps>)|`` over its
    stencils, the data term ``sum dist(v, f)^2`` over its pixels, with
    ``v`` read from ``x`` and the reference from ``f``.  Every group form
    gives the same bits: its tap sums fill one buffer in stencil order.

    ``groups`` is a list of :class:`StencilGroup` as :func:`stencil_groups`
    builds it (empty: 0), ``x`` and ``f`` real images of their image shape,
    else a ``ValueError`` names the argument.  Values are wrapped first,
    so finite ones of any size give the energy of the wrapped images; on
    purpose they are not checked: NaN or inf gives NaN.
    """
    if not isinstance(groups, list | tuple) or not all(isinstance(g, StencilGroup) for g in groups):
        raise ValueError(f"groups must be a list of StencilGroups, got {type(groups).__name__}")
    for name, a in (("x", x), ("f", f)):
        for shape in {g.image_shape for g in groups} or {None}:
            _check_image(a, name, shape, "the groups'")
    with np.errstate(invalid="ignore"):
        x, f = (_wrap_array(np.asarray(a, dtype=float)) for a in (x, f))
    return _energy(x, f, groups, _scratch(groups))


def _energy(x: np.ndarray, f: np.ndarray, groups, scratch, f_data=None) -> float:
    """:func:`energy_from_groups` unchecked, with ``scratch`` from ``_scratch(groups)``
    and, optionally, the data term's reference ``f_data``, gathered from ``f``."""
    *columns, theta_buf, tmp_buf = scratch
    total = 0
    with np.errstate(invalid="ignore"):
        for g in groups:
            n = len(g)
            theta, tmp = theta_buf[:n], tmp_buf[:n]
            if g.filt is None:
                if f_data is None:
                    f_data = gather(f, g, columns[-1:])[0]
                np.subtract(gather(x, g, columns)[0], f_data, out=theta)
                total += float(np.sum(np.square(_near_wrap(theta, tmp), out=theta)))
                continue
            if g.index is not None:
                _tap_sum(gather(x, g, columns), theta)
            else:
                sums = theta if g.keep is None else tmp_buf[:g.keep.size]
                _tap_sum([x[w] for w in g.windows], sums.reshape(g.shape))
                if g.keep is not None:
                    np.compress(g.keep.reshape(-1), sums, out=theta)
            total += g.weight * float(np.sum(np.abs(_near_wrap(theta, tmp), out=theta)))
    return total


def _check_problem(x, f, mask, model_kind: str, start: bool = False):
    """``(x, f, known)`` as float images and mask, checked as ``energy`` and ``run_cppa``
    document, in this order: images and mask, ``f`` on the known pixels, ``x``,
    ``model_kind``.  For a ``start`` the messages call ``x`` ``x0``."""
    what = "x0" if start else "x"
    x = _check_image(x, what).astype(float, copy=False)
    f = check_phase_image(f, "f", mask, shape=x.shape, of=f"{what}'s")
    known = np.asarray(mask)
    check_phase_values(x, what)
    noiseless = _check_choice(model_kind, "model_kind", MODEL_KINDS) == "noiseless"
    if noiseless and not np.array_equal(x[known], f[known]):
        raise ValueError(f"{what} must equal f on known pixels in noiseless mode")
    return x, f, known


def _box(known: np.ndarray, noiseless: bool) -> tuple[slice, slice]:
    """The (row, col) slices of the problem's crop, which holds every
    stencil that carries energy: in noiseless mode with a pixel unknown,
    the bounding box of the unknown pixels with a margin of 2, its origin
    rounded down to a multiple of 6, the lcm of the strides, so that each
    residue class of the crop is one of the image; else the whole image."""
    unknown = ~known
    if not noiseless or not unknown.any():
        return slice(0, known.shape[0]), slice(0, known.shape[1])
    box = []
    for axis, n in enumerate(known.shape):
        lines = np.flatnonzero(unknown.any(axis=1 - axis)).tolist()
        box.append(slice(max(lines[0] - 2, 0) // 6 * 6, min(lines[-1] + 3, n)))
    return tuple(box)


def energy(x, f, mask, weights: Weights, model_kind: str) -> float:
    """Evaluate the model energy at ``x`` given data ``f``.

    ``x``, ``f`` and ``mask`` are checked as by
    :func:`phasetv.circle.check_phase_image`, ``x`` on every pixel and
    ``f`` on the known ones.  In noiseless mode ``x`` must carry the data
    values on the known pixels exactly; that constraint is part of the
    model, not a soft term, and a violation raises ``ValueError``.
    """
    x, f, known = _check_problem(x, f, mask, model_kind)
    # Summed on the crop, the groups hold the same stencils in the same
    # order as on the whole image, so the energy keeps its bits.
    box = _box(known, model_kind == "noiseless")
    x, f, known = x[box], f[box], known[box]
    return energy_from_groups(x, f, stencil_groups(x.shape, known, weights, model_kind))
