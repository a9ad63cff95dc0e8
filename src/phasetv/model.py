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
    FILTERS,
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    DifferenceFilter,
    _check_choice,
    _check_image,
    _check_nonnegative,
    _check_shape,
    _near_wrap,
    _tap_sum,
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
    must be real numbers (Python or numpy ints and floats, not bools),
    nonnegative and at least one positive; they are stored as floats.
    """

    alpha: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    beta: tuple[float, float] = (0.0, 0.0)
    gamma: float = 0.0

    def __post_init__(self):
        alpha = _real_entries("alpha", self.alpha)
        beta = _real_entries("beta", self.beta)
        gamma = _check_nonnegative(self.gamma, "gamma")
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
    return tuple(_check_nonnegative(v, f"each entry of {name}") for v in entries)


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
    order of their leading pixels.  With ``index`` None the group is the
    whole lattice.  Otherwise it is a subset in index form: ``index``
    holds the flat index of each of its stencils' leading pixels, in the
    C-order image of shape ``image_shape``, and position j of a stencil
    lies ``offsets[j]`` further on.  The data term has ``filt = None``,
    weight 1 and one position.
    """

    label: int
    filt: DifferenceFilter | None
    weight: float
    shape: tuple[int, int]
    image_shape: tuple[int, int]
    windows: tuple[tuple[slice, slice], ...]
    index: np.ndarray | None = None

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
        return self.shape[0] * self.shape[1]

    def flat_index(self, where=None) -> list[np.ndarray]:
        """Index form: per stencil position, the flat indices of the
        group's pixels in stencil order; with ``where`` (a boolean image),
        only those of pixels where it is True."""
        if self.index is None:
            every = np.ones(self.shape, dtype=bool)
            return [_window_ids(w, every if where is None else where[w], self.image_shape[1])
                    for w in self.windows]
        ids = [self.index + o for o in self.offsets]
        if where is None:
            return ids
        where = where.reshape(-1)
        return [c[where[c]] for c in ids]


def _lattice_group(label, filt, weight, windows, keep, image_shape) -> StencilGroup:
    """A group from its lattice and the mask ``keep`` of the stencils it
    keeps (None: all of them); a partial lattice gets the index form."""
    shape = tuple(len(range(s.start, s.stop, s.step)) for s in windows[0])
    index = None
    if keep is not None and not keep.all():
        index = _window_ids(windows[0], keep, image_shape[1])
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
    known = _check_image(mask, "mask", (n_rows, n_cols), "the image's", kinds="b")
    noiseless = _check_choice(model_kind, "model_kind", MODEL_KINDS) == "noiseless"
    unknown = ~known if noiseless else None

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
    if unknown is None:
        whole = ((slice(0, n_rows, 1), slice(0, n_cols, 1)),)
        groups.append(_lattice_group(DATA_LABEL, None, 1.0, whole, known, known.shape))
    return groups


# The public name of the stencil enumeration.
enumerate_stencils = stencil_groups


def _bind(image: np.ndarray, group: StencilGroup, out=None):
    """``(cols, loads, stores)``: the group's columns and the copies
    between them and the 2-D ``image``, bound once for many calls.

    ``cols`` are the leading parts of the buffers in ``out`` (fresh ones
    when None), one per stencil position.  Each of ``loads`` copies one
    position's pixels into its column, in stencil order; each of
    ``stores`` copies a column back into the C-contiguous ``image``.
    """
    n = len(group)
    if out is None:
        out = [np.empty(n) for _ in group.windows]
    cols = [b[:n] for b, _ in zip(out, group.windows)]
    if group.index is None:
        pairs = [(image[w], c.reshape(group.shape)) for w, c in zip(group.windows, cols)]
        return (cols, [partial(np.copyto, c, v) for v, c in pairs],
                [partial(np.copyto, v, c) for v, c in pairs])
    # Index form: position j reads the one index through the image shifted by its offset.
    views = [image.reshape(-1)[o:] for o in group.offsets]
    return (cols, [partial(v.take, group.index, out=c, mode="clip") for v, c in zip(views, cols)],
            [partial(v.__setitem__, group.index, c) for v, c in zip(views, cols)])


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


def scatter(image: np.ndarray, group: StencilGroup, vals) -> None:
    """Write ``vals``, as :func:`gather` returns them, back to the group's
    pixels of the C-contiguous 2-D ``image``."""
    for store in _bind(image, group, vals)[2]:
        store()


def _scratch(groups) -> list[np.ndarray]:
    """Buffers for one group step or energy term of any of ``groups``: one
    per stencil position of the largest arity, plus two."""
    width = max(map(len, groups), default=0)
    return [np.empty(width) for _ in range(max(k.arity for k in FILTERS) + 2)]


def energy_from_groups(x, f, groups) -> float:
    """The energy at the 2-D image ``x``, summed over ``groups`` in order.

    A difference group adds ``weight * sum |wrap(<v, taps>)|`` over its
    stencils, the data term ``sum dist(v, f)^2`` over its pixels, with
    ``v`` read from ``x`` and the reference from ``f``.  A whole lattice
    forms its tap sums straight from the windows of ``x``; an index form
    and the data term are gathered first.  Either way the tap sums fill one
    contiguous buffer in stencil order, so both forms give the same bits.

    ``groups`` is a list of :class:`StencilGroup` as :func:`stencil_groups`
    builds it (empty: 0), ``x`` and ``f`` real images of their image shape,
    else a ``ValueError`` names the argument.  On purpose no value is
    checked, at no cost per pixel: NaN or inf gives NaN.
    """
    if not isinstance(groups, list | tuple) or not all(isinstance(g, StencilGroup) for g in groups):
        raise ValueError(f"groups must be a list of StencilGroups, got {type(groups).__name__}")
    for name, a in (("x", x), ("f", f)):
        for shape in {g.image_shape for g in groups} or {None}:
            _check_image(a, name, shape, "the groups'")
    return _energy(np.asarray(x, dtype=float), np.asarray(f, dtype=float), groups,
                   _scratch(groups))


def _energy(x: np.ndarray, f: np.ndarray, groups, scratch, f_data=None) -> float:
    """:func:`energy_from_groups` unchecked, with ``scratch`` from ``_scratch(groups)``
    and, optionally, the data term's reference ``f_data = gather(f, data_group)[0]``."""
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


def energy(x, f, mask, weights: Weights, model_kind: str) -> float:
    """Evaluate the model energy at ``x`` given data ``f``.

    ``x``, ``f`` and ``mask`` are checked as by
    :func:`phasetv.circle.check_phase_image`, ``x`` on every pixel and
    ``f`` on the known ones.  In noiseless mode ``x`` must carry the data
    values on the known pixels exactly; that constraint is part of the
    model, not a soft term, and a violation raises ``ValueError``.
    """
    x, f, known = _check_problem(x, f, mask, model_kind)
    x = np.ascontiguousarray(x)
    return energy_from_groups(x, f, stencil_groups(x.shape, known, weights, model_kind))
