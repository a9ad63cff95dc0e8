"""Energy models and their decomposition into disjoint stencil groups.

Two model kinds are supported. In ``noiseless`` mode the data pixels are
hard constraints and the energy is the weighted sum of absolute cyclic
differences over stencils that touch at least one unknown pixel. In
``noisy`` mode every in-domain stencil contributes and a quadratic
(cyclic) data-fidelity term over the known pixels is added.

The sweep solver needs the regularizer split into groups of stencils that
are pairwise pixel-disjoint, so their proximal mappings commute and can be
applied in one vectorized step.  ``enumerate_stencils`` produces that
split: first differences by parity of the leading index (two groups per
direction), second differences by residue mod 3 (three groups per
direction), mixed differences by the parity pair of the leading pixel
(four groups).  Groups are labeled 1..18 in that order; label 19 is the
data term.  Indices are 0-based and the residue-0 class always comes
first within a family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import (
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    DifferenceFilter,
    _theta_columns,
    _wrap_array,
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
    must be nonnegative and at least one positive.
    """

    alpha: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    beta: tuple[float, float] = (0.0, 0.0)
    gamma: float = 0.0

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        beta = tuple(float(b) for b in self.beta)
        if len(alpha) != 4 or len(beta) != 2:
            raise ValueError("alpha needs 4 entries and beta 2")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", float(self.gamma))
        parts = alpha + beta + (self.gamma,)
        if any(not np.isfinite(w) or w < 0.0 for w in parts):
            raise ValueError("weights must be finite and nonnegative")
        if all(w == 0.0 for w in parts):
            raise ValueError("at least one weight must be positive")


@dataclass(frozen=True, eq=False)
class SubFunctional:
    """One summand of the split energy.

    ``pixels`` holds the stencil coordinates as an (n, arity, 2) int array
    of (row, col) pairs; within one SubFunctional no pixel occurs twice
    (the disjointness that makes vectorized prox application valid).  The
    data term is encoded with ``filt = None``, arity 1 and weight 1.
    """

    label: int
    filt: DifferenceFilter | None
    weight: float
    pixels: np.ndarray

    @property
    def is_data_term(self) -> bool:
        return self.filt is None

    def __len__(self) -> int:
        return self.pixels.shape[0]


def _check_mask(shape, mask) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.shape != tuple(shape):
        raise ValueError(f"mask shape {mask.shape} does not match image shape {tuple(shape)}")
    if mask.dtype != bool:
        raise ValueError("mask must be boolean (True = known pixel)")
    return mask


# Stencil families in cycle order: (filter, weight index, pixel offsets
# from the leading pixel, row modulus, col modulus).  The class list of a
# family enumerates residues with 0 first, row residue varying fastest.
def _families(weights: Weights):
    a1, a2, a3, a4 = weights.alpha
    b1, b2 = weights.beta
    return (
        (FIRST_DIFF, a1, ((0, 0), (0, 1)), 1, 2),
        (FIRST_DIFF, a2, ((0, 0), (1, 0)), 2, 1),
        (FIRST_DIFF, a3 * _INV_SQRT2, ((0, 0), (1, 1)), 2, 1),
        (FIRST_DIFF, a4 * _INV_SQRT2, ((0, 1), (1, 0)), 2, 1),
        (SECOND_DIFF, b1, ((0, 0), (0, 1), (0, 2)), 1, 3),
        (SECOND_DIFF, b2, ((0, 0), (1, 0), (2, 0)), 3, 1),
        (MIXED_DIFF, weights.gamma, ((0, 0), (1, 0), (0, 1), (1, 1)), 2, 2),
    )


def enumerate_stencils(shape, mask, weights: Weights, model_kind: str) -> list[SubFunctional]:
    """Build the cycle of SubFunctionals for one problem instance.

    ``mask`` is boolean with True marking known pixels.  A family of
    stencils is emitted whenever its weight is positive and at least one
    stencil fits the image domain; its residue classes are then all
    present (possibly empty), so the cycle length depends only on which
    weights are active, not on the mask.  In ``noiseless`` mode stencils
    that touch no unknown pixel are dropped; in ``noisy`` mode all fitting
    stencils are kept and the data term is appended as label 19.
    """
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if n_rows < 1 or n_cols < 1:
        raise ValueError("image must have at least one pixel")
    known = _check_mask((n_rows, n_cols), mask)
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
    unknown = ~known

    groups: list[SubFunctional] = []
    label = 1
    for filt, weight, offsets, row_mod, col_mod in _families(weights):
        off = np.asarray(offsets, dtype=np.int64)
        lead_rows = n_rows - int(off[:, 0].max())
        lead_cols = n_cols - int(off[:, 1].max())
        n_classes = row_mod * col_mod
        if weight <= 0.0 or lead_rows < 1 or lead_cols < 1:
            label += n_classes
            continue
        for col_res in range(col_mod):
            for row_res in range(row_mod):
                rr = np.arange(row_res, lead_rows, row_mod, dtype=np.int64)
                cc = np.arange(col_res, lead_cols, col_mod, dtype=np.int64)
                lead = np.stack(
                    [np.repeat(rr, cc.size), np.tile(cc, rr.size)], axis=1
                )
                pix = lead[:, None, :] + off[None, :, :]
                if model_kind == "noiseless":
                    touches = unknown[pix[:, :, 0], pix[:, :, 1]].any(axis=1)
                    pix = pix[touches]
                groups.append(
                    SubFunctional(label=label, filt=filt, weight=float(weight), pixels=pix)
                )
                label += 1
    # Mixed classes are labeled 15..18 in the order (0,0),(1,0),(0,1),(1,1)
    # of the leading pixel's (row, col) parity, which the loop above emits
    # because the row residue varies fastest.
    if model_kind == "noisy":
        kr, kc = np.nonzero(known)
        pix = np.stack([kr, kc], axis=1)[:, None, :].astype(np.int64)
        groups.append(SubFunctional(label=DATA_LABEL, filt=None, weight=1.0, pixels=pix))
    return groups


def flat_columns(pixels: np.ndarray, n_cols: int) -> list[np.ndarray]:
    """Flat indices of (n, arity, 2) stencil coordinates, one contiguous
    ``intp`` array per stencil position."""
    return [
        pixels[:, j, 0].astype(np.intp) * n_cols + pixels[:, j, 1]
        for j in range(pixels.shape[1])
    ]


def stencil_energy(vals, filt: DifferenceFilter | None, weight: float, ref=None,
                   theta_buf=None, tmp_buf=None) -> float:
    """Energy of one group from its gathered values.

    ``vals`` holds one array per stencil position.  For a difference group
    this is ``weight * sum |wrap(<v, taps>)|``; for the data term
    (``filt`` None) it is ``sum dist(ref, v)^2`` over its single column.
    The optional buffers have the column length.  Non-finite values give
    NaN.
    """
    with np.errstate(invalid="ignore"):
        if filt is None:
            d = np.subtract(vals[0], ref, out=theta_buf)
            d = np.abs(_wrap_array(d, out=d, tmp=tmp_buf), out=d)
            return float(np.sum(np.square(d, out=d)))
        theta = _theta_columns(vals, out=theta_buf, tmp=tmp_buf)
        return weight * float(np.sum(np.abs(theta, out=theta)))


def group_energy(x: np.ndarray, f: np.ndarray, group: SubFunctional) -> float:
    """Energy contribution of one SubFunctional at the image ``x``."""
    cols = flat_columns(group.pixels, x.shape[1])
    vals = [np.ravel(x).take(c) for c in cols]
    ref = np.ravel(f).take(cols[0]) if group.is_data_term else None
    return stencil_energy(vals, group.filt, group.weight, ref)


def energy_from_groups(x: np.ndarray, f: np.ndarray, groups) -> float:
    return sum(group_energy(x, f, g) for g in groups)


def energy(x, f, mask, weights: Weights, model_kind: str) -> float:
    """Evaluate the model energy at ``x`` given data ``f``.

    ``x`` must hold angles in [-pi, pi) on every pixel and ``f`` on the
    known pixels; otherwise a ``ValueError`` names the argument and the
    first bad pixel.  In noiseless mode ``x`` must carry the data values
    on the known pixels exactly; that constraint is part of the model,
    not a soft term, and a violation raises ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.shape != f.shape or x.ndim != 2:
        raise ValueError(f"image shapes disagree: {x.shape} vs {f.shape}")
    known = _check_mask(x.shape, mask)
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
    check_phase_values(x, "x")
    check_phase_values(f, "f", where=known)
    if model_kind == "noiseless" and not np.array_equal(x[known], f[known]):
        raise ValueError("noiseless model requires x = f on known pixels")
    groups = enumerate_stencils(x.shape, known, weights, model_kind)
    return energy_from_groups(x, f, groups)
