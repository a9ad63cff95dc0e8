"""Variational inpainting and denoising of phase-valued (S1) images.

First and second order absolute cyclic differences regularize images
whose pixels are angles; the resulting energies are minimized by a
cyclic proximal point algorithm built from closed-form proximal
mappings.
"""

from .circle import (
    FILTERS,
    FIRST_DIFF,
    MIXED_DIFF,
    SECOND_DIFF,
    DifferenceFilter,
    abs_cyclic_diff,
    dist,
    exp_map,
    signed_cyclic_diff,
    wrap,
)
from .fileio import (
    FormatError,
    read_mask,
    read_phase,
    render_gray,
    render_hue,
    write_mask,
    write_phase,
)
from .initialization import initialize
from .model import (
    DATA_LABEL,
    Weights,
    energy,
    energy_from_groups,
    enumerate_stencils,
)
from .prox import (
    ProxDiffResult,
    prox_data,
    prox_diff,
    prox_diff_batch,
    prox_diff_objective,
)
from .solver import (
    NumericalError,
    SolverConfig,
    SolverReport,
    lambda_schedule,
    run_cppa,
)
from .synth import (
    add_wrapped_gaussian_noise,
    cyclic_error,
    gen_atan2,
    gen_blocks,
    gen_wrapped_ramp,
    mask_band,
    mask_disc,
    mask_random,
    mask_subsample3,
)

__version__ = "0.1.0"

__all__ = [
    "DATA_LABEL",
    "DifferenceFilter",
    "FILTERS",
    "FIRST_DIFF",
    "FormatError",
    "MIXED_DIFF",
    "NumericalError",
    "ProxDiffResult",
    "SECOND_DIFF",
    "SolverConfig",
    "SolverReport",
    "Weights",
    "abs_cyclic_diff",
    "add_wrapped_gaussian_noise",
    "cyclic_error",
    "dist",
    "energy",
    "energy_from_groups",
    "enumerate_stencils",
    "exp_map",
    "gen_atan2",
    "gen_blocks",
    "gen_wrapped_ramp",
    "initialize",
    "lambda_schedule",
    "mask_band",
    "mask_disc",
    "mask_random",
    "mask_subsample3",
    "prox_data",
    "prox_diff",
    "prox_diff_batch",
    "prox_diff_objective",
    "read_mask",
    "read_phase",
    "render_gray",
    "render_hue",
    "run_cppa",
    "signed_cyclic_diff",
    "wrap",
    "write_mask",
    "write_phase",
]
