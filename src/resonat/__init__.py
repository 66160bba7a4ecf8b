"""Resonance expansions of high-contrast Helmholtz Green functions and
sub-wavelength inverse-source imaging."""

__version__ = "0.1.0"

import os

# OpenBLAS and MKL read their thread counts once, when numpy loads, so the cap
# is set before any submodule imports numpy. It has no effect on a process
# that imported numpy before resonat.
if os.environ.get("RESONAT_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["RESONAT_THREADS"])

from .grids import (
    DomainGrid,
    MeasurementSurface,
    WaveContext,
    build_ball_grid,
    build_disk_grid,
    build_measurement_surface,
    radial_bump,
)
from .kernels import far_field_g0, g0, g0_between, im_g0, sinc_psf, sinc_psf_fwhm
from .volume import (
    DiscreteOperator,
    apply_kd,
    assemble_kd,
    green_matrix,
    operator_from_matrix,
    singular_values,
)
from .spectral import (
    SpectralSystem,
    build_d_matrix,
    build_h_matrix,
    build_r_matrix,
    eigendecompose,
    resolvent_chain_coefficients,
    synthetic_jordan_system,
    verify_resonant_mode,
)
from .expansion import (
    PsfProfile,
    alpha_expansion,
    beta_expansion,
    expansion_errors,
    homogeneous_expansion,
    mode_mixing_report,
    partial_sum,
    psf_from_samples,
    psf_profile,
    truncation_error_curve,
    truncation_ranks,
)
from .imaging import (
    ForwardMap,
    ImagingResult,
    build_forward_map,
    homogeneous_hk_residual,
    l1_reconstruct,
    l2_minimum_norm,
    resolution_metrics,
    synthesize_data,
    time_reversal,
)
