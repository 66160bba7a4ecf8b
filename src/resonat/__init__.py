"""Resonance expansions of high-contrast Helmholtz Green functions and
sub-wavelength inverse-source imaging."""

__version__ = "0.1.0"

from .grids import (
    DomainGrid,
    MeasurementSurface,
    WaveContext,
    build_ball_grid,
    build_disk_grid,
    build_measurement_surface,
    radial_bump,
)
from .kernels import g0_between, sinc_psf, sinc_psf_fwhm
from .volume import (
    DiscreteOperator,
    assemble_kd,
    green_matrix,
    operator_from_matrix,
    singular_values,
)
from .spectral import (
    SpectralSystem,
    eigendecompose,
    resolvent_chain_coefficients,
)
from .expansion import (
    PsfProfile,
    alpha_expansion,
    beta_expansion,
    expansion_errors,
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
    l1_zero_threshold,
    l2_minimum_norm,
    resolution_metrics,
    synthesize_data,
    time_reversal,
)
