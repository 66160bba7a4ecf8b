"""Free-space outgoing Helmholtz kernels and the homogeneous point spread function.

Sign convention: (Delta + k^2) g0 = +delta with the Sommerfeld radiation
condition, i.e. g0 = -exp(ik r)/(4 pi r) in 3D and -(i/4) H0^(1)(k r) in 2D.
All downstream signs in the library follow from this single declaration.
"""

from __future__ import annotations

import numpy as np
from scipy.special import hankel1, j0

from .errors import InvalidArgumentError
from .grids import WaveContext


def g0_from_distance(r, ctx: WaveContext):
    """Kernel value as a function of the separation distance r > 0 (vectorized)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise InvalidArgumentError("free-space kernel evaluated at zero separation")
    if ctx.dim == 3:
        return -np.exp(1j * ctx.k * r) / (4.0 * np.pi * r)
    return -0.25j * hankel1(0, ctx.k * r)


def g0_between(x, y, ctx: WaveContext) -> np.ndarray:
    """Free kernel g0(x_i, y_j) of every row x_i of x against every row y_j of y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return g0_from_distance(np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2), ctx)


def im_g0_from_distance(r, ctx: WaveContext):
    """Imaginary part of g0 with the removable singularity filled (vectorized)."""
    r = np.asarray(r, dtype=float)
    kr = ctx.k * r
    if ctx.dim == 3:
        out = -np.sinc(kr / np.pi) * ctx.k / (4.0 * np.pi)   # np.sinc(0) is exactly 1
    else:
        out = -0.25 * j0(kr)
    return out if out.ndim else float(out)


def sinc_psf(r, ctx: WaveContext):
    """Homogeneous 3D time-reversal point spread function -sin(kr)/(4 pi k r)."""
    if ctx.dim != 3:
        raise InvalidArgumentError("sinc_psf is defined for dim=3")
    return im_g0_from_distance(r, ctx) / ctx.k


def sinc_psf_fwhm(ctx: WaveContext) -> float:
    """FWHM of |sinc_psf|: 2 x the root of sin(x)/x = 1/2 (exact to the last bit) over k."""
    return 2.0 * 1.895494267033981 / ctx.k
