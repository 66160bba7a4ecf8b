"""Quadrature grids for the source domain, the radial-bump refractive index,
and far-field surfaces.

The domain D is discretized by uniform cell-center (midpoint) quadrature: a
Cartesian lattice covering the bounding box, keeping the cells whose center lies
strictly inside the shape. Weights are the full cell measure (no partial-cell
clipping), which gives an O(h) boundary error in the total measure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError


def _require_memory(need: int, what: str) -> None:
    """Refuse `what`, whose working set is `need` bytes, when that is more than
    physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise NumericFailureError(f"{what} needs at least {need / 1e9:.3g} GB, more than "
                                  f"the {have / 1e9:.3g} GB of physical memory")


@dataclass(frozen=True)
class WaveContext:
    """Wavenumber and spatial dimension of the experiment."""

    k: float
    dim: int

    def __post_init__(self):
        if not (self.k > 0):
            raise InvalidArgumentError(f"wavenumber k must be positive, got {self.k}")
        if self.dim not in (2, 3):
            raise InvalidArgumentError(f"dim must be 2 or 3, got {self.dim}")

    @property
    def wavelength(self) -> float:
        return 2.0 * np.pi / self.k


@dataclass(frozen=True)
class DomainGrid:
    """Midpoint-rule quadrature of a disk (dim=2) or ball (dim=3).

    ``lattice_index`` holds the integer Cartesian indices of each kept cell and
    ``lattice_shape`` the full lattice extent, so point values can be embedded
    back into a dense array (used for discrete Fourier diagnostics) and lattice
    symmetries turned into point permutations (used by the blocked eigensolver
    and direct solve).
    """

    points: np.ndarray          # (N, dim)
    weights: np.ndarray         # (N,)
    cell_size: float
    radius: float
    lattice_index: np.ndarray = field(repr=False)   # (N, dim) ints
    lattice_shape: tuple = ()

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def lattice_permutation(self, image: np.ndarray):
        """The point permutation p with p[i] the kept cell at lattice index
        image[i], for an (N, dim) index array inside lattice_shape, or None when
        some image[i] is not a kept cell."""
        lookup = np.full(self.lattice_shape, -1)
        lookup[tuple(self.lattice_index.T)] = np.arange(self.n_points)
        p = lookup[tuple(np.asarray(image).T)]
        return None if np.any(p < 0) else p

    def contains(self, x) -> bool:
        return float(np.linalg.norm(np.asarray(x, dtype=float))) < self.radius

    def nearest_index(self, x) -> int:
        """Index of the grid node nearest x, a point strictly inside the domain."""
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise InvalidArgumentError(f"point {x} lies outside the domain")
        return int(np.argmin(np.linalg.norm(self.points - x, axis=1)))


@dataclass(frozen=True)
class MeasurementSurface:
    """Quadrature points on the far-field circle/sphere of radius R."""

    points: np.ndarray    # (m, dim)
    weights: np.ndarray   # (m,)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _lattice_grid(radius: float, cells_per_diameter: int, ctx: WaveContext, dim: int,
                  name: str) -> DomainGrid:
    """Cells of the cells^dim lattice over [-radius, radius]^dim whose center
    lies strictly inside the disk/ball, each weighted by the full cell measure;
    refuses a cell measure that is zero, subnormal or infinite."""
    if ctx.dim != dim:
        raise InvalidArgumentError(f"{name} requires ctx.dim == {dim}")
    if not (radius > 0):
        raise InvalidArgumentError(f"radius must be positive, got {radius}")
    if cells_per_diameter < 2:
        raise InvalidArgumentError("cells_per_diameter must be at least 2")
    h = 2.0 * radius / cells_per_diameter
    with np.errstate(over="ignore", under="ignore"):
        w = float(np.float64(h) ** dim)
    if not np.finfo(float).tiny <= w < np.inf:
        raise InvalidArgumentError(f"cell measure {w} of radius {radius} is not a normal float")
    lattice = np.meshgrid(*[np.arange(cells_per_diameter)] * dim, indexing="ij")
    # center strictly inside, in half-cell units: sum (2 i + 1 - cells)^2 < cells^2
    inside = sum((2 * i + 1 - cells_per_diameter) ** 2 for i in lattice) < cells_per_diameter**2
    index = np.column_stack([i[inside] for i in lattice])
    return DomainGrid(
        points=-radius + (index + 0.5) * h, weights=np.full(index.shape[0], w), cell_size=h,
        radius=radius, lattice_index=index, lattice_shape=(cells_per_diameter,) * dim,
    )


def build_disk_grid(radius: float, cells_per_diameter: int, ctx: WaveContext) -> DomainGrid:
    """Uniform cell-center quadrature of the disk of given radius (dim=2)."""
    return _lattice_grid(radius, cells_per_diameter, ctx, 2, "build_disk_grid")


def build_ball_grid(radius: float, cells_per_diameter: int, ctx: WaveContext) -> DomainGrid:
    """Uniform cell-center quadrature of the ball of given radius (dim=3)."""
    return _lattice_grid(radius, cells_per_diameter, ctx, 3, "build_ball_grid")


def radial_bump(points: np.ndarray, center, width: float, peak: float) -> np.ndarray:
    """Refractive index n(x) = 1 + (peak - 1) * exp(-(|x - center| / width)^2)
    at each row x of points."""
    if not (peak > 0 and width > 0):
        raise InvalidArgumentError("bump peak and width must be positive")
    center = np.asarray(center, dtype=float)
    r = np.linalg.norm(points - center, axis=1)
    return 1.0 + (peak - 1.0) * np.exp(-((r / width) ** 2))


def build_measurement_surface(R: float, m: int, ctx: WaveContext) -> MeasurementSurface:
    """Far-field quadrature surface: equispaced circle (2D) or a Gauss-Legendre
    x uniform-azimuth product rule on the sphere (3D, >= m points). Refuses a
    surface that, with a Helmholtz-Kirchhoff residual over it, is larger than
    physical memory."""
    if not (R > 0):
        raise InvalidArgumentError(f"surface radius must be positive, got {R}")
    if m < 4:
        raise InvalidArgumentError(f"need at least 4 surface points, got {m}")
    n_theta = max(4, int(np.ceil(np.sqrt(m / 2.0))))   # polar nodes of the sphere
    n = m if ctx.dim == 2 else 2 * n_theta**2
    # homogeneous_hk_residual peaks at 40 (dim + 1) bytes a point, the surface included
    _require_memory(40 * (ctx.dim + 1) * n, f"measurement surface of {n} points")
    if ctx.dim == 2:
        theta = 2.0 * np.pi * np.arange(m) / m
        pts = R * np.column_stack([np.cos(theta), np.sin(theta)])
        w = np.full(m, 2.0 * np.pi * R / m)
        return MeasurementSurface(points=pts, weights=w)
    # sphere: polar nodes from Gauss-Legendre in cos(theta), uniform azimuth
    n_phi = 2 * n_theta
    mu, gw = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - mu**2)
    x = np.outer(st, np.cos(phi)).ravel()
    y = np.outer(st, np.sin(phi)).ravel()
    z = np.outer(mu, np.ones(n_phi)).ravel()
    pts = R * np.column_stack([x, y, z])
    w = (R**2 * 2.0 * np.pi / n_phi) * np.outer(gw, np.ones(n_phi)).ravel()
    return MeasurementSurface(points=pts, weights=w)
