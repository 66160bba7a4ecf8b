"""Quadrature grids for the source domain, the radial-bump refractive index,
and far-field surfaces.

The domain D is discretized by uniform cell-center (midpoint) quadrature: a
Cartesian lattice covering the bounding box, keeping the cells whose center lies
strictly inside the shape. Weights are the full cell measure (no partial-cell
clipping), which gives an O(h) boundary error in the total measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError


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
    back into a dense array (used for discrete Fourier diagnostics).
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
    lies strictly inside the disk/ball, each weighted by the full cell measure."""
    if ctx.dim != dim:
        raise InvalidArgumentError(f"{name} requires ctx.dim == {dim}")
    if not (radius > 0):
        raise InvalidArgumentError(f"radius must be positive, got {radius}")
    if cells_per_diameter < 2:
        raise InvalidArgumentError("cells_per_diameter must be at least 2")
    h = 2.0 * radius / cells_per_diameter
    c = -radius + (np.arange(cells_per_diameter) + 0.5) * h
    coords = np.meshgrid(*[c] * dim, indexing="ij")
    lattice = np.meshgrid(*[np.arange(cells_per_diameter)] * dim, indexing="ij")
    inside = sum(x**2 for x in coords) < radius**2
    pts = np.column_stack([x[inside] for x in coords])
    return DomainGrid(
        points=pts, weights=np.full(pts.shape[0], h**dim), cell_size=h, radius=radius,
        lattice_index=np.column_stack([i[inside] for i in lattice]),
        lattice_shape=(cells_per_diameter,) * dim,
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
    x uniform-azimuth product rule on the sphere (3D, >= m points)."""
    if not (R > 0):
        raise InvalidArgumentError(f"surface radius must be positive, got {R}")
    if m < 4:
        raise InvalidArgumentError(f"need at least 4 surface points, got {m}")
    if ctx.dim == 2:
        theta = 2.0 * np.pi * np.arange(m) / m
        pts = R * np.column_stack([np.cos(theta), np.sin(theta)])
        w = np.full(m, 2.0 * np.pi * R / m)
        return MeasurementSurface(points=pts, weights=w)
    # sphere: polar nodes from Gauss-Legendre in cos(theta), uniform azimuth
    n_theta = max(4, int(np.ceil(np.sqrt(m / 2.0))))
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
