"""Reference computations for the benchmark's checks.

Everything here is built from numpy and scipy.special directly and imports
nothing from resonat, so a fault in the library's assembly, solve or
radiation cannot also sit in the reference it is checked against.

Discretisation (the method the library documents): midpoint quadrature on the
cells of a uniform lattice whose centres lie strictly inside the disk or ball,
the outgoing kernel g0 = -(i/4) H0(kr) in 2D and -exp(ikr)/(4 pi r) in 3D, and
the singular diagonal cell replaced by the integral of g0 over the disk or
ball of equal measure.
"""

from __future__ import annotations

import numpy as np
from scipy.special import hankel1


def lattice(dim, cells, radius=1.0):
    """Cell centres inside the domain, in C order of the (i, j[, l]) lattice."""
    h = 2.0 * radius / cells
    c = -radius + (np.arange(cells) + 0.5) * h
    axes = np.meshgrid(*([c] * dim), indexing="ij")
    pts = np.column_stack([a.ravel() for a in axes])
    inside = sum(a.ravel() ** 2 for a in axes) < radius**2
    pts = pts[inside]
    return pts, np.full(len(pts), h**dim), h


def free_kernel(r, k, dim):
    if dim == 3:
        return -np.exp(1j * k * r) / (4.0 * np.pi * r)
    return -0.25j * hankel1(0, k * r)


def cell_integral(w, k, dim):
    """Integral of g0 over the disk/ball of measure w centred at the source."""
    if dim == 2:
        rho = np.sqrt(w / np.pi)
        return -0.5j * np.pi * rho / k * hankel1(1, k * rho) + 1.0 / k**2
    rho = (3.0 * w / (4.0 * np.pi)) ** (1.0 / 3.0)
    return (np.exp(1j * k * rho) * (1j * k * rho - 1.0) + 1.0) / k**2


def distances(a, b):
    return np.sqrt(sum((a[:, None, i] - b[None, :, i]) ** 2 for i in range(a.shape[1])))


def volume_matrix(pts, w, n, k, dim):
    """Dense M with M f ~ -int_D g0(x, y) n(y) f(y) dy."""
    r = distances(pts, pts)
    np.fill_diagonal(r, 1.0)
    M = -free_kernel(r, k, dim) * (n * w)[None, :]
    np.fill_diagonal(M, -cell_integral(w, k, dim) * n)
    return M


def free_green(M, n, w):
    """G0 on the grid with the cell-averaged diagonal: M = -G0 diag(n w)."""
    return -M / (n * w)[None, :]


def green_columns(M, n, w, tau, cols=slice(None)):
    """Columns of the high-contrast Green function by the dense
    Lippmann-Schwinger solve (I - tau M) V = tau M G0, G = G0 + V."""
    G0 = free_green(M, n, w)[:, cols]
    V = np.linalg.solve(np.eye(M.shape[0]) - tau * M, tau * (M @ G0))
    return G0 + V


def circle(R, m):
    theta = 2.0 * np.pi * np.arange(m) / m
    return R * np.column_stack([np.cos(theta), np.sin(theta)]), np.full(m, 2.0 * np.pi * R / m)


def far_field(ext, pts, w, n, k, dim, tau, G):
    """G(z_m, x_j) at exterior points: g0 minus the field the contrast radiates."""
    K = free_kernel(distances(ext, pts), k, dim)
    return K - tau * (K * (n * w)[None, :]) @ G


def nearest(pts, x):
    return int(np.argmin(np.sqrt(np.sum((pts - np.asarray(x, dtype=float)) ** 2, axis=1))))
