"""Dense Nystrom discretization of the volume operator and the direct
Lippmann-Schwinger solver for the high-contrast Green function.

The operator acts as f -> -int_D G0(x, y) n(y) f(y) dy. Discretely
M[i, j] = -g0(x_i, x_j) n_j w_j off the diagonal; the singular diagonal cell is
replaced by the analytic integral of the kernel over the disk/ball of equal
measure centered at the point ("equal_measure" rule).

The discrete delta column at grid node j is e_j / w_j, so
M @ delta_j = -n_j * g0col_j, which pins the free-kernel column used by the
direct solver and by the expansion module.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.special import hankel1

from .errors import InvalidArgumentError, NumericFailureError, ResonanceProximityError
from .grids import DomainGrid, WaveContext
from .kernels import g0_between, g0_from_distance

# Arnoldi steps of the resonance check; the nearest eigenvalues converge first
ARNOLDI_STEPS = 20
# relative distance from 1/tau to an eigenvalue below which a solve is refused
RESONANCE_TOL = 1e-8


@dataclass
class DiscreteOperator:
    """Dense matrix form of the volume operator on a grid."""

    matrix: np.ndarray
    grid: DomainGrid
    n: np.ndarray        # (N,) refractive index at the grid points
    ctx: WaveContext

    @property
    def weights(self) -> np.ndarray:
        return self.grid.weights


def _diag_kernel_integral(w: float, ctx: WaveContext) -> complex:
    """Integral of g0(x, .) over the disk/ball of measure w centered at x."""
    k = ctx.k
    if ctx.dim == 2:
        rho = np.sqrt(w / np.pi)
        # int_{|y|<rho} -(i/4) H0(kr) dy = -(i pi rho / 2k) H1(k rho) + 1/k^2
        return complex(-0.5j * np.pi * rho / k * hankel1(1, k * rho) + 1.0 / k**2)
    rho = (3.0 * w / (4.0 * np.pi)) ** (1.0 / 3.0)
    # int_{|y|<rho} -e^{ikr}/(4 pi r) dy = (e^{ik rho}(ik rho - 1) + 1)/k^2
    return complex((np.exp(1j * k * rho) * (1j * k * rho - 1.0) + 1.0) / k**2)


def assemble_kd(grid: DomainGrid, n: np.ndarray, ctx: WaveContext) -> DiscreteOperator:
    """Assemble the dense N x N matrix of the volume operator for the
    refractive index n, one positive value per grid point.

    Refuses an N whose working set, the N x N x dim difference array plus the
    complex matrix, is larger than physical memory.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (grid.n_points,):
        raise InvalidArgumentError("grid and refractive index sizes do not match")
    if not np.all(n > 0):
        raise InvalidArgumentError("refractive index values must be positive")
    N = grid.n_points
    need = (8 * grid.dim + 16) * N**2
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise NumericFailureError(f"dense operator of size N={N} needs at least "
                                  f"{need / 1e9:.1f} GB, more than the {have / 1e9:.1f} GB "
                                  "of physical memory")
    pts = grid.points
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(r, 1.0)  # placeholder, overwritten below
    kernel = g0_from_distance(r, ctx)
    M = -kernel * (n * grid.weights)[None, :]
    diag = np.array([_diag_kernel_integral(w, ctx) for w in grid.weights])
    np.fill_diagonal(M, -diag * n)
    return DiscreteOperator(matrix=M, grid=grid, n=n, ctx=ctx)


def operator_from_matrix(matrix: np.ndarray, weights=None, n_values=None,
                         ctx: Optional[WaveContext] = None) -> DiscreteOperator:
    """Wrap a raw dense matrix as an operator (synthetic/test systems).

    Points are placed on a unit-spaced line; weights default to one.
    """
    matrix = np.asarray(matrix, dtype=complex)
    N = matrix.shape[0]
    if matrix.shape != (N, N):
        raise InvalidArgumentError("matrix must be square")
    w = np.ones(N) if weights is None else np.asarray(weights, dtype=float)
    nv = np.ones(N) if n_values is None else np.asarray(n_values, dtype=float)
    ctx = ctx or WaveContext(k=1.0, dim=2)
    pts = np.column_stack([np.arange(N, dtype=float), np.zeros(N)])
    grid = DomainGrid(points=pts, weights=w, cell_size=1.0, radius=float(N),
                      lattice_index=np.column_stack([np.arange(N), np.zeros(N, dtype=int)]),
                      lattice_shape=(N, 1))
    return DiscreteOperator(matrix=matrix, grid=grid, n=nv, ctx=ctx)


def apply_kd(op: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    if f.shape[0] != op.matrix.shape[0]:
        raise InvalidArgumentError("vector length does not match operator size")
    return op.matrix @ f


def g0_matrix(op: DiscreteOperator, columns=slice(None)) -> np.ndarray:
    """Columns of G0[i, j] = g0(x_i, x_j), diagonal entry cell-averaged.

    Defined through the operator columns so that the singular-cell rule is
    applied consistently: G0[:, j] = -M[:, j] / (n_j w_j). `columns` indexes
    the grid nodes; an integer gives one column as a vector.
    """
    return -op.matrix[:, columns] / (op.n * op.weights)[columns]


def _factor(op: DiscreteOperator, tau: float):
    """LU factorization of I - tau M (scipy.linalg.lu_factor form).

    An exactly zero pivot is left for check_resonance_proximity to report, so
    LAPACK's singular-matrix warning is silenced here. The matrix is built in
    Fortran order so that LAPACK factors it in place, without a copy.
    """
    A = np.multiply(op.matrix, -tau, order="F")
    A[np.diag_indices_from(A)] += 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return lu_factor(A, overwrite_a=True, check_finite=False)


def _dominant_ritz_values(lu) -> np.ndarray:
    """Ritz values of S^{-1} from ARNOLDI_STEPS Arnoldi steps, S given by its LU.

    The start vector is fixed, so reruns are byte-identical. It is
    pseudo-random rather than constant because a constant vector is invariant
    under the grid's symmetries, and its Krylov space would miss every mode of
    another symmetry class.
    """
    N = lu[0].shape[0]
    m = min(ARNOLDI_STEPS, N)
    V = np.zeros((N, m + 1), dtype=complex)
    H = np.zeros((m + 1, m), dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(N)
    V[:, 0] = v0 / np.linalg.norm(v0)
    for j in range(m):
        w = lu_solve(lu, V[:, j], check_finite=False)
        scale = np.linalg.norm(w)
        for _ in range(2):  # classical Gram-Schmidt, repeated to keep V orthonormal
            h = V[:, : j + 1].conj().T @ w
            w -= V[:, : j + 1] @ h
            H[: j + 1, j] += h
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j].real <= 1e-14 * scale:
            m = j + 1  # the Krylov space is invariant: its Ritz values are exact
            break
        V[:, j + 1] = w / H[j + 1, j]
    return np.linalg.eigvals(H[:m, :m])


def check_resonance_proximity(op: DiscreteOperator, z: complex, tol: float = RESONANCE_TOL,
                              lu=None):
    """Raise if z lies within tolerance of the spectrum of the matrix.

    The eigenvalues of M nearest z are the dominant eigenvalues of
    (I - M/z)^{-1} (shift-invert), so a short Arnoldi iteration on the LU of
    I - M/z finds them: lambda = z (1 - 1/nu) for each Ritz value nu. `lu` is
    that factorization as returned by scipy.linalg.lu_factor, passed when the
    caller has already built it for a solve; z must be nonzero.
    """
    if z == 0:
        raise InvalidArgumentError("resonance check needs a nonzero z = 1/tau")
    lu = _factor(op, 1.0 / z) if lu is None else lu
    if not np.all(np.diagonal(lu[0])):  # I - M/z is singular: z itself is an eigenvalue
        raise ResonanceProximityError(z, z)
    refuse_near_spectrum(z, z * (1.0 - 1.0 / _dominant_ritz_values(lu)), tol)


def refuse_near_spectrum(z: complex, lambdas: np.ndarray, tol: float):
    """The resonance rule: raise if some |z - lambda| < tol (1 + |lambda|),
    reporting the eigenvalue nearest z."""
    d = np.abs(z - lambdas)
    if np.any(d < tol * (1.0 + np.abs(lambdas))):
        raise ResonanceProximityError(z, lambdas[int(np.argmin(d))])


def _checked_factor(op: DiscreteOperator, tau: float):
    """LU of I - tau M, refused when 1/tau is within tolerance of the spectrum.

    The resonance check reuses the factorization; tau must be nonzero.
    """
    lu = _factor(op, tau)
    check_resonance_proximity(op, 1.0 / tau, lu=lu)
    return lu


def _solve_green(op: DiscreteOperator, tau: float, G0: np.ndarray) -> np.ndarray:
    """G0 + v for free-kernel columns G0, where (I - tau M) v = tau M G0."""
    if tau == 0:
        return G0
    rhs = tau * (op.matrix @ G0)
    return G0 + lu_solve(_checked_factor(op, tau), rhs, check_finite=False)


def solve_green_direct(op: DiscreteOperator, tau: float, source_index: int) -> np.ndarray:
    """Column G(., x_j) of the high-contrast Green function by dense solve.

    Solves (I - tau M) v = tau M g0col and returns g0col + v.
    """
    return _solve_green(op, tau, g0_matrix(op, int(source_index)))


def green_matrix(op: DiscreteOperator, tau: float) -> np.ndarray:
    """All columns of the high-contrast Green function, G[i, j] = G(x_i, x_j)."""
    return _solve_green(op, tau, g0_matrix(op))


def check_exterior(grid: DomainGrid, points) -> None:
    """Refuse evaluation points that are not strictly outside the domain,
    i.e. with |z| <= radius."""
    if np.any(np.linalg.norm(np.asarray(points, dtype=float), axis=1) <= grid.radius):
        raise InvalidArgumentError("exterior evaluation point lies on or inside the source domain")


def radiate_matrix(op: DiscreteOperator, exterior_points: np.ndarray, tau: float,
                   columns=slice(None)) -> np.ndarray:
    """G(z_m, x_j) at exterior rows z_m for the grid columns x_j in `columns`.

    G(z, x_j) = g0(z, x_j) - tau * sum_i g0(z, x_i) n_i w_i G(x_i, x_j). On the
    grid G = (I - tau M)^{-1} G0, so the sum is X G0 with
    X = (K diag(n w)) (I - tau M)^{-1}: one transposed solve, with a right-hand
    side per exterior point, on the LU that the Green solves use.
    """
    check_exterior(op.grid, exterior_points)
    K = g0_between(exterior_points, op.grid.points, op.ctx)   # (m, N) free kernel
    if tau == 0:
        return K[:, columns]
    KW = K * (op.n * op.weights)[None, :]
    X = lu_solve(_checked_factor(op, tau), KW.T, trans=1, check_finite=False).T
    return K[:, columns] - tau * X @ g0_matrix(op, columns)


def singular_values(op: DiscreteOperator) -> np.ndarray:
    return np.linalg.svd(op.matrix, compute_uv=False)
