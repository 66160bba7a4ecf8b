"""Resonance expansions of the high-contrast Green function.

The difference field G - G0 on the grid factorizes through the spectral data:

    G - G0 = E @ C_alpha @ E^*T @ diag(1/n),   C_alpha = -(B R(z)^T A),  z = 1/tau
    G - G0 = U @ C_beta  @ U^*T @ diag(1/n),   C_beta  = A C_alpha A^*T

where ^*T is plain (unconjugated-transpose of the conjugate) so that column
gamma' pairs e_gamma(x) with conj(e_{gamma'}(x0)). The homogeneous kernel has
the analogous representation with the resolvent matrix replaced by the operator
matrix H. The 1/n(x0) factor is applied at field evaluation, never folded into
the coefficient matrices. All transposition and sign conventions here are
pinned by the dense direct-solve oracle, not by index pattern-matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError
from .grids import DomainGrid
from .spectral import SpectralSystem, build_d_matrix, build_h_matrix, build_r_matrix
from .volume import DiscreteOperator, g0_matrix


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficient matrices of G - G0 (or of G0 for the homogeneous variant)."""

    alpha: Optional[np.ndarray]    # orthonormal-basis coefficients
    beta: Optional[np.ndarray]     # mode-basis coefficients
    includes_free_part: bool = False   # True when the target field is G0 itself


@dataclass(frozen=True)
class PsfProfile:
    radii: np.ndarray
    values: np.ndarray
    fwhm: Optional[float]
    source_point: np.ndarray


def weighted_frobenius(X: np.ndarray, w: np.ndarray) -> float:
    """L2(D x D) norm of a grid-sampled kernel: sqrt(sum w_i w_j |X_ij|^2)."""
    return float(np.sqrt(np.einsum("i,j,ij->", w, w, np.abs(X) ** 2)))


def alpha_expansion(sys: SpectralSystem, op: DiscreteOperator, tau: float) -> ExpansionCoefficients:
    """Orthonormal-basis coefficients of G - G0 at contrast tau."""
    if tau == 0:
        N = sys.size
        return ExpansionCoefficients(alpha=np.zeros((N, N), dtype=complex), beta=None)
    return ExpansionCoefficients(alpha=-build_d_matrix(sys, 1.0 / tau).T, beta=None)


def beta_expansion(sys: SpectralSystem, op: DiscreteOperator, tau: float) -> ExpansionCoefficients:
    """Mode-basis coefficients; carries alpha as well (it is needed anyway)."""
    al = alpha_expansion(sys, op, tau)
    beta = sys.A @ al.alpha @ sys.A.conj().T
    return ExpansionCoefficients(alpha=al.alpha, beta=beta)


def beta_to_alpha(sys: SpectralSystem, beta: np.ndarray) -> np.ndarray:
    return sys.B @ beta @ sys.B.conj().T


def homogeneous_expansion(sys: SpectralSystem, op: DiscreteOperator) -> ExpansionCoefficients:
    """Coefficients of the free kernel G0 itself, built from H instead of R(z)."""
    alpha = -(sys.B @ build_h_matrix(sys).T @ sys.A)
    beta = sys.A @ alpha @ sys.A.conj().T
    return ExpansionCoefficients(alpha=alpha, beta=beta, includes_free_part=True)


def _synthesize(basis: np.ndarray, coeff: np.ndarray, n_values: np.ndarray,
                rank: Optional[int] = None) -> np.ndarray:
    if rank is None:
        rank = coeff.shape[0]
    return (basis[:, :rank] @ coeff[:rank, :] @ basis.conj().T) / n_values[None, :]


def reconstruct_green(coeffs: ExpansionCoefficients, sys: SpectralSystem,
                      op: DiscreteOperator, rank: int, basis: str = "alpha") -> np.ndarray:
    """Partial-sum reconstruction of the N x N grid field over the first
    `rank` total-order indices."""
    N = sys.size
    if not (0 <= rank <= N):
        raise InvalidArgumentError(f"rank must lie in [0, {N}], got {rank}")
    if basis == "alpha":
        C, Bmat = coeffs.alpha, sys.E
    elif basis == "beta":
        C, Bmat = coeffs.beta, sys.U
    else:
        raise InvalidArgumentError(f"unknown basis {basis!r}")
    if C is None:
        raise InvalidArgumentError(f"coefficients carry no {basis} matrix")
    part = _synthesize(Bmat, C, op.n, rank) if rank > 0 else np.zeros((N, N), dtype=complex)
    # when the target field is G0 itself there is no free part to add back
    return part if coeffs.includes_free_part else g0_matrix(op) + part


def expansion_oracle_error(coeffs: ExpansionCoefficients, sys: SpectralSystem,
                           op: DiscreteOperator, direct: np.ndarray,
                           basis: str = "alpha") -> float:
    """Relative weighted-Frobenius error of the full-rank reconstruction
    against the field it expands: the dense direct solve green_matrix(op, tau),
    or g0_matrix(op) for the homogeneous expansion."""
    w = op.weights
    rec = reconstruct_green(coeffs, sys, op, sys.size, basis=basis)
    return weighted_frobenius(rec - direct, w) / weighted_frobenius(direct, w)


def truncation_error_curve(coeffs: ExpansionCoefficients, sys: SpectralSystem,
                           op: DiscreteOperator, direct: np.ndarray,
                           ranks: Optional[Sequence[int]] = None,
                           basis: str = "alpha") -> List[Tuple[int, float]]:
    """Relative L2(D x D) error of the partial sums against the direct solve
    `direct` = green_matrix(op, tau)."""
    w = op.weights
    diff = direct - g0_matrix(op)
    denom = weighted_frobenius(diff, w)
    N = sys.size
    if ranks is None:
        ranks = sorted(set([0] + [int(r) for r in np.geomspace(1, N, num=12)] + [N]))
    out = []
    for rank in ranks:
        rec = reconstruct_green(coeffs, sys, op, rank, basis=basis)
        err = weighted_frobenius(rec - direct, w)
        out.append((int(rank), float(err / denom) if denom > 0 else 0.0))
    return out


def psf_from_samples(radii, values, source_point=(0.0, 0.0)) -> PsfProfile:
    """FWHM of the central peak of |values| by linear interpolation of the
    half-maximum crossings on both sides."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    order = np.argsort(r)
    r, v = r[order], v[order]
    mag = np.abs(v)
    i0 = int(np.argmin(np.abs(r)))
    half = mag[i0] / 2.0

    def crossing(step):
        i = i0
        while 0 <= i + step < len(r):
            if mag[i + step] < half:
                a, b = i, i + step
                t = (mag[a] - half) / (mag[a] - mag[b])
                return r[a] + t * (r[b] - r[a])
            i += step
        return None

    right = crossing(+1)
    left = crossing(-1)
    fwhm = (right - left) if (right is not None and left is not None) else None
    return PsfProfile(radii=r, values=v, fwhm=fwhm,
                      source_point=np.asarray(source_point, dtype=float))


def psf_profile(green: np.ndarray, grid: DomainGrid, x0_index: int,
                direction) -> PsfProfile:
    """Im G(x, x0) sampled along the grid line through x0 in the given direction.

    `green` is either the whole grid matrix G or just its column x0.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    x0 = grid.points[x0_index]
    rel = grid.points - x0[None, :]
    t = rel @ d
    perp = np.linalg.norm(rel - np.outer(t, d), axis=1)
    on_line = perp < 0.51 * grid.cell_size
    radii = t[on_line]
    column = green if green.ndim == 1 else green[:, x0_index]
    values = np.imag(column[on_line])
    prof = psf_from_samples(radii, values, source_point=x0)
    return prof


def mode_mixing_report(matrix: np.ndarray, top: int = 10):
    """Diagonal vs off-diagonal coefficient mass and the largest mixing pairs."""
    mag2 = np.abs(matrix) ** 2
    diag_mass = float(np.sum(np.diag(mag2)))
    off = mag2.copy()
    np.fill_diagonal(off, 0.0)
    off_mass = float(np.sum(off))
    flat = np.argsort(off, axis=None)[::-1][:top]
    pairs = []
    for f in flat:
        i, j = np.unravel_index(int(f), off.shape)
        if off[i, j] == 0.0:
            break
        pairs.append((int(i), int(j), float(np.sqrt(off[i, j]))))
    return diag_mass, off_mass, pairs
