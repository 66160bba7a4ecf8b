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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError
from .grids import DomainGrid
from .spectral import SpectralSystem, build_d_matrix, build_h_matrix
from .volume import DiscreteOperator, g0_matrix


@dataclass(frozen=True)
class PsfProfile:
    radii: np.ndarray
    values: np.ndarray
    fwhm: Optional[float]


def weighted_frobenius(X: np.ndarray, w: np.ndarray) -> float:
    """L2(D x D) norm of a grid-sampled kernel: sqrt(sum w_i w_j |X_ij|^2)."""
    return float(np.sqrt(np.einsum("i,j,ij->", w, w, np.abs(X) ** 2)))


def alpha_expansion(sys: SpectralSystem, tau: float) -> np.ndarray:
    """Orthonormal-basis coefficients alpha of G - G0 at contrast tau."""
    if tau == 0:
        return np.zeros((sys.size, sys.size), dtype=complex)
    return -build_d_matrix(sys, 1.0 / tau).T


def beta_expansion(sys: SpectralSystem, alpha: np.ndarray) -> np.ndarray:
    """Mode-basis coefficients A alpha A^H of the orthonormal-basis ones."""
    return sys.A @ alpha @ sys.A.conj().T


def homogeneous_expansion(sys: SpectralSystem) -> np.ndarray:
    """Orthonormal-basis coefficients of the free kernel G0 itself, built from
    H instead of R(z); it has no free part to add back."""
    return -(sys.B @ build_h_matrix(sys).T @ sys.A)


def partial_sum(basis: np.ndarray, coeff: np.ndarray, n_values: np.ndarray,
                rank: int) -> np.ndarray:
    """N x N grid field of the first `rank` total-order terms of an expansion
    with coefficients `coeff` in `basis` (sys.E for alpha, sys.U for beta)."""
    N = basis.shape[1]
    if not (0 <= rank <= N):
        raise InvalidArgumentError(f"rank must lie in [0, {N}], got {rank}")
    if rank == 0:
        return np.zeros((N, N), dtype=complex)
    return (basis[:, :rank] @ coeff[:rank, :] @ basis.conj().T) / n_values[None, :]


def expansion_errors(basis: np.ndarray, coeff: np.ndarray, op: DiscreteOperator,
                     direct: np.ndarray, ranks: Sequence[int]) -> Dict[int, float]:
    """||G0 + partial_sum(rank) - direct||_W for each rank, G0 = g0_matrix(op).

    `direct` is the dense direct solve green_matrix(op, tau). Rank 0 gives
    ||direct - G0||_W, the scale of the truncation curve; rank N divided by
    ||direct||_W is the oracle error of the full expansion.
    """
    G0 = g0_matrix(op)
    return {int(r): weighted_frobenius((G0 + partial_sum(basis, coeff, op.n, r)) - direct,
                                       op.weights)
            for r in ranks}


def truncation_ranks(N: int) -> List[int]:
    """Rank 0 and the distinct integer parts of 12 geometric steps from 1 to N."""
    return sorted(set([0] + [int(r) for r in np.geomspace(1, N, num=12)] + [N]))


def truncation_error_curve(errors: Dict[int, float]) -> List[Tuple[int, float]]:
    """(rank, relative error) pairs of expansion_errors output that includes
    rank 0: each error divided by ||direct - G0||_W."""
    free = errors[0]
    return [(r, float(e / free) if free > 0 else 0.0) for r, e in errors.items()]


def psf_from_samples(radii, values) -> PsfProfile:
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
    return PsfProfile(radii=r, values=v, fwhm=fwhm)


def psf_profile(column: np.ndarray, grid: DomainGrid, x0_index: int,
                direction) -> PsfProfile:
    """Im G(x, x0) sampled along the grid line through x0 in the given
    nonzero direction; `column` is the grid column G(., x0)."""
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise InvalidArgumentError("psf direction must be a nonzero vector")
    d = d / norm
    x0 = grid.points[x0_index]
    rel = grid.points - x0[None, :]
    t = rel @ d
    perp = np.linalg.norm(rel - np.outer(t, d), axis=1)
    on_line = perp < 0.51 * grid.cell_size
    return psf_from_samples(t[on_line], np.imag(column[on_line]))


def mode_mixing_report(matrix: np.ndarray):
    """Diagonal vs off-diagonal coefficient mass and the ten largest mixing pairs."""
    mag2 = np.abs(matrix) ** 2
    diag_mass = float(np.sum(np.diag(mag2)))
    off = mag2.copy()
    np.fill_diagonal(off, 0.0)
    off_mass = float(np.sum(off))
    flat = np.argsort(off, axis=None)[::-1][:10]
    pairs = []
    for f in flat:
        i, j = np.unravel_index(int(f), off.shape)
        if off[i, j] == 0.0:
            break
        pairs.append((int(i), int(j), float(np.sqrt(off[i, j]))))
    return diag_mass, off_mass, pairs
