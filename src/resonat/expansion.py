"""Resonance expansions of the high-contrast Green function.

The difference field G - G0 on the grid factorizes through the spectral data:

    G - G0 = E @ alpha @ E^*T @ diag(1/n),   alpha = -B diag(r) A,   z = 1/tau
    G - G0 = U @ beta  @ U^*T @ diag(1/n),   beta  = A alpha A^*T

with one resolvent weight per mode, r_gamma = lambda_gamma^2/(z - lambda_gamma).
^*T is the conjugate transpose, so that column gamma' pairs e_gamma(x) with
conj(e_{gamma'}(x0)), and 1/n(x0) is never folded into the coefficient
matrices. Truncated sums are accumulated rank by rank. All conventions are
pinned by the dense direct-solve oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError
from .grids import DomainGrid
from .spectral import SpectralSystem, resolvent_chain_coefficients
from .volume import DiscreteOperator, g0_matrix, refuse_near_spectrum


@dataclass(frozen=True)
class PsfProfile:
    radii: np.ndarray
    values: np.ndarray
    fwhm: Optional[float]


def weighted_frobenius(X: np.ndarray, w: np.ndarray) -> float:
    """L2(D x D) norm of a grid-sampled kernel: sqrt(sum w_i w_j |X_ij|^2)."""
    return float(np.sqrt(np.einsum("i,j,ij->", w, w, np.abs(X) ** 2)))


def alpha_expansion(sys: SpectralSystem, tau: float) -> np.ndarray:
    """Orthonormal-basis coefficients alpha = -B diag(r) A of G - G0 at contrast tau.

    r_gamma = lambda_gamma^2/(z - lambda_gamma) at z = 1/tau is the length-one
    chain coefficient. Refused, by the rule of the direct solve's resonance
    check, when z lies within RESONANCE_TOL of the spectrum.
    """
    if tau == 0:
        return np.zeros((sys.size, sys.size), dtype=complex)
    z = 1.0 / tau
    refuse_near_spectrum(z, sys.lambdas)
    r = np.array([resolvent_chain_coefficients(lam, 1, z)[0] for lam in sys.lambdas])
    return -(sys.B * r) @ sys.A


def beta_expansion(sys: SpectralSystem, alpha: np.ndarray) -> np.ndarray:
    """Mode-basis coefficients A alpha A^H of the orthonormal-basis ones."""
    return sys.A @ alpha @ sys.A.conj().T


def expansion_errors(basis: np.ndarray, coeff: np.ndarray, op: DiscreteOperator,
                     direct: np.ndarray, ranks: Sequence[int]) -> Dict[int, float]:
    """||G0 + S_r - direct||_W for each rank r, in ascending order, G0 = g0_matrix(op).

    S_r, the first r total-order terms of the expansion `coeff` in `basis`
    (sys.E for alpha, sys.U for beta), is accumulated from rank 0. `direct` is
    green_matrix(op, tau); rank 0 gives ||direct - G0||_W, the truncation
    curve's scale, and rank N over ||direct||_W the oracle error.
    """
    N = basis.shape[1]
    ranks = sorted({int(r) for r in ranks})
    if any(not 0 <= r <= N for r in ranks):
        raise InvalidArgumentError(f"ranks must lie in [0, {N}], got {ranks}")
    field = g0_matrix(op) - direct
    terms = coeff @ basis.conj().T / op.n[None, :]
    errors = {}
    for prev, r in zip([0] + ranks, ranks):
        field += basis[:, prev:r] @ terms[prev:r]
        errors[r] = weighted_frobenius(field, op.weights)
    return errors


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
    if not np.any(d):
        raise InvalidArgumentError("psf direction must be a nonzero vector")
    d = d / np.max(np.abs(d))   # first, so that the norm of [1e300, 1e300] is finite
    d = d / np.linalg.norm(d)
    x0 = grid.points[x0_index]
    rel = grid.points - x0[None, :]
    t = rel @ d
    perp = np.linalg.norm(rel - np.outer(t, d), axis=1)
    on_line = perp < 0.51 * grid.cell_size
    return psf_from_samples(t[on_line], np.imag(column[on_line]))

