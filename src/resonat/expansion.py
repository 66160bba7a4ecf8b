"""Resonance expansions of the high-contrast Green function.

The difference field G - G0 on the grid factorizes through the spectral data:

    G - G0 = E @ alpha @ E^*T @ diag(1/n),   alpha = -B diag(r) A,   z = 1/tau
    G - G0 = U @ beta  @ U^*T @ diag(1/n),   beta  = A alpha A^*T

with one resolvent weight per mode, r_gamma = lambda_gamma^2/(z - lambda_gamma).
^*T is the conjugate transpose, so that column gamma' pairs e_gamma(x) with
conj(e_{gamma'}(x0)), and 1/n(x0) is never folded into the coefficient
matrices.

Every factor is block-diagonal over the lattice-symmetry classes of the
volume operator: alpha, beta, A and B are zero between modes of different
classes, and G, G0, E and U map each class's orbit coordinates onto
themselves. So alpha and beta are held as one block per class; the N x N
forms scatter them, with exact zeros between classes, and gather them. The
error field of a truncated sum is measured class by class in orbit
coordinates, where the orbit basis is orthonormal and the weights and n are
constant on orbits: no N x N product or solve is formed. Truncated sums are
accumulated rank by rank; rank r adds, in each class, the class's modes among
the first r of the total order. All conventions are pinned by dense
direct-solve oracles in the tests.

Every product and norm runs in scipy's BLAS, which the QR and LU calls around
them use: on two cores each switch to numpy's own copy, and its thread pool,
costs milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.blas import dznrm2, zgemm

from .errors import InvalidArgumentError
from .grids import DomainGrid
from .spectral import SpectralSystem, _scatter, resolvent_chain_coefficients
from .volume import DiscreteOperator, class_green, refuse_near_spectrum


@dataclass(frozen=True)
class PsfProfile:
    radii: np.ndarray
    values: np.ndarray
    fwhm: Optional[float]


def weighted_frobenius(X: np.ndarray, w: np.ndarray) -> float:
    """L2(D x D) norm of a grid-sampled kernel: sqrt(sum w_i w_j |X_ij|^2)."""
    return float(np.sqrt(np.einsum("i,j,ij->", w, w, np.abs(X) ** 2)))


def class_alpha(sys: SpectralSystem, tau: float) -> list:
    """Per symmetry class, its block -B_c diag(r) A_c of the orthonormal-basis
    coefficients alpha of G - G0 at contrast tau, over the class's mode columns.

    r_gamma = lambda_gamma^2/(z - lambda_gamma) at z = 1/tau is the length-one
    chain coefficient. Refused, by the rule of the direct solve's resonance
    check, when z lies within RESONANCE_TOL of the spectrum.
    """
    if tau == 0:
        return [np.zeros((cols.size, cols.size), dtype=complex) for cols in sys.class_columns]
    z = 1.0 / tau
    refuse_near_spectrum(z, sys.lambdas)
    r = np.array([resolvent_chain_coefficients(lam, 1, z)[0] for lam in sys.lambdas])
    return [zgemm(1.0, -(B * r[cols]), A) for cols, (_, A, B) in
            zip(sys.class_columns, sys.class_bases)]


def class_beta(sys: SpectralSystem, alphas: list) -> list:
    """Per symmetry class, the mode-basis block A_c alpha_c A_c^H of its block alpha_c."""
    return [zgemm(1.0, zgemm(1.0, A, alpha), A, trans_b=2)
            for alpha, (_, A, _) in zip(alphas, sys.class_bases)]


def _gather(sys: SpectralSystem, X: np.ndarray) -> list:
    return [X[np.ix_(cols, cols)] for cols in sys.class_columns]


def alpha_expansion(sys: SpectralSystem, tau: float) -> np.ndarray:
    """The N x N alpha of class_alpha, zero between classes."""
    return _scatter(sys.symmetry, sys.class_columns, class_alpha(sys, tau), False)


def beta_expansion(sys: SpectralSystem, alpha: np.ndarray) -> np.ndarray:
    """The N x N beta = A alpha A^H of class_beta, zero between classes."""
    return _scatter(sys.symmetry, sys.class_columns, class_beta(sys, _gather(sys, alpha)), False)


def _squared_norm(X: np.ndarray) -> float:
    return float(dznrm2(X.ravel(order="K"))) ** 2


def _weigh(X: np.ndarray, s: np.ndarray) -> np.ndarray:
    """X scaled in place by s on both sides."""
    X *= s[:, None]
    X *= s
    return X


def _right_factor(coeff: np.ndarray, left: np.ndarray, n: np.ndarray) -> np.ndarray:
    """coeff left^H diag(1/n)."""
    right = zgemm(1.0, coeff, left, trans_b=2)
    right /= n
    return right


def expansion_errors(sys: SpectralSystem, op: DiscreteOperator, tau: float, alpha, beta,
                     ranks: Sequence[int]) -> Tuple[float, Dict[int, float], float]:
    """The expansions alpha and beta of sys at contrast tau, each N x N or the list
    of its class blocks, against the direct solve G = green_matrix(op, tau), in
    the norm of weighted_frobenius: returns ||G||_W, ||G0 + S_r - G||_W for each
    rank r in ascending order, and ||G0 + U beta U^H diag(1/n) - G||_W.

    S_r, the first r total-order terms of alpha in E, is accumulated from
    rank 0; rank 0 gives ||G - G0||_W, the truncation curve's scale, and rank N
    over ||G||_W the oracle error. Each class adds its squares, taken in its
    orbit coordinates on its part of G and G0 from class_green and scaled by
    s = sqrt(w) on both sides; a class and its swapped twin are counted apart,
    since a rank can part a mode from its twin. Each class's arrays are freed
    before the next class is taken.
    """
    N = sys.size
    ranks = sorted({int(r) for r in ranks})
    if any(not 0 <= r <= N for r in ranks):
        raise InvalidArgumentError(f"ranks must lie in [0, {N}], got {ranks}")
    green, beta_error, errors = 0.0, 0.0, np.zeros(len(ranks))   # squares
    alphas, betas = (X if isinstance(X, list) else _gather(sys, X) for X in (alpha, beta))
    pairs = class_green(op, tau)
    for c, cols in enumerate(sys.class_columns):
        (G0, G), pairs[c] = pairs[c], None   # a twin's pair is freed with the twin
        if not cols.size:
            continue
        points = sys.symmetry[c].points[0]
        s, n = np.sqrt(op.weights[points]), op.n[points]
        green += _squared_norm(_weigh(G.copy(), s))
        field = _weigh(G0 - G, s)   # G0 + S_0 - G
        del G0, G
        left = s[:, None] * sys.modes[c]
        beta_error += _squared_norm(zgemm(1.0, left, _right_factor(betas[c], left, n),
                                          1.0, field))
        left = s[:, None] * sys.class_bases[c][0]
        right = _right_factor(alphas[c], left, n)
        done, square = 0, _squared_norm(field)
        for i, r in enumerate(ranks):
            k = int(np.searchsorted(cols, r))   # the class's modes among the first r
            if k > done:
                field = zgemm(1.0, left[:, done:k], right[done:k], 1.0, field, overwrite_c=True)
                done, square = k, _squared_norm(field)
            errors[i] += square
    return (float(np.sqrt(green)), {r: float(np.sqrt(e)) for r, e in zip(ranks, errors)},
            float(np.sqrt(beta_error)))


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

