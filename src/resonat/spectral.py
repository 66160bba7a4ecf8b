"""Non-Hermitian spectral data of the volume operator.

Eigenvalues are sorted by descending modulus and grouped into clusters; each
column of the mode matrix U carries a chain index, the tuple (j, l, k) of
cluster, chain within the cluster and position within the chain, in
lexicographic total order. That per-column table is the only record of the
chain structure: a chain starts at each column with k = 1. The orthonormalized
basis E is produced by QR in the weighted discrete L2(D) inner product, with
change-of-basis matrices stored so that

    E = U @ A,    U = E @ B,    A @ B = I,

both upper-triangular with positive-real diagonal on B. In index notation
e_gamma = sum_{gamma' <= gamma} a_{gamma,gamma'} u_{gamma'} with
a_{gamma,gamma'} = A[gamma', gamma].

Coefficient matrices (H, R(z), D(z)) are arrays C with C[gamma, gamma'] equal
to the coefficient of basis element gamma' in the image of basis element gamma,
so e.g. the operator acts on the grid as M @ U = U @ H.T.

Numerical Jordan detection is ill-posed: the default eigendecomposition path
treats every eigenvector as a chain of length one and only flags suspicious
clusters. Chains of length > 1 are exercised through exactly constructed
synthetic systems (synthetic_jordan_system), for which the chain algebra is
fully implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import InvalidArgumentError, NumericFailureError, ResonanceProximityError
from .volume import DiscreteOperator, operator_from_matrix, refuse_near_spectrum


@dataclass
class SpectralSystem:
    lambdas: np.ndarray                    # (N,) eigenvalue per total-order column
    indices: List[Tuple[int, int, int]]    # (j, l, k) per column, 1-based, sorted
    U: np.ndarray                          # modes, columns in total order
    E: np.ndarray                          # weighted-orthonormal columns
    A: np.ndarray                          # E = U @ A
    B: np.ndarray                          # U = E @ B
    cluster_tol: float
    warnings: List[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.U.shape[1]

    def chain_starts(self) -> np.ndarray:
        """First column (k = 1) of each chain, followed by N."""
        return np.append(np.flatnonzero([k == 1 for _, _, k in self.indices]), self.size)

    def chain_matrix(self) -> np.ndarray:
        """Matrix T with M @ U = U @ T (upper bidiagonal per chain)."""
        N = self.size
        T = np.zeros((N, N), dtype=complex)
        for pos, (_, _, k) in enumerate(self.indices):
            T[pos, pos] = self.lambdas[pos]
            if k > 1:
                T[pos - 1, pos] = 1.0
        return T


def _fix_column_phases(U: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    U = U.copy()
    for c in range(U.shape[1]):
        col = U[:, c]
        mags = np.abs(col)
        top = mags.max()
        nz = np.nonzero(mags > 1e-12 * top)[0]
        pivot = col[nz[0]]
        U[:, c] = col * (np.abs(pivot) / pivot)
    return U


def _weighted_qr(U: np.ndarray, w: np.ndarray):
    """QR in the weighted inner product; returns E, A, B with E = U A, U = E B."""
    s = np.sqrt(w)
    Q, R = np.linalg.qr(s[:, None] * U)
    d = np.diag(R).copy()
    if np.any(np.abs(d) == 0):
        raise NumericFailureError("mode matrix is numerically rank deficient")
    ph = d / np.abs(d)
    Q = Q * ph[None, :]
    R = (1.0 / ph)[:, None] * R
    E = Q / s[:, None]
    B = R
    A = scipy.linalg.solve_triangular(R, np.eye(R.shape[0]), lower=False)
    return E, A, B


def eigendecompose(op: DiscreteOperator) -> SpectralSystem:
    """Full complex eigendecomposition with deterministic ordering.

    Semisimple default path: every eigenvector is its own chain of length one;
    clusters whose eigenvector block is badly conditioned are flagged in
    SpectralSystem.warnings. Eigenvalues within 1e-8 max(max |lambda|, 1) of
    a cluster's first one join that cluster.
    """
    M = op.matrix
    try:
        lam, V = scipy.linalg.eig(M)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
    scale = float(np.max(np.abs(lam))) if lam.size else 1.0
    tol = 1e-8 * max(scale, 1.0)

    # deterministic total order: descending modulus, ties by ascending phase
    ang = np.mod(np.angle(lam), 2.0 * np.pi)
    order = np.lexsort((ang, -np.abs(lam)))
    lam = lam[order]
    V = V[:, order]

    # cluster consecutive eigenvalues within tol of the cluster representative
    clusters: List[List[int]] = []
    for pos in range(lam.size):
        if clusters and abs(lam[pos] - lam[clusters[-1][0]]) <= tol:
            clusters[-1].append(pos)
        else:
            clusters.append([pos])

    warnings: List[str] = []
    indices: List[Tuple[int, int, int]] = []
    for j, members in enumerate(clusters, start=1):
        if len(members) > 1:
            sub = V[:, members]
            cond = np.linalg.cond(sub.conj().T @ sub)
            if cond > 1e16:
                warnings.append(
                    f"cluster {j} (lambda~{lam[members[0]]:.3e}, size {len(members)}) "
                    "looks defective; semisimple treatment retained"
                )
        indices.extend((j, l, 1) for l in range(1, len(members) + 1))

    # unit weighted norm + phase gauge (chains all length one, so safe)
    w = op.weights
    norms = np.sqrt(np.sum(w[:, None] * np.abs(V) ** 2, axis=0))
    U = _fix_column_phases(V / norms[None, :])
    E, A, B = _weighted_qr(U, w)
    return SpectralSystem(lambdas=lam, indices=indices, U=U, E=E, A=A, B=B,
                          cluster_tol=tol, warnings=warnings)


def synthetic_jordan_system(chain_spec: Sequence[Tuple[complex, int]],
                            V: Optional[np.ndarray] = None,
                            rng: Optional[np.random.Generator] = None):
    """Exactly constructed system with prescribed Jordan chains.

    chain_spec lists (eigenvalue, chain_length) in the desired cluster order;
    equal consecutive eigenvalues share a cluster. Returns (op, sys) where the
    operator matrix is V T V^{-1} for the chain-structured T, on unit weights.
    """
    total = sum(n for _, n in chain_spec)
    if V is None:
        rng = rng or np.random.default_rng(0)
        V = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        V += 2.0 * total * np.eye(total)  # keep well-conditioned
    V = np.asarray(V, dtype=complex)

    lambdas = np.zeros(total, dtype=complex)
    indices: List[Tuple[int, int, int]] = []
    pos = 0
    j = 0
    prev_lam = None
    l = 0
    for lam, length in chain_spec:
        if prev_lam is None or lam != prev_lam:
            j += 1
            l = 1
        else:
            l += 1
        prev_lam = lam
        lambdas[pos:pos + length] = lam
        indices.extend((j, l, k) for k in range(1, length + 1))
        pos += length

    E, A, B = _weighted_qr(V, np.ones(total))
    sys = SpectralSystem(lambdas=lambdas, indices=indices, U=V, E=E, A=A, B=B,
                         cluster_tol=1e-12, warnings=[])
    M = V @ sys.chain_matrix() @ np.linalg.inv(V)
    return operator_from_matrix(M), sys


def verify_resonant_mode(sys: SpectralSystem, op: DiscreteOperator, pos: int):
    """Chain residual of the mode in column `pos` and its dominant spatial frequency.

    Returns (residual, dominant_frequency); the frequency is None when the grid
    carries no Cartesian lattice to Fourier-analyze (synthetic systems).
    """
    lam = sys.lambdas[pos]
    if lam == 0:
        raise InvalidArgumentError("zero is not a point-spectrum eigenvalue")
    u = sys.U[:, pos]
    pred = sys.U[:, pos - 1] if sys.indices[pos][2] > 1 else 0.0
    resid = np.linalg.norm(op.matrix @ u - lam * u - pred) / np.linalg.norm(u)
    freq = dominant_spatial_frequency(op, u)
    return float(resid), freq


def dominant_spatial_frequency(op: DiscreteOperator, values: np.ndarray):
    """Peak angular frequency of a grid field via FFT on the embedding lattice."""
    grid = op.grid
    shape = grid.lattice_shape
    if not shape or min(shape) < 4:
        return None
    arr = np.zeros(shape, dtype=complex)
    arr[tuple(grid.lattice_index.T)] = values
    F = np.fft.fftn(arr)
    freqs = [2.0 * np.pi * np.fft.fftfreq(nc, d=grid.cell_size) for nc in shape]
    mesh = np.meshgrid(*freqs, indexing="ij")
    radial = np.sqrt(sum(m**2 for m in mesh))
    peak = np.unravel_index(int(np.argmax(np.abs(F))), F.shape)
    return float(radial[peak])


def build_h_matrix(sys: SpectralSystem) -> np.ndarray:
    """Representation of the operator in the mode basis:
    h = lambda on the chain diagonal, 1 on the (k, k-1) chain subentry."""
    return sys.chain_matrix().T


def resolvent_chain_coefficients(lam: complex, chain_len: int, z: complex) -> np.ndarray:
    """Coefficients c_0..c_{chain_len-1} of (z - K)^{-1} K^2 along one chain.

    c_m multiplies the chain member m places below the one acted on:
      c_0 = lam^2/(z-lam)
      c_1 = lam^2/(z-lam)^2 + 2 lam/(z-lam)
      c_m = lam^2/(z-lam)^{m+1} + 2 lam/(z-lam)^m + 1/(z-lam)^{m-1},  m >= 2.
    """
    if chain_len < 1:
        raise InvalidArgumentError("chain_len must be at least 1")
    if z == lam:
        raise ResonanceProximityError(z, lam)
    s = 1.0 / (z - lam)
    c = np.zeros(chain_len, dtype=complex)
    c[0] = lam**2 * s
    if chain_len > 1:
        c[1] = lam**2 * s**2 + 2.0 * lam * s
    for m in range(2, chain_len):
        c[m] = lam**2 * s ** (m + 1) + 2.0 * lam * s**m + s ** (m - 1)
    return c


def build_r_matrix(sys: SpectralSystem, z: complex) -> np.ndarray:
    """(z - K)^{-1} K^2 in the mode basis; acts on the grid as U @ R.T.

    Refused, by the rule of the direct solve's resonance check, when z lies
    within RESONANCE_TOL of the spectrum.
    """
    refuse_near_spectrum(z, sys.lambdas)
    N = sys.size
    R = np.zeros((N, N), dtype=complex)
    starts = sys.chain_starts()
    for pos, end in zip(starts[:-1], starts[1:]):
        length = end - pos
        c = resolvent_chain_coefficients(sys.lambdas[pos], length, z)
        for k in range(length):
            for m in range(k + 1):
                R[pos + k, pos + k - m] = c[m]
    return R


def build_d_matrix(sys: SpectralSystem, z: complex) -> np.ndarray:
    """Same operator expressed against the orthonormal basis E.

    Satisfies E @ D.T @ (E^H W) = (z I - M)^{-1} M^2 on the grid.
    """
    return sys.A.T @ build_r_matrix(sys, z) @ sys.B.T
