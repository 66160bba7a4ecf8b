"""Non-Hermitian spectral data of the volume operator.

Eigenvalues are sorted by descending modulus, ties by ascending phase, and
consecutive ones are grouped into clusters; `clusters` records the 1-based
cluster of each column of the mode matrix U. The data is semisimple: each
column is an eigenvector, M @ U = U @ diag(lambdas). Numerical Jordan
detection is ill-posed, so a cluster whose eigenvector block is badly
conditioned is only flagged in `warnings`. The paper's chain lemma stays the
one formula behind the resolvent: resolvent_chain_coefficients gives it for
chains of any length, and each mode's weight lam^2/(z - lam) is its
length-one case.

M is block-diagonal over the lattice-symmetry classes of the volume module.
Each class is solved by one eig on its block in an orthonormal basis of
lattice orbits; a class that the swap maps onto another is not solved, its
modes are the swapped modes of that other class. An operator without symmetry
is the one-class case. `classes` records the class of each mode column,
`symmetry` the classes themselves, as the operator decided them, and `modes`
each class's modes in the coordinates of its orbit basis: one row per orbit,
one column per mode of the class, in total order. U is scattered from them on
each read.

The orthonormalized basis E is produced by QR in the weighted discrete L2(D)
inner product, one QR per symmetry class on the modes' orbit coordinates,
with change-of-basis matrices such that

    E = U @ A,    U = E @ B,    A @ B = I,

both upper-triangular with positive-real diagonal on B, and exactly zero
between modes of different classes. The system keeps each class's QR,
`class_bases`, built on first read, so a caller that needs only the
eigenvalues and modes never pays for it; the N x N E, A and B are scattered
from it on each read. In index notation
e_gamma = sum_{gamma' <= gamma} a_{gamma,gamma'} u_{gamma'} with
a_{gamma,gamma'} = A[gamma', gamma].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List

import numpy as np
import scipy.linalg

from .errors import InvalidArgumentError, NumericFailureError, ResonanceProximityError
from .grids import _require_memory
from .volume import DiscreteOperator, class_block


@dataclass
class SpectralSystem:
    lambdas: np.ndarray                    # (N,) eigenvalue per total-order column
    clusters: np.ndarray                   # (N,) 1-based cluster per column, nondecreasing
    modes: list                            # per class, its modes in orbit coordinates
    weights: np.ndarray                    # (N,) quadrature weights of the inner product
    cluster_tol: float
    classes: np.ndarray                    # (N,) symmetry class per column, 0-based
    symmetry: list                         # the SymmetryClass of each class
    warnings: List[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.lambdas.size

    @cached_property
    def class_columns(self) -> list:
        """Per class, its mode columns in total order."""
        return [np.flatnonzero(self.classes == c) for c in range(len(self.symmetry))]

    @cached_property
    def class_bases(self) -> list:
        """Per class, the weighted QR (Ez, A, B) of its modes Uz, so that
        Ez = Uz A and Uz = Ez B; the weights are constant on orbits."""
        return [_weighted_qr(modes, self.weights[c.points[0]])
                for c, modes in zip(self.symmetry, self.modes)]

    @property
    def U(self) -> np.ndarray:
        """The modes, columns in total order."""
        return _scatter(self.symmetry, self.class_columns, self.modes, True)

    @property
    def E(self) -> np.ndarray:
        """Weighted-orthonormal columns; raises NumericFailureError if U is rank deficient."""
        return _scatter(self.symmetry, self.class_columns, [b[0] for b in self.class_bases], True)

    @property
    def A(self) -> np.ndarray:
        """E = U @ A."""
        return _scatter(self.symmetry, self.class_columns, [b[1] for b in self.class_bases], False)

    @property
    def B(self) -> np.ndarray:
        """U = E @ B."""
        return _scatter(self.symmetry, self.class_columns, [b[2] for b in self.class_bases], False)


def _scatter(symmetry: list, columns: list, blocks: list, orbits: bool) -> np.ndarray:
    """The N x N array of one block per class over the class's mode columns, its
    rows in orbit coordinates scattered onto the points (orbits) or over the same
    mode columns."""
    N = sum(cols.size for cols in columns)
    out = np.zeros((N, N), dtype=complex)
    for c, cols, block in zip(symmetry, columns, blocks):
        if orbits:
            column, entry = c.orbit_entries(N)
            rows = np.flatnonzero(column >= 0)
            out[np.ix_(rows, cols)] = entry[rows, None] * block[column[rows]]
        else:
            out[np.ix_(cols, cols)] = block
    return out


def _fix_column_phases(U: np.ndarray) -> np.ndarray:
    """Rotate each column of U, in place, so its first significant component is
    real positive."""
    mags = np.abs(U)
    first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    del mags
    pivot = U[first, np.arange(U.shape[1])]
    U *= np.abs(pivot) / pivot
    return U


def _weighted_qr(U: np.ndarray, w: np.ndarray):
    """QR in the weighted inner product; returns E, A, B with E = U A, U = E B."""
    s = np.sqrt(w)
    Q, R = scipy.linalg.qr(s[:, None] * U, mode="economic", check_finite=False)
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
    """Full complex eigendecomposition with deterministic ordering, one eig per
    symmetry class of the lattice.

    Semisimple: each column of U is an eigenvector; clusters whose eigenvector
    block is badly conditioned are flagged in SpectralSystem.warnings. Eigenvalues
    within 1e-8 max(max |lambda|, 1) of a cluster's first one join that
    cluster. The weighted-orthonormal basis E, A, B is not formed here but on
    its first read, which is where a rank-deficient U is refused. Each class's
    modes are normalized and phase-fixed on its points alone, with the bits of
    U's columns, in place. Refuses an N whose transient peak, by tracemalloc, is
    larger than physical memory: 16 bytes per entry of each class block, held by
    its Y until its modes replace it, 24 N m for the normalization of the largest
    class, of m modes, and about 2 kB a point for LAPACK's workspace and the
    bookkeeping (measured 38.8 N^2 bytes at N = 316 and 34.6 N^2 at N = 812
    without lattice symmetry, 10.3 and 8.9 N^2 on the constant disk).
    """
    N, sizes = op.n.size, [c.size for c in op.classes]
    _require_memory(16 * sum(n * n for n in sizes) + 24 * N * max(sizes) + 2200 * N,
                    f"eigendecomposition of size N={N}")
    parts = []   # per class, its eigenvalues and block eigenvectors Y
    for i, c in enumerate(op.classes):
        if c.source != i:   # the swapped modes of a solved class: the same eigenvalues and Y
            parts.append(parts[c.source])
            continue
        try:
            parts.append(scipy.linalg.eig(class_block(op, c), overwrite_a=True))
        except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
            raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc

    lam = np.concatenate([part[0] for part in parts])
    classes = np.repeat(np.arange(len(parts)), sizes)
    scale = float(np.max(np.abs(lam))) if lam.size else 1.0
    tol = 1e-8 * max(scale, 1.0)

    # deterministic total order: descending modulus, ties by ascending phase
    ang = np.mod(np.angle(lam), 2.0 * np.pi)
    order = np.lexsort((ang, -np.abs(lam)))
    lam, classes = lam[order], classes[order]
    # the column at pos is eigenvector order[pos] - first[i] of its class i, and that
    # class's orbit basis vectors span its points, in ascending order
    first = np.cumsum([0] + sizes)
    entries = [c.orbit_entries(N) for c in op.classes]
    points = [np.flatnonzero(column >= 0) for column, _ in entries]

    def on_points(i, pos):   # U's columns pos of class i, before normalization, on its points
        (column, entry), rows = entries[i], points[i]
        V = parts[i][1][np.ix_(column[rows], order[pos] - first[i])]
        V *= entry[rows, None]
        return V

    # cluster consecutive eigenvalues within tol of the cluster representative
    members_of: List[List[int]] = []
    for pos in range(lam.size):
        if members_of and abs(lam[pos] - lam[members_of[-1][0]]) <= tol:
            members_of[-1].append(pos)
        else:
            members_of.append([pos])

    warnings: List[str] = []
    for j, members in enumerate(members_of, start=1):
        if len(members) > 1:
            sub = np.zeros((N, len(members)), dtype=complex)   # the cluster's columns of U
            for k, pos in enumerate(members):
                sub[points[classes[pos]], k] = on_points(classes[pos], [pos])[:, 0]
            cond = np.linalg.cond(sub.conj().T @ sub)
            if cond > 1e16:
                warnings.append(
                    f"cluster {j} (lambda~{lam[members[0]]:.3e}, size {len(members)}) "
                    "looks defective; semisimple treatment retained"
                )
    clusters = np.repeat(np.arange(1, len(members_of) + 1), [len(m) for m in members_of])

    # unit weighted norm, summed C-ordered over the class's points as over U's N rows, and
    # phase gauge; each class's modes at one point per orbit, over the point's entry,
    # gathered transposed, so that each is Fortran-ordered and goes to BLAS uncopied
    w = op.weights
    modes = []
    for i, (c, rows) in enumerate(zip(op.classes, points)):
        V = on_points(i, np.flatnonzero(classes == i))
        parts[i] = None   # a swapped twin keeps its own reference to the Y it shares
        if c.size:   # an empty class has no column to fix
            sq = np.abs(V)
            sq **= 2
            sq *= w[rows, None]
            V /= np.sqrt(np.sum(sq, axis=0))
            del sq
            _fix_column_phases(V)
        modes.append(V.T[np.ix_(np.arange(c.size), np.searchsorted(rows, c.points[0]))].T)
        modes[-1] /= entries[i][1][c.points[0], None]
        del V   # before the next class's V is gathered
    return SpectralSystem(lambdas=lam, clusters=clusters, modes=modes, weights=w, cluster_tol=tol,
                          classes=classes, symmetry=op.classes, warnings=warnings)


def dominant_spatial_frequency(op: DiscreteOperator, values: np.ndarray):
    """Peak angular frequency of a grid field via FFT on the embedding lattice,
    zero-padded to 4x its extent per axis."""
    grid = op.grid
    if min(grid.lattice_shape) < 4:
        return None
    # zero-padded to 4x the lattice per axis, so the frequency step is pi/(4R)
    shape = tuple(4 * nc for nc in grid.lattice_shape)
    arr = np.zeros(shape, dtype=complex)
    arr[tuple(grid.lattice_index.T)] = values
    F = np.fft.fftn(arr)
    freqs = [2.0 * np.pi * np.fft.fftfreq(nc, d=grid.cell_size) for nc in shape]
    peak = np.unravel_index(int(np.argmax(np.abs(F))), F.shape)
    return float(np.sqrt(sum(f[i] ** 2 for f, i in zip(freqs, peak))))


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

