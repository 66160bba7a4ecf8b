"""Dense Nystrom discretization of the volume operator and the direct
Lippmann-Schwinger solver for the high-contrast Green function.

The operator acts as f -> -int_D G0(x, y) n(y) f(y) dy. Discretely
M[i, j] = -g0(x_i, x_j) n_j w_j off the diagonal; the singular diagonal cell is
replaced by the analytic integral of the kernel over the disk/ball of equal
measure centered at the point ("equal_measure" rule). On the uniform lattice
both depend only on the integer offset between the two cells, so the operator
is held as one table of w g0 over the lattice offsets, with |x_i - x_j| taken
as h |offset|; the kernel is evaluated once per offset, not once per point
pair. Every block, column or whole M that a caller reads is gathered from the
table a strip at a time, so that no N x N index array is made.

The discrete delta column at grid node j is e_j / w_j, so
M @ delta_j = -n_j * g0col_j, which pins the free-kernel column used by the
direct solver and by the expansion module.

M is block-diagonal over the lattice symmetries it keeps bit for bit: the
reflection of each lattice axis and, where axes 0 and 1 have the same extent,
their swap. The symmetry classes are the reflection parities, each one that the
swap maps onto itself split by its swap parity; each class has an orthonormal
basis P of lattice orbits, and M in that basis is the class's block; its gather
(P^T b) and scatter (adds P x) are the one way between grid arrays and its
coordinates. A class that the swap maps onto another has the same block. The
eigensolver runs one eig per block and the direct solver one LU per block; an
operator without symmetry is the one-class case, whose block is M.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy.linalg import LinAlgWarning, eigvals, lu_factor, lu_solve, qr
from scipy.linalg.blas import zgemm
from scipy.special import factorial, hankel1, j1

from .errors import InvalidArgumentError, NumericFailureError, ResonanceProximityError
from .grids import DomainGrid, WaveContext, _require_memory
from .kernels import g0_between, g0_from_distance

# columns of the resonance check's block; the nearest eigenvalues converge first
RITZ_BLOCK_COLUMNS = 20
# relative distance from 1/tau to an eigenvalue below which a solve is refused
RESONANCE_TOL = 1e-8
# rows of M, or columns of a class block, gathered from the table at a time, so that
# no index array or temporary is N x N
_GATHER_ROWS = 128


@dataclass
class DiscreteOperator:
    """The volume operator on a grid, held as the flat table its entries are
    gathered from: M[i, j] = T[row_i - col_j] (-n_j). Its arrays are not changed
    after it is built, so its symmetry classes are decided once, on first read."""

    table: np.ndarray    # T, complex
    row: np.ndarray      # (N,) position in T of each point as a row of M
    col: np.ndarray      # (N,) and as a column
    grid: DomainGrid
    n: np.ndarray        # (N,) refractive index at the grid points
    ctx: WaveContext

    @property
    def weights(self) -> np.ndarray:
        return self.grid.weights

    @property
    def matrix(self) -> np.ndarray:
        """The dense M, formed on each read; refused when larger than physical memory."""
        N = self.n.size
        _require_memory(16 * N**2, f"dense operator of size N={N}")
        return _columns(self, slice(None))

    @cached_property
    def classes(self) -> list:
        """The symmetry classes of M, in the order of the module docstring; a class
        that the swap maps onto an earlier one has its swapped basis."""
        N = self.n.size
        axes, reflections, swap = _symmetries(self)
        # the swap exchanges the parities of axes 0 and 1, which are kept together
        mirror = (lambda s: (s[1], s[0], *s[2:])) if axes[:2] == [0, 1] else (lambda s: s)
        solved, out = {}, []
        for parities in product((1, -1), repeat=len(axes)):
            if swap is not None and mirror(parities) in solved:
                c = out[solved[mirror(parities)]]
                out.append(SymmetryClass(swap[c.points], c.chars, c.stab, c.source))
                continue
            solved[parities] = len(out)
            for e in (1, -1) if swap is not None and mirror(parities) == parities else (None,):
                out.append(_orbit_class(*_group(N, reflections, parities, swap, e), len(out)))
        return out

    @property
    def symmetry_blocks(self) -> list:
        """The size of every symmetry class of M, in the order of the classes."""
        return [c.size for c in self.classes]


def _diag_kernel_integral(w: float, ctx: WaveContext) -> complex:
    """Integral of g0(x, .) over the disk/ball of measure w centered at x. The
    closed forms cancel two O(1/k^2) terms, so below x = k rho = 0.1 the part
    that cancels is summed as a power series in x."""
    k = ctx.k
    if ctx.dim == 2:
        rho = np.sqrt(w / np.pi)
        if (x := k * rho) < 0.1:  # Re (pi rho/2k) Y1(x) + 1/k^2 by series; psi(m+1) = H_m - gamma
            m = np.arange(12)
            psi = np.cumsum(1.0 / np.maximum(m, 1)) - 1.0 - np.euler_gamma
            s = (-1.0) ** m * (2 * psi + 1 / (m + 1)) * (x / 2) ** (2 * m + 2)
            re = x * np.log(x / 2) * j1(x) - np.sum(s / (factorial(m) * factorial(m + 1)))
            return complex(re / k**2, -0.5 * np.pi * rho / k * j1(x))
        # int_{|y|<rho} -(i/4) H0(kr) dy = -(i pi rho / 2k) H1(k rho) + 1/k^2
        return complex(-0.5j * np.pi * rho / k * hankel1(1, k * rho) + 1.0 / k**2)
    rho = (3.0 * w / (4.0 * np.pi)) ** (1.0 / 3.0)
    if (x := k * rho) < 0.1:  # rho^2 sum_{m >= 2} (m - 1) i^m x^(m - 2) / m!
        m = np.arange(2, 20)
        return complex(rho**2 * np.sum((m - 1) * 1j**m * x ** (m - 2) / factorial(m)))
    # int_{|y|<rho} -e^{ikr}/(4 pi r) dy = (e^{ik rho}(ik rho - 1) + 1)/k^2
    return complex((np.exp(1j * k * rho) * (1j * k * rho - 1.0) + 1.0) / k**2)


def _offset_table(grid: DomainGrid, ctx: WaveContext) -> np.ndarray:
    """w g0(h |m|) at every lattice offset m, an array of shape (2 s - 1) for
    each lattice axis of extent s, offset 0 at index s - 1; the singular
    offset 0 holds the equal-measure integral of g0 over the cell.

    Every cell has the weight w = h^dim, and g0 is evaluated once per offset
    up to sign, so offsets m and -m hold the same bits.
    """
    h, w = grid.cell_size, grid.cell_size ** grid.dim
    axes = np.meshgrid(*[np.arange(s) for s in grid.lattice_shape], indexing="ij")
    r = h * np.sqrt(sum(a**2 for a in axes))
    r.flat[0] = 1.0  # placeholder, overwritten below
    folded = w * g0_from_distance(r, ctx)
    folded.flat[0] = _diag_kernel_integral(w, ctx)
    if not np.all(np.isfinite(folded)):
        raise NumericFailureError(f"the kernel at cell size h = {h} is not finite")
    return folded[np.ix_(*[np.abs(np.arange(1 - s, s)) for s in grid.lattice_shape])]


def assemble_kd(grid: DomainGrid, n: np.ndarray, ctx: WaveContext) -> DiscreteOperator:
    """The volume operator for the refractive index n, one positive value per
    grid point.

    The kernel between two cells depends only on their lattice offset, so
    M[i, j] = -T[offset(i, j)] n_j, with T the offset table of _offset_table.
    The operator keeps T and the table positions of the points; M is not formed.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (grid.n_points,):
        raise InvalidArgumentError("grid and refractive index sizes do not match")
    if not np.all(n > 0):
        raise InvalidArgumentError("refractive index values must be positive")
    shape = np.array(grid.lattice_shape)
    table_shape = 2 * shape - 1
    # flat table positions: offset(i, j) = index_i - index_j + (s - 1) is at row[i] - col[j]
    col = np.ravel_multi_index(grid.lattice_index.T, table_shape)
    row = np.ravel_multi_index((grid.lattice_index + shape - 1).T, table_shape)
    return DiscreteOperator(table=_offset_table(grid, ctx).ravel(), row=row, col=col, grid=grid,
                            n=n, ctx=ctx)


def operator_from_matrix(matrix: np.ndarray) -> DiscreteOperator:
    """Wrap a raw dense matrix as an operator (synthetic/test systems).

    Points are placed on a unit-spaced line; weights and index are one, and
    the wave context is k = 1 in 2D. The table is -matrix, row-major, with
    row_i = i N, col_j = -j and n = 1, so the entries gathered from it are the
    matrix's values. It is not an offset table, so a symmetry that keeps n and
    the weights need not keep it; the line is one cell short of its (N + 1) x 1
    lattice, so that no reflection maps it onto itself: the operator is one class.
    """
    matrix = np.asarray(matrix, dtype=complex)
    N = matrix.shape[0]
    if matrix.shape != (N, N):
        raise InvalidArgumentError("matrix must be square")
    pts = np.column_stack([np.arange(N, dtype=float), np.zeros(N)])
    grid = DomainGrid(points=pts, weights=np.ones(N), cell_size=1.0, radius=float(N),
                      lattice_index=np.column_stack([np.arange(N), np.zeros(N, dtype=int)]),
                      lattice_shape=(N + 1, 1))
    return DiscreteOperator(table=-matrix.ravel(), row=N * np.arange(N), col=-np.arange(N),
                            grid=grid, n=np.ones(N), ctx=WaveContext(k=1.0, dim=2))


def _gather(op: DiscreteOperator, rows, cols, out=None) -> np.ndarray:
    """M[rows, cols] for index arrays that broadcast together, as numpy indexes
    a matrix with two arrays: each entry T[row_i - col_j] (-n_j), gathered from
    the table into out (a new array by default). Callers pass strips of at most
    _GATHER_ROWS rows or columns, so that no index array is N x N."""
    # every position lies in T, so clipping, which skips numpy's buffered bounds check, moves none
    out = np.take(op.table, op.row[rows] - op.col[cols], out=out, mode="clip")
    out *= -op.n[cols]
    return out


def _columns(op: DiscreteOperator, columns) -> np.ndarray:
    """M[:, columns], gathered _GATHER_ROWS rows at a time; an integer gives one
    column as a vector."""
    N = op.n.size
    cols = np.arange(N)[columns]
    rows = np.arange(N)[:, None] if cols.ndim else np.arange(N)
    out = np.empty((N, *cols.shape), dtype=complex)
    for start in range(0, N, _GATHER_ROWS):
        strip = slice(start, start + _GATHER_ROWS)
        _gather(op, rows[strip], cols, out[strip])
    return out


def g0_matrix(op: DiscreteOperator, columns=slice(None)) -> np.ndarray:
    """Columns of G0[i, j] = g0(x_i, x_j), diagonal entry cell-averaged.

    Defined through the operator columns so that the singular-cell rule is
    applied consistently: G0[:, j] = -M[:, j] / (n_j w_j), gathered from the
    table. `columns` indexes the grid nodes; an integer gives one column as a
    vector.
    """
    G0 = _columns(op, columns)
    np.negative(G0, out=G0)
    G0 /= (op.n * op.weights)[columns]
    return G0


@dataclass(frozen=True)
class SymmetryClass:
    """One symmetry class of M: a group G of lattice permutations g with a
    character chi, and an orthonormal basis P of one vector
    sum_g chi(g) e_{g(r)} / sqrt(stab_r |G|) per orbit representative r, where
    stab_r is the size of r's stabilizer; orbits whose stabilizer the character
    is not trivial on have no vector. Without symmetry, P is I."""

    points: np.ndarray   # (|G|, n) g(r) per group element g, identity first, and representative r
    chars: np.ndarray    # (|G|,) chi(g), +1 or -1
    stab: np.ndarray     # (n,) stab_r
    source: int          # the class whose block this one has: itself, or the one the swap maps

    @property
    def size(self) -> int:
        return self.stab.size

    @property
    def reps(self) -> np.ndarray:
        """The representative r of each orbit, in the order of the basis."""
        return self.points[0]

    @property
    def norms(self) -> np.ndarray:
        """sqrt(stab_r |G|) per representative: the norm of sum_g chi(g) e_{g(r)}."""
        return np.sqrt(self.stab * self.chars.size)

    def gather(self, b: np.ndarray) -> np.ndarray:
        """P^T b for a grid array b of N rows: |G| signed row gathers over the norms,
        _GATHER_ROWS rows at a time, into a new Fortran-ordered array that LAPACK
        solves in place; without symmetry, a copy of b."""
        x = np.empty((self.size, *b.shape[1:]), dtype=complex, order="F")
        for start in range(0, self.size, _GATHER_ROWS):
            rows = slice(start, start + _GATHER_ROWS)
            x[rows] = b[self.reps[rows]]
            for p, chi in zip(self.points[1:], self.chars[1:]):
                _add_signed(x[rows], b[p[rows]], chi)
        np.divide(x.T, self.norms, out=x.T)
        return x

    def scatter(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out + P x in place of out, for coordinates x of the class's size in rows:
        |G| signed row adds of x over the norms, _GATHER_ROWS rows at a time; x is
        overwritten."""
        np.divide(x.T, self.norms, out=x.T)
        for start in range(0, self.size, _GATHER_ROWS):
            rows = slice(start, start + _GATHER_ROWS)
            for p, chi in zip(self.points, self.chars):
                out[p[rows]] = _add_signed(out[p[rows]], x[rows], chi)
        return out


def _symmetries(op: DiscreteOperator):
    """The lattice symmetries that M and the weights keep bit for bit, as point
    permutations: returns the axes whose reflection is kept, those reflections
    in axis order, and the swap of axes 0 and 1, or None where it is not kept.
    T, the table of w g0 over the lattice offsets, is kept bit for bit by every
    axis reflection and the swap of equal-extent axes, so a lattice symmetry
    keeps M exactly when it keeps n and the weights; M is not read."""
    grid = op.grid
    index, shape = grid.lattice_index, grid.lattice_shape

    def kept(image):
        p = grid.lattice_permutation(image)
        if (p is None or np.array_equal(p, np.arange(p.size))
                or not np.array_equal(op.weights[p], op.weights)
                or not np.array_equal(op.n[p], op.n)):
            return None
        return p

    reflections = {}
    for a, s in enumerate(shape):
        image = index.copy()
        image[:, a] = s - 1 - image[:, a]
        reflections[a] = kept(image)
    swap = None
    if len(shape) > 1 and shape[0] == shape[1]:
        swap = kept(index[:, [1, 0, *range(2, len(shape))]])
    reflections = {a: p for a, p in reflections.items() if p is not None}
    return list(reflections), list(reflections.values()), swap


def _group(N: int, reflections, parities, swap, swap_parity):
    """Permutations and character values of the group generated by the
    reflections, with the given parities, and by the swap unless swap_parity is
    None; the product of two elements p, q is p[q]."""
    perms, chars = [np.arange(N)], [1]
    for p, parity in zip(reflections, parities):
        perms, chars = perms + [p[q] for q in perms], chars + [parity * c for c in chars]
    if swap_parity is not None:
        perms, chars = perms + [q[swap] for q in perms], chars + [swap_parity * c for c in chars]
    return np.array(perms), np.array(chars)


def _orbit_class(perms: np.ndarray, chars: np.ndarray, source: int) -> SymmetryClass:
    """The class of a group and character; the representative of an orbit is its
    smallest point."""
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(perms.shape[1]))
    stab = np.sum((perms[:, reps] == reps) * chars[:, None], axis=0)
    return SymmetryClass(perms[:, reps[stab > 0]], chars, stab[stab > 0], source)


def _add_signed(acc: np.ndarray, term: np.ndarray, chi: int) -> np.ndarray:
    """acc + chi term for chi = +1 or -1, computed in place of acc."""
    return (np.add if chi > 0 else np.subtract)(acc, term, out=acc)


def class_block(op: DiscreteOperator, c: SymmetryClass, scale: complex = 1.0) -> np.ndarray:
    """scale times the class's block sum_g chi(g) M[reps, g(reps)] / sqrt(stab stab^T),
    M in the class's basis, as a Fortran-ordered array that LAPACK works on in
    place. It is gathered from the table _GATHER_ROWS columns at a time, each
    strip one contiguous piece of the array; without symmetry the block is M
    itself, and the result M * scale."""
    reps, n = c.reps, c.size
    out = np.empty((n, n), dtype=complex, order="F")
    term = np.empty((min(n, _GATHER_ROWS), n), dtype=complex)
    for start in range(0, n, _GATHER_ROWS):
        cols = slice(start, start + _GATHER_ROWS)
        block = _gather(op, reps, reps[cols, None])   # block[b, a] = M[r_a, r_b]
        for p, chi in zip(c.points[1:], c.chars[1:]):
            _add_signed(block, _gather(op, reps, p[cols, None], term[:len(block)]), chi)
        if c.chars.size > 1:   # the trivial group: every stabilizer is 1
            # the real reciprocal: numpy's complex quotient is (re + im 0)(1/d), the same bits
            block *= 1.0 / np.sqrt(np.outer(c.stab[cols], c.stab))
        np.multiply(block, scale, out=out.T[cols])
    return out


def _factor(op: DiscreteOperator, tau: float) -> dict:
    """LU factorizations of I - tau B over the blocks B of the symmetry classes
    of M: for each solved class that is not empty, by its index, the LU of its
    block (scipy.linalg.lu_factor form). Refused when the LUs, 16 bytes per
    block entry, are larger than physical memory, and, by the rule of
    refuse_near_spectrum, when z = 1/tau is within tolerance of the spectrum.

    The eigenvalues of a block B nearest z are the dominant eigenvalues of
    (I - B/z)^{-1} (shift-invert), so one block Rayleigh-Ritz step on the LU
    of I - B/z finds them: lambda = z (1 - 1/nu) for each Ritz value nu. The
    step runs on each solved class's block, and the Ritz value nearest z over
    all of them is the one reported. An exactly zero pivot means that z is an
    eigenvalue; it is refused here, so LAPACK's singular-matrix warning is
    silenced.
    """
    z, lus, ritz = 1.0 / tau, {}, []
    solved = {i: c for i, c in enumerate(op.classes) if c.source == i and c.size}
    sizes = [c.size for c in solved.values()]
    _require_memory(16 * sum(n**2 for n in sizes), f"Lippmann-Schwinger solve of N={op.n.size} "
                    f"(largest symmetry block {max(sizes, default=0)})")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        for i, c in solved.items():
            A = class_block(op, c, -tau)
            A[np.diag_indices_from(A)] += 1.0
            lus[i] = lu_factor(A, overwrite_a=True, check_finite=False)
    for lu in lus.values():   # after all LUs: run between them, they cost 1-2 ms more on 2 cores
        if not np.all(np.diagonal(lu[0])):
            raise ResonanceProximityError(z, z)
        ritz.append(_dominant_ritz_values(lu))
    refuse_near_spectrum(z, z * (1.0 - 1.0 / np.concatenate(ritz)))
    return lus


def _dominant_ritz_values(lu) -> np.ndarray:
    """Ritz values of S^{-1}, S given by its LU, from one step of subspace
    iteration with Rayleigh-Ritz: Q = qr(S^{-1} X) for a block X of
    RITZ_BLOCK_COLUMNS columns, then the eigenvalues of Q^H S^{-1} Q.

    The start block is fixed, so reruns are byte-identical. It is
    pseudo-random rather than structured, such as a constant vector, whose span
    can miss whole families of modes.
    """
    N = lu[0].shape[0]
    block = (N, min(RITZ_BLOCK_COLUMNS, N))
    # X and S^{-1} X are temporaries, so neither outlives its use. Every step runs in
    # scipy's BLAS: numpy has its own, and on two cores each switch between the two
    # libraries' thread pools costs milliseconds, more than the step itself at N = 316
    Q = qr(lu_solve(lu, np.random.default_rng(0).standard_normal(block), check_finite=False),
           mode="economic", overwrite_a=True, check_finite=False)[0]
    return eigvals(zgemm(1.0, Q, lu_solve(lu, Q, check_finite=False), trans_a=2),
                   overwrite_a=True, check_finite=False)


def refuse_near_spectrum(z: complex, lambdas: np.ndarray):
    """The resonance rule: raise if some |z - lambda| < RESONANCE_TOL (1 + |lambda|),
    reporting the eigenvalue nearest z."""
    d = np.abs(z - lambdas)
    if np.any(d < RESONANCE_TOL * (1.0 + np.abs(lambdas))):
        raise ResonanceProximityError(z, lambdas[int(np.argmin(d))])


def _lippmann_schwinger(op: DiscreteOperator, tau: float, free: np.ndarray) -> np.ndarray:
    """(I - tau M)^{-1} free, for a nonzero tau: the total field of each
    free-field column, solved class by class. free, a complex array, is
    overwritten with the result: each class's coordinates are gathered from it
    and solved first, then scattered back. Refused when 1/tau is within
    tolerance of the spectrum; the resonance check reuses the factorization of
    the solve.
    """
    lus = _factor(op, tau)
    b = free.reshape(free.shape[0], -1)   # a view: free is a vector or a matrix
    parts = [(c, lu_solve(lus[c.source], c.gather(b), overwrite_b=True, check_finite=False))
             for c in op.classes if c.size]
    b[...] = 0.0
    for c, x in parts:
        c.scatter(x, b)
    return free


def green_matrix(op: DiscreteOperator, tau: float, columns=slice(None)) -> np.ndarray:
    """Columns of the high-contrast Green function, G[i, j] = G(x_i, x_j), by
    dense solve of the Lippmann-Schwinger equation (I - tau M) G = G0 for the
    free-kernel columns G0. `columns` indexes the grid nodes as in g0_matrix;
    an integer gives one column as a vector.
    """
    G0 = g0_matrix(op, columns)
    return G0 if tau == 0 else _lippmann_schwinger(op, tau, G0)


def class_green(op: DiscreteOperator, tau: float) -> list:
    """G0 and green_matrix(op, tau) in the basis of each symmetry class of M, as
    one pair (G0_c, G_c) per class in the order of the classes: G0_c is the
    class's block over -n w at its representatives, and G_c solves
    (I - tau B) G_c = G0_c on the class's LU. A class that the swap maps onto
    a solved one has that class's pair. Refused as green_matrix is.
    """
    lus = _factor(op, tau) if tau else {}
    pairs = []
    for i, c in enumerate(op.classes):
        if c.source != i:
            pairs.append(pairs[c.source])
            continue
        G0 = class_block(op, c)
        G0 /= -(op.n * op.weights)[c.reps]
        pairs.append((G0, lu_solve(lus[i], G0, check_finite=False) if tau and c.size else G0))
    return pairs


def check_exterior(grid: DomainGrid, points) -> None:
    """Refuse evaluation points that are not strictly outside the domain,
    i.e. with |z| <= radius."""
    if np.any(np.linalg.norm(np.asarray(points, dtype=float), axis=1) <= grid.radius):
        raise InvalidArgumentError("exterior evaluation point lies on or inside the source domain")


def radiate_matrix(op: DiscreteOperator, exterior_points: np.ndarray, tau: float) -> np.ndarray:
    """G(z_m, x_j) at exterior rows z_m for every grid column x_j.

    The discrete operator is reciprocal (M = -S diag(n w) with S symmetric),
    so G(z, x) = G(x, z): row m is the total field of a point source at z_m,
    read at the grid nodes, which is one Lippmann-Schwinger solve of its free
    field g0(., z_m), on the LU that the interior Green solves use.
    """
    check_exterior(op.grid, exterior_points)
    K = g0_between(exterior_points, op.grid.points, op.ctx)   # (m, N) free kernel
    return K if tau == 0 else _lippmann_schwinger(op, tau, K.T).T


def singular_values(op: DiscreteOperator) -> np.ndarray:
    return np.linalg.svd(op.matrix, compute_uv=False)
