from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from resonat import (
    WaveContext,
    alpha_expansion,
    assemble_kd,
    beta_expansion,
    build_ball_grid,
    build_disk_grid,
    eigendecompose,
    operator_from_matrix,
    radial_bump,
    resolvent_chain_coefficients,
)
from resonat.errors import ResonanceProximityError
from resonat.spectral import _fix_column_phases, _scatter, _weighted_qr, dominant_spatial_frequency
from resonat.volume import class_block


def jordan_block(lam, n):
    return lam * np.eye(n, dtype=complex) + np.eye(n, k=1, dtype=complex)


def alpha_at(sys, z):
    """alpha_expansion at the contrast tau = 1/z."""
    return alpha_expansion(sys, 1.0 / z)


def r_matrix(sys, z):
    """(z - K)^{-1} K^2 in the mode basis, -A alpha B = diag(r); acts on the grid as U @ R.T."""
    return -sys.A @ alpha_at(sys, z) @ sys.B


class TestEigendecompose:
    def test_diagonal_ordering(self):
        op = operator_from_matrix(np.diag([0.5, 0.2j, 0.1]).astype(complex))
        sys = eigendecompose(op)
        assert np.allclose(sys.lambdas, [0.5, 0.2j, 0.1])

    def test_residual_random_matrix(self, rng):
        M = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        op = operator_from_matrix(M)
        sys = eigendecompose(op)
        assert np.linalg.norm(M @ sys.U - sys.U * sys.lambdas) <= 1e-9 * np.linalg.norm(M)

    def test_hand_gram_schmidt(self):
        # modes (1,0) and (1,1): E is the identity basis, A/B the 2x2
        # triangular change of basis with A @ B = I
        V = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        E, A, B = _weighted_qr(V, np.ones(2))
        assert np.allclose(E, np.eye(2), atol=1e-14)
        assert np.allclose(A, [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)
        assert np.allclose(A @ B, np.eye(2), atol=1e-14)

    def test_basis_is_weighted_qr_of_modes(self, disk16_sys):
        # E, A and B are built on first read, one weighted QR per symmetry class
        # of the class's modes, taken in orbit coordinates; the weighted QR of the
        # modes at every point is the reference
        sys = disk16_sys
        assert len(sys.symmetry) == 6
        for c in range(len(sys.symmetry)):
            cols = np.flatnonzero(sys.classes == c)
            E, A, B = _weighted_qr(sys.U[:, cols], sys.weights)
            for built, expected in ((sys.E[:, cols], E), (sys.A[np.ix_(cols, cols)], A),
                                    (sys.B[np.ix_(cols, cols)], B)):
                assert np.max(np.abs(built - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_orthonormality_and_inverse_pair(self, disk16, disk16_sys):
        _, _, op = disk16
        sys = disk16_sys
        W = np.diag(op.weights)
        gram = sys.E.conj().T @ W @ sys.E
        assert np.linalg.norm(gram - np.eye(sys.size)) <= 1e-10
        assert np.linalg.norm(sys.A @ sys.B - np.eye(sys.size)) <= 1e-10
        # both triangular with nonzero diagonals
        assert np.allclose(sys.A, np.triu(sys.A)) and np.allclose(sys.B, np.triu(sys.B))
        assert np.all(np.abs(np.diag(sys.A)) > 0) and np.all(np.abs(np.diag(sys.B)) > 0)

    def test_moduli_nonincreasing(self, disk16_sys):
        mods = np.abs(disk16_sys.lambdas)
        assert np.all(np.diff(mods) <= disk16_sys.cluster_tol)

    def test_completeness_relation(self, disk16, disk16_sys):
        _, grid, op = disk16
        sys = disk16_sys
        f = np.exp(-2.0 * np.linalg.norm(grid.points, axis=1) ** 2) * (
            1.0 + 0.5j * grid.points[:, 0])
        proj = sys.E @ (sys.E.conj().T @ (op.weights * f))
        assert np.linalg.norm(proj - f) <= 1e-8 * np.linalg.norm(f)

    def test_repeated_eigenvalue_clustering(self):
        op = operator_from_matrix(np.diag([0.5, 0.5, 0.2]).astype(complex))
        sys = eigendecompose(op)
        assert sys.clusters.tolist() == [1, 1, 2]

    def test_defective_cluster_warned(self):
        sys = eigendecompose(operator_from_matrix(jordan_block(0.5, 2)))
        assert sys.clusters.tolist() == [1, 1]
        [warning] = sys.warnings
        assert warning.startswith("cluster 1 ")
        assert warning.endswith("looks defective; semisimple treatment retained")

    def test_gauge_determinism(self, rng):
        M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        s1 = eigendecompose(operator_from_matrix(M))
        s2 = eigendecompose(operator_from_matrix(M.copy()))
        assert np.array_equal(s1.U, s2.U) and np.array_equal(s1.E, s2.E)

    def test_phase_gauge(self, rng, disk16_sys):
        # the first entry above 1e-12 of its column's largest one is real positive
        U = np.array([[1e-14, 1.0 + 1.0j], [1.0j, 2.0]])
        assert np.allclose(_fix_column_phases(U),
                           [[-1e-14j, np.sqrt(2.0)], [1.0, np.sqrt(2.0) * (1.0 - 1.0j)]])
        M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        for U in (eigendecompose(operator_from_matrix(M)).U, disk16_sys.U):
            mags = np.abs(U)
            pivot = U[np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0), np.arange(U.shape[1])]
            assert np.all(pivot.real > 0)
            assert np.all(np.abs(pivot.imag) <= 1e-15 * pivot.real)


def _medium(dim, cells, k, center=None):
    """The unit disk or ball with n = 1, or with a radial bump (width 0.5, peak 2) at `center`."""
    ctx = WaveContext(k=k, dim=dim)
    grid = (build_disk_grid if dim == 2 else build_ball_grid)(1.0, cells, ctx)
    n = np.ones(grid.n_points) if center is None else radial_bump(grid.points, center, 0.5, 2.0)
    return assemble_kd(grid, n, ctx)


def _line_matrix():
    # a random matrix on the line: one class, as every wrapped matrix is
    rng = np.random.default_rng(3)
    return operator_from_matrix((rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))) / 40)


def _dense_modes(op):
    """The modes as eigendecompose made them with an N x N V: each class's
    eigenvectors scattered into V, normalized and phase-fixed at N x N, and each
    class's orbit rows gathered back out; returns lambdas, clusters, classes,
    warnings and modes."""
    N = op.n.size
    parts = [(scipy.linalg.eig(class_block(op, c), overwrite_a=True) if c.source == i else None)
             for i, c in enumerate(op.classes)]
    parts = [p or parts[c.source] for p, c in zip(parts, op.classes)]
    sizes = [p[0].size for p in parts]
    lam = np.concatenate([p[0] for p in parts])
    classes = np.repeat(np.arange(len(parts)), sizes)
    tol = 1e-8 * max(float(np.max(np.abs(lam))), 1.0)
    order = np.lexsort((np.mod(np.angle(lam), 2.0 * np.pi), -np.abs(lam)))
    lam, classes = lam[order], classes[order]
    first, column_of = np.cumsum([0] + sizes), np.argsort(order)
    V = _scatter(op.classes, [column_of[a:b] for a, b in zip(first, first[1:])],
                 [Y for _, Y in parts], True)
    members_of = []
    for pos in range(lam.size):
        if members_of and abs(lam[pos] - lam[members_of[-1][0]]) <= tol:
            members_of[-1].append(pos)
        else:
            members_of.append([pos])
    warnings = []
    for j, members in enumerate(members_of, start=1):
        sub = V[:, members]
        if len(members) > 1 and np.linalg.cond(sub.conj().T @ sub) > 1e16:
            warnings.append(f"cluster {j} (lambda~{lam[members[0]]:.3e}, size {len(members)}) "
                            "looks defective; semisimple treatment retained")
    clusters = np.repeat(np.arange(1, len(members_of) + 1), [len(m) for m in members_of])
    V /= np.sqrt(np.sum(op.weights[:, None] * np.abs(V) ** 2, axis=0))
    U = _fix_column_phases(V)
    modes = [U[np.ix_(c.points[0], np.flatnonzero(classes == i))]
             / c.orbit_entries(N)[1][c.points[0], None] for i, c in enumerate(op.classes)]
    return lam, clusters, classes, warnings, modes


class TestSymmetryBlocks:
    @pytest.mark.parametrize("make,blocks", [
        (lambda: _medium(2, 16, 1.0), [29, 23, 52, 52, 29, 23]),
        (lambda: _medium(3, 10, 1.0), [42, 27, 42, 27, 69, 69, 69, 69, 42, 27, 42, 27]),
        # h = 0.1 is not a power of two, so the bump keeps only the axis swap
        (lambda: _medium(2, 20, 6.0, center=[0.0, 0.0]), [165, 151]),
        (lambda: _medium(2, 20, 6.0, center=[0.3, 0.1]), [316]),
        # odd extents: cells on the mirror lines, fixed by part of the group, and empty classes
        (lambda: _medium(2, 3, 1.0), [3, 1, 2, 2, 1, 0]),
        (lambda: _medium(3, 5, 1.0), [13, 7, 8, 4, 12, 7, 12, 7, 5, 2, 3, 1]),
        (_line_matrix, [40]),
    ], ids=["disk16", "ball10", "centered_bump20", "off_center_bump20", "disk3", "ball5", "line"])
    def test_blocked_spectrum_matches_full(self, make, blocks):
        op = make()
        M = op.matrix
        sys = eigendecompose(op)
        assert op.symmetry_blocks == blocks
        want = scipy.linalg.eigvals(M)
        cost = np.abs(sys.lambdas[:, None] - want[None, :])
        assert cost[linear_sum_assignment(cost)].max() <= 1e-12 * np.abs(want).max()
        residual = np.linalg.norm(M @ sys.U - sys.U * sys.lambdas, axis=0)
        assert np.all(residual <= 1e-13 * np.linalg.norm(sys.U, axis=0))

    @pytest.mark.parametrize("make", [
        lambda: _medium(2, 16, 1.0), lambda: _medium(3, 5, 1.0),
        lambda: _medium(2, 20, 6.0, center=[0.3, 0.1]), _line_matrix,
    ], ids=["disk16", "ball5", "off_center_bump20", "line"])
    def test_modes_held_per_class(self, make):
        # each class's modes in its orbit coordinates, one row per orbit and one
        # column per mode, Fortran-ordered for LAPACK and BLAS; no N x N U is kept
        op = make()
        sys = eigendecompose(op)
        assert [m.shape for m in sys.modes] == [(c.size, c.size) for c in op.classes]
        assert all(m.flags.f_contiguous for m in sys.modes)
        assert "U" not in vars(sys)

    @pytest.mark.parametrize("make", [
        lambda: _medium(2, 16, 1.0), lambda: _medium(2, 20, 6.0, center=[0.0, 0.0]),
        lambda: _medium(2, 20, 6.0, center=[0.3, 0.1]), lambda: _medium(3, 6, 1.0),
        lambda: _medium(2, 3, 1.0), lambda: operator_from_matrix(jordan_block(0.5, 3)),
    ], ids=["disk16", "centered_bump20", "off_center_bump20", "ball6", "disk3", "jordan3"])
    def test_class_blocked_modes_match_dense(self, make):
        # normalized and phase-fixed on each class's points, the modes keep the bits
        # they have as columns of an N x N V; disk3 has an empty class, jordan3 a warning
        op = make()
        sys = eigendecompose(op)
        lam, clusters, classes, warnings, modes = _dense_modes(op)
        assert np.array_equal(sys.lambdas, lam) and np.array_equal(sys.clusters, clusters)
        assert np.array_equal(sys.classes, classes) and sys.warnings == warnings
        assert len(sys.modes) == len(modes)
        assert all(np.array_equal(a, b) for a, b in zip(sys.modes, modes))

    def test_symmetry_kept_only_with_offset_table_and_weights(self):
        # a wrapped matrix is one class, even one that the line's reversal keeps
        M = _line_matrix().matrix
        assert operator_from_matrix(M + M[::-1, ::-1]).symmetry_blocks == [40]
        # an assembled disk keeps no symmetry that its weights do not keep
        op = _medium(2, 16, 1.0)
        assert op.symmetry_blocks == [29, 23, 52, 52, 29, 23]
        uneven = replace(op, grid=replace(op.grid, weights=np.linspace(1.0, 2.0, op.n.size)))
        assert uneven.symmetry_blocks == [op.n.size]

    def test_classes_are_exact(self, disk16_sys):
        # modes vanish off their class's points, and the basis is zero across classes
        sys = disk16_sys
        across = sys.classes[:, None] != sys.classes[None, :]
        assert not np.any(sys.A[across]) and not np.any(sys.B[across])
        assert np.array_equal(sys.E != 0, sys.U != 0)

    def test_coefficients_stable_under_rounding_of_n(self, disk20_k6):
        # n one ulp above 1 moves M at rounding level; each exactly degenerate
        # pair is a mode and its swap, so alpha and beta move at rounding level too
        ctx, grid, op = disk20_k6
        other = assemble_kd(grid, np.full(grid.n_points, np.nextafter(1.0, 2.0)), ctx)
        assert not np.array_equal(other.matrix, op.matrix)
        coefficients = []
        for o in (op, other):
            sys = eigendecompose(o)
            alpha = alpha_expansion(sys, 180.5)
            coefficients.append((alpha, beta_expansion(sys, alpha)))
        for a, b in zip(*coefficients):
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


class TestVerifyResonantMode:
    def test_disk_modes_residual(self, disk16, disk16_sys):
        _, _, op = disk16
        sys = disk16_sys
        for pos in (0, 5, 100):
            u = sys.U[:, pos]
            resid = np.linalg.norm(op.matrix @ u - sys.lambdas[pos] * u) / np.linalg.norm(u)
            assert resid <= 1e-8

    def test_subwavelength_mode_frequency(self, disk20_k6):
        # smallest-|lambda| retained modes of the k=6 disk oscillate faster
        # than the free wavenumber
        ctx, _, op = disk20_k6
        sys = eigendecompose(op)
        freq = dominant_spatial_frequency(op, sys.U[:, -1])
        assert abs(sys.lambdas[-1]) < 1.0
        assert freq is not None and freq > ctx.k
        # so does the mode nearest 1/tau at the contrast of
        # scenarios/super_resolution.yaml
        pos = int(np.argmin(np.abs(1.0 / 180.5 - sys.lambdas)))
        freq = dominant_spatial_frequency(op, sys.U[:, pos])
        assert freq is not None and freq > ctx.k

    @pytest.mark.parametrize("kappa, angle", [(5.0, 0.0), (7.8, np.pi / 4)])
    def test_plane_wave_frequency(self, disk16, kappa, angle):
        # the unpadded lattice steps in pi/R = pi and reads 6.28 and 8.89; padded
        # to 4x, the step is pi/4
        _, grid, op = disk16
        direction = np.array([np.cos(angle), np.sin(angle)])
        freq = dominant_spatial_frequency(op, np.exp(1j * kappa * grid.points @ direction))
        assert abs(freq - kappa) <= np.pi / (4 * grid.radius)

    def test_line_operator_has_no_frequency(self):
        op = operator_from_matrix(np.diag([0.5, 0.3, 0.2, 0.1, 0.05]).astype(complex))
        assert dominant_spatial_frequency(op, np.ones(5)) is None


class TestResolventChainCoefficients:
    def test_paper_2x2_case(self):
        c = resolvent_chain_coefficients(0.5, 2, 1.0)
        assert np.allclose(c, [0.5, 3.0], atol=1e-14)
        J = jordan_block(0.5, 2)
        X = np.linalg.solve(np.eye(2) - J, J @ J)
        assert np.allclose(X, [[0.5, 3.0], [0.0, 0.5]], atol=1e-14)

    def test_single_chain(self):
        lam, z = 0.3 - 0.2j, 1.1 + 0.4j
        c = resolvent_chain_coefficients(lam, 1, z)
        assert c[0] == pytest.approx(lam**2 / (z - lam), rel=1e-14)

    def test_nilpotent_case(self):
        z = 2.0
        c = resolvent_chain_coefficients(0.0, 4, z)
        J = jordan_block(0.0, 4)
        X = np.linalg.solve(z * np.eye(4) - J, J @ J)
        assert np.allclose(c, [X[3 - m, 3] for m in range(4)], atol=1e-14)
        assert c[0] == 0 and c[1] == 0 and c[2] == pytest.approx(1.0 / z)

    def test_matches_dense_inversion_all_sizes(self, rng):
        for n in range(1, 7):
            lam = rng.normal() + 1j * rng.normal()
            lam /= max(1.0, abs(lam))
            z = lam + (0.3 + 0.7 * rng.random()) * np.exp(2j * np.pi * rng.random())
            c = resolvent_chain_coefficients(lam, n, z)
            J = jordan_block(lam, n)
            X = np.linalg.solve(z * np.eye(n) - J, J @ J)
            for m in range(n):
                assert abs(c[m] - X[n - 1 - m, n - 1]) <= 1e-11

    def test_pole(self):
        with pytest.raises(ResonanceProximityError):
            resolvent_chain_coefficients(0.5, 2, 0.5)


class TestRMatrix:
    def test_semisimple_diagonal(self):
        op = operator_from_matrix(np.diag([0.5, 0.3]).astype(complex))
        sys = eigendecompose(op)
        z = 1.2
        R = r_matrix(sys, z)
        assert np.allclose(R, np.diag(sys.lambdas**2 / (z - sys.lambdas)))

    def test_grid_oracle(self, nonnormal_op):
        # a double eigenvalue, so one cluster holds two modes
        op = nonnormal_op([0.5, 0.5, 0.4, 0.2 + 0.1j, 0.1, -0.05j])
        sys = eigendecompose(op)
        assert sys.clusters.tolist() == [1, 1, 2, 3, 4, 5]
        V = sys.U
        z = 1.0 + 0.3j
        R = r_matrix(sys, z)
        M = op.matrix
        X = np.linalg.solve(z * np.eye(6) - M, M @ M)
        assert np.linalg.norm(R.T - np.linalg.solve(V, X @ V)) <= 1e-11

    def test_large_z_decay(self, nonnormal_op):
        sys = eigendecompose(nonnormal_op([0.5, 0.3, 0.1]))
        n1 = np.linalg.norm(alpha_at(sys, 1e3))
        n2 = np.linalg.norm(alpha_at(sys, 1e6))
        assert n2 == pytest.approx(1e-3 * n1, rel=0.01)

    def test_resolvent_identity(self, nonnormal_op):
        sys = eigendecompose(nonnormal_op([0.6, 0.5, 0.4 + 0.1j, 0.2, 0.1]))
        T = np.diag(sys.lambdas)  # M @ U = U @ T, and R(z).T = (zI - T)^{-1} T^2
        z1, z2 = 1.5, 2.0 + 1.0j
        R1 = r_matrix(sys, z1)
        R2 = r_matrix(sys, z2)
        I5 = np.eye(5)
        expect = (z2 - z1) * np.linalg.solve(z1 * I5 - T, np.linalg.solve(z2 * I5 - T, T @ T))
        assert np.linalg.norm((R1 - R2).T - expect) <= 1e-9

    def test_pole_proximity(self, disk16_sys):
        with pytest.raises(ResonanceProximityError):
            alpha_at(disk16_sys, complex(disk16_sys.lambdas[3]))


class TestDMatrix:
    """The same operator against the orthonormal basis E: D = -alpha.T."""

    def test_orthonormal_modes_reduce_to_r(self):
        sys = eigendecompose(operator_from_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex)))
        assert np.array_equal(sys.U, np.eye(3))
        z = 1.4
        assert np.allclose(-alpha_at(sys, z), np.diag(sys.lambdas**2 / (z - sys.lambdas)),
                           atol=1e-13)

    def test_grid_oracle_identity(self, nonnormal_op):
        op = nonnormal_op([0.7, 0.4, 0.3 - 0.1j, 0.1 + 0.2j, 0.05], seed=1)
        sys = eigendecompose(op)
        z = 1.3 - 0.2j
        alpha = alpha_at(sys, z)
        M = op.matrix
        W = np.diag(op.weights)
        lhs = sys.E @ alpha @ (sys.E.conj().T @ W)
        rhs = -np.linalg.solve(z * np.eye(M.shape[0]) - M, M @ M)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_far_z_bounded(self, disk16_sys):
        alpha = alpha_at(disk16_sys, 10.0)
        assert np.all(np.isfinite(alpha))
        lam_max = np.abs(disk16_sys.lambdas[0])
        dist = 10.0 - lam_max
        cond = np.linalg.cond(disk16_sys.B)
        assert np.linalg.norm(alpha, 2) <= 10.0 * cond * lam_max**2 / dist

    def test_exactly_upper_triangular(self, disk16_sys):
        # -B diag(r) A is a product of upper-triangular matrices
        alpha = alpha_expansion(disk16_sys, 3.0)
        assert np.array_equal(alpha, np.triu(alpha))
