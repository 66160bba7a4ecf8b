import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

import resonat.volume
from resonat import (
    WaveContext,
    apply_kd,
    build_disk_grid,
    build_forward_map,
    build_measurement_surface,
    g0,
    green_matrix,
    operator_from_matrix,
    radial_bump,
    singular_values,
)
from resonat.errors import InvalidArgumentError, ResonanceProximityError
from resonat.spectral import build_r_matrix, eigendecompose
from resonat.volume import (
    assemble_kd,
    check_resonance_proximity,
    g0_matrix,
    radiate_matrix,
)

CTX2 = WaveContext(k=1.0, dim=2)


def small_op(cells=8, k=1.0, peak=None):
    ctx = WaveContext(k=k, dim=2)
    grid = build_disk_grid(1.0, cells, ctx)
    n = (np.full(grid.n_points, 1.0) if peak is None
         else radial_bump(grid.points, (0.0, 0.0), 0.5, peak))
    return ctx, grid, assemble_kd(grid, n, ctx)


class TestAssembly:
    def test_offdiagonal_formula(self):
        ctx, grid, op = small_op(cells=4)
        for i, j in [(0, 1), (2, 5), (7, 3)]:
            expect = -g0(grid.points[i], grid.points[j], ctx) * grid.weights[j]
            assert op.matrix[i, j] == pytest.approx(expect, rel=1e-14)

    def test_linearity_in_n(self):
        ctx, grid, _ = small_op(cells=6)
        n1 = np.full(grid.n_points, 1.0)
        M1 = assemble_kd(grid, n1, ctx).matrix
        M2 = assemble_kd(grid, 2.0 * n1, ctx).matrix
        assert np.allclose(M2, 2.0 * M1, rtol=1e-14)

    def test_kernel_symmetry(self):
        ctx, grid, op = small_op(cells=8, peak=2.0)
        sym = op.matrix / (op.n * op.weights)[None, :]
        assert np.linalg.norm(sym - sym.T) <= 1e-12 * np.linalg.norm(sym)

    def test_size_mismatch(self):
        ctx, grid, _ = small_op(cells=4)
        with pytest.raises(InvalidArgumentError):
            assemble_kd(grid, np.ones(3), ctx)

    def test_row_sums_bounded_by_kernel_integral(self, rng):
        # sum_j |M[i,j]| <= max(n) * int_D |g0(x_i, y)| dy (Monte-Carlo oracle)
        ctx, grid, op = small_op(cells=10)
        samples = rng.uniform(-1.0, 1.0, size=(200000, 2))
        samples = samples[np.linalg.norm(samples, axis=1) < 1.0]
        area_per = np.pi / samples.shape[0]
        i = grid.nearest_index([0.0, 0.0])
        r = np.linalg.norm(samples - grid.points[i], axis=1)
        from resonat.kernels import g0_from_distance
        integral = np.sum(np.abs(g0_from_distance(r, ctx))) * area_per
        row = np.sum(np.abs(op.matrix[i, :]))
        assert row <= 1.1 * integral


class TestApply:
    def test_zero(self):
        _, _, op = small_op()
        assert np.all(apply_kd(op, np.zeros(op.matrix.shape[0])) == 0)

    def test_unit_vector_column(self):
        _, _, op = small_op()
        e3 = np.zeros(op.matrix.shape[0])
        e3[3] = 1.0
        assert np.allclose(apply_kd(op, e3), op.matrix[:, 3])

    def test_double_application(self, rng):
        _, _, op = small_op()
        f = rng.normal(size=op.matrix.shape[0]) + 1j * rng.normal(size=op.matrix.shape[0])
        twice = apply_kd(op, apply_kd(op, f))
        assert np.linalg.norm(twice - (op.matrix @ op.matrix) @ f) <= 1e-12 * np.linalg.norm(twice)

    def test_length_mismatch(self):
        _, _, op = small_op()
        with pytest.raises(InvalidArgumentError):
            apply_kd(op, np.zeros(3))

    def test_nystrom_refinement_consistency(self):
        # midpoint lattices nest under 3x refinement, so (K f) can be compared
        # at the same physical point; the difference shrinks with h
        ctx = WaveContext(k=1.0, dim=2)
        x_eval = None
        vals = []
        for cells in (6, 18, 54):
            grid = build_disk_grid(1.0, cells, ctx)
            op = assemble_kd(grid, np.full(grid.n_points, 1.0), ctx)
            f = np.exp(-np.linalg.norm(grid.points, axis=1) ** 2)
            if x_eval is None:
                x_eval = grid.points[grid.nearest_index([0.21, -0.13])]
            i = grid.nearest_index(x_eval)
            assert np.allclose(grid.points[i], x_eval, atol=1e-12)
            vals.append(apply_kd(op, f)[i])
        assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1])
        assert abs(vals[1] - vals[2]) < 0.05 * abs(vals[2])


class TestDirectSolve:
    def test_tau_zero_returns_g0(self):
        _, _, op = small_op()
        assert np.allclose(green_matrix(op, 0.0, 5), g0_matrix(op, 5))

    def test_scalar_toy_system(self):
        mu, tau = 0.3, 2.0
        op = operator_from_matrix(np.array([[mu]], dtype=complex))
        g0c = g0_matrix(op, 0)
        got = green_matrix(op, tau, 0)
        expect = g0c * (1.0 + tau * mu / (1.0 - tau * mu))
        assert np.allclose(got, expect, rtol=1e-12)

    def test_resonance_proximity(self):
        op = operator_from_matrix(np.diag([0.5, 0.25]).astype(complex))
        with pytest.raises(ResonanceProximityError):
            green_matrix(op, 2.0, 0)  # 1/tau = 0.5 = lambda_1

    def test_residual_contract(self):
        _, _, op = small_op(cells=10)
        tau = 3.0
        col = green_matrix(op, tau, 7)
        g0c = g0_matrix(op, 7)
        v = col - g0c
        N = op.matrix.shape[0]
        rhs = tau * op.matrix @ g0c
        resid = np.linalg.norm((np.eye(N) - tau * op.matrix) @ v - rhs)
        assert resid <= 1e-10 * np.linalg.norm(rhs)

    def test_resolvent_identity(self):
        # the two forms of the solution agree after discretization:
        # G = G0 - (1/tau - M)^{-1} M^2 [delta_j / (n_j w_j)]
        _, _, op = small_op(cells=10)
        tau, j = 3.0, 11
        col = green_matrix(op, tau, j)
        N = op.matrix.shape[0]
        delta = np.zeros(N)
        delta[j] = 1.0 / (op.n[j] * op.weights[j])
        M = op.matrix
        alt = g0_matrix(op, j) - np.linalg.solve(np.eye(N) / tau - M, M @ (M @ delta))
        assert np.linalg.norm(col - alt) <= 1e-9 * np.linalg.norm(col)


def dense_rule(M, z, tol=1e-8):
    """The proximity rule on the full dense spectrum: (raises, nearest eigenvalue)."""
    lam = np.linalg.eigvals(M)
    d = np.abs(z - lam)
    return bool(np.any(d < tol * (1.0 + np.abs(lam)))), lam[np.argmin(d)]


def shift_invert_rule(op, z):
    """(raises, reported eigenvalue) of check_resonance_proximity."""
    try:
        check_resonance_proximity(op, z)
    except ResonanceProximityError as exc:
        return True, exc.eigenvalue
    return False, None


def random_nonnormal(N, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    return X / np.sqrt(2 * N)


class TestResonanceCheck:
    @pytest.mark.parametrize("factor", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("which", ["outer", "inner"])
    @pytest.mark.parametrize("N,seed", [(30, 1), (90, 2), (200, 3)])
    def test_matches_dense_rule_random(self, N, seed, which, factor):
        M = random_nonnormal(N, seed)
        self._compare(operator_from_matrix(M), M, which, factor)

    @pytest.mark.parametrize("factor", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("which", ["outer", "inner"])
    def test_matches_dense_rule_disk(self, disk16, which, factor):
        _, _, op = disk16
        self._compare(op, op.matrix, which, factor)

    @staticmethod
    def _compare(op, M, which, factor):
        lam = np.linalg.eigvals(M)
        order = np.argsort(-np.abs(lam))
        target = lam[order[0] if which == "outer" else order[len(order) // 3]]
        z = target + factor * 1e-8 * (1.0 + abs(target)) * np.exp(0.7j)
        expect, nearest = dense_rule(M, z)
        got, reported = shift_invert_rule(op, z)
        assert got == expect
        if got:
            assert abs(reported - nearest) <= 1e-10 * abs(nearest)

    @pytest.mark.parametrize("M", [
        np.array([[0.3]]),
        np.array([[0.5, 1.0], [0.0, 0.25]]),
        np.array([[0.2, -0.7j], [0.4, 0.1 + 0.3j]]),
    ])
    @pytest.mark.parametrize("factor", [0.0, 0.5, 2.0])
    def test_matches_dense_rule_tiny(self, M, factor):
        op = operator_from_matrix(M)
        for target in np.linalg.eigvals(M):
            z = target + factor * 1e-8 * (1.0 + abs(target))
            expect, nearest = dense_rule(M, z)
            got, reported = shift_invert_rule(op, z)
            assert got == expect
            if got:
                assert abs(reported - nearest) <= 1e-10 * abs(nearest)

    def test_far_from_spectrum_passes(self):
        op = operator_from_matrix(random_nonnormal(50, 4))
        check_resonance_proximity(op, 3.0 + 1.0j)

    def test_exactly_singular_raises_without_warning(self):
        # I - 2 diag(0.5, 0.25) has an exactly zero pivot
        op = operator_from_matrix(np.diag([0.5, 0.25]).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            with pytest.raises(ResonanceProximityError) as info:
                check_resonance_proximity(op, 0.5)
            with pytest.raises(ResonanceProximityError):
                green_matrix(op, 2.0)
        assert info.value.eigenvalue == 0.5

    def test_pole_check_applies_the_same_rule(self):
        # |z - 0.5| against 1e-8 (1 + 0.5) = 1.5e-8: 3e-8 is outside, 1e-8 inside
        op = operator_from_matrix(np.diag([3.0, 0.5, 0.2]).astype(complex))
        sys = eigendecompose(op)
        check_resonance_proximity(op, 0.5 + 3e-8)
        build_r_matrix(sys, 0.5 + 3e-8)
        with pytest.raises(ResonanceProximityError):
            check_resonance_proximity(op, 0.5 + 1e-8)
        with pytest.raises(ResonanceProximityError):
            build_r_matrix(sys, 0.5 + 1e-8)

    def test_zero_shift_rejected(self):
        op = operator_from_matrix(np.diag([0.5, 0.25]).astype(complex))
        with pytest.raises(InvalidArgumentError):
            check_resonance_proximity(op, 0.0)


class TestGreenMatrix:
    def test_tau_zero(self):
        _, _, op = small_op()
        assert np.allclose(green_matrix(op, 0.0), g0_matrix(op))

    def test_reciprocity(self):
        _, _, op = small_op(cells=10)
        G = green_matrix(op, 3.0)
        assert np.linalg.norm(G - G.T) <= 1e-8 * np.linalg.norm(G)

    def test_columns_are_slices_of_matrix(self):
        _, _, op = small_op(cells=10)
        tau = 3.0
        G = green_matrix(op, tau)
        N = op.matrix.shape[0]
        for j in (0, 17, 40, N - 1):
            col = green_matrix(op, tau, j)
            assert np.linalg.norm(col - G[:, j]) <= 1e-13 * np.linalg.norm(G[:, j])
        G0 = g0_matrix(op)
        ref = G0 + np.linalg.solve(np.eye(N) - tau * op.matrix, tau * op.matrix @ G0)
        assert np.linalg.norm(G - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_column_forms_are_slices_of_matrix(self):
        # a list gives an (N, 1) block that agrees with the full call to
        # rounding (BLAS sums a matrix-vector product in another order than a
        # matrix-matrix one); at tau = 0 each form is the free-kernel column
        _, _, op = small_op(cells=10)
        tau = 3.0
        G = green_matrix(op, tau)
        for a in (5, 40):
            block = green_matrix(op, tau, [a])
            assert block.shape == (G.shape[0], 1)
            assert np.linalg.norm(block[:, 0] - G[:, a]) <= 1e-13 * np.linalg.norm(G[:, a])
            assert np.array_equal(green_matrix(op, 0.0, a), g0_matrix(op, a))
            assert np.array_equal(green_matrix(op, 0.0, [a]), g0_matrix(op, [a]))

    def test_g0_columns_are_slices_of_matrix(self):
        _, _, op = small_op(cells=10)
        G0 = g0_matrix(op)
        N = op.matrix.shape[0]
        for j in (0, 17, 40, N - 1):
            assert np.array_equal(g0_matrix(op, j), G0[:, j])
        assert np.array_equal(g0_matrix(op, [3, 17]), G0[:, [3, 17]])

    def test_born_expansion_order(self):
        _, _, op = small_op(cells=10)
        G0 = g0_matrix(op)

        def born_err(tau):
            return np.linalg.norm(green_matrix(op, tau) - (G0 + tau * op.matrix @ G0))

        e1, e2 = born_err(1e-2), born_err(5e-3)
        assert e1 / e2 == pytest.approx(4.0, rel=0.1)


class TestRadiate:
    def test_tau_zero_free_field(self):
        ctx, grid, op = small_op()
        x0 = grid.points[4]
        x_ext = np.array([3.0, 1.0])
        K = radiate_matrix(op, x_ext[None, :], 0.0)
        assert complex(K[0, 4]) == pytest.approx(g0(x_ext, x0, ctx), rel=1e-12)

    def test_interior_point_rejected(self):
        _, _, op = small_op()
        with pytest.raises(InvalidArgumentError):
            radiate_matrix(op, np.array([[3.0, 1.0], [0.1, 0.1]]), 1.0)

    def test_boundary_point_rejected(self):
        # the rule of build_forward_map: a point with |z| <= radius is refused
        _, grid, op = small_op()
        with pytest.raises(InvalidArgumentError):
            radiate_matrix(op, np.array([[grid.radius, 0.0]]), 1.0)

    def test_refined_grid_oracle(self):
        # radiated exterior value converges as the interior grid is refined
        ctx = WaveContext(k=1.0, dim=2)
        x_ext = np.array([[2.0, 0.5]])
        tau = 3.0
        vals = []
        for cells in (8, 16, 32):
            grid = build_disk_grid(1.0, cells, ctx)
            op = assemble_kd(grid, np.full(grid.n_points, 1.0), ctx)
            j = grid.nearest_index([0.15, 0.05])
            vals.append(radiate_matrix(op, x_ext, tau)[0, j])
        assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1])

    @pytest.mark.parametrize("cells, k, peak, tau", [(10, 1.0, 2.0, 3.0), (20, 6.0, None, 180.5)])
    def test_matches_interior_green_formula(self, cells, k, peak, tau):
        # the adjoint solve gives the kernel that radiating the whole interior
        # Green matrix gives
        ctx, _, op = small_op(cells=cells, k=k, peak=peak)
        x_ext = build_measurement_surface(100.0, 64, ctx).points
        K = radiate_matrix(op, x_ext, 0.0)
        ref = K - tau * (K * (op.n * op.weights)[None, :]) @ green_matrix(op, tau)
        Kc = radiate_matrix(op, x_ext, tau)
        assert np.max(np.abs(Kc - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_forward_map_factors_once(self, monkeypatch):
        # the adjoint solve needs only the LU, not the interior Green columns
        ctx, grid, op = small_op()
        factors, solves = [], []
        factor = resonat.volume._factor

        def counted_factor(op, tau):
            factors.append(tau)
            return factor(op, tau)

        monkeypatch.setattr(resonat.volume, "_factor", counted_factor)
        monkeypatch.setattr(resonat.volume, "green_matrix", lambda *args: solves.append(args))
        build_forward_map(grid, build_measurement_surface(50.0, 32, ctx), ctx, tau=3.0, op=op)
        assert factors == [3.0]
        assert solves == []


class TestSingularValues:
    def test_zero_matrix(self):
        op = operator_from_matrix(np.zeros((4, 4), dtype=complex))
        assert np.all(singular_values(op) == 0)

    def test_nonincreasing(self):
        _, _, op = small_op(cells=10)
        s = singular_values(op)
        assert np.all(np.diff(s) <= 0)

    def test_frobenius_identity(self):
        _, _, op = small_op(cells=10)
        s = singular_values(op)
        assert np.sum(s**2) == pytest.approx(np.linalg.norm(op.matrix, "fro") ** 2, rel=1e-10)

    def test_hilbert_schmidt_proxy_stabilizes(self):
        # sum sigma^2 approximates the squared HS norm of the kernel and
        # stabilizes under grid refinement (uniform weights make the two
        # quadrature weightings coincide)
        sums = []
        for cells in (12, 24):
            _, _, op = small_op(cells=cells)
            sums.append(float(np.sum(singular_values(op) ** 2)))
        assert abs(sums[0] - sums[1]) <= 0.05 * sums[1]

    def test_smallest_singular_value_positive(self, disk16):
        _, _, op = disk16
        assert singular_values(op)[-1] > 0
