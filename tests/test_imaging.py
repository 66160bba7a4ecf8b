import numpy as np
import pytest

from resonat import (
    WaveContext,
    build_disk_grid,
    build_forward_map,
    build_measurement_surface,
    g0,
    homogeneous_hk_residual,
    l1_reconstruct,
    l2_minimum_norm,
    resolution_metrics,
    synthesize_data,
    time_reversal,
)
from resonat.errors import DiscrepancyInfeasibleError, InvalidArgumentError
from resonat.grids import build_ball_grid
from resonat.imaging import ForwardMap, contrast_hk_residual, find_peaks
from resonat.volume import assemble_kd, operator_from_matrix

CTX2 = WaveContext(k=6.0, dim=2)
CTX3 = WaveContext(k=1.0, dim=3)


@pytest.fixture(scope="module")
def homog_setup():
    grid = build_disk_grid(1.0, 12, CTX2)
    surface = build_measurement_surface(50.0, 128, CTX2)
    fmap = build_forward_map(grid, surface, CTX2)
    return grid, surface, fmap


def matrix_map(A):
    """Minimal ForwardMap around an explicit matrix, over a unit-weight grid."""
    ctx = WaveContext(k=1.0, dim=2)
    A = np.asarray(A, dtype=complex)
    grid = operator_from_matrix(np.zeros((A.shape[1],) * 2)).grid
    surface = build_measurement_surface(10.0, max(4, A.shape[0]), ctx)
    return ForwardMap(kernel=A, grid=grid, surface=surface, ctx=ctx)


def diag_map(values):
    return matrix_map(np.diag(values))


def plain_data(values):
    return np.asarray(values, dtype=complex)


class TestForwardMap:
    def test_homogeneous_entries(self):
        grid = build_ball_grid(1.0, 2, CTX3)
        surface = build_measurement_surface(30.0, 16, CTX3)
        fmap = build_forward_map(grid, surface, CTX3)
        r = np.linalg.norm(surface.points[3] - grid.points[5])
        expect = -np.exp(1j * CTX3.k * r) / (4.0 * np.pi * r) * grid.weights[5]
        assert fmap.matrix[3, 5] == pytest.approx(expect, rel=1e-13)

    def test_surface_inside_domain_rejected(self):
        grid = build_disk_grid(1.0, 8, CTX2)
        surface = build_measurement_surface(0.5, 16, CTX2)
        with pytest.raises(InvalidArgumentError):
            build_forward_map(grid, surface, CTX2)

    def test_tau_zero_equals_homogeneous(self, homog_setup):
        grid, surface, fmap = homog_setup
        op = assemble_kd(grid, np.full(grid.n_points, 1.0), CTX2)
        fmap2 = build_forward_map(grid, surface, CTX2, tau=0.0, op=op)
        assert np.allclose(fmap2.matrix, fmap.matrix, atol=1e-12)

    def test_operator_of_other_medium_rejected(self, homog_setup):
        # the kernel would come from the operator's grid and wave context,
        # and the data would be indexed by the map's grid nodes
        grid, surface, _ = homog_setup
        other_grid = build_disk_grid(1.0, 10, CTX2)
        other_ctx = WaveContext(k=1.0, dim=2)
        for op in (assemble_kd(other_grid, np.full(other_grid.n_points, 1.0), CTX2),
                   assemble_kd(grid, np.full(grid.n_points, 1.0), other_ctx)):
            with pytest.raises(InvalidArgumentError):
                build_forward_map(grid, surface, CTX2, tau=3.0, op=op)

    def test_refinement_reduces_quadrature_error(self):
        # far-field datum of a fixed rapidly-decaying density converges with h
        vals = []
        for cells in (8, 16, 32, 128):
            grid = build_disk_grid(1.0, cells, CTX2)
            surface = build_measurement_surface(40.0, 16, CTX2)
            fmap = build_forward_map(grid, surface, CTX2)
            f = np.exp(-8.0 * np.linalg.norm(grid.points, axis=1) ** 2)
            vals.append((fmap.matrix @ f)[0])
        errs = [abs(v - vals[-1]) for v in vals[:-1]]
        assert errs[0] > errs[1] > errs[2]


class TestSynthesizeData:
    def test_zero_source_pure_noise(self, homog_setup):
        _, _, fmap = homog_setup
        u, noise_norm = synthesize_data(fmap, [], 0.5, seed=3)
        assert noise_norm > 0
        assert np.linalg.norm(u) == pytest.approx(noise_norm)

    def test_point_source_kernel_values(self, homog_setup):
        grid, surface, fmap = homog_setup
        y0 = (0.21, -0.07)
        u, _ = synthesize_data(fmap, [(y0, 1.0 + 0j)])
        expect = np.array([g0(z, y0, CTX2) for z in surface.points])
        assert np.allclose(u, expect, rtol=1e-12)

    def test_fixed_seed_bitwise(self, homog_setup):
        grid, _, fmap = homog_setup
        src = [((0.1, 0.1), 1.0 + 0j)]
        u1, _ = synthesize_data(fmap, src, 0.1, seed=7)
        u2, _ = synthesize_data(fmap, src, 0.1, seed=7)
        assert np.array_equal(u1, u2)

    def test_negative_noise_level_rejected(self, homog_setup):
        _, _, fmap = homog_setup
        with pytest.raises(InvalidArgumentError):
            synthesize_data(fmap, [((0.1, 0.1), 1.0 + 0j)], -0.5)

    def test_source_outside_domain(self, homog_setup):
        _, _, fmap = homog_setup
        with pytest.raises(InvalidArgumentError):
            synthesize_data(fmap, [((2.0, 0.0), 1.0 + 0j)])


class TestTimeReversal:
    def test_zero_data(self, homog_setup):
        grid, _, fmap = homog_setup
        res = time_reversal(plain_data(np.zeros(fmap.surface.n_points)), fmap)
        assert np.all(res.values == 0)

    def test_linearity(self, homog_setup, rng):
        _, _, fmap = homog_setup
        m = fmap.surface.n_points
        u1 = rng.normal(size=m) + 1j * rng.normal(size=m)
        u2 = rng.normal(size=m) + 1j * rng.normal(size=m)
        s = time_reversal(plain_data(u1 + u2), fmap).values
        s12 = time_reversal(plain_data(u1), fmap).values + time_reversal(plain_data(u2), fmap).values
        assert np.allclose(s, s12, atol=1e-14 * np.linalg.norm(s))

    def test_negated_adjoint_identity(self, homog_setup, rng):
        # I = -K^H diag(w_Gamma) u: time reversal is the negated L2(Gamma)
        # adjoint of the kernel applied to the data
        _, _, fmap = homog_setup
        f = rng.normal(size=fmap.grid.n_points)
        u = fmap.matrix @ f
        res = time_reversal(plain_data(u), fmap)
        expect = -(fmap.kernel.conj().T @ (u * fmap.surface.weights))
        assert np.linalg.norm(res.values - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_peak_at_source(self, homog_setup):
        grid, _, fmap = homog_setup
        loc = tuple(grid.points[grid.nearest_index([0.2, -0.1])])
        src = [(loc, 1.0 + 0j)]
        res = time_reversal(synthesize_data(fmap, src)[0], fmap)
        met = resolution_metrics(res.values, src, grid)
        assert max(met.localization_errors) <= grid.cell_size


class TestHelmholtzKirchhoff:
    def test_quadratic_decay_ratio(self):
        # the residual decays like 1/R^2; doubling R quarters it
        x, y = np.array([0.3, 0.1, -0.2]), np.array([-0.2, 0.25, 0.1])
        res = [homogeneous_hk_residual(build_measurement_surface(R, 2048, CTX3), x, y, CTX3)
               for R in (50.0, 100.0, 200.0)]
        assert res[0] > res[1] > res[2]
        for a, b in zip(res, res[1:]):
            assert 0.2 <= b / a <= 0.3

    def test_coincident_points_real_integral(self):
        surf = build_measurement_surface(60.0, 2048, CTX3)
        x = np.array([0.2, 0.0, 0.1])
        from resonat.kernels import g0_from_distance
        Gx = g0_from_distance(np.linalg.norm(surf.points - x, axis=1), CTX3)
        s = CTX3.k * np.sum(np.conj(Gx) * Gx * surf.weights)
        assert abs(s.imag) <= 1e-12 * abs(s.real)

    def test_contrast_kernel_residual_decreases(self):
        ctx = WaveContext(k=1.0, dim=2)
        grid = build_disk_grid(1.0, 8, ctx)
        op = assemble_kd(grid, np.full(grid.n_points, 1.0), ctx)
        vals = []
        for R in (50.0, 200.0):
            surface = build_measurement_surface(R, 512, ctx)
            fmap = build_forward_map(grid, surface, ctx, tau=2.0, op=op)
            vals.append(contrast_hk_residual(fmap, op, 3, 17))
        assert vals[1] < vals[0]


class TestL2:
    def test_filter_factor_example(self):
        res = l2_minimum_norm(diag_map([2.0, 1.0]), plain_data([2.0, 1.0]),
                              mode="tikhonov", alpha=1.0)
        assert np.allclose(res.values, [0.8, 0.5], atol=1e-12)

    def test_exact_equals_pseudoinverse(self, rng):
        A = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        fmap = matrix_map(A)
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        res = l2_minimum_norm(fmap, plain_data(u), mode="exact")
        assert np.allclose(res.values, np.linalg.pinv(A) @ u, atol=1e-10)

    def test_exact_reports_kept_condition(self):
        res = l2_minimum_norm(diag_map([2.0, 1.0]), plain_data([2.0, 1.0]), mode="exact")
        assert res.metadata["condition_kept"] == 2.0

    def test_large_alpha_shrinks_to_zero(self):
        res = l2_minimum_norm(diag_map([2.0, 1.0]), plain_data([2.0, 1.0]),
                              mode="tikhonov", alpha=1e12)
        assert np.linalg.norm(res.values) <= 1e-10

    def test_morozov_infeasible_delta_too_large(self):
        with pytest.raises(DiscrepancyInfeasibleError):
            l2_minimum_norm(diag_map([2.0, 1.0]), plain_data([2.0, 1.0]),
                            mode="morozov", delta=100.0)

    def test_morozov_discrepancy_window(self, homog_setup, rng):
        grid, _, fmap = homog_setup
        src = [((0.2, 0.1), 1.0 + 0j)]
        u, noise_norm = synthesize_data(fmap, src, 0.05, seed=11)
        delta = noise_norm**2
        res = l2_minimum_norm(fmap, u, mode="morozov", delta=delta)
        assert 0.9 * delta <= res.metadata["discrepancy_sq"] <= 1.1 * delta

    def test_morozov_monotone_discrepancy(self):
        fmap = diag_map([3.0, 2.0, 1.0])
        u = plain_data([1.0, 1.0, 1.0])
        discrepancies = []
        for alpha in (1e-4, 1e-2, 1.0, 1e2):
            res = l2_minimum_norm(fmap, u, mode="tikhonov", alpha=alpha)
            discrepancies.append(res.metadata["residual"])
        assert all(a <= b + 1e-14 for a, b in zip(discrepancies, discrepancies[1:]))


class TestL1:
    def test_soft_threshold_identity_case(self):
        res = l1_reconstruct(diag_map([1.0, 1.0, 1.0]), plain_data([0.0, 2.0, 0.0]),
                             mu=1.0, max_iters=500)
        assert np.allclose(res.values, [0.0, 1.0, 0.0], atol=1e-10)
        assert res.metadata["iterations"] <= 500

    def test_threshold_above_data_gives_zero(self, rng):
        A = rng.normal(size=(8, 5))
        fmap = matrix_map(A)
        u = rng.normal(size=8)
        mu = 1.001 * np.max(np.abs(A.conj().T @ u))
        res = l1_reconstruct(fmap, plain_data(u), mu=mu)
        assert np.all(res.values == 0)

    def test_subgradient_optimality(self, rng):
        A = rng.normal(size=(50, 120)) + 1j * rng.normal(size=(50, 120))
        fmap = matrix_map(A)
        u = rng.normal(size=50) + 1j * rng.normal(size=50)
        mu = 0.3 * np.max(np.abs(A.conj().T @ u))
        res = l1_reconstruct(fmap, plain_data(u), mu=mu, max_iters=20000, tol=1e-14)
        g = res.values
        grad = A.conj().T @ (A @ g - u)
        tol = 1e-6
        off = np.abs(g) == 0
        assert np.all(np.abs(grad[off]) <= mu * (1 + tol))
        on = ~off
        assert np.all(np.abs(grad[on] + mu * g[on] / np.abs(g[on])) <= mu * tol * 10 + 1e-6 * mu)

    def test_normal_equation_mode_same_minimizer(self, rng):
        A = rng.normal(size=(20, 12))
        fmap = matrix_map(A)
        u = rng.normal(size=20)
        mu = 0.2 * np.max(np.abs(A.T @ u))
        r1 = l1_reconstruct(fmap, plain_data(u), mu=mu, mode="penalized",
                            max_iters=20000, tol=1e-14)
        obj1 = 0.5 * np.linalg.norm(A @ r1.values - u) ** 2 + mu * np.sum(np.abs(r1.values))
        # the normal-equation mode solves a different least-squares functional
        # but must satisfy its own optimality; check it runs and converges
        r2 = l1_reconstruct(fmap, plain_data(u), mu=mu, mode="normal_equation",
                            max_iters=20000, tol=1e-14)
        assert r2.metadata["converged"]
        assert np.isfinite(obj1)

    def test_records_final_objective(self, rng):
        A = rng.normal(size=(30, 40)) + 1j * rng.normal(size=(30, 40))
        u = rng.normal(size=30) + 1j * rng.normal(size=30)
        mu = 0.3 * np.max(np.abs(A.conj().T @ u))
        for max_iters in (0, 50):
            res = l1_reconstruct(matrix_map(A), plain_data(u), mu=mu, max_iters=max_iters)
            g = res.values
            expect = 0.5 * np.linalg.norm(A @ g - u) ** 2 + mu * np.sum(np.abs(g))
            assert res.metadata["objective"] == pytest.approx(expect, rel=1e-12)

    def test_invalid_mu(self):
        with pytest.raises(InvalidArgumentError):
            l1_reconstruct(diag_map([1.0]), plain_data([1.0]), mu=0.0)


class TestResolutionMetrics:
    def test_perfect_recovery(self, homog_setup):
        grid, _, _ = homog_setup
        i = grid.nearest_index([0.3, 0.2])
        values = np.zeros(grid.n_points, dtype=complex)
        values[i] = 1.0
        met = resolution_metrics(values, [(tuple(grid.points[i]), 1.0 + 0j)], grid)
        assert met.localization_errors == (0.0,)
        assert met.support_f1 == 1.0

    def test_one_cell_shift(self, homog_setup):
        grid, _, _ = homog_setup
        i = grid.nearest_index([0.0, 0.0])
        true_loc = grid.points[i] + np.array([grid.cell_size, 0.0])
        values = np.zeros(grid.n_points, dtype=complex)
        values[i] = 1.0
        met = resolution_metrics(values, [(tuple(true_loc), 1.0 + 0j)], grid)
        assert met.localization_errors[0] == pytest.approx(grid.cell_size, rel=1e-9)

    def test_empty_image(self, homog_setup):
        grid, _, _ = homog_setup
        values = np.zeros(grid.n_points, dtype=complex)
        met = resolution_metrics(values, [((0.0, 0.0), 1.0 + 0j)], grid)
        assert met.empty and met.support_f1 == 0.0

    def test_find_peaks_threshold(self, homog_setup):
        grid, _, _ = homog_setup
        values = np.zeros(grid.n_points)
        a, b = grid.nearest_index([0.4, 0.4]), grid.nearest_index([-0.4, -0.4])
        values[a], values[b] = 1.0, 0.05   # second peak below the 10% threshold
        peaks = find_peaks(values, grid)
        assert a in peaks and b not in peaks
