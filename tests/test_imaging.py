import numpy as np
import pytest

from resonat import (
    WaveContext,
    build_disk_grid,
    build_forward_map,
    build_measurement_surface,
    homogeneous_hk_residual,
    l1_reconstruct,
    l1_zero_threshold,
    l2_minimum_norm,
    resolution_metrics,
    synthesize_data,
    time_reversal,
)
from resonat.errors import InvalidArgumentError, NumericFailureError
from resonat.expansion import psf_profile
from resonat.grids import build_ball_grid
from resonat.imaging import ForwardMap, contrast_hk_residual, find_peaks
from resonat.kernels import g0_from_distance, sinc_psf
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
        expect = g0_from_distance(np.linalg.norm(surface.points - y0, axis=1), CTX2)
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
        with pytest.raises(NumericFailureError):
            l2_minimum_norm(diag_map([2.0, 1.0]), plain_data([2.0, 1.0]),
                            mode="morozov", delta=100.0)

    def test_morozov_discrepancy_window(self, homog_setup, rng):
        grid, _, fmap = homog_setup
        src = [((0.2, 0.1), 1.0 + 0j)]
        u, noise_norm = synthesize_data(fmap, src, 0.05, seed=11)
        delta = noise_norm**2
        res = l2_minimum_norm(fmap, u, mode="morozov", delta=delta)
        assert 0.9 * delta <= res.metadata["discrepancy_sq"] <= 1.1 * delta

    def test_morozov_alpha_is_the_root(self, homog_setup):
        # Morozov's alpha solves ||A g_alpha - u||^2 = delta, not a window around it
        _, _, fmap = homog_setup
        u, noise_norm = synthesize_data(fmap, [((0.2, 0.1), 1.0 + 0j)], 0.05, seed=11)
        delta = noise_norm**2
        res = l2_minimum_norm(fmap, u, mode="morozov", delta=delta)
        assert abs(res.metadata["discrepancy_sq"] - delta) <= 1e-12 * delta

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

    @pytest.mark.parametrize("mode", ["penalized", "normal_equation"])
    def test_zero_threshold_of_the_mode(self, rng, mode):
        A = rng.normal(size=(8, 5))
        fmap, u = matrix_map(A), plain_data(rng.normal(size=8))
        A_mode, b = (A, u) if mode == "penalized" else (A.T @ A, A.T @ u)
        mu0 = l1_zero_threshold(fmap, u, mode)
        assert mu0 == pytest.approx(np.max(np.abs(A_mode.T @ b)), rel=1e-12)
        assert np.all(l1_reconstruct(fmap, u, mu=1.001 * mu0, mode=mode).values == 0)
        assert np.any(l1_reconstruct(fmap, u, mu=0.999 * mu0, mode=mode).values != 0)

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

    def test_normal_equation_mode_optimality(self, rng):
        A = rng.normal(size=(20, 12))
        fmap = matrix_map(A)
        u = rng.normal(size=20)
        mu = 0.2 * np.max(np.abs(A.T @ u))
        res = l1_reconstruct(fmap, plain_data(u), mu=mu, mode="normal_equation",
                             max_iters=20000, tol=1e-14)
        assert res.metadata["converged"]
        # its own functional: (1/2)||A^T A g - A^T u||^2 + mu ||g||_1
        g = res.values
        N = A.T @ A
        grad = N.T @ (N @ g - A.T @ u)
        tol = 1e-6
        off = np.abs(g) == 0
        assert np.all(np.abs(grad[off]) <= mu * (1 + tol))
        on = ~off
        assert on.any()
        assert np.all(np.abs(grad[on] + mu * g[on] / np.abs(g[on])) <= mu * tol * 10 + 1e-6 * mu)

    def test_records_final_objective(self, rng):
        A = rng.normal(size=(30, 40)) + 1j * rng.normal(size=(30, 40))
        u = rng.normal(size=30) + 1j * rng.normal(size=30)
        mu = 0.3 * np.max(np.abs(A.conj().T @ u))
        for max_iters in (0, 50):
            res = l1_reconstruct(matrix_map(A), plain_data(u), mu=mu, max_iters=max_iters)
            g = res.values
            expect = 0.5 * np.linalg.norm(A @ g - u) ** 2 + mu * np.sum(np.abs(g))
            assert res.metadata["objective"] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("max_iters", [0, 50, 20000])
    def test_records_optimality_gap(self, rng, max_iters):
        A = rng.normal(size=(50, 120)) + 1j * rng.normal(size=(50, 120))
        fmap = matrix_map(A)
        u = rng.normal(size=50) + 1j * rng.normal(size=50)
        mu = 0.3 * np.max(np.abs(A.conj().T @ u))
        res = l1_reconstruct(fmap, plain_data(u), mu=mu, max_iters=max_iters, tol=1e-14)
        g, W = res.values, fmap.matrix
        c = W.conj().T @ (u - W @ g)
        on = g != 0
        expect = max(np.max(np.abs(c[on] - mu * g[on] / np.abs(g[on])), initial=0.0),
                     np.max(np.abs(c[~on]) - mu, initial=0.0)) / mu
        assert res.metadata["gap"] == pytest.approx(expect, rel=1e-12)
        assert isinstance(res.metadata["restarts"], int) and res.metadata["restarts"] >= 0
        if max_iters == 20000:
            assert res.metadata["converged"] and res.metadata["gap"] <= 1e-5

    def test_restart_solves_quarter_wavelength_pair(self, disk20_k6):
        """The shipped lambda/4 pair through the high-contrast medium (cells 20,
        tau 180.5, m 256, mu_rel 0.02, tol 1e-13) converges within 8000
        iterations and puts a peak within one cell of each source."""
        ctx, grid, op = disk20_k6
        surface = build_measurement_surface(100.0, 256, ctx)
        fmap = build_forward_map(grid, surface, ctx, tau=180.5, op=op)
        src = [(tuple(grid.points[grid.nearest_index([x, 0.05])]), 1.0 + 0j)
               for x in (-0.15, 0.15)]
        u, _ = synthesize_data(fmap, src)
        mu = 0.02 * np.max(np.abs(fmap.matrix.conj().T @ u))
        res = l1_reconstruct(fmap, u, mu=mu, max_iters=8000, tol=1e-13)
        assert res.metadata["converged"]
        assert res.metadata["restarts"] > 0
        met = resolution_metrics(res.values, src, grid)
        assert not met.empty
        assert max(met.localization_errors) <= grid.cell_size * (1 + 1e-9)

    def test_invalid_mu(self):
        with pytest.raises(InvalidArgumentError):
            l1_reconstruct(diag_map([1.0]), plain_data([1.0]), mu=0.0)


def dense_l1_reference(fmap, u, mu, mode, max_iters, tol):
    """The L1 loop as it was before it multiplied on the support alone: a full
    N x N product Q @ y and a full product A @ g in every iteration. Returns
    g, the iteration count, the final objective and the gap."""
    W = fmap.matrix
    A, b = (W, u) if mode == "penalized" else (W.conj().T @ W, W.conj().T @ u)
    L = float(np.linalg.norm(A, 2) ** 2)
    AH = A.conj().T
    Q, c = AH @ A, AH @ b

    def objective(g):
        return 0.5 * float(np.linalg.norm(A @ g - b) ** 2) + mu * float(np.sum(np.abs(g)))

    def soft_threshold(x, t):
        mag = np.abs(x)
        return x * (np.maximum(mag - t, 0.0) / np.where(mag > 0, mag, 1.0))

    g = np.zeros(A.shape[1], dtype=complex)
    y = g.copy()
    t = 1.0
    obj = objective(g)
    for iters in range(1, max_iters + 1):
        g_new = soft_threshold(y - (Q @ y - c) / L, mu / L)
        obj_new = objective(g_new)
        if obj_new > obj:
            t, y = 1.0, g_new
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t**2))
            y = g_new + (t - 1.0) / t_new * (g_new - g)
            t = t_new
        g, obj, obj_prev = g_new, obj_new, obj
        if iters > 1 and abs(obj_prev - obj) <= tol * max(obj, 1e-300):
            break
    r = AH @ (b - A @ g)
    on = g != 0
    gap = max(np.max(np.abs(r[on] - mu * g[on] / np.abs(g[on])), initial=0.0),
              np.max(np.abs(r[~on]) - mu, initial=0.0)) / mu
    return g, iters, obj, gap


class TestL1OnSupport:
    """The support-restricted loop against the dense one on the shipped lambda/4
    pair (cells 20, m 256, mu_rel 0.02, tol 1e-13): the same iterates in exact
    arithmetic, only the summation order of the two products differs."""

    @pytest.fixture(scope="class")
    def quarter_wavelength(self, disk20_k6):
        ctx, grid, op = disk20_k6
        surface = build_measurement_surface(100.0, 256, ctx)
        src = [(tuple(grid.points[grid.nearest_index([x, 0.05])]), 1.0 + 0j)
               for x in (-0.15, 0.15)]
        problems = {}
        for medium, tau in (("high_contrast", 180.5), ("homogeneous", 0.0)):
            fmap = build_forward_map(grid, surface, ctx, tau=tau, op=op)
            problems[medium] = fmap, synthesize_data(fmap, src)[0]
        return problems

    @pytest.mark.parametrize("mode", ["penalized", "normal_equation"])
    @pytest.mark.parametrize("medium", ["high_contrast", "homogeneous"])
    def test_matches_dense_loop(self, quarter_wavelength, medium, mode):
        fmap, u = quarter_wavelength[medium]
        mu = 0.02 * l1_zero_threshold(fmap, u, mode)
        g, iters, obj, gap = dense_l1_reference(fmap, u, mu, mode, 30000, 1e-13)
        res = l1_reconstruct(fmap, u, mu=mu, mode=mode, max_iters=30000, tol=1e-13)
        assert res.metadata["converged"] and res.metadata["iterations"] == iters
        assert np.array_equal(res.values != 0, g != 0)
        assert np.max(np.abs(res.values - g)) <= 1e-10 * np.max(np.abs(g))
        assert res.metadata["objective"] == pytest.approx(obj, rel=1e-12, abs=0)
        assert res.metadata["gap"] == pytest.approx(gap, rel=1e-8, abs=0)


class TestResolutionMetrics:
    def test_perfect_recovery(self, homog_setup):
        grid, _, _ = homog_setup
        i = grid.nearest_index([0.3, 0.2])
        values = np.zeros(grid.n_points, dtype=complex)
        values[i] = 1.0
        met = resolution_metrics(values, [(tuple(grid.points[i]), 1.0 + 0j)], grid)
        assert met.localization_errors == (0.0,)
        assert met.support_f1 == 1.0
        assert met.recovered
        # a second source with no peak near it is not recovered
        met = resolution_metrics(values, [(tuple(grid.points[i]), 1.0 + 0j),
                                          ((-0.3, -0.2), 1.0 + 0j)], grid)
        assert not met.recovered

    def test_one_cell_shift(self, homog_setup):
        grid, _, _ = homog_setup
        i = grid.nearest_index([0.0, 0.0])
        true_loc = grid.points[i] + np.array([grid.cell_size, 0.0])
        values = np.zeros(grid.n_points, dtype=complex)
        values[i] = 1.0
        met = resolution_metrics(values, [(tuple(true_loc), 1.0 + 0j)], grid)
        assert met.localization_errors[0] == pytest.approx(grid.cell_size, rel=1e-9)
        assert met.recovered

    def test_empty_image(self, homog_setup):
        grid, _, _ = homog_setup
        values = np.zeros(grid.n_points, dtype=complex)
        met = resolution_metrics(values, [((0.0, 0.0), 1.0 + 0j)], grid)
        assert met.empty and met.support_f1 == 0.0
        assert not met.recovered

    def test_find_peaks_threshold(self, homog_setup):
        grid, _, _ = homog_setup
        values = np.zeros(grid.n_points)
        a, b = grid.nearest_index([0.4, 0.4]), grid.nearest_index([-0.4, -0.4])
        values[a], values[b] = 1.0, 0.05   # second peak below the 10% threshold
        peaks = find_peaks(values, grid)
        assert a in peaks and b not in peaks


@pytest.mark.parametrize("call, message", [
    (lambda: l1_reconstruct(matrix_map(np.eye(2)), np.ones(2), mu=0.1, mode="bogus"),
     "unknown l1 mode 'bogus'"),
    (lambda: l2_minimum_norm(matrix_map(np.eye(2)), np.ones(2), mode="bogus"),
     "unknown l2 mode 'bogus'"),
    (lambda: psf_profile(np.zeros(3), operator_from_matrix(np.eye(3)).grid, 0, [0.0, 0.0]),
     "psf direction must be a nonzero vector"),
    (lambda: sinc_psf(1.0, CTX2), "sinc_psf is defined for dim=3"),
    (lambda: build_disk_grid(1.0, 1, CTX2), "cells_per_diameter must be at least 2"),
    (lambda: operator_from_matrix(np.zeros((2, 3))), "matrix must be square"),
], ids=["l1_mode", "l2_mode", "psf_zero_direction", "sinc_psf_2d", "one_cell_grid",
        "non_square_matrix"])
def test_library_refuses_invalid_argument(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert str(exc.value) == message
