import numpy as np
import pytest

from resonat import (
    WaveContext,
    alpha_expansion,
    beta_expansion,
    eigendecompose,
    green_matrix,
    homogeneous_expansion,
    mode_mixing_report,
    operator_from_matrix,
    psf_from_samples,
    psf_profile,
    reconstruct_green,
    synthetic_jordan_system,
    truncation_error_curve,
)
from resonat.errors import InvalidArgumentError
from resonat.expansion import beta_to_alpha, expansion_oracle_error, weighted_frobenius
from resonat.kernels import im_g0_from_distance
from resonat.volume import g0_matrix

TAU = 3.0


class TestAlpha:
    def test_small_tau_linear_scaling(self, disk16, disk16_sys):
        _, _, op = disk16
        n1 = np.linalg.norm(alpha_expansion(disk16_sys, op, 1e-3).alpha)
        n2 = np.linalg.norm(alpha_expansion(disk16_sys, op, 5e-4).alpha)
        assert n1 / n2 == pytest.approx(2.0, rel=0.05)

    def test_tau_zero_is_zero(self, disk16, disk16_sys):
        _, _, op = disk16
        co = alpha_expansion(disk16_sys, op, 0.0)
        assert np.all(co.alpha == 0)

    def test_oracle_identity(self, disk16, disk16_sys):
        _, _, op = disk16
        co = alpha_expansion(disk16_sys, op, TAU)
        assert expansion_oracle_error(co, disk16_sys, op, green_matrix(op, TAU), "alpha") <= 1e-8

    def test_parseval_mass(self, disk16, disk16_sys):
        # sum |alpha|^2 equals the squared weighted Frobenius norm of
        # (G - G0) diag(n); n = 1 here
        _, _, op = disk16
        co = alpha_expansion(disk16_sys, op, TAU)
        diff = green_matrix(op, TAU) - g0_matrix(op)
        mass = float(np.sum(np.abs(co.alpha) ** 2))
        assert mass == pytest.approx(weighted_frobenius(diff, op.weights) ** 2, rel=1e-8)

    def test_tau_sweep_bounded(self, disk16, disk16_sys):
        _, _, op = disk16
        masses = [float(np.sum(np.abs(alpha_expansion(disk16_sys, op, 1.0 / z).alpha) ** 2))
                  for z in np.linspace(0.7, 0.9, 10)]
        assert max(masses) / min(masses) < 10.0


class TestBeta:
    def test_orthonormal_modes_beta_equals_alpha(self):
        op, sys = synthetic_jordan_system([(0.5, 1), (0.2, 1), (0.1, 1)],
                                          V=np.eye(3, dtype=complex))
        co = beta_expansion(sys, op, 1.5)
        assert np.allclose(co.beta, co.alpha, atol=1e-13)

    def test_synthetic_oracle(self, rng):
        op, sys = synthetic_jordan_system([(0.6, 2), (0.3, 1), (0.1 + 0.05j, 2)], rng=rng)
        tau = 1.2
        co = beta_expansion(sys, op, tau)
        assert expansion_oracle_error(co, sys, op, green_matrix(op, tau), "beta") <= 1e-9

    def test_round_trip_to_alpha(self, disk16, disk16_sys):
        _, _, op = disk16
        co = beta_expansion(disk16_sys, op, TAU)
        back = beta_to_alpha(disk16_sys, co.beta)
        assert np.linalg.norm(back - co.alpha) <= 1e-10 * np.linalg.norm(co.alpha)

    def test_disk_oracle(self, disk16, disk16_sys):
        _, _, op = disk16
        co = beta_expansion(disk16_sys, op, TAU)
        assert expansion_oracle_error(co, disk16_sys, op, green_matrix(op, TAU), "beta") <= 1e-7


class TestHomogeneousExpansion:
    def test_full_rank_matches_g0(self, disk16, disk16_sys):
        _, _, op = disk16
        co = homogeneous_expansion(disk16_sys, op)
        assert expansion_oracle_error(co, disk16_sys, op, g0_matrix(op), "alpha") <= 1e-8

    def test_truncation_worse_than_full(self, disk16, disk16_sys):
        _, _, op = disk16
        co = homogeneous_expansion(disk16_sys, op)
        sys = disk16_sys
        G0 = g0_matrix(op)
        w = op.weights
        half = reconstruct_green(co, sys, op, sys.size // 2, basis="alpha")
        full = reconstruct_green(co, sys, op, sys.size, basis="alpha")
        e_half = weighted_frobenius(half - G0, w)
        e_full = weighted_frobenius(full - G0, w)
        assert e_half > e_full

    def test_semisimple_h_is_diagonal_lambda(self):
        op, sys = synthetic_jordan_system([(0.5, 1), (0.2, 1)], V=np.eye(2, dtype=complex))
        co = homogeneous_expansion(sys, op)
        # orthonormal modes: abar = -(B H^T A) = -diag(lambda)
        assert np.allclose(co.alpha, -np.diag(sys.lambdas), atol=1e-13)


class TestReconstruct:
    def test_rank_zero_is_g0(self, disk16, disk16_sys):
        _, _, op = disk16
        co = alpha_expansion(disk16_sys, op, TAU)
        field = reconstruct_green(co, disk16_sys, op, 0)
        assert np.allclose(field, g0_matrix(op))

    def test_rank_out_of_bounds(self, disk16, disk16_sys):
        _, _, op = disk16
        co = alpha_expansion(disk16_sys, op, TAU)
        with pytest.raises(InvalidArgumentError):
            reconstruct_green(co, disk16_sys, op, disk16_sys.size + 1)

    def test_alpha_curve_monotone(self, disk16, disk16_sys):
        _, _, op = disk16
        co = alpha_expansion(disk16_sys, op, TAU)
        curve = truncation_error_curve(co, disk16_sys, op, green_matrix(op, TAU))
        errs = [e for _, e in curve]
        assert errs[0] == pytest.approx(1.0, abs=1e-12)
        assert errs[-1] <= 1e-8
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


class TestPsf:
    def test_homogeneous_3d_fwhm(self):
        ctx = WaveContext(k=2.0, dim=3)
        r = np.linspace(-4.0, 4.0, 4001)
        values = im_g0_from_distance(np.abs(r), ctx)
        prof = psf_from_samples(r, values)
        assert prof.fwhm == pytest.approx(3.7910 / ctx.k, rel=0.02)

    def test_scale_invariance(self):
        r = np.linspace(-3.0, 3.0, 601)
        v = np.sinc(r)
        a = psf_from_samples(r, v).fwhm
        b = psf_from_samples(r, 7.5 * v).fwhm
        assert a == b

    def test_no_crossing_reports_absent(self):
        r = np.linspace(-0.1, 0.1, 21)
        prof = psf_from_samples(r, np.ones_like(r))
        assert prof.fwhm is None

    def test_profile_through_grid(self, disk16, disk16_sys):
        ctx, grid, op = disk16
        i0 = grid.nearest_index([0.0, 0.0])
        prof = psf_profile(g0_matrix(op), grid, i0, [1.0, 0.0])
        assert prof.values.shape == prof.radii.shape
        assert np.any(prof.radii < 0) and np.any(prof.radii > 0)


class TestModeMixing:
    def test_normal_operator_no_mixing(self, rng):
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        M = Q @ np.diag([0.6, 0.4, 0.3, 0.2, 0.1, 0.05]) @ Q.conj().T
        op = operator_from_matrix(M)
        sys = eigendecompose(op)
        co = alpha_expansion(sys, op, 1.2)
        _, off_mass, _ = mode_mixing_report(co.alpha)
        assert off_mass <= 1e-12

    def test_hand_computed_masses(self):
        m = np.array([[1.0, 2.0], [0.5j, 3.0]])
        diag_mass, off_mass, pairs = mode_mixing_report(m)
        assert diag_mass == pytest.approx(10.0)
        assert off_mass == pytest.approx(4.25)
        assert pairs[0][:2] == (0, 1) and pairs[0][2] == pytest.approx(2.0)

    def test_disk_operator_mixes(self, disk16, disk16_sys):
        _, _, op = disk16
        co = alpha_expansion(disk16_sys, op, TAU)
        _, off_mass, _ = mode_mixing_report(co.alpha)
        assert off_mass > 0
