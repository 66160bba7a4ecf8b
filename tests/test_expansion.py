import numpy as np
import pytest

from resonat import (
    WaveContext,
    alpha_expansion,
    beta_expansion,
    eigendecompose,
    green_matrix,
    expansion_errors,
    psf_from_samples,
    psf_profile,
    truncation_error_curve,
    truncation_ranks,
)
from resonat.errors import InvalidArgumentError
from resonat.expansion import weighted_frobenius
from resonat.kernels import im_g0_from_distance
from resonat.volume import g0_matrix, operator_from_matrix

TAU = 3.0


def oracle_error(basis, coeff, op, direct):
    """Relative weighted error of the full-rank expansion against `direct`."""
    N = basis.shape[1]
    return (expansion_errors(basis, coeff, op, direct, [N])[N]
            / weighted_frobenius(direct, op.weights))


class TestAlpha:
    def test_small_tau_linear_scaling(self, disk16_sys):
        n1 = np.linalg.norm(alpha_expansion(disk16_sys, 1e-3))
        n2 = np.linalg.norm(alpha_expansion(disk16_sys, 5e-4))
        assert n1 / n2 == pytest.approx(2.0, rel=0.05)

    def test_tau_zero_is_zero(self, disk16_sys):
        assert np.all(alpha_expansion(disk16_sys, 0.0) == 0)

    def test_oracle_identity(self, disk16, disk16_sys):
        _, _, op = disk16
        alpha = alpha_expansion(disk16_sys, TAU)
        assert oracle_error(disk16_sys.E, alpha, op, green_matrix(op, TAU)) <= 1e-8

    def test_parseval_mass(self, disk16, disk16_sys):
        # sum |alpha|^2 equals the squared weighted Frobenius norm of
        # (G - G0) diag(n); n = 1 here
        _, _, op = disk16
        alpha = alpha_expansion(disk16_sys, TAU)
        diff = green_matrix(op, TAU) - g0_matrix(op)
        mass = float(np.sum(np.abs(alpha) ** 2))
        assert mass == pytest.approx(weighted_frobenius(diff, op.weights) ** 2, rel=1e-8)

    def test_tau_sweep_bounded(self, disk16_sys):
        masses = [float(np.sum(np.abs(alpha_expansion(disk16_sys, 1.0 / z)) ** 2))
                  for z in np.linspace(0.7, 0.9, 10)]
        assert max(masses) / min(masses) < 10.0


class TestBeta:
    def test_orthonormal_modes_beta_equals_alpha(self):
        sys = eigendecompose(operator_from_matrix(np.diag([0.5, 0.2, 0.1]).astype(complex)))
        assert np.array_equal(sys.U, np.eye(3))
        alpha = alpha_expansion(sys, 1.5)
        assert np.allclose(beta_expansion(sys, alpha), alpha, atol=1e-13)

    def test_synthetic_oracle(self, nonnormal_op):
        op = nonnormal_op([0.6, 0.5, 0.3, 0.1 + 0.05j, 0.05])
        sys = eigendecompose(op)
        tau = 1.2
        beta = beta_expansion(sys, alpha_expansion(sys, tau))
        assert oracle_error(sys.U, beta, op, green_matrix(op, tau)) <= 1e-9

    def test_round_trip_to_alpha(self, disk16_sys):
        B = disk16_sys.B
        alpha = alpha_expansion(disk16_sys, TAU)
        back = B @ beta_expansion(disk16_sys, alpha) @ B.conj().T
        assert np.linalg.norm(back - alpha) <= 1e-10 * np.linalg.norm(alpha)

    def test_disk_oracle(self, disk16, disk16_sys):
        _, _, op = disk16
        beta = beta_expansion(disk16_sys, alpha_expansion(disk16_sys, TAU))
        assert oracle_error(disk16_sys.U, beta, op, green_matrix(op, TAU)) <= 1e-7


class TestReconstruct:
    def test_rank_zero_is_g0(self, disk16, disk16_sys):
        _, _, op = disk16
        alpha = alpha_expansion(disk16_sys, TAU)
        direct = green_matrix(op, TAU)
        errors = expansion_errors(disk16_sys.E, alpha, op, direct, [0])
        assert errors == {0: weighted_frobenius(direct - g0_matrix(op), op.weights)}

    def test_rank_out_of_bounds(self, disk16, disk16_sys):
        _, _, op = disk16
        alpha = alpha_expansion(disk16_sys, TAU)
        direct = green_matrix(op, TAU)
        for rank in (-1, disk16_sys.size + 1):
            with pytest.raises(InvalidArgumentError):
                expansion_errors(disk16_sys.E, alpha, op, direct, [0, rank])

    def test_accumulated_sums_match_prefix_sums(self, disk16, disk16_sys):
        # each rank's error equals that of its prefix sum formed from scratch
        _, _, op = disk16
        E, N = disk16_sys.E, disk16_sys.size
        alpha = alpha_expansion(disk16_sys, TAU)
        direct = green_matrix(op, TAU)
        ranks = truncation_ranks(N)
        errors = expansion_errors(E, alpha, op, direct, ranks[::-1])
        assert list(errors) == ranks
        for r in ranks:
            prefix = E[:, :r] @ alpha[:r] @ E.conj().T / op.n[None, :]
            expect = weighted_frobenius(g0_matrix(op) + prefix - direct, op.weights)
            assert errors[r] == pytest.approx(expect, rel=1e-10, abs=1e-13 * errors[0])

    def test_alpha_curve_monotone(self, disk16, disk16_sys):
        _, _, op = disk16
        alpha = alpha_expansion(disk16_sys, TAU)
        curve = truncation_error_curve(expansion_errors(
            disk16_sys.E, alpha, op, green_matrix(op, TAU), truncation_ranks(disk16_sys.size)))
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
        prof = psf_profile(g0_matrix(op, i0), grid, i0, [1.0, 0.0])
        assert prof.values.shape == prof.radii.shape
        assert np.any(prof.radii < 0) and np.any(prof.radii > 0)

