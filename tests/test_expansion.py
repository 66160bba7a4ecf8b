import numpy as np
import pytest

from resonat import (
    WaveContext,
    alpha_expansion,
    assemble_kd,
    beta_expansion,
    build_ball_grid,
    build_disk_grid,
    eigendecompose,
    green_matrix,
    expansion_errors,
    psf_from_samples,
    psf_profile,
    radial_bump,
    truncation_error_curve,
    truncation_ranks,
)
from resonat.errors import InvalidArgumentError
from resonat.expansion import weighted_frobenius
from resonat.kernels import im_g0_from_distance
from resonat.volume import g0_matrix, operator_from_matrix

TAU = 3.0


def errors_at(sys, op, tau, ranks):
    """expansion_errors of the alpha and beta expansions of sys at tau."""
    alpha = alpha_expansion(sys, tau)
    return expansion_errors(sys, op, tau, alpha, beta_expansion(sys, alpha), ranks)


def oracle_errors(sys, op, tau):
    """Relative weighted errors of the full-rank alpha and beta expansions."""
    scale, errors, beta_error = errors_at(sys, op, tau, [sys.size])
    return errors[sys.size] / scale, beta_error / scale


def _medium(build, cells, dim, center=None):
    """The unit disk or ball at k = 1, n = 1 or a radial bump (width 0.5, peak 2)
    at `center`."""
    ctx = WaveContext(k=1.0, dim=dim)
    grid = build(1.0, cells, ctx)
    n = np.ones(grid.n_points) if center is None else radial_bump(grid.points, center, 0.5, 2.0)
    return assemble_kd(grid, n, ctx)


def disk_op():
    """The disk16 fixture's operator (N = 208)."""
    return _medium(build_disk_grid, 16, 2)


def bump_op():
    """disk16's grid with an off-centre bump, which keeps no lattice symmetry: one class."""
    return _medium(build_disk_grid, 16, 2, center=[0.3, 0.1])


def ball_op():
    """Unit ball, 10 cells per diameter (N = 552)."""
    return _medium(build_ball_grid, 10, 3)


class TestAlpha:
    def test_small_tau_linear_scaling(self, disk16_sys):
        n1 = np.linalg.norm(alpha_expansion(disk16_sys, 1e-3))
        n2 = np.linalg.norm(alpha_expansion(disk16_sys, 5e-4))
        assert n1 / n2 == pytest.approx(2.0, rel=0.05)

    def test_tau_zero_is_zero(self, disk16_sys):
        assert np.all(alpha_expansion(disk16_sys, 0.0) == 0)

    def test_oracle_identity(self, disk16, disk16_sys):
        _, _, op = disk16
        assert oracle_errors(disk16_sys, op, TAU)[0] <= 1e-8

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
        assert oracle_errors(sys, op, 1.2)[1] <= 1e-9

    def test_round_trip_to_alpha(self, disk16_sys):
        B = disk16_sys.B
        alpha = alpha_expansion(disk16_sys, TAU)
        back = B @ beta_expansion(disk16_sys, alpha) @ B.conj().T
        assert np.linalg.norm(back - alpha) <= 1e-10 * np.linalg.norm(alpha)

    def test_disk_oracle(self, disk16, disk16_sys):
        _, _, op = disk16
        assert oracle_errors(disk16_sys, op, TAU)[1] <= 1e-7


class TestReconstruct:
    def test_rank_zero_is_g0(self, disk16, disk16_sys):
        # both norms are taken class by class, so they match the dense ones to rounding
        _, _, op = disk16
        direct = green_matrix(op, TAU)
        scale, errors, _ = errors_at(disk16_sys, op, TAU, [0])
        assert list(errors) == [0]
        assert errors[0] == pytest.approx(weighted_frobenius(direct - g0_matrix(op), op.weights),
                                          rel=1e-12)
        assert scale == pytest.approx(weighted_frobenius(direct, op.weights), rel=1e-12)

    def test_rank_out_of_bounds(self, disk16, disk16_sys):
        _, _, op = disk16
        for rank in (-1, disk16_sys.size + 1):
            with pytest.raises(InvalidArgumentError):
                errors_at(disk16_sys, op, TAU, [0, rank])

    def test_accumulated_sums_match_prefix_sums(self, disk16, disk16_sys):
        # each rank's error equals that of its prefix sum formed from scratch
        _, _, op = disk16
        E, N = disk16_sys.E, disk16_sys.size
        alpha = alpha_expansion(disk16_sys, TAU)
        direct = green_matrix(op, TAU)
        ranks = truncation_ranks(N)
        _, errors, _ = errors_at(disk16_sys, op, TAU, ranks[::-1])
        assert list(errors) == ranks
        for r in ranks:
            prefix = E[:, :r] @ alpha[:r] @ E.conj().T / op.n[None, :]
            expect = weighted_frobenius(g0_matrix(op) + prefix - direct, op.weights)
            assert errors[r] == pytest.approx(expect, rel=1e-10, abs=1e-13 * errors[0])

    def test_alpha_curve_monotone(self, disk16, disk16_sys):
        _, _, op = disk16
        curve = truncation_error_curve(errors_at(disk16_sys, op, TAU,
                                                 truncation_ranks(disk16_sys.size))[1])
        errs = [e for _, e in curve]
        assert errs[0] == pytest.approx(1.0, abs=1e-12)
        assert errs[-1] <= 1e-8
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


class TestPointCoordinates:
    """expansion_errors works class by class in orbit coordinates; these tests pin
    the expansions and the truncation curve to the dense fields on the grid."""

    @pytest.mark.parametrize("make,blocks", [(disk_op, [29, 23, 52, 52, 29, 23]),
                                             (bump_op, [208])], ids=["disk16", "bump16"])
    def test_dense_expansions_match_green(self, make, blocks):
        op = make()
        sys = eigendecompose(op)
        assert op.symmetry_blocks == blocks
        alpha = alpha_expansion(sys, TAU)
        G, G0 = green_matrix(op, TAU), g0_matrix(op)
        for basis, coeff in ((sys.E, alpha), (sys.U, beta_expansion(sys, alpha))):
            expanded = G0 + basis @ coeff @ basis.conj().T / op.n[None, :]
            assert np.linalg.norm(expanded - G) <= 1e-10 * np.linalg.norm(G)

    @pytest.mark.parametrize("make", [disk_op, ball_op, bump_op],
                             ids=["disk16", "ball10", "bump16"])
    def test_curve_matches_dense_curve(self, make):
        op = make()
        sys = eigendecompose(op)
        ranks = truncation_ranks(sys.size)
        curve = truncation_error_curve(errors_at(sys, op, TAU, ranks)[1])
        # the dense curve: the grid's error field, accumulated rank by rank
        E, alpha = sys.E, alpha_expansion(sys, TAU)
        field = g0_matrix(op) - green_matrix(op, TAU)
        terms = alpha @ E.conj().T / op.n[None, :]
        dense = []
        for prev, r in zip([0] + ranks, ranks):
            field += E[:, prev:r] @ terms[prev:r]
            dense.append(weighted_frobenius(field, op.weights))
        assert [r for r, _ in curve] == ranks
        assert np.max(np.abs([e - d / dense[0] for (_, e), d in zip(curve, dense)])) <= 1e-12


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

