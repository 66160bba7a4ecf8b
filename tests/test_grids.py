import numpy as np
import pytest

from resonat import (
    WaveContext,
    build_ball_grid,
    build_disk_grid,
    build_measurement_surface,
    radial_bump,
)
from resonat.errors import InvalidArgumentError
from resonat.volume import assemble_kd

CTX2 = WaveContext(k=1.0, dim=2)
CTX3 = WaveContext(k=1.0, dim=3)


class TestWaveContext:
    def test_wavelength(self):
        assert WaveContext(k=2.0, dim=2).wavelength == pytest.approx(np.pi)

    def test_invalid(self):
        with pytest.raises(InvalidArgumentError):
            WaveContext(k=0.0, dim=2)
        with pytest.raises(InvalidArgumentError):
            WaveContext(k=1.0, dim=4)


class TestDiskGrid:
    def test_coarse_two_cells(self):
        # 2x2 cell centers (+-0.5, +-0.5) are all inside the unit disk;
        # the coarse quadrature over-counts the area (4 > pi)
        g = build_disk_grid(1.0, 2, CTX2)
        assert g.n_points == 4
        assert np.allclose(g.weights, 1.0)
        assert g.weights.sum() == pytest.approx(4.0)

    def test_area_convergence(self):
        g = build_disk_grid(1.0, 64, CTX2)
        assert 0.98 * np.pi <= g.weights.sum() <= 1.02 * np.pi

    def test_refinement_improves_area(self):
        e = [abs(build_disk_grid(1.0, c, CTX2).weights.sum() - np.pi)
             for c in (16, 32, 64)]
        assert e[0] > e[1] > e[2]

    def test_zero_radius(self):
        with pytest.raises(InvalidArgumentError):
            build_disk_grid(0.0, 8, CTX2)

    def test_membership(self):
        g = build_disk_grid(1.5, 10, CTX2)
        assert np.all(np.linalg.norm(g.points, axis=1) < 1.5)
        assert all(g.contains(p) for p in g.points)

    def test_nearest_index_refuses_outside_points(self):
        # the strict rule of contains: a point on the boundary is outside too
        g = build_disk_grid(1.5, 10, CTX2)
        assert np.array_equal(g.points[g.nearest_index(g.points[7])], g.points[7])
        for x in ([5.0, 0.0], [1.5, 0.0], [0.0, -1.5]):
            with pytest.raises(InvalidArgumentError):
                g.nearest_index(x)

    def test_wrong_dim(self):
        with pytest.raises(InvalidArgumentError):
            build_disk_grid(1.0, 8, CTX3)


class TestBallGrid:
    def test_coarse_two_cells(self):
        g = build_ball_grid(1.0, 2, CTX3)
        assert g.n_points == 8
        assert np.allclose(g.weights, 1.0)

    def test_volume_convergence(self):
        g = build_ball_grid(1.0, 32, CTX3)
        vol = 4.0 * np.pi / 3.0
        assert 0.98 * vol <= g.weights.sum() <= 1.02 * vol

    def test_odd_cells_center_point(self):
        g = build_ball_grid(1.0, 3, CTX3)
        d = np.linalg.norm(g.points, axis=1)
        assert d.min() == pytest.approx(0.0, abs=1e-14)


class TestProfiles:
    def test_constant(self):
        g = build_disk_grid(1.0, 8, CTX2)
        n = assemble_kd(g, np.full(g.n_points, 1.0), CTX2).n
        assert np.all(n == 1.0)

    def test_bump_peak_at_center(self):
        ctx = CTX2
        g = build_disk_grid(1.0, 17, ctx)  # odd: origin is a grid point
        n = radial_bump(g.points, center=(0.0, 0.0), width=0.5, peak=2.0)
        i0 = g.nearest_index([0.0, 0.0])
        assert n[i0] == pytest.approx(2.0, abs=1e-12)

    def test_bump_far_field_baseline(self):
        g = build_disk_grid(4.0, 32, CTX2)
        n = radial_bump(g.points, center=(0.0, 0.0), width=0.5, peak=2.0)
        far = np.linalg.norm(g.points, axis=1) > 3.0
        assert np.all(np.abs(n[far] - 1.0) < 1e-6)

    def test_invalid_params(self):
        g = build_disk_grid(1.0, 8, CTX2)
        with pytest.raises(InvalidArgumentError):
            assemble_kd(g, np.full(g.n_points, 0.0), CTX2)
        with pytest.raises(InvalidArgumentError):
            radial_bump(g.points, center=(0, 0), width=0.5, peak=-1.0)


class TestMeasurementSurface:
    def test_circle_four_points(self):
        s = build_measurement_surface(10.0, 4, CTX2)
        expect = np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0], [0.0, -10.0]])
        assert np.allclose(s.points, expect, atol=1e-12)
        assert np.allclose(s.weights, 5.0 * np.pi)

    def test_circle_weight_sum(self):
        s = build_measurement_surface(3.0, 64, CTX2)
        assert s.weights.sum() == pytest.approx(2.0 * np.pi * 3.0, rel=1e-12)

    def test_sphere_weight_sum(self):
        s = build_measurement_surface(1.0, 64, CTX3)
        assert s.weights.sum() == pytest.approx(4.0 * np.pi, rel=1e-6)

    def test_points_on_radius(self):
        for ctx in (CTX2, CTX3):
            s = build_measurement_surface(7.0, 32, ctx)
            assert np.allclose(np.linalg.norm(s.points, axis=1), 7.0, rtol=1e-12)

    def test_no_duplicate_points(self):
        s = build_measurement_surface(1.0, 50, CTX3)
        d = np.linalg.norm(s.points[:, None, :] - s.points[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            build_measurement_surface(1.0, 2, CTX2)

    def test_bad_radius(self):
        with pytest.raises(InvalidArgumentError):
            build_measurement_surface(-1.0, 16, CTX2)
