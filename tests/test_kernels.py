import numpy as np
import pytest

from resonat import WaveContext, g0_between, sinc_psf, sinc_psf_fwhm
from resonat.errors import InvalidArgumentError
from resonat.kernels import g0_from_distance, im_g0_from_distance

CTX3 = WaveContext(k=1.0, dim=3)
CTX2 = WaveContext(k=1.0, dim=2)


class TestG0:
    def test_3d_unit_distance(self):
        v = g0_between([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], CTX3)[0, 0]
        assert v == pytest.approx(-0.0429957 - 0.0669616j, abs=1e-6)

    def test_3d_modulus(self):
        for r in (0.3, 2.0, 50.0):
            v = g0_from_distance(r, WaveContext(k=3.7, dim=3))
            assert abs(v) == pytest.approx(1.0 / (4.0 * np.pi * r), rel=1e-12)

    def test_2d_imag_small_r_limit(self):
        # Im g0 -> -1/4 as r -> 0+ in 2D
        v = g0_from_distance(1e-9, CTX2)
        assert v.imag == pytest.approx(-0.25, abs=1e-6)

    def test_coincident_points_error(self):
        with pytest.raises(InvalidArgumentError):
            g0_between([[0.0, 0.0], [1.0, 2.0]], [[1.0, 2.0]], CTX2)

    def test_reciprocity_exact(self):
        x = [[0.3, -0.1, 0.7], [1.0, 0.0, 0.0]]
        y = [[-0.4, 0.2, 0.05], [0.0, 2.0, 0.5], [0.1, 0.1, 0.1]]
        assert np.array_equal(g0_between(x, y, CTX3), g0_between(y, x, CTX3).T)

    def test_radiation_condition(self):
        # d g0/dr - ik g0 = e^{ikr}/(4 pi r^2) = o(1/r): r * |...| -> 0
        k = CTX3.k
        prev = np.inf
        for r in (10.0, 100.0, 1000.0):
            g = complex(g0_from_distance(r, CTX3))
            dg = -np.exp(1j * k * r) * (1j * k * r - 1.0) / (4.0 * np.pi * r**2)
            val = r * abs(dg - 1j * k * g)
            assert val < prev
            prev = val
        assert prev < 1e-3


class TestImG0:
    def test_3d_diagonal_limit(self):
        assert im_g0_from_distance(0.0, CTX3) == pytest.approx(-0.0795775, abs=1e-6)

    def test_3d_zero_at_kr_pi(self):
        assert im_g0_from_distance(np.pi, CTX3) == pytest.approx(0.0, abs=1e-14)

    def test_3d_closed_form(self):
        ctx = WaveContext(k=2.0, dim=3)
        v = im_g0_from_distance(0.7, ctx)
        assert v == pytest.approx(-np.sin(1.4) / (4.0 * np.pi * 0.7), rel=1e-12)

    def test_2d_diagonal_limit(self):
        assert im_g0_from_distance(0.0, CTX2) == pytest.approx(-0.25, rel=1e-12)

    def test_continuity_at_origin(self):
        # 3D: |Im g0(eps) - Im g0(0)| = O(eps^2)
        e1 = abs(im_g0_from_distance(1e-2, CTX3) - im_g0_from_distance(0.0, CTX3))
        e2 = abs(im_g0_from_distance(1e-3, CTX3) - im_g0_from_distance(0.0, CTX3))
        assert e2 < 1e-6 and e1 / e2 == pytest.approx(100.0, rel=0.05)


class TestSincPsf:
    def test_peak_value(self):
        assert sinc_psf(0.0, CTX3) == pytest.approx(-1.0 / (4.0 * np.pi), rel=1e-14)

    def test_first_zero_at_half_wavelength(self):
        ctx = WaveContext(k=2.0, dim=3)
        assert sinc_psf(np.pi / ctx.k, ctx) == pytest.approx(0.0, abs=1e-15)

    def test_fwhm(self):
        ctx = WaveContext(k=3.0, dim=3)
        fwhm = sinc_psf_fwhm(ctx)
        assert fwhm == pytest.approx(3.7910 / ctx.k, rel=1e-4)
        # at k = 2 the FWHM is the root of sin(x)/x = 1/2 itself, to the last bit
        x = sinc_psf_fwhm(WaveContext(k=2.0, dim=3))
        assert np.sin(x) / x - 0.5 == 0.0
        # half maximum really is attained at the half-width
        assert abs(sinc_psf(fwhm / 2.0, ctx)) == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-9)
