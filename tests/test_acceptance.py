"""Acceptance suite: one test per release criterion, each at its stated
tolerance. Run with -v to get one pass/fail line per criterion."""

import json
from pathlib import Path

import numpy as np
import pytest

from resonat import (
    WaveContext,
    build_ball_grid,
    build_disk_grid,
    build_forward_map,
    build_measurement_surface,
    eigendecompose,
    homogeneous_hk_residual,
    l1_reconstruct,
    l2_minimum_norm,
    resolution_metrics,
    resolvent_chain_coefficients,
    sinc_psf,
    sinc_psf_fwhm,
    singular_values,
    synthesize_data,
    time_reversal,
)
from resonat.cli import main
from resonat.expansion import (
    alpha_expansion,
    beta_expansion,
    expansion_errors,
    psf_from_samples,
)
from resonat.imaging import ForwardMap
from resonat.volume import assemble_kd, operator_from_matrix

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_criterion_01_expansion_oracle_equivalence(disk16, disk16_sys):
    """2D disk, n = 1, N in [150, 400]: full-rank alpha/beta reconstructions
    match the dense direct solve at three contrasts away from the spectrum."""
    _, _, op = disk16
    sys = disk16_sys
    assert 150 <= sys.size <= 400
    N = sys.size
    for tau in (3.0, -2.0, 1.25):
        alpha = alpha_expansion(sys, tau)
        beta = beta_expansion(sys, alpha)
        scale, errors, beta_error = expansion_errors(sys, op, tau, alpha, beta, [N])
        assert errors[N] / scale <= 1e-7
        assert beta_error / scale <= 1e-6


def test_criterion_02_jordan_chain_resolvent_algebra(rng):
    """Chain coefficients match dense inversion of (zI-J)^{-1}J^2 for block
    sizes 1-6; the lambda=0.5, z=1 2x2 case is exact."""
    c = resolvent_chain_coefficients(0.5, 2, 1.0)
    J = 0.5 * np.eye(2) + np.eye(2, k=1)
    X = np.linalg.solve(np.eye(2) - J, J @ J)
    assert np.max(np.abs(X - np.array([[0.5, 3.0], [0.0, 0.5]]))) <= 1e-14
    assert np.max(np.abs(c - np.array([0.5, 3.0]))) <= 1e-14
    for n in range(1, 7):
        lam = rng.normal() + 1j * rng.normal()
        lam /= max(1.0, abs(lam))
        z = lam + (0.3 + 0.7 * rng.random()) * np.exp(2j * np.pi * rng.random())
        assert abs(z - lam) > 0.1
        c = resolvent_chain_coefficients(lam, n, z)
        J = lam * np.eye(n, dtype=complex) + np.eye(n, k=1, dtype=complex)
        X = np.linalg.solve(z * np.eye(n) - J, J @ J)
        for m in range(n):
            assert abs(c[m] - X[n - 1 - m, n - 1]) <= 1e-11


def test_criterion_03_helmholtz_kirchhoff_ratio():
    """Homogeneous 3D residual ratio residual(2R)/residual(R) in [0.35, 0.65]
    for R in {50, 100, 200}/k."""
    ctx = WaveContext(k=1.0, dim=3)
    x = np.array([0.3, 0.1, -0.2])
    y = np.array([-0.2, 0.25, 0.1])
    res = [homogeneous_hk_residual(build_measurement_surface(R, 2048, ctx), x, y, ctx)
           for R in (50.0, 100.0, 200.0)]
    for a, b in zip(res, res[1:]):
        ratio = b / a
        assert 0.35 <= ratio <= 0.65, f"two-radius ratio {ratio:.4f} outside [0.35, 0.65]"


@pytest.fixture(scope="module")
def tr_psf_samples():
    ctx = WaveContext(k=1.0, dim=3)
    grid = build_ball_grid(1.0, 5, ctx)
    surface = build_measurement_surface(100.0 / ctx.k, 2048, ctx)
    assert surface.n_points >= 2000
    fmap = build_forward_map(grid, surface, ctx)
    u, _ = synthesize_data(fmap, [((0.0, 0.0, 0.0), 1.0 + 0j)])
    r = np.linspace(-3.0, 3.0, 1201)
    pts = np.column_stack([r, np.zeros_like(r), np.zeros_like(r)])
    img = time_reversal(u, fmap, imaging_points=pts)
    return ctx, r, np.real(img.values)


def test_criterion_04_homogeneous_psf_matches_sinc(tr_psf_samples):
    """Time-reversal image of a unit point source matches -sin(kr)/(4 pi k r)
    to 1% at the peak and 3% across the first lobe (R = 100/k, m >= 2000)."""
    ctx, r, values = tr_psf_samples
    oracle = sinc_psf(np.abs(r), ctx)
    peak = np.argmin(np.abs(r))
    assert abs(values[peak] - oracle[peak]) <= 0.01 * abs(oracle[peak])
    lobe = np.abs(r) <= np.pi / ctx.k
    assert np.max(np.abs(values[lobe] - oracle[lobe])) <= 0.03 * abs(oracle[peak])


def test_criterion_05_sinc_width(tr_psf_samples):
    """Measured homogeneous FWHM within 2% of 3.7910/k."""
    ctx, r, values = tr_psf_samples
    prof = psf_from_samples(r, values)
    assert prof.fwhm == pytest.approx(3.7910 / ctx.k, rel=0.02)
    assert sinc_psf_fwhm(ctx) == pytest.approx(3.7910 / ctx.k, rel=1e-4)


def test_criterion_06_super_resolution_scenario(tmp_path):
    """Shipped scenario (tau near 1/lambda of a sub-wavelength mode, |lambda| < 1)
    yields an Im-G FWHM ratio (high contrast / homogeneous) below one."""
    cfg = SCENARIOS / "super_resolution.yaml"
    out = tmp_path / "out"
    assert main(["psf", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "fwhm_report.json").read_text())
    # the tuned mode is sub-wavelength: |lambda| = 1/tau-ish < 1
    assert abs(1.0 / rep["tau"]) < 1.0
    assert rep["ratio"] < 1.0, f"FWHM ratio {rep['ratio']:.4f} not below 1"


def _wrap_matrix(A):
    ctx = WaveContext(k=1.0, dim=2)
    grid = operator_from_matrix(np.zeros((A.shape[1],) * 2)).grid   # unit weights
    surface = build_measurement_surface(10.0, max(4, A.shape[0]), ctx)
    return ForwardMap(kernel=np.asarray(A, dtype=complex),
                      grid=grid, surface=surface, ctx=ctx)


def _plain(u):
    return np.asarray(u, dtype=complex)


def test_criterion_07_l2_solver():
    """Tikhonov filter-factor example exact to 1e-12; Morozov terminates with
    discrepancy within 10% of delta on noisy synthetic data."""
    res = l2_minimum_norm(_wrap_matrix(np.diag([2.0, 1.0])), _plain([2.0, 1.0]),
                          mode="tikhonov", alpha=1.0)
    assert np.max(np.abs(res.values - np.array([0.8, 0.5]))) <= 1e-12

    ctx = WaveContext(k=6.0, dim=2)
    grid = build_disk_grid(1.0, 12, ctx)
    surface = build_measurement_surface(50.0, 128, ctx)
    fmap = build_forward_map(grid, surface, ctx)
    src = [((0.2, 0.1), 1.0 + 0j)]
    u, noise_norm = synthesize_data(fmap, src, noise_level=0.05, seed=11)
    delta = noise_norm**2
    res = l2_minimum_norm(fmap, u, mode="morozov", delta=delta)
    assert abs(res.metadata["discrepancy_sq"] - delta) <= 0.1 * delta


def test_criterion_08_l1_solver(rng):
    """Soft-threshold identity case exact within 500 iterations; subgradient
    optimality at 1e-6 on random 50x120 maps; quarter-wavelength two-source
    recovery within one grid cell through the high-contrast medium."""
    res = l1_reconstruct(_wrap_matrix(np.eye(3)), _plain([0.0, 2.0, 0.0]),
                         mu=1.0, max_iters=500)
    assert res.metadata["iterations"] <= 500
    assert np.max(np.abs(res.values - np.array([0.0, 1.0, 0.0]))) <= 1e-10

    for seed in (1, 2):
        r = np.random.default_rng(seed)
        A = r.normal(size=(50, 120)) + 1j * r.normal(size=(50, 120))
        u = r.normal(size=50) + 1j * r.normal(size=50)
        mu = 0.3 * np.max(np.abs(A.conj().T @ u))
        res = l1_reconstruct(_wrap_matrix(A), _plain(u), mu=mu,
                             max_iters=20000, tol=1e-14)
        g = res.values
        grad = A.conj().T @ (A @ g - u)
        off = np.abs(g) == 0
        assert np.all(np.abs(grad[off]) <= mu * (1.0 + 1e-6))
        on = ~off
        assert np.all(np.abs(grad[on] + mu * g[on] / np.abs(g[on])) <= 1e-6 * mu * 10)

    ctx = WaveContext(k=6.0, dim=2)
    grid = build_disk_grid(1.0, 24, ctx)
    op = assemble_kd(grid, np.full(grid.n_points, 1.0), ctx)
    surface = build_measurement_surface(100.0, 256, ctx)
    fmap = build_forward_map(grid, surface, ctx, tau=180.5, op=op)
    quarter = ctx.wavelength / 4.0
    a = grid.points[grid.nearest_index([-quarter / 2.0, 0.04])]
    b = grid.points[grid.nearest_index([+quarter / 2.0, 0.04])]
    src = [(tuple(a), 1.0 + 0j), (tuple(b), 1.0 + 0j)]
    u, _ = synthesize_data(fmap, src)
    mu = 0.02 * np.max(np.abs(fmap.matrix.conj().T @ u))
    res = l1_reconstruct(fmap, u, mu=mu, max_iters=8000, tol=1e-13)
    met = resolution_metrics(res.values, src, grid)
    assert not met.empty
    assert max(met.localization_errors) <= grid.cell_size


def test_criterion_09_spectral_contracts(disk16, disk16_sys):
    """Completeness projection error <= 1e-8; A B = I to 1e-10; singular
    values nonincreasing; sum |alpha|^2 bounded within factor 100 over a
    20-point tau sweep on a compact interval excluding the spectrum."""
    _, grid, op = disk16
    sys = disk16_sys
    f = np.exp(-2.0 * np.linalg.norm(grid.points, axis=1) ** 2) * (
        1.0 + 0.5j * grid.points[:, 1])
    proj = sys.E @ (sys.E.conj().T @ (op.weights * f))
    assert np.linalg.norm(proj - f) <= 1e-8 * np.linalg.norm(f)
    assert np.linalg.norm(sys.A @ sys.B - np.eye(sys.size)) <= 1e-10
    s = singular_values(op)
    assert np.all(np.diff(s) <= 0)
    zs = np.linspace(0.7, 0.9, 20)
    assert all(np.abs(z - sys.lambdas).min() > 0.1 for z in zs)
    masses = [float(np.sum(np.abs(alpha_expansion(sys, 1.0 / z)) ** 2))
              for z in zs]
    assert max(masses) / min(masses) < 100.0


def test_criterion_10_cli_determinism(tmp_path):
    """Any CLI command rerun with identical config and seed produces
    byte-identical CSV/JSON artifacts."""
    runs = [
        ("spectrum", SCENARIOS / "disk_spectrum.yaml",
         ["spectrum.csv", "manifest.json"]),
        ("hk-check", SCENARIOS / "hk_homogeneous.yaml",
         ["hk.csv", "manifest.json"]),
    ]
    for command, cfg, files in runs:
        out1 = tmp_path / f"{command}-1"
        out2 = tmp_path / f"{command}-2"
        assert main([command, "--config", str(cfg), "--out", str(out1)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(out2)]) == 0
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
