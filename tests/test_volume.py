import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgWarning, lu_solve
from scipy.special import hankel1

import resonat.volume
from resonat import (
    WaveContext,
    build_ball_grid,
    build_disk_grid,
    build_forward_map,
    build_measurement_surface,
    g0_between,
    green_matrix,
    operator_from_matrix,
    radial_bump,
    singular_values,
)
from resonat.errors import InvalidArgumentError, ResonanceProximityError
from resonat.expansion import alpha_expansion
from resonat.kernels import g0_from_distance
from resonat.spectral import eigendecompose
from resonat.volume import (
    _diag_kernel_integral,
    _factor,
    assemble_kd,
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
            r = np.linalg.norm(grid.points[i] - grid.points[j])
            expect = -complex(g0_from_distance(r, ctx)) * grid.weights[j]
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


def lattice_case(dim, bump):
    ctx = WaveContext(k=6.0 if dim == 2 else 2.5, dim=dim)
    grid = (build_disk_grid(1.0, 14, ctx) if dim == 2 else build_ball_grid(0.8, 7, ctx))
    n = (radial_bump(grid.points, (0.1,) * dim, 0.4, 3.0) if bump
         else np.full(grid.n_points, 1.5))
    return ctx, grid, n


class TestLatticeAssembly:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bump", [False, True], ids=["constant", "bump"])
    def test_matches_pairwise_formula(self, dim, bump):
        # the gather from the offset table against the kernel of every point pair
        ctx, grid, n = lattice_case(dim, bump)
        r = np.linalg.norm(grid.points[:, None] - grid.points[None], axis=2)
        np.fill_diagonal(r, 1.0)  # replaced by the cell integral below
        pairwise = -g0_from_distance(r, ctx) * n * grid.weights
        np.fill_diagonal(pairwise, -_diag_kernel_integral(grid.weights[0], ctx) * n)
        M = assemble_kd(grid, n, ctx).matrix
        assert np.max(np.abs(M - pairwise) / np.abs(pairwise)) <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reciprocal_bit_for_bit(self, dim):
        ctx, grid, _ = lattice_case(dim, False)
        M = assemble_kd(grid, np.ones(grid.n_points), ctx).matrix
        assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_kernel_evaluations_bounded_by_offsets(self, dim, monkeypatch):
        # one evaluation per lattice offset at most, never one per point pair
        ctx, grid, n = lattice_case(dim, True)
        counted = []

        def counting_g0(r, ctx):
            counted.append(np.size(r))
            return g0_from_distance(r, ctx)

        monkeypatch.setattr(resonat.volume, "g0_from_distance", counting_g0)
        assemble_kd(grid, n, ctx)
        cells = grid.lattice_shape[0]
        assert 0 < sum(counted) <= (2 * cells - 1) ** dim < grid.n_points**2


# (dim, k, h, Re, Im) of the integral of g0 over the disk/ball of measure w = h^dim,
# to 50 digits (mpmath: the Hankel closed form in 2D, the power series in 3D)
DIAG_50_DIGITS = [
    (2, 0.001, 0.1, "-1.6549944522949561482870246935976365876619821508586e-2",
     "-2.4999999990052820915301556215367932328812138576913e-3"),
    (2, 0.001, 0.001, "-2.3879300518802793911650346092288671405685514862692e-6",
     "-2.4999999999999004150308471314549386368931208032439e-7"),
    (2, 0.001, 1e-05, "-3.1208656507598074896291190518146609860502953097852e-10",
     "-2.5000000000000004042507361240273272619784712431850e-11"),
    (2, 0.001, 1e-07, "-3.8538012496392341395909953413963951214448790451230e-14",
     "-2.4999999999999996026168260574995196913977978674913e-15"),
    (2, 1.0, 0.1, "-5.5532253683548433889811581934329538316535029504691e-3",
     "-2.4990054135255522332380698516278996201174803288553e-3"),
    (2, 1.0, 0.001, "-1.2885265975429613348111397151367661220107658913891e-6",
     "-2.4999999005281617737219403058913541198331768676846e-7"),
    (2, 1.0, 1e-05, "-2.0214622524321476265851962381034477367758430688143e-10",
     "-2.4999999999900532302546897983516053101478029349626e-11"),
    (2, 1.0, 1e-07, "-2.7543978513200915629154121436934947735838029442871e-14",
     "-2.4999999999999986078994264515484436367631539864009e-15"),
    (2, 6.0, 0.1, "-2.6487146136681642052893841892752610484965716438755e-3",
     "-2.4643607097023596193490818286015650514898941977599e-3"),
    (2, 6.0, 0.001, "-1.0033576690168997573878808643083691862077413985848e-6",
     "-2.4999964190154901137913298830656842957856447733242e-7"),
    (2, 6.0, 1e-05, "-1.7362948758155061087333676205794532105771180754978e-10",
     "-2.4999999996419017922582533928710737861583213698473e-11"),
    (2, 6.0, 1e-07, "-2.4692304749606999870648206539175995088273736453950e-14",
     "-2.4999999999999637927556250996256596963828519981446e-15"),
    (3, 0.001, 0.1, "-1.9241736559444110870855114364806243717294012932297e-3",
     "-7.9577471515323513556803378860710741038024979016810e-8"),
    (3, 0.001, 0.001, "-1.9241736577954478721851279201129894432158185949238e-7",
     "-7.9577471545944612079702296510768586324509442156532e-14"),
    (3, 0.001, 1e-05, "-1.9241736577956332486557938108569190596629200762084e-11",
     "-7.9577471545947691112227336661830234450992392711156e-20"),
    (3, 0.001, 1e-07, "-1.9241736577956327958934801557164210789086930448847e-15",
     "-7.9577471545947662183014389706534644387386318154357e-26"),
    (3, 1.0, 0.1, "-1.9223228314107535646557378461536158281514815208376e-3",
     "-7.9546851579763676582474256462508780369392868149776e-5"),
    (3, 1.0, 0.001, "-1.9241734726734236845258062704387195382896687781622e-7",
     "-7.9577468483530224876937110262395694677493690287548e-11"),
    (3, 1.0, 1e-05, "-1.9241736577771210458412815822360734835994322360471e-11",
     "-7.9577471545641448012925221786445813654019698305106e-17"),
    (3, 1.0, 1e-07, "-1.9241736577956309446731987005370028537805522100146e-15",
     "-7.9577471545947629902331216747058020575368890280517e-23"),
    (3, 6.0, 0.1, "-1.8580408264541068797633779709772037990564091363885e-3",
     "-4.7088265297215152355669803570941709655270351857354e-4"),
    (3, 6.0, 0.001, "-1.9241669934010847392173766262711776886804554609028e-7",
     "-4.7746416779383547844271701104766382438861161337191e-10"),
    (3, 6.0, 1e-05, "-1.9241736571291932994554761635189513354871574494348e-11",
     "-4.7746482920953792078969021728287799848384665446657e-16"),
    (3, 6.0, 1e-07, "-1.9241736577955661518985549951123492351414001046354e-15",
     "-4.7746482927567934833725818736706636631069794008422e-22"),
]


@pytest.mark.parametrize("dim, k, h, re, im", DIAG_50_DIGITS,
                         ids=[f"{d}d-k{k}-h{h}" for d, k, h, _, _ in DIAG_50_DIGITS])
def test_diag_kernel_integral_to_rounding(dim, k, h, re, im):
    w = h**dim
    D = _diag_kernel_integral(w, WaveContext(k=k, dim=dim))
    rho = np.sqrt(w / np.pi) if dim == 2 else (3.0 * w / (4.0 * np.pi)) ** (1.0 / 3.0)
    if k * rho < 0.1:   # the series: no cancellation
        exact = complex(float(re), float(im))
        assert abs(D - exact) <= 5e-15 * abs(exact)
    elif dim == 2:      # the closed form, bit for bit
        assert D == complex(-0.5j * np.pi * rho / k * hankel1(1, k * rho) + 1.0 / k**2)
    else:
        assert D == complex((np.exp(1j * k * rho) * (1j * k * rho - 1.0) + 1.0) / k**2)


class TestApply:
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
            vals.append((op.matrix @ f)[i])
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
    """(raises, reported eigenvalue) of the resonance check, at tau = 1/z."""
    try:
        _factor(op, 1.0 / z)
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

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("which", ["outer", "inner"])
    def test_matches_dense_rule_degenerate_pair(self, disk16, which, factor):
        # the axis swap maps a mode odd in x onto one odd in y: their eigenvalues
        # are one double eigenvalue, equal in floating point to ~1e-14
        _, _, op = disk16
        lam = np.linalg.eigvals(op.matrix)
        lam = lam[np.argsort(-np.abs(lam))]
        pairs = np.flatnonzero(np.abs(np.diff(lam)) < 1e-12 * np.abs(lam[1:]))
        target = lam[pairs[0] if which == "outer" else pairs[len(pairs) // 3]]
        z = target + factor * 1e-8 * (1.0 + abs(target)) * np.exp(0.7j)
        expect, nearest = dense_rule(op.matrix, z)
        got, reported = shift_invert_rule(op, z)
        assert got == expect == (factor < 1)
        if got:
            assert abs(reported - nearest) <= 1e-10 * abs(nearest)

    @pytest.mark.parametrize("N", [5, 208])
    def test_two_block_solves(self, disk16, monkeypatch, N):
        # per solved class, one solve gives the block's basis and one its Rayleigh
        # quotient; disk16 solves 5 of its 6 classes, a random matrix is one class
        op = disk16[2] if N == 208 else operator_from_matrix(random_nonnormal(N, 0))
        solved = [29, 23, 52, 29, 23] if N == 208 else [N]
        z = 3.0 + 1.0j
        widths = []

        def counting_solve(lu, b, **kwargs):
            widths.append(b.shape)
            return lu_solve(lu, b, **kwargs)

        monkeypatch.setattr(resonat.volume, "lu_solve", counting_solve)
        _factor(op, 1.0 / z)
        assert widths == [(n, min(20, n)) for n in solved for _ in range(2)]

    def test_refused_near_each_solved_class(self, disk16):
        # 1/tau within 0.5 times the tolerance of an eigenvalue of any solved class's
        # block is refused, and the eigenvalue reported; dense eigvals is the oracle
        _, _, op = disk16
        dense = scipy.linalg.eigvals(op.matrix)
        classes = op.classes
        solved = [c for i, c in enumerate(classes) if c.source == i and c.size]
        assert len(solved) == 5
        for c in solved:
            block = scipy.linalg.eigvals(resonat.volume.class_block(op, c))
            block = block[np.argsort(-np.abs(block))]
            for lam in (block[0], block[c.size // 3]):   # outer and inner
                target = dense[np.argmin(np.abs(dense - lam))]
                assert abs(target - lam) <= 1e-12 * abs(lam)
                z = target + 0.5e-8 * (1.0 + abs(target)) * np.exp(0.7j)
                expect, nearest = dense_rule(op.matrix, z)
                got, reported = shift_invert_rule(op, z)
                assert got and expect
                assert abs(reported - nearest) <= 1e-10 * abs(nearest)

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
        _factor(op, 1.0 / (3.0 + 1.0j))

    def test_exactly_singular_raises_without_warning(self):
        # I - 2 diag(0.5, 0.25) has an exactly zero pivot
        op = operator_from_matrix(np.diag([0.5, 0.25]).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            with pytest.raises(ResonanceProximityError) as info:
                _factor(op, 2.0)
            with pytest.raises(ResonanceProximityError):
                green_matrix(op, 2.0)
        assert info.value.eigenvalue == 0.5

    def test_pole_check_applies_the_same_rule(self):
        # |z - 0.5| against 1e-8 (1 + 0.5) = 1.5e-8: 3e-8 is outside, 1e-8 inside
        op = operator_from_matrix(np.diag([3.0, 0.5, 0.2]).astype(complex))
        sys = eigendecompose(op)
        _factor(op, 1.0 / (0.5 + 3e-8))
        alpha_expansion(sys, 1.0 / (0.5 + 3e-8))
        with pytest.raises(ResonanceProximityError):
            _factor(op, 1.0 / (0.5 + 1e-8))
        with pytest.raises(ResonanceProximityError):
            alpha_expansion(sys, 1.0 / (0.5 + 1e-8))


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
        assert K[0, 4] == pytest.approx(g0_between([x_ext], [x0], ctx)[0, 0], rel=1e-12)

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


def medium(dim, cells, k, center=None):
    """The unit disk or ball with n = 1, or with a radial bump (width 0.5, peak 2) at `center`."""
    ctx = WaveContext(k=k, dim=dim)
    grid = (build_disk_grid if dim == 2 else build_ball_grid)(1.0, cells, ctx)
    n = np.ones(grid.n_points) if center is None else radial_bump(grid.points, center, 0.5, 2.0)
    return assemble_kd(grid, n, ctx)


def reversed_line():
    """M + M[::-1, ::-1] for a random M on the 40-point line: the reversal keeps the
    matrix, but a wrapped matrix is one class."""
    rng = np.random.default_rng(3)
    M = (rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))) / 40
    return operator_from_matrix(M + M[::-1, ::-1])


SOLVE_MEDIA = {
    "disk16": lambda: medium(2, 16, 1.0),
    "ball10": lambda: medium(3, 10, 1.0),
    # odd extents: empty classes and points on the mirror lines
    "disk3": lambda: medium(2, 3, 1.0),
    "ball5": lambda: medium(3, 5, 1.0),
    "centered_bump20": lambda: medium(2, 20, 6.0, center=[0.0, 0.0]),   # the swap only
    "off_center_bump20": lambda: medium(2, 20, 6.0, center=[0.3, 0.1]),  # one class
    "line": reversed_line,
}
# the assembled media of SOLVE_MEDIA and the two of the psf_large benchmark
RULE_MEDIA = {**{name: make for name, make in SOLVE_MEDIA.items() if name != "line"},
              "psf_disk48": lambda: medium(2, 48, 6.0), "psf_ball14": lambda: medium(3, 14, 6.0)}
# and two line operators from operator_from_matrix, each one class: one that the
# reversal keeps and a random one
BLOCK_MEDIA = {**RULE_MEDIA, "line": reversed_line,
               "random_line": lambda: operator_from_matrix(random_nonnormal(40, 6))}


def reference_block(M, c, scale):
    """scale times sum_g chi(g) M[reps, g(reps)] / sqrt(stab stab^T) on the formed M,
    in class_block's order of operations; without symmetry, M * scale."""
    if c.chars.size == 1:
        return M * scale
    reps = c.points[0]
    block = M[np.ix_(reps, reps)]
    for p, chi in zip(c.points[1:], c.chars[1:]):
        block = block + M[np.ix_(reps, p)] if chi > 0 else block - M[np.ix_(reps, p)]
    return block / np.sqrt(np.outer(c.stab, c.stab)) * scale


class TestSymmetryClasses:
    @pytest.mark.parametrize("tau", [3.0, 180.5])
    @pytest.mark.parametrize("name", list(SOLVE_MEDIA))
    def test_solves_match_dense(self, name, tau):
        # every column form and the exterior rows against the dense solve of I - tau M
        op = SOLVE_MEDIA[name]()
        N = op.matrix.shape[0]
        A = np.eye(N) - tau * op.matrix
        G = scipy.linalg.solve(A, g0_matrix(op))
        cols = [0, N // 2, N - 1]
        for got, ref in ((green_matrix(op, tau, N // 3), G[:, N // 3]),
                         (green_matrix(op, tau, cols), G[:, cols]),
                         (green_matrix(op, tau), G)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        Z = build_measurement_surface(2.0 * op.grid.radius, 24, op.ctx).points
        K = g0_between(Z, op.grid.points, op.ctx)
        ref = scipy.linalg.solve(A, K.T).T
        got = radiate_matrix(op, Z, tau)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", list(RULE_MEDIA))
    def test_index_rule_matches_matrix_rule(self, name):
        # an assembled operator keeps a symmetry when n and the weights do; comparing
        # the formed M entry by entry under each lattice permutation keeps the same ones
        op = RULE_MEDIA[name]()
        grid, M = op.grid, op.matrix
        index, shape = grid.lattice_index, grid.lattice_shape
        images = {}
        for a, s in enumerate(shape):
            images[a] = index.copy()
            images[a][:, a] = s - 1 - index[:, a]
        if shape[0] == shape[1]:
            images["swap"] = index[:, [1, 0, *range(2, len(shape))]]
        by_matrix = {}
        for key, image in images.items():
            p = grid.lattice_permutation(image)
            if (p is not None and not np.array_equal(p, np.arange(p.size))
                    and np.array_equal(op.weights[p], op.weights)
                    and np.array_equal(M[np.ix_(p, p)], M)):
                by_matrix[key] = p
        axes, reflections, swap = resonat.volume._symmetries(op)
        assert axes == [key for key in by_matrix if key != "swap"]
        assert all(np.array_equal(p, by_matrix[a]) for a, p in zip(axes, reflections))
        assert (swap is None) == ("swap" not in by_matrix)
        assert swap is None or np.array_equal(swap, by_matrix["swap"])

    @pytest.mark.parametrize("name", ["disk16", "line"])
    def test_classes_decided_without_matrix(self, name, monkeypatch):
        # a symmetry is kept when it keeps n and the weights; M is never formed
        op = BLOCK_MEDIA[name]()

        def refuse(self):
            raise AssertionError("op.matrix read")

        monkeypatch.setattr(resonat.volume.DiscreteOperator, "matrix", property(refuse))
        assert op.symmetry_blocks == ([29, 23, 52, 52, 29, 23] if name == "disk16" else [40])

    @pytest.mark.parametrize("name", list(BLOCK_MEDIA))
    def test_gathered_from_table_match_matrix(self, name):
        # the formed M is the parent assembly's T[row - col] * (-n); the blocks and
        # G0 columns gathered from T are those of the formed M, bit for bit
        op = BLOCK_MEDIA[name]()
        M = op.matrix
        assembled = op.table[op.row[:, None] - op.col[None, :]]
        assembled *= -op.n
        assert np.array_equal(M, assembled)
        for c in op.classes:
            for scale in (1.0, -180.5):
                assert np.array_equal(resonat.volume.class_block(op, c, scale),
                                      reference_block(M, c, scale))
        N = M.shape[0]
        for cols in (N // 3, [0, N // 2, N - 1]):
            assert np.array_equal(g0_matrix(op, cols), -M[:, cols] / (op.n * op.weights)[cols])

    @pytest.mark.parametrize("dim, cells", [(2, 32), (3, 14)])
    def test_column_solve_memory(self, dim, cells):
        # the blocks are gathered, not a transposed copy of M: the allocations of
        # one Green column stay well below one N x N complex array
        op = medium(dim, cells, 6.0)
        N = op.matrix.shape[0]
        j = op.grid.nearest_index([0.0] * dim)
        tracemalloc.start()
        try:
            green_matrix(op, 180.5, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 16 * N**2

    def test_column_solve_memory_large_ball(self):
        # the blocks are gathered from the table, and M is never formed: at N = 4224
        # the LUs alone are 0.063 N x N complex arrays, and M would be one
        op = medium(3, 20, 6.0)
        N = op.n.size
        j = op.grid.nearest_index([0.0] * 3)
        tracemalloc.start()
        try:
            green_matrix(op, 180.5, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert N == 4224 and peak < 0.1 * 16 * N**2

    @pytest.mark.parametrize("center", [None, [0.3, 0.1]])
    def test_all_column_solve_memory(self, center):
        # the solution is scattered back into the free-field columns, so beside them
        # the all-column solve holds the LUs and the class coordinates and strips of
        # rows: about 3 N x N complex arrays, one class or many
        op = medium(2, 32, 1.0, center=center)
        N = op.matrix.shape[0]
        tracemalloc.start()
        try:
            green_matrix(op, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 16 * N**2


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
