"""Forward data synthesis on the far-field surface and the three
inverse-source reconstruction methods (time reversal, minimum-L2, minimum-L1),
plus the Helmholtz-Kirchhoff validator and resolution metrics.

Sign convention for the time-reversal functional: the backpropagation integral
is negated so that the homogeneous 3D image of a unit point source reproduces
the -sin(kr)/(4 pi k r) point spread function (see kernels.sinc_psf).

Every matrix product and SVD of the solvers runs in scipy's BLAS, which the
LU solves of the forward map use: on two cores each switch to numpy's own
copy, and its thread pool, costs milliseconds. Vector norms stay in numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgemm, zgemv

from .errors import InvalidArgumentError, NumericFailureError
from .grids import DomainGrid, MeasurementSurface, WaveContext, _require_memory
from .kernels import g0_between, im_g0_from_distance
from .volume import DiscreteOperator, check_exterior, radiate_matrix


@dataclass
class ForwardMap:
    """Discretized map from grid densities to far-field samples.

    ``kernel`` holds G(z_m, x_j); ``matrix``, formed from it on each access,
    folds in the domain quadrature weights so that u = matrix @ f approximates
    the volume integral.
    """

    kernel: np.ndarray
    grid: DomainGrid
    surface: MeasurementSurface
    ctx: WaveContext
    tau: float = 0.0

    @property
    def matrix(self) -> np.ndarray:
        return self.kernel * self.grid.weights[None, :]


@dataclass
class ImagingResult:
    values: np.ndarray
    metadata: dict = field(default_factory=dict)


def build_forward_map(grid: DomainGrid, surface: MeasurementSurface,
                      ctx: WaveContext, tau: float = 0.0,
                      op: Optional[DiscreteOperator] = None) -> ForwardMap:
    """Assemble the far-field map; tau != 0 radiates through the contrast
    medium of `op`, which must be assembled on this grid and wave context.
    Refuses a map that, with the largest command's use of it, is larger than
    physical memory."""
    if op is not None and (op.ctx != ctx or not np.array_equal(op.grid.points, grid.points)):
        raise InvalidArgumentError("the volume operator is assembled on another grid "
                                   "or wave context than the forward map")
    if tau != 0.0 and op is None:
        raise InvalidArgumentError("high-contrast forward map needs the volume operator")
    m, N = surface.n_points, grid.n_points
    # building the map peaks at 16 (dim + 1) bytes a pair, and its largest use at one
    # complex m x N array more: image with exact L2 and L1 peaks at 65-69 B a pair (2D)
    _require_memory(16 * (ctx.dim + 2) * m * N, f"{m} x {N} forward map")
    if tau == 0.0:
        check_exterior(grid, surface.points)
        K = g0_between(surface.points, grid.points, ctx)
    else:
        K = radiate_matrix(op, surface.points, tau)
    return ForwardMap(kernel=K, grid=grid, surface=surface, ctx=ctx, tau=tau)


def synthesize_data(fmap: ForwardMap, sources, noise_level: float = 0.0,
                    seed: int = 0) -> Tuple[np.ndarray, float]:
    """Far-field data u of point sources, a sequence of (location, amplitude)
    pairs, with additive complex Gaussian noise scaled to
    noise_level * ||u|| / sqrt(m), noise_level >= 0. Returns u and the norm of
    the noise."""
    if noise_level < 0:
        raise InvalidArgumentError(f"noise level must be nonnegative, got {noise_level}")
    m = fmap.surface.n_points
    locs = np.array([loc for loc, _ in sources], dtype=float).reshape(len(sources), fmap.grid.dim)
    for loc in locs:
        if not fmap.grid.contains(loc):
            raise InvalidArgumentError(f"point source {loc} lies outside the domain")
    if fmap.tau == 0.0:
        K = g0_between(locs, fmap.surface.points, fmap.ctx)
    else:
        # the contrast kernel is only available on the grid: snap each source
        K = fmap.kernel[:, [fmap.grid.nearest_index(loc) for loc in locs]].T
    u = np.zeros(m, dtype=complex)
    for (_, amp), row in zip(sources, K):
        u += complex(amp) * row
    noise_norm = 0.0
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        ref = float(np.linalg.norm(u))
        scale = noise_level * (ref if ref > 0 else 1.0) / np.sqrt(m)
        noise = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
        u = u + noise
        noise_norm = float(np.linalg.norm(noise))
    return u, noise_norm


def time_reversal(u: np.ndarray, fmap: ForwardMap,
                  imaging_points: Optional[np.ndarray] = None) -> ImagingResult:
    """Backpropagate the data: I(x) = -sum_m conj(G(x, z_m)) u_m w_m."""
    w = fmap.surface.weights
    if imaging_points is None:
        K = fmap.kernel                       # G(z_m, x_j) = G(x_j, z_m) by reciprocity
    else:
        if fmap.tau != 0.0:
            raise InvalidArgumentError(
                "off-grid imaging points are only supported in the homogeneous medium")
        K = g0_between(fmap.surface.points, imaging_points, fmap.ctx)
    values = -zgemv(1.0, K.conj().T, u * w)
    return ImagingResult(values=values, metadata={"m": fmap.surface.n_points})


def homogeneous_hk_residual(surface: MeasurementSurface, x, y, ctx: WaveContext) -> float:
    """|k sum_m conj(G0(x,z_m)) G0(y,z_m) w_m + Im G0(x,y)| over the surface."""
    Gx, Gy = g0_between([x, y], surface.points, ctx)
    im_g = im_g0_from_distance(np.linalg.norm(np.subtract(x, y, dtype=float)), ctx)
    s = ctx.k * np.sum(np.conj(Gx) * Gy * surface.weights)
    return float(np.abs(s + im_g))


def l2_minimum_norm(fmap: ForwardMap, u: np.ndarray, mode="exact",
                    alpha: Optional[float] = None,
                    delta: Optional[float] = None) -> ImagingResult:
    """Pseudoinverse / Tikhonov-filtered / Morozov-selected minimum-norm solution."""
    A = fmap.matrix
    Us, s, Vh = scipy.linalg.svd(A, full_matrices=False, check_finite=False)
    if s[0] == 0:
        raise InvalidArgumentError("forward map is identically zero")
    coefs = zgemv(1.0, Us.conj().T, u)
    unorm2 = float(np.linalg.norm(u) ** 2)
    out_of_range = max(unorm2 - float(np.linalg.norm(coefs) ** 2), 0.0)

    def discrepancy_sq(a):
        return float(np.sum((a / (s**2 + a)) ** 2 * np.abs(coefs) ** 2) + out_of_range)

    meta = {"singular_value_max": float(s[0])}
    if mode == "exact":
        keep = s > 1e-12 * s[0]
        filtered = np.where(keep, coefs / np.where(keep, s, 1.0), 0.0)
        meta["truncated"] = int(np.sum(~keep))
        # the noise amplification of the pseudoinverse: s is sorted descending
        meta["condition_kept"] = float(s[0] / s[keep][-1])
    elif mode == "tikhonov":
        if alpha is None or alpha < 0:
            raise InvalidArgumentError("tikhonov mode needs alpha >= 0")
    elif mode == "morozov":
        if delta is None or delta <= 0:
            raise InvalidArgumentError("morozov mode needs delta > 0")
        if delta >= unorm2:
            raise NumericFailureError(
                f"delta={delta} >= ||u||^2={unorm2}: the zero solution already over-fits")
        lo, hi = 1e-14 * s[0] ** 2, 1e6 * s[0] ** 2
        if discrepancy_sq(lo) > 1.1 * delta:
            raise NumericFailureError(
                f"delta={delta} below the minimum achievable discrepancy {discrepancy_sq(lo)}")
        # bisect log alpha to rounding: the root, or the bracket end nearest it
        while lo < (alpha := np.sqrt(lo * hi)) < hi:
            if discrepancy_sq(alpha) > delta:
                hi = alpha
            else:
                lo = alpha
        meta["delta"] = float(delta)
        meta["discrepancy_sq"] = discrepancy_sq(alpha)
    else:
        raise InvalidArgumentError(f"unknown l2 mode {mode!r}")
    if mode != "exact":
        filtered = s / (s**2 + alpha) * coefs
        meta["alpha"] = float(alpha)
    g = zgemv(1.0, Vh.conj().T, filtered)
    meta["residual"] = float(np.linalg.norm(zgemv(1.0, A.T, g, trans=1) - u))
    return ImagingResult(values=g, metadata=meta)


def _soft_threshold(x: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """x (|x| - t)/|x| where |x| > t, and exact zeros elsewhere, with the mask
    |x| > t. The mask is the support of the result unless a scaled entry
    underflows to zero, which leaves a zero column in a support product."""
    mag = np.abs(x)
    over = mag > t
    on = over.nonzero()[0]
    mag_on = mag[on]
    g = np.zeros(x.shape, dtype=x.dtype)
    g[on] = x[on] * ((mag_on - t) / mag_on)
    return g, over


class _SupportProduct:
    """x -> M @ x over the columns on the support S of x, M[:, S] @ x[S], or
    over those of the mask `on` when it is given. The block M[:, S] is
    gathered again only when S changes, always into the one buffer, so that
    no two blocks are ever alive at once."""

    def __init__(self, M: np.ndarray):
        self.M, self.key = M, None
        self.buffer = np.empty(M.size, dtype=M.dtype)

    def __call__(self, x: np.ndarray, on: Optional[np.ndarray] = None) -> np.ndarray:
        if on is None:
            on = x != 0
        if (key := on.tobytes()) != self.key:
            self.key, self.support = key, on.nonzero()[0]
            n, k = self.M.shape[0], self.support.size
            self.block = self.buffer[:n * k].reshape(n, k)
            # the indices are in range; mode "raise" would gather into a temporary first
            np.take(self.M, self.support, axis=1, out=self.block, mode="clip")
        if not self.support.size:   # f2py's zgemv refuses an empty vector
            return np.zeros(self.M.shape[0], dtype=complex)
        return zgemv(1.0, self.block.T, x[self.support], trans=1)


def l1_zero_threshold(fmap: ForwardMap, u: np.ndarray) -> float:
    """max|A^H u| (see l1_reconstruct): g = 0 is the minimizer exactly when
    mu >= this."""
    return float(np.max(np.abs(zgemv(1.0, fmap.matrix.conj().T, u))))


def l1_reconstruct(fmap: ForwardMap, u: np.ndarray, mu: float,
                   max_iters: int = 2000, tol: float = 1e-10) -> ImagingResult:
    """Accelerated proximal-gradient (FISTA) minimization of
    (1/2)||A g - u||^2 + mu ||g||_1, with A the forward matrix.

    The gradient is taken in Gram form, Q y - c with Q = A^H A and c = A^H u
    formed once, and the momentum restarts whenever the objective rises
    (O'Donoghue & Candes 2015). Both iterates are sparse, so each iteration
    multiplies only the columns of Q on the support of y and those of A on
    the support of g. The run stops when the objective changes by at most tol
    relative. The metadata records the final objective (that of g = 0
    when max_iters is 0), the number of restarts, and the optimality `gap`:
    the largest violation of the subgradient condition A^H(u - A g) in
    mu * sign(g), over mu."""
    if mu <= 0:
        raise InvalidArgumentError("mu must be positive")
    A = fmap.matrix
    L = float(scipy.linalg.svdvals(A, check_finite=False)[0] ** 2)
    if L == 0:
        raise InvalidArgumentError("forward map is identically zero")
    AH = A.conj().T
    Q, c = zgemm(1.0, AH, A), zgemv(1.0, AH, u)
    del AH   # not kept through the loop, where the column buffers take its place
    Qy, Ag = _SupportProduct(Q), _SupportProduct(A)

    def objective(g, on=None):
        r = Ag(g, on)
        r -= u
        # np.linalg.norm's own arithmetic, in numpy's BLAS
        norm = np.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))
        return 0.5 * float(norm ** 2) + mu * float(np.abs(g).sum())

    g = np.zeros(A.shape[1], dtype=complex)
    y = g.copy()
    t = 1.0
    obj = objective(g)
    converged = False
    iters = restarts = 0
    for iters in range(1, max_iters + 1):
        x = Qy(y)          # x = y - (Q y - c)/L, in place
        x -= c
        x /= L
        np.subtract(y, x, out=x)
        g_new, on = _soft_threshold(x, mu / L)
        obj_new = objective(g_new, on)
        if obj_new > obj:
            t, y = 1.0, g_new
            restarts += 1
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t**2))
            y = g_new - g
            y *= (t - 1.0) / t_new
            y += g_new
            t = t_new
        g, obj, obj_prev = g_new, obj_new, obj
        if iters > 1 and abs(obj_prev - obj) <= tol * max(obj, 1e-300):
            converged = True
            break
    fit = zgemv(1.0, A.T, g, trans=1)   # A g, for both the gap and the residual
    r = zgemv(1.0, A.conj().T, u - fit)
    on = g != 0
    gap = max(np.max(np.abs(r[on] - mu * g[on] / np.abs(g[on])), initial=0.0),
              np.max(np.abs(r[~on]) - mu, initial=0.0)) / mu
    residual = float(np.linalg.norm(fit - u))
    return ImagingResult(values=g, metadata={"mu": float(mu), "iterations": iters,
                                             "converged": bool(converged),
                                             "residual": residual,
                                             "objective": obj, "gap": float(gap),
                                             "restarts": restarts})


@dataclass(frozen=True)
class ResolutionMetrics:
    localization_errors: Tuple[float, ...]
    support_f1: float
    separation: float
    empty: bool = False
    recovered: bool = False


def find_peaks(values: np.ndarray, grid: DomainGrid) -> List[int]:
    """Local maxima of |values|, at least a tenth of the max, over the
    neighborhood of radius 1.5 cells."""
    mag = np.abs(values)
    top = float(mag.max()) if mag.size else 0.0
    if top == 0.0:
        return []
    rad = 1.5 * grid.cell_size
    peaks = []
    candidates = np.nonzero(mag >= 0.1 * top)[0]
    for i in candidates:
        d = np.linalg.norm(grid.points - grid.points[i], axis=1)
        nbrs = np.nonzero((d <= rad) & (d > 0))[0]
        if np.all(mag[i] >= mag[nbrs]):
            peaks.append(int(i))
    return peaks


def resolution_metrics(values: np.ndarray, truth, grid: DomainGrid) -> ResolutionMetrics:
    """Per-source nearest-peak distances of an image, a one-cell-matching F1
    score and whether every source is matched (`recovered`); truth is a
    sequence of (location, amplitude) pairs."""
    locs = [np.asarray(loc, dtype=float) for loc, _ in truth]
    if len(locs) >= 2:
        sep = min(float(np.linalg.norm(a - b))
                  for i, a in enumerate(locs) for b in locs[i + 1:])
    else:
        sep = float("inf")
    peaks = find_peaks(values, grid)
    if not peaks:
        return ResolutionMetrics(localization_errors=(), support_f1=0.0,
                                 separation=sep, empty=True)
    peak_pts = grid.points[peaks]
    errors = []
    matched_truth = 0
    used_peaks = set()
    cell = grid.cell_size * (1.0 + 1e-9)
    for loc in locs:
        d = np.linalg.norm(peak_pts - loc[None, :], axis=1)
        j = int(np.argmin(d))
        errors.append(float(d[j]))
        if d[j] <= cell:
            matched_truth += 1
            used_peaks.add(j)
    precision = len(used_peaks) / len(peaks)
    recall = matched_truth / len(locs)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return ResolutionMetrics(localization_errors=tuple(errors), support_f1=float(f1),
                             separation=sep, recovered=matched_truth == len(locs))
