"""Checks on the outputs of each benchmark operation.

Each check compares an output with the benchmark's own reference computation
(reference.py) or with a property the method must have. None compares with a
stored copy of earlier output. A check returns the list of its failures;
an empty list means the operation's outputs are correct.
"""

from __future__ import annotations

import csv
import json
from functools import cache

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import j0

import reference as ref

# Tolerances, set from the margins measured on the library (in brackets):
L1_ON_SUPPORT = 1e-4        # |c_i - mu g_i/|g_i|| / mu on the support   [7e-7]
L1_OFF_SUPPORT = 1e-6       # |c_i| <= mu (1 + .) off the support        [max 0.99 mu]
L2_RESIDUAL = 1e-11         # ||A g - u|| / ||u|| for exact L2           [1e-13]
FIELD_RTOL = 1e-11          # fields against the reference solve          [1e-13]
EIG_RTOL = 1e-12             # matched eigenvalues / max |lambda|          [1e-15]
MASS_RTOL = 1e-12            # Parseval identity of the alpha coefficients [1e-14]
SCHUR_RTOL = 1e-12           # alpha/beta structure, relative to the max   [5e-16]
GRAM_ATOL = 1e-10            # unit diagonal of the mode Gram matrix       [7e-15]
HK_RATIO = (0.24, 0.26)     # residual ratio of a radius doubling, 1/R^2 decay


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _columns(path, *names):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", usecols=[header.index(n) for n in names], ndmin=2)
    return list(data.T)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


@cache
def _operator(k, dim, cells, radius, n_value):
    pts, w, h = ref.lattice(dim, cells, radius)
    n = np.full(len(pts), n_value)
    return pts, w, h, n, ref.volume_matrix(pts, w, n, k, dim)


def _op(cfg):
    w, d = cfg["wave"], cfg["domain"]
    return _operator(w["k"], w["dim"], d["cells"], d["radius"], float(cfg["profile"]["value"]))


@cache
def _forward(k, dim, cells, radius, n_value, tau, R, m):
    """Far-field forward map A (quadrature weights folded in) and its kernel."""
    pts, w, h, n, M = _operator(k, dim, cells, radius, n_value)
    G = ref.green_columns(M, n, w, tau)
    ext, _ = ref.circle(R, m)
    K = ref.far_field(ext, pts, w, n, k, dim, tau, G)
    return K * w[None, :], K


def _forward_map(cfg):
    w, d, s = cfg["wave"], cfg["domain"], cfg["surface"]
    return _forward(w["k"], w["dim"], d["cells"], d["radius"], float(cfg["profile"]["value"]),
                    float(cfg["contrast"]["tau"]), s["radius"], s["points"])


def _complex_result(path):
    re, im = _columns(path, "re", "im")
    return re + 1j * im


def _local_peaks(mag, pts, h):
    """Indices that are maxima of |g| over their 1.5-cell neighbourhood,
    above a tenth of the largest value."""
    top = float(mag.max())
    peaks = []
    for i in np.nonzero(mag >= 0.1 * top)[0]:
        d = np.sqrt(np.sum((pts - pts[i]) ** 2, axis=1))
        if np.all(mag[i] >= mag[(d <= 1.5 * h) & (d > 0)]):
            peaks.append(i)
    return np.array(peaks, dtype=int)


def check_image(out, cfg):
    fails = []
    pts, _, h, _, _ = _op(cfg)
    A, K = _forward_map(cfg)
    src = [ref.nearest(pts, s["location"]) for s in cfg["sources"]]
    u = sum(complex(*s["amplitude"]) * K[:, j] for s, j in zip(cfg["sources"], src))
    mu = cfg["methods"]["l1"]["mu_rel"] * float(np.max(np.abs(A.conj().T @ u)))

    g = _complex_result(out / "result_l1.csv")
    c = A.conj().T @ (u - A @ g)
    on = np.abs(g) > 0
    on_err = float(np.max(np.abs(c[on] - mu * g[on] / np.abs(g[on])), initial=0.0)) / mu
    off_max = float(np.max(np.abs(c[~on]), initial=0.0)) / mu
    if not on.any():
        fails.append("l1: empty support")
    if on_err > L1_ON_SUPPORT:
        fails.append(f"l1: on-support subgradient error {on_err:.3g} mu")
    if off_max > 1.0 + L1_OFF_SUPPORT:
        fails.append(f"l1: off-support |A^H r| reaches {off_max:.6g} mu")
    peaks = _local_peaks(np.abs(g), pts, h)
    for j in src:
        d = np.sqrt(np.sum((pts[peaks] - pts[j]) ** 2, axis=1)) if len(peaks) else [np.inf]
        if np.min(d) > h * (1 + 1e-9):
            fails.append(f"l1: no peak within one cell of source at {pts[j]}")

    g2 = _complex_result(out / "result_l2.csv")
    resid = float(np.linalg.norm(A @ g2 - u) / np.linalg.norm(u))
    if resid > L2_RESIDUAL:
        fails.append(f"l2: exact solution leaves residual {resid:.3g} ||u||")

    tr = _complex_result(out / "result_time_reversal.csv")
    _, ws = ref.circle(cfg["surface"]["radius"], cfg["surface"]["points"])
    err = _rel(tr, -(K.conj().T @ (u * ws)))
    if err > FIELD_RTOL:
        fails.append(f"time_reversal: differs from backpropagation by {err:.3g}")
    return fails


def check_sweep(out, cfg):
    rows = _rows(out / "sweep.csv")
    media = cfg["separation"]["media"]
    seps = cfg["separation"]["values"]
    if len(rows) != len(media) * len(seps):
        return [f"sweep: {len(rows)} rows, expected {len(media) * len(seps)}"]
    fails = []
    for r in rows:
        if r["medium_tag"] == "high_contrast" and r["success_flag"] != "true":
            fails.append(f"sweep: high contrast fails at separation {r['separation']}")
    return fails


def _matched(values, want):
    """Largest distance between two multisets of complex numbers under their
    optimal matching, relative to max |want|."""
    cost = np.abs(values[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max() / np.abs(want).max())


def check_spectrum(out, cfg):
    pts, w, h, n, M = _op(cfg)
    re, im = _columns(out / "spectrum.csv", "re", "im")
    lam = re + 1j * im
    want = np.linalg.eigvals(M)
    if lam.size != want.size:
        return [f"spectrum: {lam.size} eigenvalues, expected {want.size}"]
    err = _matched(lam, want)
    return [f"spectrum: eigenvalues differ from the reference by {err:.3g}"] if err > EIG_RTOL else []


def _coefficients(path, size):
    """size x size matrix from (gamma_row, gamma_col, re, im) rows, which must
    name every index pair exactly once and hold finite values."""
    i, j, re, im = _columns(path, "gamma_row", "gamma_col", "re", "im")
    flat = i * size + j
    if (re.size != size**2 or not np.all(np.isfinite(re + im))
            or not np.array_equal(np.sort(flat), np.arange(size**2))):
        raise ValueError(f"{path.name}: not every ({size} x {size}) index pair once "
                         "with a finite value")
    C = np.empty((size, size), dtype=complex)
    C[i.astype(int), j.astype(int)] = re + 1j * im
    return C


def check_expand(out, cfg):
    fails = []
    pts, w, h, n, M = _op(cfg)
    N = len(pts)
    tau = float(cfg["contrast"]["tau"])
    # X = W^1/2 (G - G0) diag(n) W^1/2 = Q alpha Q^H with Q = W^1/2 E unitary,
    # and E comes from a QR in the eigenvalue order, so alpha is a Schur form
    # of X: upper triangular, with the eigenvalues of X on its diagonal and
    # sum |alpha|^2 = ||X||_F^2, however E spans a degenerate eigenspace.
    s = np.sqrt(w)
    X = s[:, None] * (ref.green_columns(M, n, w, tau) - ref.free_green(M, n, w)) \
        * (n * s)[None, :]
    alpha = _coefficients(out / "alpha.csv", N)
    scale = float(np.max(np.abs(alpha)))
    lower = float(np.max(np.abs(np.tril(alpha, -1)))) / scale
    if lower > SCHUR_RTOL:
        fails.append(f"alpha: not upper triangular (|lower| up to {lower:.3g} max |alpha|)")
    err = _matched(np.diag(alpha), np.linalg.eigvals(X))
    if err > EIG_RTOL:
        fails.append(f"alpha: diagonal differs from the eigenvalues of X by {err:.3g}")
    mass, want = float(np.sum(np.abs(alpha) ** 2)), float(np.sum(np.abs(X) ** 2))
    if abs(mass - want) > MASS_RTOL * want:
        fails.append(f"alpha: sum |alpha|^2 = {mass!r}, reference {want!r}")
    # beta = A alpha A^H with alpha = B diag(alpha) B^-1 and B^H B = U^H W U,
    # the Gram matrix of the unit-norm modes: diag(alpha)^-1 beta is its
    # inverse (Hermitian, unit diagonal once inverted), and the Cholesky
    # factor B of that Gram matrix takes beta back to alpha.
    beta = _coefficients(out / "beta.csv", N)
    P = beta / np.diag(alpha)[:, None]
    herm = float(np.max(np.abs(P - P.conj().T)) / np.max(np.abs(P)))
    if herm > SCHUR_RTOL:
        fails.append(f"beta: diag(alpha)^-1 beta is not Hermitian ({herm:.3g})")
    else:
        gram = np.linalg.inv(P)
        gram = 0.5 * (gram + gram.conj().T)
        unit = float(np.max(np.abs(np.diag(gram) - 1.0)))
        B = np.linalg.cholesky(gram).conj().T
        back = float(np.max(np.abs(B @ beta @ B.conj().T - alpha))) / scale
        if unit > GRAM_ATOL or back > SCHUR_RTOL:
            fails.append(f"beta: mode Gram diagonal off 1 by {unit:.3g}, "
                         f"B beta B^H differs from alpha by {back:.3g}")
    man = json.loads((out / "manifest.json").read_text())
    if not man["oracle_rel_error_alpha"] <= 1e-7:
        fails.append(f"manifest: alpha oracle error {man['oracle_rel_error_alpha']}")
    if not man["oracle_rel_error_beta"] <= 1e-6:
        fails.append(f"manifest: beta oracle error {man['oracle_rel_error_beta']}")
    rank, err = _columns(out / "truncation_curve.csv", "rank", "rel_error")
    if rank[0] != 0 or abs(err[0] - 1.0) > 1e-12:
        fails.append(f"truncation curve starts at rank {rank[0]} with {err[0]!r}")
    if rank[-1] != N or not err[-1] <= 1e-7:
        fails.append(f"truncation curve ends at rank {rank[-1]} with {err[-1]!r}")
    return fails


def _line(cfg, pts, h):
    """Grid nodes on the profile line through x0, with their signed offsets."""
    x0 = ref.nearest(pts, cfg["psf"]["x0"])
    d = np.asarray(cfg["psf"]["direction"], dtype=float)
    d /= np.linalg.norm(d)
    rel = pts - pts[x0]
    t = rel @ d
    on = np.linalg.norm(rel - np.outer(t, d), axis=1) < 0.51 * h
    idx = np.nonzero(on)[0]
    order = np.argsort(t[idx])
    return x0, idx[order], t[idx][order]


def check_psf(out, cfg):
    fails = []
    pts, w, h, n, M = _op(cfg)
    k, dim = cfg["wave"]["k"], cfg["wave"]["dim"]
    x0, idx, t = _line(cfg, pts, h)
    r, v = _columns(out / "psf_homogeneous.csv", "r", "value")
    if r.size != t.size or np.max(np.abs(r - t)) > 1e-12:
        return [f"psf: profile radii differ from the grid line through x0 ({r.size} vs {t.size})"]
    far = t != 0
    kr = k * np.abs(t[far])
    exact = -0.25 * j0(kr) if dim == 2 else -k * np.sinc(kr / np.pi) / (4.0 * np.pi)
    err = _rel(v[far], exact)
    if err > FIELD_RTOL:
        fails.append(f"psf: homogeneous profile differs from Im g0 by {err:.3g}")
    tau = float(cfg["contrast"]["tau"])
    G = ref.green_columns(M, n, w, tau, cols=[x0])[:, 0]
    rc, vc = _columns(out / "psf_high_contrast.csv", "r", "value")
    same_line = rc.size == t.size and np.max(np.abs(rc - t)) <= 1e-12
    err = _rel(vc, np.imag(G[idx])) if same_line else np.inf
    if err > FIELD_RTOL:
        fails.append(f"psf: high-contrast profile differs from the reference solve by {err:.3g}")
    rep = json.loads((out / "fwhm_report.json").read_text())
    if not rep.get("ratio", np.inf) < 1.0:
        fails.append(f"psf: FWHM ratio {rep.get('ratio')} is not below 1")
    return fails


def check_hk(out, cfg):
    ratios = [float(r["ratio"]) for r in _rows(out / "hk.csv")[1:]]
    lo, hi = HK_RATIO
    if len(ratios) != len(cfg["hk"]["radii"]) - 1 or not all(lo <= q <= hi for q in ratios):
        return [f"hk: ratios {ratios} outside [{lo}, {hi}]"]
    return []


CHECKS = {"image": check_image, "sweep-separation": check_sweep,
          "spectrum": check_spectrum, "expand": check_expand,
          "psf": check_psf, "hk-check": check_hk}


def check(op, out):
    """Failures of one operation's outputs; a check that raises is a failure."""
    try:
        return CHECKS[op.command](out, op.config)
    except Exception as exc:  # a missing or malformed output file
        return [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
