"""Configuration-driven command line front end.

Commands read a YAML scenario file, validate it (unknown keys rejected, module
preconditions checked before any computation), run the pipeline, and write
plot-ready CSV files plus a manifest.json that pins the config hash, library
version, seed, and every tolerance used. Reruns with the same config are
byte-identical.

Exit codes: 0 success, 1 numeric/runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import (
    DiscrepancyInfeasibleError,
    InvalidArgumentError,
    NumericFailureError,
    ResonanceProximityError,
)
from .expansion import (
    GreenField,
    beta_expansion,
    expansion_oracle_error,
    psf_profile,
    truncation_error_curve,
)
from .grids import (
    ConstantProfile,
    RadialBumpProfile,
    WaveContext,
    build_ball_grid,
    build_disk_grid,
    build_measurement_surface,
    sample_profile,
)
from .imaging import (
    PointSources,
    build_forward_map,
    homogeneous_hk_residual,
    l1_reconstruct,
    l2_minimum_norm,
    resolution_metrics,
    synthesize_data,
    time_reversal,
)
from .io import config_hash, fmt, write_csv, write_json
from .kernels import im_g0_from_distance
from .spectral import eigendecompose
from .volume import assemble_kd, g0_column, solve_green_direct


class ConfigError(Exception):
    pass


# allowed keys per section; nested dict means sub-schema
_SCHEMA = {
    "wave": {"k", "dim"},
    "domain": {"shape", "radius", "cells"},
    "profile": {"kind", "value", "center", "width", "peak"},
    "contrast": {"tau", "sweep"},
    "surface": {"radius", "points"},
    "sources": None,                      # list, validated separately
    "methods": {"time_reversal", "l2", "l1"},
    "psf": {"x0", "direction"},
    "hk": {"radii", "x", "y", "points"},
    "separation": {"values", "media", "mu_rel", "axis_offset", "max_iters", "tol"},
    "noise": {"level"},
    "seed": None,
}
_METHOD_SCHEMA = {
    "time_reversal": set(),
    "l2": {"mode", "alpha", "delta", "delta_rel"},
    "l1": {"mode", "mu", "mu_rel", "max_iters", "tol"},
}

RESONANCE_TOL = 1e-8
L1_DEFAULT_TOL = 1e-12
L1_DEFAULT_MAX_ITERS = 30000


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def validate_config(cfg: dict, required=()):
    for key in cfg:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key '{key}'")
        sub = _SCHEMA[key]
        if sub is not None and isinstance(cfg[key], dict):
            for k2 in cfg[key]:
                if k2 not in sub:
                    raise ConfigError(f"unknown config key '{key}.{k2}'")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing required config section '{key}'")
    if "methods" in cfg:
        for name, params in (cfg["methods"] or {}).items():
            if name not in _METHOD_SCHEMA:
                raise ConfigError(f"unknown method '{name}'")
            for k2 in (params or {}):
                if k2 not in _METHOD_SCHEMA[name]:
                    raise ConfigError(f"unknown config key 'methods.{name}.{k2}'")
    if "sources" in cfg:
        if not isinstance(cfg["sources"], list):
            raise ConfigError("'sources' must be a list")
        for i, s in enumerate(cfg["sources"]):
            for k2 in s:
                if k2 not in {"location", "amplitude"}:
                    raise ConfigError(f"unknown config key 'sources[{i}].{k2}'")
            if "location" not in s:
                raise ConfigError(f"sources[{i}] needs a location")


def _ctx(cfg) -> WaveContext:
    w = cfg.get("wave", {})
    return WaveContext(k=float(w.get("k", 1.0)), dim=int(w.get("dim", 2)))


def _grid(cfg, ctx):
    d = cfg["domain"]
    shape = d.get("shape", "disk" if ctx.dim == 2 else "ball")
    radius = float(d.get("radius", 1.0))
    cells = int(d.get("cells", 16))
    if shape == "disk":
        return build_disk_grid(radius, cells, ctx)
    if shape == "ball":
        return build_ball_grid(radius, cells, ctx)
    raise ConfigError(f"unknown domain shape '{shape}'")


def _profile_spec(cfg):
    p = cfg.get("profile", {"kind": "constant", "value": 1.0})
    kind = p.get("kind", "constant")
    if kind == "constant":
        return ConstantProfile(float(p.get("value", 1.0)))
    if kind == "radial_bump":
        return RadialBumpProfile(center=tuple(p.get("center", (0.0, 0.0))),
                                 width=float(p.get("width", 0.5)),
                                 peak=float(p.get("peak", 2.0)))
    raise ConfigError(f"unknown profile kind '{kind}'")


def _surface(cfg, ctx):
    s = cfg.get("surface", {})
    return build_measurement_surface(float(s.get("radius", 100.0)),
                                     int(s.get("points", 64)), ctx)


def _operator(cfg, ctx):
    grid = _grid(cfg, ctx)
    profile = sample_profile(grid, _profile_spec(cfg))
    return grid, profile, assemble_kd(grid, profile, ctx)


def _sources(cfg) -> PointSources:
    out = []
    for s in cfg.get("sources", []):
        loc = tuple(float(v) for v in s["location"])
        amp = s.get("amplitude", [1.0, 0.0])
        out.append((loc, complex(float(amp[0]), float(amp[1]))))
    return PointSources(tuple(out))


def _manifest(cfg, command, extra=None):
    man = {
        "command": command,
        "config_hash": config_hash(cfg),
        "version": __version__,
        "seed": int(cfg.get("seed", 0)),
        "tolerances": {
            "resonance_proximity": RESONANCE_TOL,
            "l1_tol": L1_DEFAULT_TOL,
        },
    }
    if extra:
        man.update(extra)
    return man


def cmd_spectrum(cfg, out: Path):
    ctx = _ctx(cfg)
    _, _, op = _operator(cfg, ctx)
    sys_ = eigendecompose(op)
    rows = []
    for pos, idx in enumerate(sys_.indices):
        lam = sys_.lambdas[pos]
        length = next(n for (j, l, n) in sys_.chains if j == idx.j and l == idx.l)
        rows.append((idx.j, idx.l, idx.k, float(lam.real), float(lam.imag), length))
    write_csv(out / "spectrum.csv",
              ["j", "l", "k", "re", "im", "chain_len"], rows)
    write_json(out / "manifest.json",
               _manifest(cfg, "spectrum", {"n_modes": sys_.size,
                                           "cluster_tol": sys_.cluster_tol,
                                           "warnings": sys_.warnings}))


def cmd_expand(cfg, out: Path):
    ctx = _ctx(cfg)
    _, _, op = _operator(cfg, ctx)
    tau = float(cfg.get("contrast", {}).get("tau", 0.0))
    sys_ = eigendecompose(op)
    co = beta_expansion(sys_, op, tau)
    for name, mat in (("alpha", co.alpha), ("beta", co.beta)):
        if mat is None:
            mat = np.zeros_like(co.alpha)
        rows = [(i, j, float(mat[i, j].real), float(mat[i, j].imag))
                for i in range(mat.shape[0]) for j in range(mat.shape[1])]
        write_csv(out / f"{name}.csv", ["gamma_row", "gamma_col", "re", "im"], rows)
    curve = truncation_error_curve(co, sys_, op, tau, basis="alpha")
    write_csv(out / "truncation_curve.csv", ["rank", "rel_error"], curve)
    extra = {
        "tau": tau,
        "coefficient_mass": float(np.sum(np.abs(co.alpha) ** 2)),
        "oracle_rel_error_alpha": expansion_oracle_error(co, sys_, op, tau, "alpha"),
        "oracle_rel_error_beta": expansion_oracle_error(co, sys_, op, tau, "beta"),
    }
    write_json(out / "manifest.json", _manifest(cfg, "expand", extra))


def cmd_psf(cfg, out: Path):
    ctx = _ctx(cfg)
    grid, _, op = _operator(cfg, ctx)
    p = cfg.get("psf", {})
    x0 = p.get("x0", [0.0] * ctx.dim)
    direction = p.get("direction", [1.0] + [0.0] * (ctx.dim - 1))
    x0_index = grid.nearest_index(x0)
    hom = GreenField(values=g0_column(op, x0_index), tau=0.0, includes_free_part=True)
    prof_h = psf_profile(hom, grid, x0_index, direction)
    oracle = im_g0_from_distance(np.abs(prof_h.radii), ctx)
    write_csv(out / "psf_homogeneous.csv", ["r", "value", "oracle_value"],
              list(zip(prof_h.radii, prof_h.values, np.atleast_1d(oracle))))
    tau = float(cfg.get("contrast", {}).get("tau", 0.0))
    report = {"fwhm_homogeneous": prof_h.fwhm, "tau": tau}
    if tau != 0.0:
        col = solve_green_direct(op, tau, x0_index)
        prof_c = psf_profile(GreenField(values=col, tau=tau, includes_free_part=True),
                             grid, x0_index, direction)
        oracle_c = im_g0_from_distance(np.abs(prof_c.radii), ctx)
        write_csv(out / "psf_high_contrast.csv", ["r", "value", "oracle_value"],
                  list(zip(prof_c.radii, prof_c.values, np.atleast_1d(oracle_c))))
        report["fwhm_high_contrast"] = prof_c.fwhm
        if prof_c.fwhm is not None and prof_h.fwhm:
            report["ratio"] = prof_c.fwhm / prof_h.fwhm
    write_json(out / "fwhm_report.json", report)
    write_json(out / "manifest.json", _manifest(cfg, "psf", {"x0_index": x0_index}))


def _result_rows(values):
    return [(i, float(v.real), float(v.imag), float(abs(v)))
            for i, v in enumerate(values)]


def cmd_image(cfg, out: Path):
    ctx = _ctx(cfg)
    grid, _, op = _operator(cfg, ctx)
    surface = _surface(cfg, ctx)
    tau = float(cfg.get("contrast", {}).get("tau", 0.0))
    fmap = build_forward_map(grid, surface, ctx, tau=tau, op=op if tau else None)
    sources = _sources(cfg)
    if not sources.sources:
        raise ConfigError("'image' needs at least one source")
    seed = int(cfg.get("seed", 0))
    noise = float(cfg.get("noise", {}).get("level", 0.0))
    data = synthesize_data(fmap, sources, noise, seed)
    methods = cfg.get("methods", {"time_reversal": {}})
    metrics = {"noise_level": noise, "seed": seed, "tau": tau,
               "noise_norm": data.noise_norm, "methods": {}}
    for name, params in methods.items():
        params = params or {}
        if name == "time_reversal":
            res = time_reversal(data, fmap)
        elif name == "l2":
            mode = params.get("mode", "exact")
            delta = params.get("delta")
            if delta is None and "delta_rel" in params:
                delta = float(params["delta_rel"]) * float(np.linalg.norm(data.values) ** 2)
            res = l2_minimum_norm(fmap, data, mode=mode,
                                  alpha=params.get("alpha"), delta=delta)
        elif name == "l1":
            mu = params.get("mu")
            if mu is None:
                mu_rel = float(params.get("mu_rel", 0.02))
                mu = mu_rel * float(np.max(np.abs(fmap.matrix.conj().T @ data.values)))
            res = l1_reconstruct(fmap, data, mu=float(mu),
                                 mode=params.get("mode", "penalized"),
                                 max_iters=int(params.get("max_iters", L1_DEFAULT_MAX_ITERS)),
                                 tol=float(params.get("tol", L1_DEFAULT_TOL)))
        else:  # pragma: no cover - schema rejects this earlier
            raise ConfigError(f"unknown method '{name}'")
        write_csv(out / f"result_{name}.csv", ["index", "re", "im", "magnitude"],
                  _result_rows(res.values))
        met = resolution_metrics(res, sources, grid)
        entry = dict(res.metadata)
        entry.pop("support", None)
        entry["localization_errors"] = list(met.localization_errors)
        entry["support_f1"] = met.support_f1
        entry["separation"] = met.separation if np.isfinite(met.separation) else None
        metrics["methods"][name] = entry
    write_json(out / "metrics.json", metrics)
    write_json(out / "manifest.json", _manifest(cfg, "image"))


def cmd_hk_check(cfg, out: Path):
    ctx = _ctx(cfg)
    hk = cfg.get("hk", {})
    radii = hk.get("radii")
    if not radii:
        raise ConfigError("'hk.radii' must be a non-empty list")
    x = np.asarray(hk.get("x", [0.0] * ctx.dim), dtype=float)
    y = np.asarray(hk.get("y", [0.0] * ctx.dim), dtype=float)
    m = int(hk.get("points", 2000))
    rows = []
    prev = None
    for R in radii:
        surf = build_measurement_surface(float(R), m, ctx)
        resid = homogeneous_hk_residual(surf, x, y, ctx)
        ratio = "" if prev is None else fmt(resid / prev)
        rows.append((float(R), resid, ratio))
        prev = resid
    write_csv(out / "hk.csv", ["R", "residual", "ratio"], rows)
    write_json(out / "manifest.json", _manifest(cfg, "hk-check", {"m": m}))


def cmd_sweep_separation(cfg, out: Path):
    ctx = _ctx(cfg)
    grid, _, op = _operator(cfg, ctx)
    surface = _surface(cfg, ctx)
    sep_cfg = cfg.get("separation", {})
    values = sep_cfg.get("values")
    if not values:
        raise ConfigError("'separation.values' must be a non-empty list")
    media = sep_cfg.get("media", ["homogeneous", "high_contrast"])
    tau = float(cfg.get("contrast", {}).get("tau", 0.0))
    mu_rel = float(sep_cfg.get("mu_rel", 0.02))
    max_iters = int(sep_cfg.get("max_iters", L1_DEFAULT_MAX_ITERS))
    tol = float(sep_cfg.get("tol", L1_DEFAULT_TOL))
    offset = float(sep_cfg.get("axis_offset", grid.cell_size / 2))
    seed = int(cfg.get("seed", 0))
    noise = float(cfg.get("noise", {}).get("level", 0.0))
    rows = []
    for medium in media:
        t = 0.0 if medium == "homogeneous" else tau
        if medium not in ("homogeneous", "high_contrast"):
            raise ConfigError(f"unknown medium '{medium}'")
        fmap = build_forward_map(grid, surface, ctx, tau=t, op=op if t else None)
        for sep in values:
            sep = float(sep)
            a = grid.points[grid.nearest_index([-sep / 2, offset][: ctx.dim])]
            b = grid.points[grid.nearest_index([+sep / 2, offset][: ctx.dim])]
            src = PointSources(((tuple(a), 1.0 + 0.0j), (tuple(b), 1.0 + 0.0j)))
            data = synthesize_data(fmap, src, noise, seed)
            mu = mu_rel * float(np.max(np.abs(fmap.matrix.conj().T @ data.values)))
            res = l1_reconstruct(fmap, data, mu=mu, max_iters=max_iters, tol=tol)
            met = resolution_metrics(res, src, grid)
            err = max(met.localization_errors) if met.localization_errors else float("inf")
            success = (not met.empty) and err <= grid.cell_size * (1 + 1e-9)
            rows.append((sep, medium, err, success))
    write_csv(out / "sweep.csv",
              ["separation", "medium_tag", "localization_error", "success_flag"], rows)
    write_json(out / "manifest.json", _manifest(cfg, "sweep-separation"))


_COMMANDS = {
    "spectrum": (cmd_spectrum, ("wave", "domain")),
    "expand": (cmd_expand, ("wave", "domain", "contrast")),
    "psf": (cmd_psf, ("wave", "domain")),
    "image": (cmd_image, ("wave", "domain", "surface", "sources")),
    "hk-check": (cmd_hk_check, ("wave", "hk")),
    "sweep-separation": (cmd_sweep_separation, ("wave", "domain", "surface", "separation")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="resonat",
                                     description="high-contrast resonance experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    func, required = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        validate_config(cfg, required)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        func(cfg, out)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"resonat: config error: {exc}", file=sys.stderr)
        return 2
    except (ResonanceProximityError, NumericFailureError,
            DiscrepancyInfeasibleError, np.linalg.LinAlgError) as exc:
        print(f"resonat: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
