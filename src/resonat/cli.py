"""Configuration-driven command line front end.

Commands read a YAML scenario file and turn it into a typed, default-filled
config with read_config, which rejects unknown keys and malformed values
before anything is computed. They then run the pipeline and write plot-ready
CSV files plus a manifest.json that pins the config hash, library version,
seed, and every tolerance used. Reruns with the same config are
byte-identical.

Exit codes: 0 success, 1 numeric/runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
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
    alpha_expansion,
    beta_expansion,
    expansion_errors,
    psf_profile,
    truncation_error_curve,
    truncation_ranks,
    weighted_frobenius,
)
from .grids import (
    WaveContext,
    build_ball_grid,
    build_disk_grid,
    build_measurement_surface,
    radial_bump,
)
from .imaging import (
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
from .volume import RESONANCE_TOL, assemble_kd, green_matrix


class ConfigError(Exception):
    pass


REQUIRED = object()   # default of a key that must be given
OPTIONAL = object()   # default of a sub-table that is left out when not given


def _of_type(value, types):
    """The value itself if its YAML type is one of `types`; a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(value)
    return value


def _float(value):
    """a finite number"""
    out = float(_of_type(value, (int, float)))
    if not math.isfinite(out):
        raise ValueError(out)
    return out


def _positive(value):
    """a positive number"""
    out = _float(value)
    if not out > 0:
        raise ValueError(out)
    return out


def _int(value):
    """an integer"""
    out = int(_of_type(value, (int, float)))
    if out != value:
        raise ValueError(value)
    return out


def _vector(value):
    """a list of wave.dim numbers"""
    return tuple(_float(v) for v in _of_type(value, list))


def _complex(value):
    """a [re, im] pair of numbers"""
    re, im = _of_type(value, list)
    return complex(_float(re), _float(im))


def _zeros(cfg):
    return [0.0] * cfg["wave"]["dim"]


# The config format. Each table maps key -> (kind, default). A kind is a
# converter, a tuple of allowed names, a sub-table (dict), or [kind] for a
# non-empty list of that kind. A key that is not given takes its default: a
# function of the config read so far (sections are read in table order), None,
# REQUIRED, OPTIONAL, or a value read as if it had been given.
_L1_SOLVE = {"mu_rel": (_float, 0.02), "max_iters": (_int, 30000), "tol": (_float, 1e-12)}
_TABLE = {
    "wave": ({"k": (_float, 1.0), "dim": (_int, 2)}, {}),
    "domain": ({"shape": (("disk", "ball"), lambda c: "disk" if c["wave"]["dim"] == 2 else "ball"),
                "radius": (_float, 1.0),
                "cells": (_int, 16)}, {}),
    "profile": ({"kind": (("constant", "radial_bump"), "constant"),
                 "value": (_float, 1.0),
                 "center": (_vector, _zeros),
                 "width": (_float, 0.5),
                 "peak": (_float, 2.0)}, {}),
    "contrast": ({"tau": (_float, 0.0)}, {}),
    "surface": ({"radius": (_float, 100.0), "points": (_int, 64)}, {}),
    "sources": ([{"location": (_vector, REQUIRED),
                  "amplitude": (_complex, [1.0, 0.0])}], OPTIONAL),
    "methods": ({"time_reversal": ({}, OPTIONAL),
                 "l2": ({"mode": (("exact", "tikhonov", "morozov"), "exact"),
                         "alpha": (_float, None),
                         "delta": (_float, None),
                         "delta_rel": (_float, None)}, OPTIONAL),
                 "l1": ({"mode": (("penalized", "normal_equation"), "penalized"),
                         "mu": (_float, None),
                         **_L1_SOLVE}, OPTIONAL)}, {"time_reversal": {}}),
    "psf": ({"x0": (_vector, _zeros),
             "direction": (_vector, lambda c: [1.0] + _zeros(c)[1:])}, {}),
    "hk": ({"radii": ([_float], REQUIRED),
            "x": (_vector, _zeros),
            "y": (_vector, _zeros),
            "points": (_int, 2000)}, OPTIONAL),
    # the default axis offset is half a cell; cells < 2 is refused by the grid
    "separation": ({"values": ([_positive], REQUIRED),
                    "media": ([("homogeneous", "high_contrast")], ["homogeneous", "high_contrast"]),
                    "axis_offset": (_float, lambda c: c["domain"]["radius"]
                                    / max(c["domain"]["cells"], 1)),
                    **_L1_SOLVE}, OPTIONAL),
    "noise": ({"level": (_float, 0.0)}, {}),
    "seed": (_int, 0),
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        # PyYAML's own message spans several lines; a config error is one line
        detail = (f"line {mark.line + 1}, column {mark.column + 1}: {problem}"
                  if mark and problem else " ".join(str(exc).split()))
        raise ConfigError(f"config is not valid YAML: {detail}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _read(kind, value, path, cfg):
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be a mapping, got {value!r}")
        return _read_table(kind, value, path + ".", cfg, {})
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{path}' must be a non-empty list, got {value!r}")
        return [_read(kind[0], v, f"{path}[{i}]", cfg) for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"'{path}' must be one of {', '.join(kind)}, got {value!r}")
        return value
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{path}' must be {kind.__doc__}, got {value!r}") from None
    if kind is _vector and len(out) != cfg["wave"]["dim"]:
        raise ConfigError(f"'{path}' must have wave.dim = {cfg['wave']['dim']} components, "
                          f"got {value!r}")
    return out


def _read_table(table, raw, prefix, cfg, out):
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
    for key, (kind, default) in table.items():
        if key in raw:
            out[key] = _read(kind, raw[key], prefix + key, cfg)
        elif default is REQUIRED:
            raise ConfigError(f"missing required config key '{prefix}{key}'")
        elif default is not OPTIONAL:
            value = default(cfg) if callable(default) else default
            out[key] = None if value is None else _read(kind, value, prefix + key, cfg)
    return out


def read_config(raw: dict, required=()) -> dict:
    """The typed, default-filled config of a YAML mapping; raises ConfigError.

    `required` names the sections a command needs. A section that is not
    given reads as empty, except hk, separation and sources, which are then
    left out.
    """
    for name in required:
        if name not in raw:
            raise ConfigError(f"missing required config section '{name}'")
    cfg = {}
    return _read_table(_TABLE, raw, "", cfg, cfg)


def _operator(cfg):
    ctx = WaveContext(**cfg["wave"])
    d, p = cfg["domain"], cfg["profile"]
    build_grid = build_disk_grid if d["shape"] == "disk" else build_ball_grid
    grid = build_grid(d["radius"], d["cells"], ctx)
    n = (np.full(grid.n_points, p["value"]) if p["kind"] == "constant" else
         radial_bump(grid.points, p["center"], p["width"], p["peak"]))
    return ctx, grid, assemble_kd(grid, n, ctx)


def _relative_mu(mu_rel, fmap, u):
    """The L1 weight mu_rel * max|A^H u|; at mu_rel = 1 the solution is zero."""
    return mu_rel * float(np.max(np.abs(fmap.matrix.conj().T @ u)))


def cmd_spectrum(cfg, out: Path):
    _, _, op = _operator(cfg)
    sys_ = eigendecompose(op)
    lengths = np.diff(sys_.chain_starts())
    chain_len = np.repeat(lengths, lengths).tolist()   # per column
    rows = [(j, l, k, float(lam.real), float(lam.imag), n)
            for (j, l, k), lam, n in zip(sys_.indices, sys_.lambdas, chain_len)]
    write_csv(out / "spectrum.csv",
              ["j", "l", "k", "re", "im", "chain_len"], rows)
    return {"n_modes": sys_.size, "cluster_tol": sys_.cluster_tol, "warnings": sys_.warnings}


def cmd_expand(cfg, out: Path):
    _, _, op = _operator(cfg)
    tau = cfg["contrast"]["tau"]
    sys_ = eigendecompose(op)
    alpha = alpha_expansion(sys_, tau)
    beta = beta_expansion(sys_, alpha)
    # one Python int per index, shared by the rows: N^2 distinct ints would
    # add 28 bytes a row to the writers' peak memory
    index = np.arange(alpha.shape[0]).astype(object)
    row, col = np.repeat(index, len(index)).tolist(), np.tile(index, len(index)).tolist()
    for name, mat in (("alpha", alpha), ("beta", beta)):
        rows = list(zip(row, col, mat.real.ravel().tolist(), mat.imag.ravel().tolist()))
        write_csv(out / f"{name}.csv", ["gamma_row", "gamma_col", "re", "im"], rows)
    # solved after the writers, so that the N x N result is not alive at their peak
    direct = green_matrix(op, tau)
    N = sys_.size
    errors = expansion_errors(sys_.E, alpha, op, direct, truncation_ranks(N))
    write_csv(out / "truncation_curve.csv", ["rank", "rel_error"], truncation_error_curve(errors))
    scale = weighted_frobenius(direct, op.weights)
    return {
        "tau": tau,
        "coefficient_mass": float(np.sum(np.abs(alpha) ** 2)),
        "oracle_rel_error_alpha": errors[N] / scale,
        "oracle_rel_error_beta": expansion_errors(sys_.U, beta, op, direct, [N])[N] / scale,
        # >= ||A B||_F = sqrt(N); Frobenius norms, since 2-norms would need two more SVDs
        "eigenbasis_condition": float(np.linalg.norm(sys_.A) * np.linalg.norm(sys_.B)),
    }


def cmd_psf(cfg, out: Path):
    ctx, grid, op = _operator(cfg)
    direction = cfg["psf"]["direction"]
    x0_index = grid.nearest_index(cfg["psf"]["x0"])
    tau = cfg["contrast"]["tau"]
    report = {"tau": tau}
    # at tau = 0 the Green column is the free-kernel column
    for medium, t in [("homogeneous", 0.0)] + ([("high_contrast", tau)] if tau else []):
        prof = psf_profile(green_matrix(op, t, x0_index), grid, x0_index, direction)
        oracle = im_g0_from_distance(np.abs(prof.radii), ctx)
        write_csv(out / f"psf_{medium}.csv", ["r", "value", "oracle_value"],
                  list(zip(prof.radii, prof.values, np.atleast_1d(oracle))))
        report[f"fwhm_{medium}"] = prof.fwhm
    if report.get("fwhm_high_contrast") is not None and report["fwhm_homogeneous"]:
        report["ratio"] = report["fwhm_high_contrast"] / report["fwhm_homogeneous"]
    write_json(out / "fwhm_report.json", report)
    return {"x0_index": x0_index}


def _result_rows(values):
    return [(i, float(v.real), float(v.imag), float(abs(v)))
            for i, v in enumerate(values)]


def cmd_image(cfg, out: Path):
    ctx, grid, op = _operator(cfg)
    surface = build_measurement_surface(cfg["surface"]["radius"], cfg["surface"]["points"], ctx)
    tau, seed, noise = cfg["contrast"]["tau"], cfg["seed"], cfg["noise"]["level"]
    fmap = build_forward_map(grid, surface, ctx, tau=tau, op=op)
    sources = [(s["location"], s["amplitude"]) for s in cfg["sources"]]
    u, noise_norm = synthesize_data(fmap, sources, noise, seed)
    metrics = {"noise_level": noise, "seed": seed, "tau": tau,
               "noise_norm": noise_norm, "methods": {}}
    for name, p in cfg["methods"].items():
        if name == "time_reversal":
            res = time_reversal(u, fmap)
        elif name == "l2":
            delta = p["delta"]
            if delta is None and p["delta_rel"] is not None:
                delta = p["delta_rel"] * float(np.linalg.norm(u) ** 2)
            res = l2_minimum_norm(fmap, u, mode=p["mode"], alpha=p["alpha"], delta=delta)
        else:
            mu = p["mu"] if p["mu"] is not None else _relative_mu(p["mu_rel"], fmap, u)
            res = l1_reconstruct(fmap, u, mu=mu, mode=p["mode"],
                                 max_iters=p["max_iters"], tol=p["tol"])
        write_csv(out / f"result_{name}.csv", ["index", "re", "im", "magnitude"],
                  _result_rows(res.values))
        met = resolution_metrics(res.values, sources, grid)
        entry = dict(res.metadata)
        entry["localization_errors"] = list(met.localization_errors)
        entry["support_f1"] = met.support_f1
        entry["separation"] = met.separation if np.isfinite(met.separation) else None
        metrics["methods"][name] = entry
    write_json(out / "metrics.json", metrics)
    if "l1" in cfg["methods"]:
        return {"tolerances": {"l1_tol": cfg["methods"]["l1"]["tol"]}}
    return {}


def cmd_hk_check(cfg, out: Path):
    ctx = WaveContext(**cfg["wave"])
    hk = cfg["hk"]
    rows = []
    prev = None
    for R in hk["radii"]:
        surf = build_measurement_surface(R, hk["points"], ctx)
        resid = homogeneous_hk_residual(surf, hk["x"], hk["y"], ctx)
        ratio = "" if prev is None else fmt(resid / prev)
        rows.append((R, resid, ratio))
        prev = resid
    write_csv(out / "hk.csv", ["R", "residual", "ratio"], rows)
    return {"m": hk["points"]}


def cmd_sweep_separation(cfg, out: Path):
    ctx, grid, op = _operator(cfg)
    surface = build_measurement_surface(cfg["surface"]["radius"], cfg["surface"]["points"], ctx)
    sep = cfg["separation"]
    tau, seed, noise = cfg["contrast"]["tau"], cfg["seed"], cfg["noise"]["level"]
    offset = sep["axis_offset"]
    rows, solves = [], []
    for medium in sep["media"]:
        t = 0.0 if medium == "homogeneous" else tau
        fmap = build_forward_map(grid, surface, ctx, tau=t, op=op)
        for s in sep["values"]:
            a = grid.points[grid.nearest_index([-s / 2, offset, 0.0][: ctx.dim])]
            b = grid.points[grid.nearest_index([+s / 2, offset, 0.0][: ctx.dim])]
            src = [(a, 1.0 + 0.0j), (b, 1.0 + 0.0j)]
            u, _ = synthesize_data(fmap, src, noise, seed)
            res = l1_reconstruct(fmap, u, mu=_relative_mu(sep["mu_rel"], fmap, u),
                                 max_iters=sep["max_iters"], tol=sep["tol"])
            met = resolution_metrics(res.values, src, grid)
            err = max(met.localization_errors) if met.localization_errors else float("inf")
            success = (not met.empty) and err <= grid.cell_size * (1 + 1e-9)
            rows.append((s, medium, err, success))
            solves.append({"separation": s, "medium": medium,
                           "iterations": res.metadata["iterations"],
                           "converged": res.metadata["converged"],
                           "objective": res.metadata["objective"]})
    write_csv(out / "sweep.csv",
              ["separation", "medium_tag", "localization_error", "success_flag"], rows)
    return {"tolerances": {"l1_tol": sep["tol"]}, "l1_solves": solves}


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
        raw = load_config(args.config)
        cfg = read_config(raw, required)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # each command returns its own manifest fields, tolerances included
        extra = func(cfg, out)
        tolerances = {"resonance_proximity": RESONANCE_TOL, **extra.pop("tolerances", {})}
        write_json(out / "manifest.json",
                   {"command": args.command, "config_hash": config_hash(raw),
                    "version": __version__, "seed": cfg["seed"], "tolerances": tolerances,
                    **extra})
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
