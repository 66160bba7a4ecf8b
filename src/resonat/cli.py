"""Configuration-driven command line front end.

Commands read a YAML scenario file and turn it into a typed, default-filled
config with read_config, which rejects unknown keys and malformed values
before anything is computed. They then run the pipeline and write plot-ready
CSV files plus a manifest.json that pins the config hash, library version,
seed, and every tolerance used. Reruns with the same config are
byte-identical.

Exit codes: 0 success, 1 a NumericFailureError, a floating-point overflow, division
by zero or invalid operation, or an unwritable output, 2 an InvalidArgumentError.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np
import yaml
from scipy.linalg.blas import zgemv

from . import __version__
from .errors import InvalidArgumentError, NumericFailureError
from .expansion import (
    class_alpha,
    class_beta,
    expansion_errors,
    psf_profile,
    truncation_error_curve,
    truncation_ranks,
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
    l1_zero_threshold,
    l2_minimum_norm,
    resolution_metrics,
    synthesize_data,
    time_reversal,
)
from .io import config_hash, write_coefficients, write_csv, write_json
from .kernels import im_g0_from_distance
from .spectral import dominant_spatial_frequency, eigendecompose
from .volume import RESONANCE_TOL, assemble_kd, class_block, green_matrix


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


def _restricted(kind, test, doc):
    """The converter `kind` that also refuses a value failing `test`; `doc`
    names the values it takes."""
    def convert(value):
        out = kind(value)
        if not test(out):
            raise ValueError(out)
        return out
    convert.__doc__ = doc
    return convert


_positive = _restricted(_float, lambda x: x > 0, "a positive number")
_nonnegative = _restricted(_float, lambda x: x >= 0, "a non-negative number")
_dim = _restricted(_int, lambda x: x in (2, 3), "2 or 3")
_count = _restricted(_int, lambda x: x >= 0, "a non-negative integer")
_direction = _restricted(_vector, any, "a nonzero list of wave.dim numbers")


def _zeros(cfg, table):
    return [0.0] * cfg["wave"]["dim"]


def _required_in_mode(mode):
    """The default of a key that must be given when the table's mode is `mode`."""
    return lambda cfg, table: REQUIRED if table["mode"] == mode else None


# The config format. Each table maps key -> (kind, default). A kind is a
# converter, a tuple of allowed names, a sub-table (dict), or [kind] for a
# non-empty list of that kind. A key that is not given takes its default: None,
# REQUIRED, OPTIONAL, a value read as if it had been given, or a function of
# the config and of the key's table read so far (both are read in table order)
# that returns one of these.
_L1_SOLVE = {"mu_rel": (_positive, 0.02), "max_iters": (_count, 30000), "tol": (_positive, 1e-12)}
_TABLE = {
    "wave": ({"k": (_float, 1.0), "dim": (_dim, 2)}, {}),
    "domain": ({"shape": (("disk", "ball"),
                          lambda c, t: "disk" if c["wave"]["dim"] == 2 else "ball"),
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
                         "alpha": (_nonnegative, _required_in_mode("tikhonov")),
                         "delta_rel": (_positive, _required_in_mode("morozov"))}, OPTIONAL),
                 "l1": ({"mode": (("penalized",), "penalized"),
                         **_L1_SOLVE}, OPTIONAL)}, {"time_reversal": {}}),
    "psf": ({"x0": (_vector, _zeros),
             "direction": (_direction, lambda c, t: [1.0] + _zeros(c, t)[1:])}, {}),
    "hk": ({"radii": ([_float], REQUIRED),
            "x": (_vector, _zeros),
            "y": (_vector, _zeros),
            "points": (_int, 2000)}, OPTIONAL),
    # the default axis offset is half a cell; cells < 2 is refused by the grid
    "separation": ({"values": ([_positive], REQUIRED),
                    "media": ([("homogeneous", "high_contrast")], ["homogeneous", "high_contrast"]),
                    "axis_offset": (_float, lambda c, t: c["domain"]["radius"]
                                    / max(c["domain"]["cells"], 1)),
                    **_L1_SOLVE}, OPTIONAL),
    "noise": ({"level": (_nonnegative, 0.0)}, {}),
    "seed": (_count, 0),
}


class _Loader(yaml.SafeLoader):
    """The safe loader narrowed to the YAML types a config holds: str, null, seq, map and
    YAML 1.2's decimal ints and floats (010 is 10). Any other tag, !!bool, !!timestamp and
    !!merge included, has no constructor, and a plain true, 2001-12-14 or << reads as a
    string."""
    yaml_implicit_resolvers = {
        c: [r for r in rs if not r[0].endswith((":bool", ":int", ":float", ":timestamp",
                                                ":merge"))]
        for c, rs in yaml.SafeLoader.yaml_implicit_resolvers.items()}
    yaml_constructors = {t: c for t, c in yaml.SafeLoader.yaml_constructors.items()
                         if t is None or t.endswith((":null", ":float", ":str", ":seq", ":map"))}

    def construct_mapping(self, node, deep=False):
        """The mapping of node; a key given twice is refused, as YAML 1.2 requires. The
        keys are kept in a list, so that the base class refuses an unhashable one."""
        keys = []
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in keys:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark)
            keys.append(key)
        return super().construct_mapping(node, deep)


for _tag, _pattern in (("int", r"[-+]?[0-9]+"),
                       ("float", r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")):
    _Loader.add_implicit_resolver(f"tag:yaml.org,2002:{_tag}", re.compile(f"^{_pattern}$"),
                                  list("-+.0123456789"))
_Loader.add_constructor("tag:yaml.org,2002:int", lambda ld, node: int(ld.construct_scalar(node)))


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = yaml.load(fh, _Loader)
    except FileNotFoundError:
        raise InvalidArgumentError(f"config file not found: {path}")
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidArgumentError(f"config file is not UTF-8 text: {path}") from None
    except (yaml.YAMLError, ValueError) as exc:   # ValueError: a bad !!int or !!float
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        # PyYAML's own message spans several lines; a config error is one line
        detail = (f"line {mark.line + 1}, column {mark.column + 1}: {problem}"
                  if mark and problem else " ".join(str(exc).split()))
        raise InvalidArgumentError(f"config is not valid YAML: {detail}") from None
    if not isinstance(cfg, dict):
        raise InvalidArgumentError("config root must be a mapping")
    return cfg


def _read(kind, value, path, cfg):
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise InvalidArgumentError(f"'{path}' must be a mapping, got {value!r}")
        return _read_table(kind, value, path + ".", cfg, {})
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise InvalidArgumentError(f"'{path}' must be a non-empty list, got {value!r}")
        return [_read(kind[0], v, f"{path}[{i}]", cfg) for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise InvalidArgumentError(f"'{path}' must be one of {', '.join(kind)}, got {value!r}")
        return value
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgumentError(f"'{path}' must be {kind.__doc__}, got {value!r}") from None
    if kind in (_vector, _direction) and len(out) != cfg["wave"]["dim"]:
        raise InvalidArgumentError(f"'{path}' must have wave.dim = {cfg['wave']['dim']} "
                                   f"components, got {value!r}")
    return out


def _read_table(table, raw, prefix, cfg, out):
    for key in raw:
        if key not in table:
            raise InvalidArgumentError(f"unknown config key '{prefix}{key}'")
    for key, (kind, default) in table.items():
        if key in raw:
            out[key] = _read(kind, raw[key], prefix + key, cfg)
            continue
        value = default(cfg, out) if callable(default) else default
        if value is REQUIRED:
            raise InvalidArgumentError(f"missing required config key '{prefix}{key}'")
        if value is not OPTIONAL:
            out[key] = None if value is None else _read(kind, value, prefix + key, cfg)
    return out


def read_config(raw: dict, required=()) -> dict:
    """The typed, default-filled config of a YAML mapping; raises InvalidArgumentError.

    `required` names the sections a command needs. A section that is not
    given reads as empty, except hk, separation and sources, which are then
    left out.
    """
    for name in required:
        if name not in raw:
            raise InvalidArgumentError(f"missing required config section '{name}'")
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


def cmd_spectrum(cfg, out: Path):
    _, _, op = _operator(cfg)
    sys_ = eigendecompose(op)
    # j is the cluster, l the column's place in it, class the mode's symmetry class
    clusters = sys_.clusters
    place = np.arange(sys_.size) - np.searchsorted(clusters, clusters) + 1
    rows = [(j, l, c, float(lam.real), float(lam.imag)) for j, l, c, lam in
            zip(clusters.tolist(), place.tolist(), sys_.classes.tolist(), sys_.lambdas)]
    write_csv(out / "spectrum.csv", ["j", "l", "class", "re", "im"], rows)
    return {"n_modes": sys_.size, "cluster_tol": sys_.cluster_tol,
            "symmetry_blocks": op.symmetry_blocks, "warnings": sys_.warnings}


def _resonant_mode(sys_, op, tau):
    """The mode of the eigenvalue nearest 1/tau, the resonance rule's distance to
    it, the mode's eigen-residual ||M u - lambda u|| / ||u|| and its dominant
    spatial frequency (None without a lattice to Fourier-analyze). The residual
    is taken on the mode's class block in orbit coordinates, whose basis is
    orthonormal, so that its norms are those on the grid; its product runs in
    scipy's BLAS, which the solves before it use (expansion.py)."""
    if tau == 0:
        return None
    pos = int(np.argmin(np.abs(1.0 / tau - sys_.lambdas)))
    lam, c = sys_.lambdas[pos], sys_.classes[pos]
    uz = sys_.modes[c][:, np.searchsorted(sys_.class_columns[c], pos)]
    u = sys_.symmetry[c].scatter(uz.copy(), np.zeros(op.n.size, dtype=complex))
    return {"index": pos, "eigenvalue": [float(lam.real), float(lam.imag)],
            "proximity": float(abs(1.0 / tau - lam) / (1.0 + abs(lam))),
            "residual": float(np.linalg.norm(zgemv(1.0, class_block(op, sys_.symmetry[c]), uz)
                                             - lam * uz) / np.linalg.norm(uz)),
            "dominant_frequency": dominant_spatial_frequency(op, u)}


def cmd_expand(cfg, out: Path):
    _, _, op = _operator(cfg)
    tau = cfg["contrast"]["tau"]
    sys_ = eigendecompose(op)
    alphas = class_alpha(sys_, tau)
    betas = class_beta(sys_, alphas)
    N = sys_.size
    # measured before the writers, so that a refused solve leaves no output
    green, errors, beta_error = expansion_errors(sys_, op, tau, alphas, betas, truncation_ranks(N))
    write_coefficients(out / "alpha.csv", alphas, sys_.class_columns)
    write_coefficients(out / "beta.csv", betas, sys_.class_columns)
    write_csv(out / "truncation_curve.csv", ["rank", "rel_error"], truncation_error_curve(errors))
    # ||A||_F ||B||_F >= ||A B||_F = sqrt(N), summed over the class blocks without BLAS, whose
    # numpy copy would wait for scipy's threads; Frobenius norms, since 2-norms would need
    # two more SVDs
    a2, b2 = (sum(np.sum(np.abs(basis[i]) ** 2) for basis in sys_.class_bases) for i in (1, 2))
    return {
        "tau": tau,
        "coefficient_mass": float(sum(np.sum(np.abs(a) ** 2) for a in alphas)),
        "oracle_rel_error_alpha": errors[N] / green,
        "oracle_rel_error_beta": beta_error / green,
        "eigenbasis_condition": float(np.sqrt(a2 * b2)),
        "resonant_mode": _resonant_mode(sys_, op, tau),
        "symmetry_blocks": op.symmetry_blocks,
        "warnings": sys_.warnings,
    }


def cmd_psf(cfg, out: Path):
    ctx, grid, op = _operator(cfg)
    direction = cfg["psf"]["direction"]
    x0_index = grid.nearest_index(cfg["psf"]["x0"])
    tau = cfg["contrast"]["tau"]
    report = {"tau": tau}
    # at tau = 0 the Green column is the free-kernel column; both columns are solved
    # before either is written, so that a refused solve leaves no output
    profiles = {medium: psf_profile(green_matrix(op, t, x0_index), grid, x0_index, direction)
                for medium, t in [("homogeneous", 0.0)] + ([("high_contrast", tau)] if tau else [])}
    for medium, prof in profiles.items():
        oracle = im_g0_from_distance(np.abs(prof.radii), ctx)
        write_csv(out / f"psf_{medium}.csv", ["r", "value", "oracle_value"],
                  list(zip(prof.radii, prof.values, np.atleast_1d(oracle))))
        report[f"fwhm_{medium}"] = prof.fwhm
    if report.get("fwhm_high_contrast") is not None and report["fwhm_homogeneous"]:
        report["ratio"] = report["fwhm_high_contrast"] / report["fwhm_homogeneous"]
    write_json(out / "fwhm_report.json", report)
    return {"x0_index": x0_index, "symmetry_blocks": op.symmetry_blocks}


def _result_rows(values):
    return [(i, float(v.real), float(v.imag), float(abs(v)))
            for i, v in enumerate(values)]


def _l1_solve(fmap, u, p):
    """l1_reconstruct with mu = mu_rel times its zero threshold and the
    _L1_SOLVE keys of the table p."""
    mu = p["mu_rel"] * l1_zero_threshold(fmap, u)
    return l1_reconstruct(fmap, u, mu=mu, max_iters=p["max_iters"], tol=p["tol"])


def cmd_image(cfg, out: Path):
    ctx, grid, op = _operator(cfg)
    surface = build_measurement_surface(cfg["surface"]["radius"], cfg["surface"]["points"], ctx)
    tau, seed, noise = cfg["contrast"]["tau"], cfg["seed"], cfg["noise"]["level"]
    fmap = build_forward_map(grid, surface, ctx, tau=tau, op=op)
    sources = [(s["location"], s["amplitude"]) for s in cfg["sources"]]
    u, noise_norm = synthesize_data(fmap, sources, noise, seed)
    if not np.any(u):
        raise InvalidArgumentError("the far-field data of 'sources' are identically zero")
    metrics = {"noise_level": noise, "seed": seed, "tau": tau,
               "noise_norm": noise_norm, "methods": {}}
    for name, p in cfg["methods"].items():
        if name == "time_reversal":
            res = time_reversal(u, fmap)
        elif name == "l2":
            delta = p["delta_rel"] and p["delta_rel"] * float(np.linalg.norm(u) ** 2)
            res = l2_minimum_norm(fmap, u, mode=p["mode"], alpha=p["alpha"], delta=delta)
        else:
            res = _l1_solve(fmap, u, p)
        write_csv(out / f"result_{name}.csv", ["index", "re", "im", "magnitude"],
                  _result_rows(res.values))
        met = resolution_metrics(res.values, sources, grid)
        entry = dict(res.metadata)
        entry["localization_errors"] = list(met.localization_errors)
        entry["support_f1"] = met.support_f1
        entry["separation"] = met.separation if np.isfinite(met.separation) else None
        metrics["methods"][name] = entry
    write_json(out / "metrics.json", metrics)
    extra = {"symmetry_blocks": op.symmetry_blocks}
    if "l1" in cfg["methods"]:
        extra["tolerances"] = {"l1_tol": cfg["methods"]["l1"]["tol"]}
    return extra


def cmd_hk_check(cfg, out: Path):
    ctx = WaveContext(**cfg["wave"])
    hk = cfg["hk"]
    rows = []
    prev = None
    for R in hk["radii"]:
        surf = build_measurement_surface(R, hk["points"], ctx)
        resid = homogeneous_hk_residual(surf, hk["x"], hk["y"], ctx)
        ratio = None if prev is None else resid / prev
        rows.append((R, resid, ratio))
        prev = resid
    write_csv(out / "hk.csv", ["R", "residual", "ratio"], rows)
    return {"m": surf.n_points}


def cmd_sweep_separation(cfg, out: Path):
    ctx, grid, op = _operator(cfg)
    surface = build_measurement_surface(cfg["surface"]["radius"], cfg["surface"]["points"], ctx)
    sep = cfg["separation"]
    tau, seed, noise = cfg["contrast"]["tau"], cfg["seed"], cfg["noise"]["level"]
    offset = sep["axis_offset"]
    pairs = []   # (requested separation, the unit sources at the two nodes)
    for s in sep["values"]:
        a, b = (grid.nearest_index([x, offset, 0.0][: ctx.dim]) for x in (-s / 2, s / 2))
        if a == b:
            raise InvalidArgumentError(f"separation {s} puts both sources on grid node {a} "
                                       f"(cell size {grid.cell_size:.6g})")
        pairs.append((s, [(grid.points[a], 1.0 + 0.0j), (grid.points[b], 1.0 + 0.0j)]))
    rows, solves = [], []
    for medium in sep["media"]:
        t = 0.0 if medium == "homogeneous" else tau
        fmap = build_forward_map(grid, surface, ctx, tau=t, op=op)
        for s, src in pairs:
            u, _ = synthesize_data(fmap, src, noise, seed)
            res = _l1_solve(fmap, u, sep)
            met = resolution_metrics(res.values, src, grid)
            err = max(met.localization_errors) if met.localization_errors else float("inf")
            rows.append((s, medium, err, met.recovered))
            solves.append({"separation": s, "realized_separation": met.separation,
                           "medium": medium,
                           **{key: res.metadata[key] for key in
                              ("iterations", "converged", "objective", "gap", "restarts")}})
        del fmap  # so that the next medium's map is not built beside this one
    write_csv(out / "sweep.csv",
              ["separation", "medium_tag", "localization_error", "success_flag"], rows)
    return {"tolerances": {"l1_tol": sep["tol"]}, "l1_solves": solves,
            "symmetry_blocks": op.symmetry_blocks}


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
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot create output directory {out}: "
                                       f"{exc.strerror}") from None
        # each command returns its manifest fields, tolerances included; numpy FP errors raise
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            extra = func(cfg, out)
        tolerances = {"resonance_proximity": RESONANCE_TOL, **extra.pop("tolerances", {})}
        write_json(out / "manifest.json",
                   {"command": args.command, "config_hash": config_hash(raw),
                    "version": __version__, "seed": cfg["seed"], "tolerances": tolerances,
                    **extra})
    except InvalidArgumentError as exc:
        print(f"resonat: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailureError, np.linalg.LinAlgError, ArithmeticError, MemoryError) as exc:
        print(f"resonat: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except OSError as exc:   # the config was read above, so this is an output
        print(f"resonat: cannot write {exc.filename or args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
