import datetime
import errno
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.linalg import LinAlgWarning

import resonat
from resonat.cli import _COMMANDS, _Loader, _operator, load_config, main, read_config
from resonat.expansion import alpha_expansion, beta_expansion
from resonat.errors import NumericFailureError
from resonat.io import fmt, write_coefficients, write_csv
from resonat.spectral import eigendecompose

BASE = {
    "wave": {"k": 1.0, "dim": 2},
    "domain": {"shape": "disk", "radius": 1.0, "cells": 12},
    "profile": {"kind": "constant", "value": 1.0},
    "contrast": {"tau": 3.0},
    "seed": 0,
}


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run(command, cfg_path, out):
    return main([command, "--config", cfg_path, "--out", str(out)])


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# (command, sections replacing those of its base config); each must exit 2
MALFORMED = {
    "cells_not_int": ("spectrum", {"domain": {"shape": "disk", "radius": 1.0, "cells": "abc"}}),
    "domain_list": ("spectrum", {"domain": [1, 2]}),
    "empty_wave": ("spectrum", {"wave": None}),
    "empty_methods": ("image", {"methods": None}),
    "seed_not_int": ("spectrum", {"seed": "abc"}),
    "seed_negative": ("spectrum", {"seed": -1}),
    "center_scalar": ("spectrum", {"profile": {"kind": "radial_bump", "center": 3}}),
    "max_iters_not_int": ("image", {"methods": {"l1": {"max_iters": "lots"}}}),
    "source_3d_in_2d": ("image", {"sources": [{"location": [0.2, -0.1, 0.0]}]}),
    "tau_nan": ("expand", {"contrast": {"tau": float("nan")}}),
    "tau_inf": ("expand", {"contrast": {"tau": float("inf")}}),
    "contrast_sweep": ("spectrum", {"contrast": {"tau": 3.0, "sweep": [1.0, 2.0]}}),
    "vacuum_medium": ("sweep-separation",
                      {"separation": {"values": [0.5], "media": ["homogeneous", "vacuum"]}}),
    "x0_string": ("psf", {"psf": {"x0": "00"}}),
    "direction_string": ("psf", {"psf": {"direction": "10"}}),
    "amplitude_string": ("image", {"sources": [{"location": [0.2, -0.1], "amplitude": "12"}]}),
    "k_bool": ("spectrum", {"wave": {"k": True, "dim": 2}}),
    "seed_bool": ("spectrum", {"seed": True}),
    "tau_string": ("expand", {"contrast": {"tau": "3.0"}}),
    "cells_string": ("spectrum", {"domain": {"shape": "disk", "radius": 1.0, "cells": "12"}}),
    "cells_fractional": ("spectrum", {"domain": {"shape": "disk", "radius": 1.0, "cells": 16.5}}),
    "dim_four": ("spectrum", {"wave": {"k": 1.0, "dim": 4}}),
    "source_no_location": ("image", {"sources": [{"amplitude": [1.0, 0.0]}]}),
    "l2_mode_bogus": ("image", {"methods": {"time_reversal": {}, "l2": {"mode": "bogus"}}}),
    "l1_mode_bogus": ("image", {"methods": {"l1": {"mode": "bogus"}}}),
    "separation_negative": ("sweep-separation", {"separation": {"values": [-0.4]}}),
    "separation_zero": ("sweep-separation", {"separation": {"values": [0.0]}}),
    "l1_max_iters_negative": ("image", {"methods": {"l1": {"max_iters": -5}}}),
    "l1_tol_negative": ("image", {"methods": {"l1": {"tol": -1.0}}}),
    "l1_tol_zero": ("image", {"methods": {"l1": {"tol": 0.0}}}),
    "l1_mu_rel_zero": ("image", {"methods": {"l1": {"mu_rel": 0.0}}}),
    "l1_mu_removed": ("image", {"methods": {"l1": {"mu": 1.0}}}),
    "l2_delta_rel_zero": ("image", {"methods": {"l2": {"mode": "morozov", "delta_rel": 0.0}}}),
    "l2_delta_removed": ("image", {"methods": {"l2": {"mode": "morozov", "delta": 1.0}}}),
    "l2_tikhonov_alpha_negative": ("image",
                                   {"methods": {"l2": {"mode": "tikhonov", "alpha": -1.0}}}),
    "separation_mu_rel_zero": ("sweep-separation",
                               {"separation": {"values": [0.5], "mu_rel": 0.0}}),
    "separation_max_iters_negative": ("sweep-separation",
                                      {"separation": {"values": [0.5], "max_iters": -5}}),
    "separation_tol_negative": ("sweep-separation",
                                {"separation": {"values": [0.5], "tol": -1.0}}),
}


@pytest.fixture
def memory_64mb(monkeypatch):
    """os.sysconf reporting 64 MB of physical memory."""
    sysconf = os.sysconf
    pages = 64 * 2**20 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf",
                        lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name))


def read_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestConfigValidation:
    def test_unknown_key_exit_2(self, tmp_path):
        cfg = dict(BASE, bogus=1)
        assert run("spectrum", write_cfg(tmp_path, cfg), tmp_path / "o") == 2

    def test_unknown_nested_key_exit_2(self, tmp_path):
        cfg = dict(BASE, wave={"k": 1.0, "dim": 2, "oops": 3})
        assert run("spectrum", write_cfg(tmp_path, cfg), tmp_path / "o") == 2

    def test_missing_section_exit_2(self, tmp_path):
        cfg = {"wave": {"k": 1.0, "dim": 2}}
        assert run("spectrum", write_cfg(tmp_path, cfg), tmp_path / "o") == 2

    def test_bad_value_exit_2(self, tmp_path):
        cfg = dict(BASE, domain={"shape": "disk", "radius": -1.0, "cells": 12})
        assert run("spectrum", write_cfg(tmp_path, cfg), tmp_path / "o") == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run("spectrum", str(tmp_path / "nope.yaml"), tmp_path / "o") == 2

    @pytest.mark.parametrize("text", ["- 1\n", "3\n", ""], ids=["list", "scalar", "empty"])
    def test_root_not_a_mapping_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert run("spectrum", str(path), out) == 2
        assert capsys.readouterr().err == "resonat: config error: config root must be a mapping\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["directory", "not_utf8"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, case):
        path = tmp_path / "cfg"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"wave: {k: 1.0, dim: 2}\n# caf\xe9\n")
        out = tmp_path / "o"
        assert run("spectrum", str(path), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("resonat: config error: ") and err.count("\n") == 1
        assert str(path) in err and "Traceback" not in err
        assert not out.exists()

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("taken\n")
        assert run("spectrum", write_cfg(tmp_path, BASE), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("resonat: config error: cannot create output directory")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out.read_text() == "taken\n"

    @pytest.mark.parametrize("text, value", [
        ("1e-13", 1e-13), ("1.0e300", 1e300), ("1e+300", 1e300), (".5e-3", 5e-4), ("010", 10),
    ])
    def test_number_reads_as_yaml_1_2(self, tmp_path, text, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"contrast: {{tau: {text}}}\n")
        tau = load_config(path)["contrast"]["tau"]
        assert tau == value and type(tau) is type(value)

    # YAML 1.1 numbers, bools and dates that a config reads as strings
    @pytest.mark.parametrize("text", ["1:30", "0b11", "1_000", "0x10", "0o10",
                                      "true", "yes", "2001-12-14"])
    def test_non_decimal_number_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"wave: {{k: 1.0, dim: 2}}\ndomain: {{cells: {text}}}\n")
        out = tmp_path / "o"
        assert run("spectrum", str(path), out) == 2
        assert capsys.readouterr().err == ("resonat: config error: 'domain.cells' must be "
                                           f"an integer, got '{text}'\n")
        assert not out.exists()

    def test_safe_load_keeps_yaml_1_1(self):
        assert yaml.safe_load("[010, 1:30, 1e-13]") == [8, 90, "1e-13"]
        assert yaml.safe_load("[010, true, 2001-12-14]") == [8, True, datetime.date(2001, 12, 14)]

    def test_loader_builds_only_config_types(self):
        tags = {None, *(f"tag:yaml.org,2002:{t}" for t in ("null", "int", "float", "str",
                                                              "seq", "map"))}
        assert set(_Loader.yaml_constructors) == tags

    @pytest.mark.parametrize("text", ["!!int 0x10", "!!float abc", "!!bool maybe",
                                      "!!timestamp abc", "!!bool true", "!!set {}",
                                      "!!binary AAAA"])
    def test_bad_explicit_tag_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"wave: {{k: 1.0, dim: 2}}\ndomain: {{cells: {text}}}\n")
        out = tmp_path / "o"
        assert run("spectrum", str(path), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("resonat: config error: config is not valid YAML: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_quoted_number_has_no_exponent_hint(self, tmp_path, capsys):
        cfg = dict(BASE, contrast={"tau": "3.0"})
        assert run("expand", write_cfg(tmp_path, cfg), tmp_path / "o") == 2
        assert capsys.readouterr().err == ("resonat: config error: 'contrast.tau' must be "
                                           "a finite number, got '3.0'\n")

    def test_yaml_syntax_error_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("domain: [1, 2\nb: 3\n")
        out = tmp_path / "o"
        assert run("spectrum", str(path), out) == 2
        err = capsys.readouterr().err
        assert err == ("resonat: config error: config is not valid YAML: "
                       "line 2, column 2: expected ',' or ']', but got ':'\n")
        assert not out.exists()

    def test_duplicate_key_exit_2(self, tmp_path, capsys):
        # YAML 1.2 keys are unique; the last value is not taken silently
        path = tmp_path / "cfg.yaml"
        path.write_text("wave:\n  k: 1.0\n  dim: 3\n  k: 2.0\nhk: {radii: [50.0]}\n")
        out = tmp_path / "o"
        assert run("hk-check", str(path), out) == 2
        assert capsys.readouterr().err == ("resonat: config error: config is not valid YAML: "
                                           "line 4, column 3: duplicate key 'k'\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, message", [
        ("<<", "unknown config key 'wave.<<'"),
        ("? !!merge <<", "config is not valid YAML: line 1, column 10: could not determine "
                         "a constructor for the tag 'tag:yaml.org,2002:merge'"),
    ], ids=["plain", "tagged"])
    def test_merge_key_exit_2(self, tmp_path, capsys, key, message):
        # YAML 1.2 has no merge key: << does not merge a mapping that hides a key given twice
        path = tmp_path / "cfg.yaml"
        path.write_text(f"wave: {{{key}: {{k: 1.0, dim: 3}}, k: 2.0}}\nhk: {{radii: [50.0]}}\n")
        out = tmp_path / "o"
        assert run("hk-check", str(path), out) == 2
        assert capsys.readouterr().err == f"resonat: config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_exit_2_before_output(self, tmp_path, capsys, case):
        command, sections = MALFORMED[case]
        base = BASE if command in ("spectrum", "expand") else TestImage.CFG
        out = tmp_path / "o"
        assert run(command, write_cfg(tmp_path, dict(base, **sections)), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("resonat: config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_dim_reported_against_wave_dim(self, tmp_path, capsys):
        # not against the 2-component source locations read after it
        cfg = dict(TestImage.CFG, wave={"k": 6.0, "dim": 4})
        out = tmp_path / "o"
        assert run("image", write_cfg(tmp_path, cfg), out) == 2
        assert capsys.readouterr().err == ("resonat: config error: "
                                           "'wave.dim' must be 2 or 3, got 4\n")
        assert not out.exists()

    def test_integral_float_dim_reads_as_int(self):
        assert read_config(dict(BASE, wave={"k": 1.0, "dim": 2.0}))["wave"]["dim"] == 2

    # points inside the domain are checked by the grid, once the command runs
    @pytest.mark.parametrize("command, sections", [
        ("psf", {"psf": {"x0": [5.0, 0.0]}}),
        ("sweep-separation", {"separation": {"values": [5.0], "media": ["homogeneous"]}}),
    ], ids=["psf_x0", "separation_pair"])
    def test_point_outside_domain_exit_2(self, tmp_path, capsys, command, sections):
        base = BASE if command == "psf" else TestImage.CFG
        assert run(command, write_cfg(tmp_path, dict(base, **sections)), tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("resonat: config error:") and err.count("\n") == 1
        assert "outside the domain" in err

    def test_shipped_scenarios_read(self):
        for path in sorted(SCENARIOS.glob("*.yaml")):
            raw = load_config(path)
            readers = [required for _, required in _COMMANDS.values()
                       if set(required) <= set(raw)]
            assert readers, path.name
            for required in readers:
                read_config(raw, required)


# values the reader accepts but the arithmetic cannot carry
@pytest.mark.parametrize("command, sections", [
    ("spectrum", {"wave": {"k": 1.0e300, "dim": 2}}),
    ("expand", {"contrast": {"tau": 1.0e200}}),
], ids=["k_overflow", "tau_underflow"])
def test_extreme_value_exit_1(tmp_path, capsys, command, sections):
    assert run(command, write_cfg(tmp_path, dict(BASE, **sections)), tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("resonat: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestSpectrum:
    def test_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run("spectrum", write_cfg(tmp_path, BASE), out) == 0
        header, rows = read_rows(out / "spectrum.csv")
        assert header == ["j", "l", "class", "re", "im"]
        man = json.loads((out / "manifest.json").read_text())
        assert len(rows) == man["n_modes"]
        mods = [abs(complex(float(r[3]), float(r[4]))) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(mods, mods[1:]))
        # j numbers the clusters from 1, l counts the modes within each; the
        # lattice symmetry pairs eigenvalues, so some cluster holds two
        j, l = [int(r[0]) for r in rows], [int(r[1]) for r in rows]
        assert j[0] == 1 and all(b - a in (0, 1) for a, b in zip(j, j[1:]))
        assert l == [j[:i + 1].count(j[i]) for i in range(len(j))] and max(l) >= 2
        # class is the mode's symmetry class, in the order of the eigenvalues
        sys_ = eigendecompose(_operator(read_config(BASE))[2])
        assert [int(r[2]) for r in rows] == sys_.classes.tolist()
        assert len(set(r[2] for r in rows)) == len(sys_.symmetry) > 1

    def test_radial_bump_3d_default_center(self, tmp_path):
        cfg = {"wave": {"k": 1.0, "dim": 3},
               "domain": {"shape": "ball", "radius": 1.0, "cells": 6},
               "profile": {"kind": "radial_bump", "width": 0.5, "peak": 2.0}}
        assert run("spectrum", write_cfg(tmp_path, cfg), tmp_path / "out") == 0

    def test_eigendecomposition_beyond_memory_exit_1(self, tmp_path, capsys, memory_64mb):
        # an off-centre bump is one class: its eig peaks at 64.5 N^2 bytes, 103 MB at
        # N = 1264, though two N x N complex arrays (32 N^2 bytes, 51 MB) would fit
        cfg = dict(BASE, domain={"shape": "disk", "radius": 1.0, "cells": 40},
                   profile={"kind": "radial_bump", "center": [0.3, 0.1], "width": 0.5,
                            "peak": 2.0})
        out = tmp_path / "o"
        assert run("spectrum", write_cfg(tmp_path, cfg), out) == 1
        assert capsys.readouterr().err == (
            "resonat: eigendecomposition of size N=1264 needs at least 0.1 GB, more than "
            "the 0.1 GB of physical memory\n")
        assert not any(out.iterdir())

    def test_dense_size_beyond_memory_exit_1(self, tmp_path, capsys):
        # N ~ 268 k: the dense working set is at least 24 N^2 bytes, about 1.7 TB
        cfg = {"wave": {"k": 1.0, "dim": 3},
               "domain": {"shape": "ball", "radius": 1.0, "cells": 80}}
        assert run("spectrum", write_cfg(tmp_path, cfg), tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("resonat: ") and err.count("\n") == 1
        assert "N=268" in err and "GB" in err

    # an allocation the system refuses, e.g. the lattice of domain.cells = 200000,
    # raises before the memory guard that follows, eigendecompose's 65 N^2 bytes, runs
    @pytest.mark.parametrize("command, builder", [
        ("spectrum", "resonat.grids._lattice_grid"),
        ("image", "resonat.cli.build_measurement_surface"),
    ], ids=["lattice", "surface"])
    @pytest.mark.parametrize("message", ["Unable to allocate 298. GiB for an array", ""],
                             ids=["numpy", "bare"])
    def test_refused_allocation_exit_1(self, tmp_path, capsys, monkeypatch, command, builder,
                                       message):
        def refuse(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(builder, refuse)
        base = BASE if command == "spectrum" else TestImage.CFG
        assert run(command, write_cfg(tmp_path, base), tmp_path / "o") == 1
        assert capsys.readouterr().err == f"resonat: {message or 'MemoryError'}\n"

    @pytest.mark.parametrize("profile,blocks", [
        ({"kind": "constant", "value": 1.0}, [16, 12, 28, 28, 16, 12]),
        ({"kind": "radial_bump", "center": [0.3, 0.1], "width": 0.5, "peak": 2.0}, [112]),
    ], ids=["constant", "off_center_bump"])
    def test_symmetry_blocks_in_manifest(self, tmp_path, profile, blocks):
        # every class block, solved or mapped; a medium without symmetry is one block.
        # The commands that solve on the operator record the same blocks as spectrum
        cfg_path = write_cfg(tmp_path, dict(
            BASE, profile=profile, surface={"radius": 50.0, "points": 32},
            sources=[{"location": [0.2, -0.1]}], methods={"time_reversal": {}},
            separation={"values": [0.5], "media": ["high_contrast"], "max_iters": 20}))
        for command in ("spectrum", "expand", "psf", "image", "sweep-separation"):
            assert run(command, cfg_path, tmp_path / command) == 0
            man = json.loads((tmp_path / command / "manifest.json").read_text())
            assert man["symmetry_blocks"] == blocks, command

    @pytest.mark.parametrize("profile", [
        {"kind": "constant", "value": 1.0},
        {"kind": "radial_bump", "center": [0.3, 0.1], "width": 0.5, "peak": 2.0},
    ], ids=["constant", "off_center_bump"])
    def test_dense_operator_never_formed(self, tmp_path, monkeypatch, profile):
        # every command gathers blocks and columns from the offset table, with symmetry
        # or without; expand takes its eigen-residual from the mode's class block
        monkeypatch.setattr(resonat.volume.DiscreteOperator, "matrix",
                            property(lambda op: pytest.fail("the dense M was formed")))
        cfg_path = write_cfg(tmp_path, dict(
            BASE, profile=profile, surface={"radius": 50.0, "points": 32},
            sources=[{"location": [0.2, -0.1]}], methods={"time_reversal": {}, "l1": {}},
            separation={"values": [0.5], "max_iters": 20}))
        for command in ("spectrum", "expand", "psf", "image", "sweep-separation"):
            assert run(command, cfg_path, tmp_path / command) == 0, command

    def test_classes_decided_once(self, tmp_path, monkeypatch):
        # the operator decides its symmetry classes on first read, and every stage of
        # a command reads them from it
        calls = []
        symmetries = resonat.volume._symmetries
        monkeypatch.setattr(resonat.volume, "_symmetries",
                            lambda op: calls.append(op) or symmetries(op))
        cfg_path = write_cfg(tmp_path, dict(
            BASE, surface={"radius": 50.0, "points": 32}, sources=[{"location": [0.2, -0.1]}],
            methods={"time_reversal": {}}, separation={"values": [0.5], "max_iters": 20}))
        for command in ("spectrum", "expand", "psf", "image", "sweep-separation"):
            calls.clear()
            assert run(command, cfg_path, tmp_path / command) == 0
            assert len(calls) == 1, command

    def test_tau_independent(self, tmp_path):
        cfg = {k: v for k, v in BASE.items() if k != "contrast"}
        out = tmp_path / "out"
        assert run("spectrum", write_cfg(tmp_path, cfg), out) == 0
        assert (out / "spectrum.csv").exists()


class TestExpand:
    def test_oracle_error_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run("expand", write_cfg(tmp_path, BASE), out) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["oracle_rel_error_alpha"] <= 1e-7
        assert (out / "alpha.csv").exists() and (out / "beta.csv").exists()
        header, rows = read_rows(out / "truncation_curve.csv")
        assert header == ["rank", "rel_error"]
        assert float(rows[-1][1]) <= 1e-8

    def test_eigenbasis_condition_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run("expand", write_cfg(tmp_path, BASE), out) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["eigenbasis_condition"] >= 1.0

    def test_tau_zero(self, tmp_path):
        cfg = dict(BASE, contrast={"tau": 0.0})
        out = tmp_path / "out"
        assert run("expand", write_cfg(tmp_path, cfg), out) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["coefficient_mass"] == 0.0
        assert man["resonant_mode"] is None
        _, rows = read_rows(out / "truncation_curve.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_resonant_mode_in_manifest(self, tmp_path):
        cfg_path = write_cfg(tmp_path, BASE)
        assert run("expand", cfg_path, tmp_path / "out") == 0
        assert run("spectrum", cfg_path, tmp_path / "spec") == 0
        mode = json.loads((tmp_path / "out" / "manifest.json").read_text())["resonant_mode"]
        _, rows = read_rows(tmp_path / "spec" / "spectrum.csv")
        assert 0 <= mode["index"] < len(rows)
        assert mode["residual"] <= 1e-10
        # the index is the spectrum.csv row of the eigenvalue nearest 1/tau
        lambdas = np.array([complex(float(r[3]), float(r[4])) for r in rows])
        z = 1.0 / BASE["contrast"]["tau"]
        assert mode["index"] == int(np.argmin(np.abs(z - lambdas)))
        lam = lambdas[mode["index"]]
        assert mode["eigenvalue"] == [lam.real, lam.imag]
        assert mode["proximity"] == pytest.approx(abs(z - lam) / (1.0 + abs(lam)), rel=1e-12)
        assert mode["dominant_frequency"] > 0

    def test_factors_once(self, tmp_path, monkeypatch):
        calls = []
        factor = resonat.volume._factor

        def counted(op, tau):
            calls.append(tau)
            return factor(op, tau)

        monkeypatch.setattr(resonat.volume, "_factor", counted)
        assert run("expand", write_cfg(tmp_path, BASE), tmp_path / "out") == 0
        assert calls == [BASE["contrast"]["tau"]]

    def test_warnings_in_manifest(self, tmp_path, monkeypatch):
        decompose = resonat.cli.eigendecompose

        def flagged(op):
            sys_ = decompose(op)
            sys_.warnings.append("cluster 1 looks defective")
            return sys_

        monkeypatch.setattr("resonat.cli.eigendecompose", flagged)
        out = tmp_path / "out"
        assert run("expand", write_cfg(tmp_path, BASE), out) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["warnings"] == ["cluster 1 looks defective"]

    def test_coefficient_rows_match_loop(self, tmp_path):
        # row-major (gamma_row, gamma_col, re, im) rows, as a double loop writes them
        cfg = dict(BASE, domain={"shape": "disk", "radius": 1.0, "cells": 6})
        out = tmp_path / "out"
        assert run("expand", write_cfg(tmp_path, cfg), out) == 0
        _, _, op = _operator(read_config(cfg))
        sys_ = eigendecompose(op)
        alpha = alpha_expansion(sys_, cfg["contrast"]["tau"])
        for name, mat in (("alpha", alpha), ("beta", beta_expansion(sys_, alpha))):
            _, rows = read_rows(out / f"{name}.csv")
            assert rows == [[str(i), str(j), fmt(float(mat[i, j].real)), fmt(float(mat[i, j].imag))]
                            for i in range(mat.shape[0]) for j in range(mat.shape[1])]

    def test_resonant_tau_exit_1(self, tmp_path, disk16):
        _, _, op = disk16
        lam = np.linalg.eigvals(op.matrix)
        near_real = [l for l in lam
                     if abs(l.imag) < 1e-8 * (1.0 + abs(l)) and l.real != 0]
        assert near_real, "fixture spectrum lost its near-real eigenvalue"
        tau = 1.0 / near_real[0].real
        cfg = dict(BASE, domain={"shape": "disk", "radius": 1.0, "cells": 16},
                   contrast={"tau": float(tau)})
        assert run("expand", write_cfg(tmp_path, cfg), tmp_path / "o") == 1


    def test_basis_built_once_only_where_read(self, tmp_path, monkeypatch):
        # the disk16 geometry; spectrum writes no basis, expand reads it through
        # alpha, one QR per symmetry class of the modes
        calls = []
        qr = resonat.spectral._weighted_qr

        def counted(U, w):
            calls.append(U.shape)
            return qr(U, w)

        monkeypatch.setattr(resonat.spectral, "_weighted_qr", counted)
        cfg_path = write_cfg(tmp_path, dict(BASE, domain={"shape": "disk", "radius": 1.0,
                                                          "cells": 16}))
        assert run("spectrum", cfg_path, tmp_path / "spec") == 0
        assert calls == []
        assert run("expand", cfg_path, tmp_path / "out") == 0
        blocks = json.loads((tmp_path / "out" / "manifest.json").read_text())["symmetry_blocks"]
        assert blocks == [29, 23, 52, 52, 29, 23]
        assert calls == [(size, size) for size in blocks]   # one row per orbit, one column per mode

    @pytest.mark.parametrize("profile", [
        {"kind": "constant", "value": 1.0},
        {"kind": "radial_bump", "center": [0.3, 0.1], "width": 0.5, "peak": 2.0},
    ], ids=["constant", "off_center_bump"])
    def test_no_dense_basis_or_grid_solve(self, tmp_path, monkeypatch, profile):
        # spectrum and expand work on each class's modes, QR and Green block in orbit
        # coordinates, with symmetry or without: they read no N x N U, E, A or B and
        # solve no grid columns
        for name in ("E", "A", "B", "U"):
            monkeypatch.setattr(resonat.spectral.SpectralSystem, name, property(
                lambda sys_, name=name: pytest.fail(f"the dense {name} was read")))
        monkeypatch.setattr(resonat.volume, "_lippmann_schwinger",
                            lambda *args: pytest.fail("grid columns were solved"))
        cfg_path = write_cfg(tmp_path, dict(BASE, profile=profile))
        for command in ("spectrum", "expand"):
            assert run(command, cfg_path, tmp_path / command) == 0, command

    def test_rank_deficient_basis_refused_by_expand_only(self, tmp_path, capsys, monkeypatch):
        def deficient(U, w):
            raise NumericFailureError("mode matrix is numerically rank deficient")

        monkeypatch.setattr(resonat.spectral, "_weighted_qr", deficient)
        cfg_path = write_cfg(tmp_path, BASE)
        assert run("spectrum", cfg_path, tmp_path / "spec") == 0
        assert run("expand", cfg_path, tmp_path / "out") == 1
        assert capsys.readouterr().err == "resonat: mode matrix is numerically rank deficient\n"


class TestWriteErrors:
    @pytest.mark.parametrize("command,name", [("expand", "alpha.csv"),
                                              ("spectrum", "spectrum.csv")])
    def test_output_is_a_directory_exit_1(self, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert run(command, write_cfg(tmp_path, BASE), out) == 1
        assert capsys.readouterr().err == f"resonat: cannot write {out / name}: Is a directory\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command,name", [("spectrum", "spectrum.csv"),
                                              ("expand", "beta.csv"),
                                              ("spectrum", "manifest.json")])
    def test_full_disk_names_the_file_exit_1(self, tmp_path, capsys, command, name):
        # a write that fails after open carries no file name of its own
        out = tmp_path / "out"
        out.mkdir()
        (out / name).symlink_to("/dev/full")
        assert run(command, write_cfg(tmp_path, BASE), out) == 1
        assert capsys.readouterr().err == (f"resonat: cannot write {out / name}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")


class TestPsf:
    def test_report_fields(self, tmp_path):
        cfg = dict(BASE, wave={"k": 6.0, "dim": 2},
                   contrast={"tau": 180.5}, domain={"shape": "disk", "radius": 1.0, "cells": 20},
                   psf={"x0": [0.0, 0.0], "direction": [1.0, 0.0]})
        out = tmp_path / "out"
        assert run("psf", write_cfg(tmp_path, cfg), out) == 0
        rep = json.loads((out / "fwhm_report.json").read_text())
        assert rep["fwhm_homogeneous"] > 0
        assert rep["ratio"] > 0
        header, _ = read_rows(out / "psf_homogeneous.csv")
        assert header == ["r", "value", "oracle_value"]
        assert (out / "psf_high_contrast.csv").exists()

    def test_resonant_tau_exit_1(self, tmp_path, disk16, capsys):
        _, _, op = disk16
        lam = np.linalg.eigvals(op.matrix)
        near_real = [l for l in lam
                     if abs(l.imag) < 1e-8 * (1.0 + abs(l)) and l.real != 0]
        assert near_real, "fixture spectrum lost its near-real eigenvalue"
        tau = 1.0 / near_real[0].real
        cfg = dict(BASE, domain={"shape": "disk", "radius": 1.0, "cells": 16},
                   contrast={"tau": float(tau)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("psf", write_cfg(tmp_path, cfg), tmp_path / "o") == 1
        assert not [w for w in caught if issubclass(w.category, LinAlgWarning)]
        err = capsys.readouterr().err
        assert err.startswith("resonat: ") and err.count("\n") == 1
        assert "within tolerance of eigenvalue" in err
        assert "Traceback" not in err


    def test_blocks_within_memory_exit_0(self, tmp_path, memory_64mb):
        # 48 cells, N = 1804: a dense M and its offset indices (24 N^2 bytes) would take
        # 78 MB, the solved symmetry blocks take 6.5 MB
        cfg = dict(BASE, wave={"k": 6.0, "dim": 2}, contrast={"tau": 180.5},
                   domain={"shape": "disk", "radius": 1.0, "cells": 48})
        assert run("psf", write_cfg(tmp_path, cfg), tmp_path / "o") == 0

    def test_block_beyond_memory_exit_1(self, tmp_path, capsys, memory_64mb):
        # an off-centre bump is one class, so its one block is N x N: 167 MB at N = 3228
        cfg = dict(BASE, wave={"k": 6.0, "dim": 2}, contrast={"tau": 180.5},
                   domain={"shape": "disk", "radius": 1.0, "cells": 64},
                   profile={"kind": "radial_bump", "center": [0.3, 0.1], "width": 0.5,
                            "peak": 2.0})
        out = tmp_path / "o"
        assert run("psf", write_cfg(tmp_path, cfg), out) == 1
        assert capsys.readouterr().err == (
            "resonat: Lippmann-Schwinger solve of N=3228 (largest symmetry block 3228) needs "
            "at least 0.2 GB, more than the 0.1 GB of physical memory\n")
        assert not any(out.iterdir())

    def test_zero_direction_exit_2(self, tmp_path, capsys):
        cfg = dict(BASE, psf={"x0": [0.0, 0.0], "direction": [0.0, 0.0]})
        out = tmp_path / "o"
        assert run("psf", write_cfg(tmp_path, cfg), out) == 2
        assert capsys.readouterr().err == ("resonat: config error: 'psf.direction' must be "
                                           "a nonzero list of wave.dim numbers, got [0.0, 0.0]\n")
        assert not out.exists()


class TestImage:
    CFG = dict(
        BASE,
        wave={"k": 6.0, "dim": 2},
        contrast={"tau": 0.0},
        surface={"radius": 50.0, "points": 64},
        sources=[{"location": [0.2, -0.1], "amplitude": [1.0, 0.0]}],
        methods={"time_reversal": {}},
    )

    def test_time_reversal_peak(self, tmp_path):
        out = tmp_path / "out"
        assert run("image", write_cfg(tmp_path, self.CFG), out) == 0
        met = json.loads((out / "metrics.json").read_text())
        err = max(met["methods"]["time_reversal"]["localization_errors"])
        assert err <= 2.0 / 12  # one cell
        assert (out / "result_time_reversal.csv").exists()

    def test_morozov_infeasible_exit_1(self, tmp_path):
        # delta = 2 ||u||^2: the zero solution already fits better than that
        cfg = dict(self.CFG, methods={"l2": {"mode": "morozov", "delta_rel": 2.0}})
        assert run("image", write_cfg(tmp_path, cfg), tmp_path / "o") == 1

    def test_morozov_delta_rel(self, tmp_path):
        # noise of level 0.05 has a squared norm of about 0.0025 ||u||^2
        cfg = dict(self.CFG, noise={"level": 0.05},
                   methods={"l2": {"mode": "morozov", "delta_rel": 0.0025}})
        out = tmp_path / "out"
        assert run("image", write_cfg(tmp_path, cfg), out) == 0
        l2 = json.loads((out / "metrics.json").read_text())["methods"]["l2"]
        assert l2["alpha"] > 0
        assert l2["discrepancy_sq"] == pytest.approx(l2["delta"], rel=0.1)

    def test_manifest_records_l1_tol_used(self, tmp_path):
        cfg = dict(self.CFG, methods={"l1": {"tol": 1e-9, "max_iters": 500}})
        assert run("image", write_cfg(tmp_path, cfg), tmp_path / "l1") == 0
        man = json.loads((tmp_path / "l1" / "manifest.json").read_text())
        assert man["tolerances"]["l1_tol"] == 1e-9
        assert run("image", write_cfg(tmp_path, self.CFG), tmp_path / "tr") == 0
        man = json.loads((tmp_path / "tr" / "manifest.json").read_text())
        assert "l1_tol" not in man["tolerances"]

    @pytest.mark.parametrize("max_iters", [0, 50])
    def test_l1_objective_in_metrics(self, tmp_path, max_iters):
        cfg = dict(self.CFG, methods={"l1": {"max_iters": max_iters}})
        out = tmp_path / "out"
        assert run("image", write_cfg(tmp_path, cfg), out) == 0
        l1 = json.loads((out / "metrics.json").read_text())["methods"]["l1"]
        assert l1["iterations"] == max_iters
        assert np.isfinite(l1["objective"]) and l1["objective"] > 0

    def test_l1_gap_and_restarts_in_metrics(self, tmp_path):
        out = tmp_path / "out"
        assert run("image", write_cfg(tmp_path, dict(self.CFG, methods={"l1": {}})), out) == 0
        l1 = json.loads((out / "metrics.json").read_text())["methods"]["l1"]
        assert l1["converged"] and 0 <= l1["gap"] <= 1e-4
        assert isinstance(l1["restarts"], int) and l1["restarts"] >= 0

    @pytest.mark.parametrize("mode", ["penalized", "normal_equation"])
    def test_l1_mu_rel_of_the_modes_own_threshold(self, tmp_path, mode):
        # mu_rel = 1 is where g = 0 becomes the minimizer of the mode's own functional
        for mu_rel, empty in [(0.02, False), (1.000001, True)]:
            cfg = dict(self.CFG, methods={"l1": {"mode": mode, "mu_rel": mu_rel}})
            out = tmp_path / f"{mu_rel}"
            assert run("image", write_cfg(tmp_path, cfg), out) == 0
            _, rows = read_rows(out / "result_l1.csv")
            assert (not any(float(r[3]) for r in rows)) == empty, mu_rel

    def test_negative_noise_level_exit_2(self, tmp_path, capsys):
        cfg = dict(self.CFG, noise={"level": -0.5})
        out = tmp_path / "o"
        assert run("image", write_cfg(tmp_path, cfg), out) == 2
        assert capsys.readouterr().err == ("resonat: config error: 'noise.level' must be "
                                           "a non-negative number, got -0.5\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode, key", [("tikhonov", "alpha"), ("morozov", "delta_rel")])
    def test_l2_mode_key_missing_exit_2(self, tmp_path, capsys, mode, key):
        cfg = dict(self.CFG, methods={"time_reversal": {}, "l2": {"mode": mode}})
        out = tmp_path / "o"
        assert run("image", write_cfg(tmp_path, cfg), out) == 2
        assert capsys.readouterr().err == ("resonat: config error: missing required "
                                           f"config key 'methods.l2.{key}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("sources, methods", [
        ([{"location": [0.2, -0.1], "amplitude": [0.0, 0.0]}], {"time_reversal": {}, "l1": {}}),
        ([{"location": [0.2, -0.1], "amplitude": [1.0, 0.0]},
          {"location": [0.2, -0.1], "amplitude": [-1.0, 0.0]}],
         {"time_reversal": {}, "l2": {"mode": "morozov", "delta_rel": 0.0025}}),
    ], ids=["zero_amplitude", "cancelling_pair"])
    def test_zero_data_exit_2(self, tmp_path, capsys, sources, methods):
        cfg = dict(self.CFG, sources=sources, methods=methods)
        out = tmp_path / "o"
        assert run("image", write_cfg(tmp_path, cfg), out) == 2
        err = capsys.readouterr().err
        assert "sources" in err and err.count("\n") == 1 and "Traceback" not in err
        assert not any(out.iterdir())

    def test_forward_map_beyond_memory_exit_1(self, tmp_path, capsys, memory_64mb):
        # 20 000 x 316 pairs at 64 bytes each, about 0.4 GB, against 64 MB
        cfg = yaml.safe_load((SCENARIOS / "imaging_quarter_wavelength.yaml").read_text())
        cfg.update(surface={"radius": 100.0, "points": 20000}, methods={"time_reversal": {}})
        out = tmp_path / "o"
        assert run("image", write_cfg(tmp_path, cfg), out) == 1
        assert capsys.readouterr().err == ("resonat: 20000 x 316 forward map needs at least "
                                           "0.4 GB, more than the 0.1 GB of physical memory\n")
        assert not any(out.iterdir())

    def test_rerun_byte_identical(self, tmp_path):
        cfg = dict(self.CFG, noise={"level": 0.05}, seed=5)
        p = write_cfg(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("image", p, out1) == 0
        assert run("image", p, out2) == 0
        for name in ("result_time_reversal.csv", "metrics.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestOffCenterBump:
    """The shipped medium without lattice symmetry, end to end: one eig over
    all N modes, and an n that differs from node to node in assembly and
    radiation."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("off_center_bump")
        for command in ("psf", "expand", "image"):
            assert main([command, "--config", str(SCENARIOS / "off_center_bump.yaml"),
                         "--out", str(out / command)]) == 0, command
        return out

    def test_psf_narrows(self, runs):
        assert json.loads((runs / "psf" / "fwhm_report.json").read_text())["ratio"] < 1

    def test_expand_one_class_meets_oracle(self, runs):
        man = json.loads((runs / "expand" / "manifest.json").read_text())
        _, nodes = read_rows(runs / "image" / "result_l1.csv")   # one row per grid node
        assert man["symmetry_blocks"] == [len(nodes)]
        assert man["oracle_rel_error_alpha"] <= 1e-7
        assert man["oracle_rel_error_beta"] <= 1e-6

    def test_l1_localizes_both_sources(self, runs):
        l1 = json.loads((runs / "image" / "metrics.json").read_text())["methods"]["l1"]
        assert len(l1["localization_errors"]) == 2
        assert max(l1["localization_errors"]) <= 2.0 / 20   # one cell


class TestHkCheck:
    def test_single_radius_no_ratio(self, tmp_path):
        cfg = {"wave": {"k": 1.0, "dim": 3},
               "hk": {"radii": [50.0], "x": [0.0, 0.0, 0.0], "y": [0.0, 0.0, 0.0],
                      "points": 512}}
        out = tmp_path / "out"
        assert run("hk-check", write_cfg(tmp_path, cfg), out) == 0
        _, rows = read_rows(out / "hk.csv")
        assert len(rows) == 1 and rows[0][2] == ""
        assert np.isfinite(float(rows[0][1]))

    def test_empty_radii_exit_2(self, tmp_path):
        cfg = {"wave": {"k": 1.0, "dim": 3}, "hk": {"radii": []}}
        assert run("hk-check", write_cfg(tmp_path, cfg), tmp_path / "o") == 2

    def test_manifest_m_is_the_surface_size(self, tmp_path):
        # the sphere rounds 2000 points up to 2 * 32^2
        cfg = {"wave": {"k": 1.0, "dim": 3}, "hk": {"radii": [50.0]}}
        out = tmp_path / "out"
        assert run("hk-check", write_cfg(tmp_path, cfg), out) == 0
        assert json.loads((out / "manifest.json").read_text())["m"] == 2048

    def test_surface_beyond_memory_exit_1(self, tmp_path, capsys, memory_64mb):
        # 1 002 528 sphere points at 160 bytes each, about 160 MB, against 64 MB
        cfg = {"wave": {"k": 1.0, "dim": 3}, "hk": {"radii": [50.0], "points": 1000000}}
        out = tmp_path / "o"
        assert run("hk-check", write_cfg(tmp_path, cfg), out) == 1
        assert capsys.readouterr().err == ("resonat: measurement surface of 1002528 points "
                                           "needs at least 0.2 GB, more than the 0.1 GB of "
                                           "physical memory\n")
        assert not (out / "hk.csv").exists()


class TestSweepSeparation:
    def test_pair_on_one_node_exit_2_before_solve(self, tmp_path, capsys, monkeypatch):
        # with 21 cells a node sits at the origin, and both sources of a 0.02
        # separation on the axis snap to it
        monkeypatch.setattr("resonat.cli.build_forward_map",
                            lambda *a, **k: pytest.fail("solved before refusing"))
        cfg = dict(TestImage.CFG, domain={"shape": "disk", "radius": 1.0, "cells": 21},
                   separation={"values": [0.5, 0.02], "axis_offset": 0.0})
        cfg.pop("methods")
        cfg.pop("sources")
        out = tmp_path / "o"
        assert run("sweep-separation", write_cfg(tmp_path, cfg), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("resonat: config error: separation 0.02 puts both sources")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "sweep.csv").exists()

    def test_previous_map_dead_before_next_build(self, tmp_path, monkeypatch):
        # one forward map per medium; the previous medium's map must be garbage
        # when the next is built, so that two are never alive at once
        build, maps, alive = resonat.cli.build_forward_map, [], []

        def recording_build(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in maps])
            fmap = build(*args, **kwargs)
            maps.append(weakref.ref(fmap))
            return fmap

        monkeypatch.setattr("resonat.cli.build_forward_map", recording_build)
        cfg = dict(TestImage.CFG, contrast={"tau": 3.0},
                   separation={"values": [0.5], "media": ["homogeneous", "high_contrast"],
                               "max_iters": 1})
        cfg.pop("methods")
        cfg.pop("sources")
        assert run("sweep-separation", write_cfg(tmp_path, cfg), tmp_path / "o") == 0
        assert alive == [[], [False]]

    def test_realized_separation_in_manifest(self, tmp_path):
        # with 21 cells (h = 0.095) and the pair on the x axis, 0.1, 0.12 and
        # 0.2 all snap to the nodes at x = -h and h
        cfg = dict(TestImage.CFG, domain={"shape": "disk", "radius": 1.0, "cells": 21},
                   separation={"values": [0.1, 0.12, 0.2, 0.5], "media": ["homogeneous"],
                               "axis_offset": 0.0, "max_iters": 1})
        cfg.pop("methods")
        cfg.pop("sources")
        out = tmp_path / "out"
        assert run("sweep-separation", write_cfg(tmp_path, cfg), out) == 0
        solves = json.loads((out / "manifest.json").read_text())["l1_solves"]
        h = 2.0 / 21   # 0.5 snaps to the nodes at x = -3h and 3h
        assert ([x["realized_separation"] for x in solves]
                == pytest.approx([2 * h, 2 * h, 2 * h, 6 * h], rel=1e-12))
        # sweep.csv keeps the requested separation
        _, rows = read_rows(out / "sweep.csv")
        assert [float(r[0]) for r in rows] == [0.1, 0.12, 0.2, 0.5]

    def test_empty_values_exit_2(self, tmp_path):
        cfg = dict(TestImage.CFG)
        cfg.pop("methods")
        cfg.pop("sources")
        cfg["separation"] = {"values": []}
        assert run("sweep-separation", write_cfg(tmp_path, cfg), tmp_path / "o") == 2

    def test_homogeneous_two_wavelength_success(self, tmp_path):
        cfg = dict(TestImage.CFG)
        cfg.pop("methods")
        cfg.pop("sources")
        # a disk wide enough to hold the pair at +-lam, cells of the base size 1/6
        cfg["domain"] = {"shape": "disk", "radius": 1.25, "cells": 15}
        lam = 2.0 * np.pi / 6.0
        cfg["separation"] = {"values": [float(2 * lam)], "media": ["homogeneous"],
                             "mu_rel": 0.02, "max_iters": 20000, "tol": 1e-12}
        out = tmp_path / "out"
        assert run("sweep-separation", write_cfg(tmp_path, cfg), out) == 0
        header, rows = read_rows(out / "sweep.csv")
        assert header == ["separation", "medium_tag", "localization_error", "success_flag"]
        assert rows[0][3] == "true"

    def test_ball_pair_in_z0_plane(self, tmp_path):
        cfg = {"wave": {"k": 2.0, "dim": 3},
               "domain": {"shape": "ball", "radius": 1.0, "cells": 6},
               "surface": {"radius": 50.0, "points": 64},
               "separation": {"values": [0.5], "media": ["homogeneous"], "max_iters": 200}}
        out = tmp_path / "out"
        assert run("sweep-separation", write_cfg(tmp_path, cfg), out) == 0
        _, rows = read_rows(out / "sweep.csv")
        assert [r[:2] for r in rows] == [["0.5", "homogeneous"]]

    @pytest.mark.parametrize("max_iters", [None, 1])
    def test_l1_convergence_in_manifest(self, tmp_path, max_iters):
        # the shipped quarter-wavelength pair, in the medium where it solves fast
        cfg = yaml.safe_load((SCENARIOS / "separation_sweep.yaml").read_text())
        cfg["separation"].update(values=[0.3], media=["homogeneous"])
        if max_iters:
            cfg["separation"]["max_iters"] = max_iters
        out = tmp_path / "out"
        assert run("sweep-separation", write_cfg(tmp_path, cfg), out) == 0
        [solve] = json.loads((out / "manifest.json").read_text())["l1_solves"]
        assert solve["separation"] == 0.3 and solve["medium"] == "homogeneous"
        assert solve["realized_separation"] == pytest.approx(0.3)
        assert solve["converged"] is (max_iters is None)
        assert (solve["iterations"] == 1) is (max_iters == 1)
        assert np.isfinite(solve["objective"]) and solve["objective"] > 0
        assert solve["gap"] >= 0 and solve["restarts"] >= 0
        # converged, a peak lies two cells (0.2) from its source; after one
        # step each source has a peak within one cell (0.1)
        _, [row] = read_rows(out / "sweep.csv")
        assert row[2:] == (["0.10000000000000009", "true"] if max_iters
                           else ["0.20000000000000007", "false"])


def test_write_csv_cell_rendering(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b", "c", "d", "e", "f", "g", "h"],
              [(None, True, False, -0.0, float("inf"), 0.1, 7, "homogeneous")])
    assert path.read_text() == ("a,b,c,d,e,f,g,h\n"
                                ",true,false,-0,inf,0.10000000000000001,7,homogeneous\n")


def _serial_coefficients(m):
    return "gamma_row,gamma_col,re,im\n" + "".join(
        f"{i},{j},{fmt(float(m[i, j].real))},{fmt(float(m[i, j].imag))}\n"
        for i in range(m.shape[0]) for j in range(m.shape[1]))


@pytest.mark.parametrize("cols", [1, 2, 3, 5])
def test_write_coefficients_edge_values(tmp_path, cols):
    # never square, so a swapped row/column index shows; the column count sets the
    # per-column templates; each edge value as re and im; entries 20-23 pair the
    # signed zeros, of which only (+0, +0) is printed without formatting, and
    # entries 25-29 are all +0 (whole rows of them at 1 and 5 columns)
    values = [-0.0, 0.0, 5e-324, 1e-300, 1e300, float("inf"), float("nan"), 0.1]
    m = np.array([complex(values[k % 8], -values[(3 * k) % 8]) for k in range(20)]
                 + [complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
                    complex(-0.0, -0.0), 0.1j]
                 + [0j] * 5).reshape(-1, cols)
    path = tmp_path / "coeff.csv"
    write_coefficients(path, m)
    assert path.read_text() == _serial_coefficients(m)
    tail = ["0,0", "0,-0", "-0,0", "-0,-0", "0,0.10000000000000001"] + ["0,0"] * 5
    assert path.read_text().splitlines()[21:] == [
        f"{k // cols},{k % cols},{reim}" for k, reim in enumerate(tail, start=20)]


@pytest.mark.parametrize("classes", [1, 2, 3, 5])
def test_write_coefficients_triangular_matches_loop(tmp_path, classes):
    # alpha's shape: the rows hold ever fewer nonzero entries, and entries between
    # two symmetry classes (here i % classes) are exact zeros
    rng = np.random.default_rng(7)
    m = np.triu(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    k = np.arange(64) % classes
    m[k[:, None] != k[None, :]] = 0
    path = tmp_path / "coeff.csv"
    write_coefficients(path, m)
    assert path.read_text() == _serial_coefficients(m)
    assert sorted(os.listdir(tmp_path)) == ["coeff.csv"]


def test_write_coefficients_memory_is_one_row(tmp_path):
    # a list of N^2 rows would peak at many times the matrix (1.44 MB here)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    tracemalloc.start()
    try:
        write_coefficients(tmp_path / "coeff.csv", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _src_env():
    """The environment with this checkout's package first on the path."""
    src = str(Path(resonat.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_skips_scipy_optimize():
    # scipy.optimize costs about a quarter of a second to import, and nothing needs it
    probe = "import sys, resonat.cli; print('scipy.optimize' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"]


def _run_cli(tmp_path, command, cfg, out="o"):
    return subprocess.run([sys.executable, "-m", "resonat.cli", command, "--config",
                           write_cfg(tmp_path, cfg, f"{out}.yaml"), "--out", str(tmp_path / out)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", ["spectrum", "psf"])
@pytest.mark.parametrize("radius, code", [(1e-200, 2), (1e-158, 2), (1e150, 1), (1e155, 2)])
def test_extreme_radius_one_line(tmp_path, command, radius, code):
    # a cell measure h^2 that is zero, subnormal or infinite exits 2, a kernel
    # that is not finite exits 1: one line each, no warning, no traceback
    res = _run_cli(tmp_path, command,
                   dict(BASE, domain={"shape": "disk", "radius": radius, "cells": 12}))
    assert res.returncode == code
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("resonat: ")


# k = 6 disk of 8 cells, tau = 3, a 16-point surface of radius 10, two sources
HAZARD_BASE = dict(BASE, wave={"k": 6.0, "dim": 2},
                   domain={"shape": "disk", "radius": 1.0, "cells": 8},
                   surface={"radius": 10.0, "points": 16},
                   sources=[{"location": [0.2, -0.1]}, {"location": [-0.3, 0.2]}],
                   methods={"time_reversal": {}, "l2": {"mode": "exact"}, "l1": {}},
                   separation={"values": [0.5]})


@pytest.mark.parametrize("command, sections", [
    ("image", {"noise": {"level": 1e300}}),
    ("sweep-separation", {"noise": {"level": 1e300}}),
    ("image", {"sources": [{"location": [0.2, -0.1], "amplitude": [1e300, 1e300]}]}),
    ("image", {"surface": {"radius": 1e300, "points": 16}}),
    ("spectrum", {"profile": {"kind": "radial_bump", "width": 1e-300}}),
], ids=["image_noise", "sweep_noise", "image_amplitude", "image_surface", "spectrum_width"])
def test_floating_point_hazard_one_line(tmp_path, command, sections):
    # a numpy overflow or invalid operation stops the command: exit 1, one line
    res = _run_cli(tmp_path, command, dict(HAZARD_BASE, **sections))
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("resonat: ")
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr


def test_psf_huge_direction_same_as_unit(tmp_path):
    # the direction is scaled by its largest entry before its norm is taken
    for out, d in (("huge", 1e300), ("unit", 1.0)):
        cfg = dict(HAZARD_BASE, psf={"x0": [0.0, 0.0], "direction": [d, d]})
        res = _run_cli(tmp_path, "psf", cfg, out)
        assert res.returncode == 0, res.stderr
    for name in ("fwhm_report.json", "psf_homogeneous.csv", "psf_high_contrast.csv"):
        assert (tmp_path / "huge" / name).read_bytes() == (tmp_path / "unit" / name).read_bytes()
