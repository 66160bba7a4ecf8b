import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.linalg import LinAlgWarning

import resonat
from resonat.cli import _COMMANDS, _operator, main, read_config
from resonat.expansion import alpha_expansion, beta_expansion
from resonat.io import fmt
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
    "l2_mode_bogus": ("image", {"methods": {"time_reversal": {}, "l2": {"mode": "bogus"}}}),
    "l1_mode_bogus": ("image", {"methods": {"l1": {"mode": "bogus"}}}),
    "separation_negative": ("sweep-separation", {"separation": {"values": [-0.4]}}),
    "separation_zero": ("sweep-separation", {"separation": {"values": [0.0]}}),
}


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

    def test_yaml_syntax_error_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("domain: [1, 2\nb: 3\n")
        out = tmp_path / "o"
        assert run("spectrum", str(path), out) == 2
        err = capsys.readouterr().err
        assert err == ("resonat: config error: config is not valid YAML: "
                       "line 2, column 2: expected ',' or ']', but got ':'\n")
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
            raw = yaml.safe_load(path.read_text())
            readers = [required for _, required in _COMMANDS.values()
                       if set(required) <= set(raw)]
            assert readers, path.name
            for required in readers:
                read_config(raw, required)


class TestSpectrum:
    def test_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run("spectrum", write_cfg(tmp_path, BASE), out) == 0
        header, rows = read_rows(out / "spectrum.csv")
        assert header == ["j", "l", "k", "re", "im", "chain_len"]
        man = json.loads((out / "manifest.json").read_text())
        assert len(rows) == man["n_modes"]
        mods = [abs(complex(float(r[3]), float(r[4]))) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(mods, mods[1:]))

    def test_radial_bump_3d_default_center(self, tmp_path):
        cfg = {"wave": {"k": 1.0, "dim": 3},
               "domain": {"shape": "ball", "radius": 1.0, "cells": 6},
               "profile": {"kind": "radial_bump", "width": 0.5, "peak": 2.0}}
        assert run("spectrum", write_cfg(tmp_path, cfg), tmp_path / "out") == 0

    def test_dense_size_beyond_memory_exit_1(self, tmp_path, capsys):
        # N ~ 268 k: the dense working set is at least 40 N^2 bytes, about 2.9 TB
        cfg = {"wave": {"k": 1.0, "dim": 3},
               "domain": {"shape": "ball", "radius": 1.0, "cells": 80}}
        assert run("spectrum", write_cfg(tmp_path, cfg), tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("resonat: ") and err.count("\n") == 1
        assert "N=268" in err and "GB" in err

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
        _, rows = read_rows(out / "truncation_curve.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_factors_once(self, tmp_path, monkeypatch):
        calls = []
        factor = resonat.volume._factor

        def counted(op, tau):
            calls.append(tau)
            return factor(op, tau)

        monkeypatch.setattr(resonat.volume, "_factor", counted)
        assert run("expand", write_cfg(tmp_path, BASE), tmp_path / "out") == 0
        assert calls == [BASE["contrast"]["tau"]]

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


    def test_zero_direction_exit_2(self, tmp_path, capsys):
        cfg = dict(BASE, psf={"x0": [0.0, 0.0], "direction": [0.0, 0.0]})
        assert run("psf", write_cfg(tmp_path, cfg), tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("resonat: config error:") and err.count("\n") == 1
        assert "Traceback" not in err


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
        cfg = dict(self.CFG, methods={"l2": {"mode": "morozov", "delta": 1e9}})
        assert run("image", write_cfg(tmp_path, cfg), tmp_path / "o") == 1

    def test_manifest_records_l1_tol_used(self, tmp_path):
        cfg = dict(self.CFG, methods={"l1": {"tol": 1e-9, "max_iters": 500}})
        assert run("image", write_cfg(tmp_path, cfg), tmp_path / "l1") == 0
        man = json.loads((tmp_path / "l1" / "manifest.json").read_text())
        assert man["tolerances"]["l1_tol"] == 1e-9
        assert run("image", write_cfg(tmp_path, self.CFG), tmp_path / "tr") == 0
        man = json.loads((tmp_path / "tr" / "manifest.json").read_text())
        assert "l1_tol" not in man["tolerances"]

    @pytest.mark.parametrize("max_iters", [0, 500])
    def test_l1_objective_in_metrics(self, tmp_path, max_iters):
        cfg = dict(self.CFG, methods={"l1": {"max_iters": max_iters}})
        out = tmp_path / "out"
        assert run("image", write_cfg(tmp_path, cfg), out) == 0
        l1 = json.loads((out / "metrics.json").read_text())["methods"]["l1"]
        assert l1["iterations"] == max_iters
        assert np.isfinite(l1["objective"]) and l1["objective"] > 0

    def test_negative_noise_level_exit_2(self, tmp_path, capsys):
        cfg = dict(self.CFG, noise={"level": -0.5})
        assert run("image", write_cfg(tmp_path, cfg), tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("resonat: config error:") and err.count("\n") == 1

    def test_rerun_byte_identical(self, tmp_path):
        cfg = dict(self.CFG, noise={"level": 0.05}, seed=5)
        p = write_cfg(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("image", p, out1) == 0
        assert run("image", p, out2) == 0
        for name in ("result_time_reversal.csv", "metrics.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


class TestSweepSeparation:
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
        assert solve["converged"] is (max_iters is None)
        assert (solve["iterations"] == 1) is (max_iters == 1)
        assert np.isfinite(solve["objective"]) and solve["objective"] > 0


class TestThreads:
    PROBE = """
import ctypes, glob, os, pathlib
import resonat
import numpy
print(os.environ["OPENBLAS_NUM_THREADS"])
libs = pathlib.Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
count = -1
for path in glob.glob(str(libs / "libscipy_openblas64_*.so")):
    fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if fn is not None:
        fn.restype = ctypes.c_int
        count = fn()
print(count)
"""

    def test_resonat_threads_caps_blas(self):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "GOTO_NUM_THREADS")}
        env["RESONAT_THREADS"] = "1"
        src = str(Path(resonat.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", self.PROBE], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        variable, count = res.stdout.split()
        assert variable == "1"
        if count != "-1":  # numpy's bundled OpenBLAS was reachable
            assert count == "1"
