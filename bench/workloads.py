"""The benchmark's workloads: the scenario each command reads, drawn from the
workload seed, and the command sequence of one pass.

One operation is one ``resonat`` CLI command. A pass runs a workload's
operations one after another (a closed loop: a command starts when the
previous one has ended).
"""

from __future__ import annotations

from dataclasses import dataclass

# shipped imaging/sweep geometry (scenarios/imaging_quarter_wavelength.yaml,
# scenarios/separation_sweep.yaml)
IMAGING_WAVE = {"k": 6.0, "dim": 2}
IMAGING_DOMAIN = {"shape": "disk", "radius": 1.0, "cells": 20}
IMAGING_SURFACE = {"radius": 100.0, "points": 256}
IMAGING_PAIR = ((-0.15, 0.05), (0.15, 0.05))
# The largest of the shipped separations (0.3, 0.5, 0.8) only: every run makes
# two passes, so that outputs can be compared between them, and the three
# take the sweep 22 s a pass against 6 s. The quarter-wavelength pair (0.3)
# is imaged and checked by `image`.
SWEEP_SEPARATIONS = [0.8]
# Two of the three contrasts of acceptance criterion 01, all away from the
# spectrum. tau = -2 is left out: its alpha entries take the .17g writer about
# 30% longer (7.6 s against 5.8 s for the same 58 MB), which would make the
# pass time depend on the seed.
EXPANSION_TAUS = (3.0, 1.25)
PSF_TAU = 180.5
HK = {"radii": [50.0, 100.0, 200.0], "x": [0.3, 0.1, -0.2], "y": [-0.2, 0.25, 0.1],
      "points": 2048}


@dataclass(frozen=True)
class Op:
    label: str        # unique within the workload; names the output directory
    command: str      # resonat CLI command
    config: dict      # scenario written as YAML for the CLI to read


def imaging(seed):
    # Odd seeds move the pair's midpoint down one cell, its mirror image in
    # the x axis of the lattice. Other whole-cell shifts change the L1 solve's
    # iteration count (6 984 to 21 838 over 16 shifts around the shipped
    # pair), which would make the pass time depend on the seed.
    dy = (seed % 2) * 2.0 * IMAGING_DOMAIN["radius"] / IMAGING_DOMAIN["cells"]
    sources = [{"location": [x, round(y - dy, 12)], "amplitude": [1.0, 0.0]}
               for x, y in IMAGING_PAIR]
    base = {"wave": IMAGING_WAVE, "domain": IMAGING_DOMAIN,
            "profile": {"kind": "constant", "value": 1.0},
            "contrast": {"tau": 180.5}, "surface": IMAGING_SURFACE,
            "noise": {"level": 0.0}, "seed": seed}
    image = dict(base, sources=sources, methods={
        "time_reversal": {},
        "l2": {"mode": "exact"},
        "l1": {"mode": "penalized", "mu_rel": 0.02, "max_iters": 30000, "tol": 1.0e-13}})
    sweep = dict(base, separation={
        "values": SWEEP_SEPARATIONS, "media": ["homogeneous", "high_contrast"],
        "mu_rel": 0.02, "axis_offset": 0.05, "max_iters": 30000, "tol": 1.0e-13})
    return [Op("image", "image", image), Op("sweep-separation", "sweep-separation", sweep)]


def expansion(seed):
    cfg = {"wave": {"k": 1.0, "dim": 2},
           "domain": {"shape": "disk", "radius": 1.0, "cells": 32},
           "profile": {"kind": "constant", "value": 1.0},
           "contrast": {"tau": EXPANSION_TAUS[seed % len(EXPANSION_TAUS)]}, "seed": seed}
    return [Op("spectrum", "spectrum", cfg), Op("expand", "expand", cfg)]


def _psf(dim, cells, axis, seed):
    direction = [0.0] * dim
    direction[axis] = 1.0
    return {"wave": {"k": 6.0, "dim": dim},
            "domain": {"shape": "disk" if dim == 2 else "ball", "radius": 1.0, "cells": cells},
            "profile": {"kind": "constant", "value": 1.0},
            "contrast": {"tau": PSF_TAU},
            "psf": {"x0": [0.0] * dim, "direction": direction}, "seed": seed}


def psf_large(seed):
    # the seed picks the lattice axis of the profile line; the work is the same
    return [Op("psf-2d", "psf", _psf(2, 48, seed % 2, seed)),
            Op("psf-3d", "psf", _psf(3, 14, seed % 3, seed)),
            Op("hk-check", "hk-check", {"wave": {"k": 1.0, "dim": 3}, "hk": HK, "seed": seed})]


WORKLOADS = {"imaging": imaging, "expansion": expansion, "psf_large": psf_large}
