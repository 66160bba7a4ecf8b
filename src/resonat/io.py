"""Deterministic CSV/JSON writers used by the CLI."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FLOAT = "%.17g"   # every float the writers print: 17 significant digits round-trip a double


def fmt(value) -> str:
    """One CSV cell: None is empty, a bool true/false, a float to 17 digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT % value
    return str(value)


def write_csv(path, header, rows):
    """Write the header and each row, one line at a time, to `path`."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in rows)


def write_coefficients(path, mat):
    """Write complex `mat` as gamma_row,gamma_col,re,im rows, row-major, one `%` per matrix row."""
    cols = [f",{j},{FLOAT},{FLOAT}\n" for j in range(mat.shape[1])]
    with open(path, "w") as fh:
        fh.write("gamma_row,gamma_col,re,im\n")
        for i, row in enumerate(mat):
            fh.write(str(i).join(["", *cols]) % tuple(row.view(float).tolist()))


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
