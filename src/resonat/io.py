"""Deterministic CSV/JSON writers used by the CLI."""

from __future__ import annotations

import hashlib
import json
from itertools import chain

import numpy as np

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


def _write_text(path, chunks):
    """Write the strings `chunks` to `path`; an OSError names `path`, also one
    raised by a write or the closing flush, which names no file of its own."""
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        exc.filename = exc.filename or str(path)
        raise


def write_csv(path, header, rows):
    """Write the header and each row, one line at a time, to `path`."""
    _write_text(path, (",".join(map(fmt, row)) + "\n" for row in chain([header], rows)))


def write_coefficients(path, blocks, columns):
    """Write the complex N x N matrix that holds `blocks[c]` over the ascending rows and
    columns `columns[c]`, and +0.0 elsewhere (a dense matrix is one block over arange(N)),
    as gamma_row,gamma_col,re,im rows, row-major, one `%` per matrix row.

    An entry whose parts are both +0.0 by bit pattern (so -0.0 still prints `-0`), or
    that lies outside its row's block, is printed from a constant `0,0` piece; only the
    other entries are formatted.
    """
    N = sum(cols.size for cols in columns)
    full = np.array([f",{j},{FLOAT},{FLOAT}\n" for j in range(N)], dtype=object)
    zero = np.array([f",{j},0,0\n" for j in range(N)], dtype=object)
    rows = sorted((i, c, k) for c, cols in enumerate(columns) for k, i in enumerate(cols.tolist()))

    def lines():
        yield "gamma_row,gamma_col,re,im\n"
        for i, c, k in rows:   # row i is row k of block c
            row = np.ascontiguousarray(blocks[c][k])
            nonzero = row.view(np.uint64).reshape(-1, 2).any(axis=1)
            keep = np.zeros(N, dtype=bool)
            keep[columns[c]] = nonzero
            pieces = np.where(keep, full, zero).tolist()
            yield str(i).join(["", *pieces]) % tuple(row[nonzero].view(float).tolist())

    _write_text(path, lines())


def write_json(path, obj):
    _write_text(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
