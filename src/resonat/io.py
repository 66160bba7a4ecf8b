"""Deterministic CSV/JSON writers used by the CLI."""

from __future__ import annotations

import errno
import hashlib
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from pathlib import Path

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


def write_csv(path, header, rows):
    """Write the header and each row, one line at a time, to `path`."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in rows)


def _writer_count(rows: int) -> int:
    """Processes for a table of `rows` rows: one per CPU this process may run on,
    at most one per row, and 1 where processes cannot be forked."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, rows))


def _row_ranges(mat, parts: int):
    """`parts` contiguous row ranges of about equal cost, a row costing its nonzeros
    plus one: a zero formats far faster than a nonzero, and alpha is triangular."""
    if parts == 1:
        return [range(len(mat))]
    cost = np.cumsum(np.count_nonzero(mat, axis=1) + 1)
    cuts = np.searchsorted(cost, cost[-1] * np.arange(1, parts) / parts, side="right").tolist()
    bounds = [0, *cuts, len(mat)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _write_rows(fh, mat, rows, cols):
    """Write matrix rows `rows` to the text file `fh`, one `%` per row."""
    for i in rows:
        fh.write(str(i).join(["", *cols]) % tuple(mat[i].view(float).tolist()))


def _write_rows_child(tmp, mat, rows, cols):
    """A writer process: write `rows` into the open file `tmp`. An OSError leaves
    by its errno as the exit code, with no traceback; it formats and writes only,
    so it runs no BLAS and takes no lock of the parent's threads."""
    try:
        with open(tmp.fileno(), "w", closefd=False) as out:
            _write_rows(out, mat, rows, cols)
    except OSError as exc:
        sys.exit(exc.errno or errno.EIO)


def write_coefficients(path, mat):
    """Write complex `mat` as gamma_row,gamma_col,re,im rows, row-major, one `%` per matrix row.

    The rows are split into one contiguous range per available CPU. This process
    writes the first range into `path`; forked processes write the others, each
    into an unlinked file beside `path` that is then appended in order, so the
    bytes are those of one process writing every row. A failed writer process
    raises OSError naming `path`; every one is ended before this returns.
    """
    cols = [f",{j},{FLOAT},{FLOAT}\n" for j in range(mat.shape[1])]
    first, *rest = _row_ranges(mat, _writer_count(len(mat)))
    children = []
    with open(path, "w") as fh:
        try:
            for rows in rest:
                tmp = tempfile.TemporaryFile(dir=Path(path).parent)
                child = multiprocessing.get_context("fork").Process(
                    target=_write_rows_child, args=(tmp, mat, rows, cols))
                children.append((child, tmp, rows))
                child.start()
            fh.write("gamma_row,gamma_col,re,im\n")
            _write_rows(fh, mat, first, cols)
            fh.flush()
            for child, tmp, rows in children:
                child.join()
                code = child.exitcode
                if code and code > 1:   # the errno of the child's OSError
                    raise OSError(code, os.strerror(code), str(path))
                if code:   # 1: an uncaught exception; below 0: a signal
                    raise OSError(errno.EIO, f"writer process for rows {rows.start}-"
                                  f"{rows.stop - 1} exited with code {code}", str(path))
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh.buffer)
        finally:
            for child, tmp, _ in children:
                if child.pid is not None:   # started; kill is a no-op once it has exited
                    child.kill()
                    child.join()
                    child.close()
                tmp.close()


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
