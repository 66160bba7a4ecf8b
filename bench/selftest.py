"""Self-test of the benchmark's checks: run one pass of each workload, then
corrupt one output at a time and require that the matching check fails and
that the operation counts as failed, both when the corrupted output is the
one checked and when it comes from a later pass.

    python3 bench/selftest.py

Exits 0 when every corruption is caught.
"""

import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads

import yaml

import checks
import reference as ref
from workloads import WORKLOADS


def edit_csv(path, column, pick, change):
    """Replace one cell: the row chosen by pick(rows, column) in `column`."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    j = header.index(column)
    i = pick(rows, j)
    rows[i][j] = change(rows[i][j])
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def largest(rows, j):
    return max(range(len(rows)), key=lambda i: abs(float(rows[i][j] or 0)))


def bump_digit(text):
    """Change the leading significant digit (d -> d % 9 + 1)."""
    for i, ch in enumerate(text):
        if ch in "123456789":
            return text[:i] + str(int(ch) % 9 + 1) + text[i + 1:]
    raise ValueError(f"no significant digit in {text!r}")


def move_l1_peak(path, cfg):
    """Move the largest L1 coefficient to the next cell along x."""
    pts, _, h = ref.lattice(cfg["wave"]["dim"], cfg["domain"]["cells"], cfg["domain"]["radius"])
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    i = largest(rows, 3)
    j = ref.nearest(pts, pts[i] + [h, 0.0])
    rows[i][1:], rows[j][1:] = rows[j][1:], rows[i][1:]
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def swap_index_columns(path, cfg):
    """Transpose the coefficient matrix by swapping the names of its index
    columns."""
    text = path.read_text()
    path.write_text(text.replace("gamma_row,gamma_col", "gamma_col,gamma_row", 1))


def flag_failure(rows, j):
    return next(i for i, r in enumerate(rows) if r[1] == "high_contrast")


# (operation label, file, corruption(path, config))
CORRUPTIONS = {
    "imaging": [
        ("image", "result_l1.csv", move_l1_peak),
        ("image", "result_l2.csv",
         lambda p, c: edit_csv(p, "re", largest, bump_digit)),
        ("sweep-separation", "sweep.csv",
         lambda p, c: edit_csv(p, "success_flag", flag_failure, lambda s: "false")),
    ],
    "expansion": [
        ("spectrum", "spectrum.csv",
         lambda p, c: edit_csv(p, "re", lambda rows, j: 5, bump_digit)),
        ("expand", "alpha.csv",
         lambda p, c: edit_csv(p, "re", largest, bump_digit)),
        ("expand", "alpha.csv", swap_index_columns),
        ("expand", "beta.csv",
         lambda p, c: edit_csv(p, "im", largest, bump_digit)),
        ("expand", "beta.csv", swap_index_columns),
        ("expand", "truncation_curve.csv",
         lambda p, c: edit_csv(p, "rel_error", lambda rows, j: len(rows) - 1,
                               lambda s: "1e-06")),
    ],
    "psf_large": [
        ("psf-2d", "psf_high_contrast.csv",
         lambda p, c: edit_csv(p, "value", largest, bump_digit)),
        ("psf-3d", "psf_homogeneous.csv",
         lambda p, c: edit_csv(p, "value", lambda rows, j: 0, bump_digit)),
        ("hk-check", "hk.csv",
         lambda p, c: edit_csv(p, "ratio", lambda rows, j: 1, bump_digit)),
    ],
}


def selftest(workload, work):
    import resonat.cli as cli

    ops = {op.label: op for op in WORKLOADS[workload](0)}
    codes, clean = {}, {}
    for label, op in ops.items():
        cfg = work / f"{label}.yaml"
        cfg.write_text(yaml.safe_dump(op.config, sort_keys=False))
        codes[label] = run.run_op(cli, op, cfg, work / "pass0" / label)
        clean[label] = checks.check(op, work / "pass0" / label)
    hashes = {label: run.digest(work / "pass0" / label) for label in ops}
    if any(clean.values()) or any(codes.values()):
        print(f"{workload}: clean run fails: codes {codes}, checks {clean}")
        return False
    ok = True
    for label, name, corrupt in CORRUPTIONS[workload]:
        bad = work / "bad" / label
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(work / "pass0" / label, bad)
        corrupt(bad / name, ops[label].config)
        fails = checks.check(ops[label], bad)
        # corrupted output checked in the first pass: the op fails in both passes
        as_checked = run.count_failed([codes, codes], [hashes, hashes], {**clean, label: fails})
        # corrupted output from a second pass: byte identity catches it
        later = run.count_failed([codes, codes], [hashes, {**hashes, label: run.digest(bad)}],
                                 clean)
        good = bool(fails) and as_checked == 2 and later == 1
        ok &= good
        print(f"{workload}: {label}/{name}: {'caught' if good else 'MISSED'}; "
              f"failed ops {as_checked} and {later}; {fails}", flush=True)
    return ok


def main():
    if not (run.SRC / "resonat" / "cli.py").is_file():
        print(f"selftest: no resonat source under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    ok = True
    for workload in WORKLOADS:
        work = run.OUT / f"selftest-{workload}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            ok &= selftest(workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "every corruption caught" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
