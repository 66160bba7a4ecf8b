"""Benchmark of the resonat CLI on generated scenarios.

    python3 bench/run.py --workload <imaging|expansion|psf_large> --seed <n>
                         --seconds <s> --trace <0|1>

Run from the root of a source checkout; resonat is imported from ./src. The
process pins BLAS threads, writes the workload's scenario files, times the
set-up (a fresh interpreter importing resonat.cli), runs passes over the
workload's commands in-process through resonat.cli.main until --seconds have
gone, at least two so that outputs can be compared between passes, and checks
every output. The last line of stdout is one JSON object:
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics (setup_s, pass_s, peak_rss_mb); --trace 1 wraps the library's layers
and reports the per-layer metrics instead.
"""

import os
import sys

# Set before numpy loads: OpenBLAS reads these once, when the library loads.
THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import resonat.cli; "
                "print(time.perf_counter() - t)")

def blas_threads():
    """Effective threads of numpy's and scipy's bundled OpenBLAS copies."""
    import numpy
    import scipy
    out = {}
    for pkg, lib, symbol in ((numpy, "numpy.libs", "scipy_openblas_get_num_threads64_"),
                             (scipy, "scipy.libs", "scipy_openblas_get_num_threads")):
        base = Path(pkg.__file__).resolve().parent.parent / lib
        for path in glob.glob(str(base / "libscipy_openblas*.so")):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[pkg.__name__] = fn()
    return out


def measure_setup(env):
    """Median time of a fresh interpreter to import resonat.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"importing resonat.cli failed:\n{res.stderr}")
        times.append(float(res.stdout))
    return statistics.median(times)


def digest(directory):
    if not directory.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def count_failed(codes, hashes, check_fails):
    """Failed (pass, operation) pairs. An operation fails in a pass if its exit
    code is not 0, if its outputs differ from those of the first pass, or if
    the checks on the first pass's outputs fail: outputs are byte-identical
    from pass to pass, so checking the first pass checks them all."""
    failed = 0
    for pass_codes, pass_hashes in zip(codes, hashes):
        for label, code in pass_codes.items():
            failed += (code != 0 or pass_hashes[label] != hashes[0][label]
                       or bool(check_fails[label]))
    return failed


def run_op(cli, op, cfg_path, out):
    try:
        return cli.main([op.command, "--config", str(cfg_path), "--out", str(out)])
    except Exception:  # an uncaught fault counts as a failed operation
        traceback.print_exc(file=sys.stderr)
        return None


def run(workload, seed, seconds, trace, work):
    """One benchmark run; returns (correct, attempted, failed, metrics, info)."""
    import checks
    import resonat
    import resonat.cli as cli

    if not Path(resonat.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"resonat was imported from {resonat.__file__}, not from {SRC}")
    ops = WORKLOADS[workload](seed)
    work.mkdir(parents=True)
    cfg_paths = {}
    for op in ops:
        cfg_paths[op.label] = work / f"{op.label}.yaml"
        cfg_paths[op.label].write_text(yaml.safe_dump(op.config, sort_keys=False))

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    pass_times, codes, hashes = [], [], []
    start = time.perf_counter()
    while True:
        pass_dir = work / f"pass{len(pass_times)}"
        if tracer:
            tracer.pass_index = len(pass_times)
        t0 = time.perf_counter()
        codes.append({op.label: run_op(cli, op, cfg_paths[op.label], pass_dir / op.label)
                      for op in ops})
        pass_times.append(time.perf_counter() - t0)
        hashes.append({op.label: digest(pass_dir / op.label) for op in ops})
        if len(pass_times) > 1:
            shutil.rmtree(pass_dir)
            if time.perf_counter() - start >= seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    check_fails = {op.label: checks.check(op, work / "pass0" / op.label) for op in ops}
    failed = count_failed(codes, hashes, check_fails)
    attempted = len(pass_times) * len(ops)
    info = {"workload": workload, "seed": seed, "passes": len(pass_times),
            "pass_times": pass_times, "blas_threads": blas_threads(),
            "check_failures": {k: v for k, v in check_fails.items() if v}}
    if tracer:
        # every per-layer metric of BENCHMARK.json; one the workload never
        # reaches reads 0
        layer = tracer.metrics(len(pass_times))
        layer["trace.pass_s"] = statistics.median(pass_times)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        info["trace"] = tracer.dump()
    else:
        metrics = {"pass_s": {"value": statistics.median(pass_times), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    return failed == 0, attempted, failed, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "resonat" / "cli.py").is_file():
        print(f"bench: no resonat source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup(env)
        correct, attempted, failed, metrics, info = run(
            args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    trace = info.pop("trace", None)
    if trace is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        (OUT / "traces" / name).write_text(json.dumps({**info, **trace}))
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
