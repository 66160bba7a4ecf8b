"""Steadiness of the benchmark: run each workload repeatedly, each run in a
fresh process with its own seed, and print the median and quartiles of every
metric, with the spread (q3 - q1) / median that the bounds in BENCHMARK.json
are set from.

    python3 bench/steady.py [--runs 10] [--trace 0] [--seconds 20]

Run r of every workload of BENCHMARK.json uses seed r. With --runs 1 it is
the one command that runs every workload once and prints each metric by name
and unit, with the operations attempted and failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(args.runs):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(res)
            print(f"{workload} seed={seed} wall={wall:.1f}s " + json.dumps(res), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        ok &= correct and failed == 0
        print(f"\n{workload}: {len(results)} runs, attempted {attempted}, failed {failed}, "
              f"correct {correct}")
        print(f"  {'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:44s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {'' if bound is None else f'{bound:.2f}':>6s}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
