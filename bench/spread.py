#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --runs 10 [--first-seed 1] [--workload derived ...]

Runs bench/run.py once per seed (seeds first-seed .. first-seed+runs-1) on
each workload, one run at a time, and prints for every end-to-end metric
the median and the distance between the first and third quartile as a
share of the median, next to the metric's bound in BENCHMARK.json.  The raw
results go to bench/out/spread-<workload>-<first seed>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    worst = 0.0
    for name in args.workload or names:
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        out = BENCH_DIR / "out" / f"spread-{name}-{args.first_seed}.json"
        out.write_text(json.dumps({"walls": walls, "results": results}, indent=1) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"correct {all(r['correct'] for r in results)}, failed shares {shares}")
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med
            if metric != "setup_s":
                worst = max(worst, iqr / bound)
            print(f"  {metric:16s} median {med:10.5g}  iqr/median {iqr:6.3f}  "
                  f"bound {bound:.3f}  ({iqr / bound:.2f} of bound)")
    print(f"largest spread, as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
