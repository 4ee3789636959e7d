"""Steadiness of the benchmark: repeat each workload over several seeds.

    python3 bench/steady.py --runs 10 [--first-seed 100] [--out bench/results/x.json]

Runs bench/run.py once per seed on every workload of BENCHMARK.json (--trace
0, its run_seconds), one run at a time, and prints for every end-to-end
metric of every workload the median, the quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles as a share of the
median.  A spread at or above a third of the metric's bound is flagged;
setup_s is exempt.  --out also writes every run's metrics with the
environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--out")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"environment": workloads.environment(), "run_seconds": spec["run_seconds"],
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)), "workloads": {}}
    flagged = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in record["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            if not result.get("correct"):
                print(proc.stdout, proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no correct result")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
                  flush=True)
        record["workloads"][workload] = runs
        for metric, bound in bounds.items():
            med, q1, q3, s = spread([r[metric] for r in runs])
            flag = metric != "setup_s" and s >= bound / 3
            flagged += flag
            print(f"  {workload:9} {metric:12} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {s:.4f}  bound {bound}{'  TOO WIDE' if flag else ''}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
