"""Stability check: repeat the benchmark and summarise each metric's spread.

    python3 perfbench/stability.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs ``perfbench/run.py --seconds <run_seconds> --trace 0`` once per seed
(first-seed, first-seed + 1, ...) for every named workload (default: all,
from BENCHMARK.json), one run at a time, from the current directory, and
keeps each run's stderr (its per-round times) in ``perfbench/_out/stability/``.
Prints, per workload and metric, the median, the first and third quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median, and the
failed share of operations.  ``wall_poses_per_s``, read from each run's
stderr, is the same throughput without speed normalization.  The last
line is the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]

    logs = HERE / "_out" / "stability"
    logs.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name in names:
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                                   "--trace", "0"],
                                  capture_output=True, text=True)
            (logs / f"{name}-{seed}.err").write_text(proc.stderr)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            walls.append(float(re.search(r"wall poses_per_s (\S+)", proc.stderr).group(1)))
        row = {"failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
               "correct": all(r["correct"] for r in results), "metrics": {}}
        values = {m: [r["metrics"][m]["value"] for r in results] for m in results[0]["metrics"]}
        values["wall_poses_per_s"] = walls
        for metric, v in values.items():
            s = row["metrics"][metric] = summarise(v)
            print(f"{name:16s} {metric:36s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:7.2%}")
        print(f"{name:16s} correct {row['correct']}  failed share {row['failed_share']}")
        summary[name] = row
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
