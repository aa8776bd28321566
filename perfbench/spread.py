"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/spread.py --runs 10 --first-seed 100 [--workload W ...]

Run from the root of a checkout.  For every workload it makes --runs
untraced runs of BENCHMARK.json's run_seconds, seeds first-seed,
first-seed + 1, ..., and prints for each end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound.  The raw result lines go to
.perfbench-runs/spread-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    doc = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in doc["workloads"]])
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in doc["workloads"]]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    record = {}
    for name in names:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [*doc["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(doc["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(line)
            print(f"{name} seed {seed}: correct {line['correct']} "
                  f"failed {line['failed']}/{line['attempted']} "
                  + " ".join(f"{m}={v['value']:.4f}"
                             for m, v in line["metrics"].items()),
                  flush=True)
        record[name] = results
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            print(f"  {name} {metric}: median {med:.4f} quartiles "
                  f"{q1:.4f} {q3:.4f} spread {share:.4f} (bound {bound})",
                  flush=True)
    out = Path(".perfbench-runs") / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
