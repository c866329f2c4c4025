#!/usr/bin/env python3
"""A/A steadiness check: the same code, many seeds, workloads interleaved.

    python3 perfbench/aa.py --runs 10 --sets 2 --out perfbench/results/aa.json

Runs ``perfbench/run.py`` ``runs`` times per workload and set, each run
with its own seed, round-robin over the workloads and sets so host
episodes spread over all of them.  For every end-to-end metric it
prints, per workload and set, the median and the spread (the distance
between the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), the drift of the
second set's median against the first, and the metric's bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The table above the JSON line holds the raw wall-clock figures.
    result["kernel_ms"] = float(lines[0].rsplit("host.ref_kernel_ms=", 1)[1])
    result["wall"] = {}
    for line in lines[2:-1]:
        name, _, raw, _ = line.split()
        if raw != "-":
            result["wall"][name] = float(raw)
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def host_slope(runs: list, name: str, rate: bool) -> float:
    """Slope of log raw time against log median kernel time across runs.

    This is how ``common.SENSITIVITY`` was derived: the α that makes a
    phase's figure independent of the host's speed.
    """
    xs = [math.log(run["kernel_ms"]) for run in runs]
    ys = [math.log(run["wall"][name]) * (-1 if rate else 1) for run in runs]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()

    results = {w: [[] for _ in range(args.sets)] for w in names}
    started = time.time()
    for index in range(args.runs):
        for which in range(args.sets):
            for workload in names:
                seed = args.seed_base + which * args.runs + index
                result = run_once(workload, seed, spec["run_seconds"])
                results[workload][which].append(result)
                print(f"[{time.time() - started:6.0f}s] {workload} set={which} seed={seed} "
                      f"correct={result['correct']} failed={result['failed']}", flush=True)
                if args.out:
                    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")

    worst = 0.0
    print(f"\n{'workload':<14}{'metric':<22}{'bound':>7}"
          + "".join(f"{'median' + str(s):>14}{'spread' + str(s):>9}" for s in range(args.sets))
          + (f"{'drift':>8}" if args.sets > 1 else ""))
    for workload in names:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            line = f"{workload:<14}{name:<22}{bound:7.2f}"
            medians = []
            for runs in results[workload]:
                values = [run["metrics"][name]["value"] for run in runs]
                medians.append(statistics.median(values))
                share = spread(values)
                if name != "setup_s":
                    worst = max(worst, share / bound)
                line += f"{medians[-1]:14.6g}{share:9.3f}"
            if args.sets > 1:
                drift = medians[1] / medians[0] - 1.0
                if entry["better"] == "higher":
                    drift = -drift
                line += f"{drift:+8.3f}"
            print(line)
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.2f}")
    print("\nhost slope of raw time against kernel time, all runs (see common.SENSITIVITY)")
    for workload in names:
        runs = [run for runs in results[workload] for run in runs]
        slopes = [
            f"{entry['name']}={host_slope(runs, entry['name'], entry['better'] == 'higher'):.2f}"
            for entry in spec["end_to_end"]
            if entry["name"] in runs[0]["wall"]
        ]
        print(f"{workload:<14}" + " ".join(slopes))
    failed = sum(run["failed"] for sets in results.values() for runs in sets for run in runs)
    print(f"failed operations over all runs: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
