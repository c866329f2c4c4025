#!/usr/bin/env python3
"""Print the host's speed over time: one step and the reference kernel.

    python3 perfbench/hostseries.py --seconds 60

Alternates ``ExactIRS.from_log`` on the catalog ``enron-sim`` log with
the reference kernel and prints one line per second: the median build
and kernel times in that second and their ratio.  The raw columns show
the host's slow episodes; the ratio column is what the benchmark's
normalisation keeps.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.exact import ExactIRS  # noqa: E402
from repro.datasets.catalog import CATALOG, load_dataset  # noqa: E402

from common import DATASET  # noqa: E402
from hostnorm import Meter  # noqa: E402

#: Generator seed of the one log the series builds.
LOG_SEED = 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=60)
    args = parser.parse_args()
    log = load_dataset(DATASET, rng=LOG_SEED)
    window = CATALOG[DATASET].time_span // 10
    meter = Meter()
    start = time.perf_counter()
    print(f"{'t_s':>4}{'build_ms':>10}{'kernel_ms':>11}{'ratio':>8}")
    for second in range(args.seconds):
        builds, kernels = [], []
        while time.perf_counter() - start < second + 1:
            begin = time.perf_counter()
            ExactIRS.from_log(log, window)
            builds.append(time.perf_counter() - begin)
            kernels.append(meter.sample())
        build, kernel = statistics.median(builds), statistics.median(kernels)
        print(f"{second:4d}{build * 1e3:10.1f}{kernel * 1e3:11.2f}{build / kernel:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
