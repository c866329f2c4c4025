"""Time ``ApproxIRS.from_log`` builds in a fresh process.

``REPRO_OBS`` is read when ``repro`` is imported, so the instrumentation
cost of the vHLL build is measured as a pair of these processes, one
with ``REPRO_OBS=1`` and one without.  Prints one JSON line.

    python3 perfbench/obs_child.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.approx import ApproxIRS  # noqa: E402
from repro.datasets.catalog import CATALOG, load_dataset  # noqa: E402

from common import DATASET, SENSITIVITY  # noqa: E402
from hostnorm import Meter, Phase  # noqa: E402

#: Timed builds per process.
BUILDS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    log = load_dataset(DATASET, rng=args.seed)
    window = CATALOG[DATASET].time_span // 10
    meter = Meter()
    phase = Phase("build", SENSITIVITY["batch-sketch"]["build"])
    for _ in range(BUILDS):
        start = time.perf_counter()
        ApproxIRS.from_log(log, window, 9)
        phase.add(time.perf_counter() - start, meter.sample())
    print(json.dumps({
        "obs": os.environ.get("REPRO_OBS", ""),
        "norm_s": phase.norm(),
        "wall_s": phase.wall(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
