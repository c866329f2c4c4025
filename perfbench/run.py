#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch-exact --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics instead.  The lines
before it are a readable table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-exact", "batch-sketch", "serve-live")


def obs_overhead_pct(seed: int) -> float:
    """Normalised approx-build time with ``REPRO_OBS=1`` against without."""
    figures = {}
    for flag in ("", "1"):
        env = {key: value for key, value in os.environ.items() if key != "REPRO_OBS"}
        if flag:
            env["REPRO_OBS"] = flag
        done = subprocess.run(
            [sys.executable, str(HERE / "obs_child.py"), "--seed", str(seed)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        figures[flag] = json.loads(done.stdout.strip().splitlines()[-1])["norm_s"]
    return (figures["1"] / figures[""] - 1.0) * 100.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload in this process; returns ``(ctx, e2e, wall, layers)``."""
    from common import Context

    # One vCPU for the client, the server threads and the reference
    # kernel, so the kernel samples the speed of the core the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        ctx = Context(workload, seed, seconds, trace, str(scratch))
        if workload == "serve-live":
            import live

            e2e, wall, layers = live.run(ctx)
        else:
            import batch

            e2e, wall, layers = batch.run(ctx, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    return ctx, e2e, wall, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    ctx, e2e, wall, layers = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    kernel_ms = ctx.meter.kernel_ms()
    if args.trace:
        layers.update({f"wall.{name}": value for name, value in wall.items()})
        layers["host.ref_kernel_ms"] = kernel_ms
        layers["trace.overhead_pct"] = ctx.trace_overhead_pct()
        layers["obs.overhead_pct"] = obs_overhead_pct(args.seed)

    outcome = ctx.outcome
    for error in outcome.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} host.ref_kernel_ms={kernel_ms:.3f}")
    print(f"{'metric':<24}{'normalised':>16}{'wall':>16}  unit")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        raw = wall.get(name)
        raw_text = f"{raw:16.6g}" if raw is not None else f"{'-':>16}"
        print(f"{name:<24}{e2e[name]:16.6g}{raw_text}  {entry['unit']}")
    if args.trace:
        for entry in spec["per_layer"]:
            print(f"{entry['name']:<40}{layers.get(entry['name'], 0.0):16.6g}  {entry['unit']}")

    selected = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    # A per-layer metric a workload does not exercise reports 0 (layer idle).
    metrics = {
        entry["name"]: {"value": float(source.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in selected
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
