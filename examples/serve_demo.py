"""Snapshot an influence oracle and serve it: build → save → query → report.

The deployment shape the serving layer exists for: one process pays the
reverse-scan index build once and persists the resulting oracle as a
``repro-snap/2`` file; serving processes then answer ``Inf(S)`` queries
from the file without ever seeing the interaction log.  This example walks
the whole pipeline in-process —

1. generate a forum-style interaction log and build the sketch oracle,
2. snapshot it to disk and reload it (losslessly — same registers),
3. stand up an ``OracleService`` and replay a dashboard-style workload,
4. print the latency percentiles and the LRU cache hit-rate.

Run:  python examples/serve_demo.py
"""

import os
import tempfile

from repro import ApproxInfluenceOracle, ApproxIRS
from repro.datasets import forum_network
from repro.serve import OracleService, load_oracle, save_oracle, snapshot_info
from repro.serve.loadgen import ServiceClient, run_loadgen, synth_workload

WINDOW_PERCENT = 5
PRECISION = 7  # beta = 128 registers per node
REQUESTS = 2_000
THREADS = 4


def main() -> None:
    log = forum_network(
        num_nodes=400,
        num_interactions=5_000,
        time_span=10_000,
        rng=77,
    )
    window = log.window_from_percent(WINDOW_PERCENT)
    print(
        f"forum log: {log.num_nodes} nodes, {log.num_interactions} posts, "
        f"omega = {WINDOW_PERCENT}% = {window} ticks"
    )

    oracle = ApproxInfluenceOracle.from_index(
        ApproxIRS.from_log(log, window, precision=PRECISION)
    )

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "forum-oracle.snap")
        info = save_oracle(path, oracle)
        print(
            f"snapshot: {info['bytes']} bytes for {info['nodes']} nodes "
            f"({info['kind']})"
        )

        header = snapshot_info(path)
        print(f"header sections: {', '.join(header['sections'][:3])}, ...")

        reloaded = load_oracle(path)
        seeds = sorted(log.nodes)[:5]
        assert reloaded.spread(seeds) == oracle.spread(seeds)  # lossless
        print(f"reloaded spread of {len(seeds)} seeds: {reloaded.spread(seeds):.1f}")

        service = OracleService.from_snapshot(path, cache_size=256)
        workload = synth_workload(sorted(log.nodes), REQUESTS, rng=7)
        report = run_loadgen(ServiceClient(service), workload, threads=THREADS)

        print()
        print(report.table())
        cache = service.stats()["cache"]
        print()
        print(
            f"cache: {cache['hits']} hits / {cache['hits'] + cache['misses']} "
            f"lookups — hit-rate {cache['hit_rate']:.1%}"
        )


if __name__ == "__main__":
    main()
