"""Serving layer — snapshot I/O, cached vs uncached spread, loadgen run.

Not a paper figure, but the operational face of the paper's headline
claim: because oracle queries are microseconds, a single process can
sustain thousands of influence queries per second.  Four measurements:

* snapshot round trip (save + load) of the sketch oracle;
* ``OracleService.spread`` with a cold cache vs the LRU hit path;
* a 4-thread closed-loop loadgen acceptance run (≥1k requests, zero
  errors tolerated) whose latency percentiles land in the results table;
* ``test_serve_mixed_ingest_rounds`` — loadgen rounds that mix
  ``/v1/ingest`` batches into the reads, one results-table line per
  round.

Read latency under load is measured by ``perfbench`` (workload
``serve-live``); these benchmarks assert correctness under load.
"""

import pytest
from conftest import register_text

from repro.core.approx import ApproxIRS
from repro.core.oracle import ApproxInfluenceOracle
from repro.ingest.live import LiveIndex
from repro.serve.loadgen import ServiceClient, run_loadgen, synth_workload
from repro.serve.service import OracleService
from repro.serve.snapshot import load_oracle, save_oracle

WINDOW_PERCENT = 20
PRECISION = 9
LOADGEN_REQUESTS = 2_000
LOADGEN_THREADS = 4

#: Mixed read/write loadgen rounds; the per-round workload is smaller
#: than the acceptance run so five rounds stay cheap.
MIXED_ROUNDS = 5
MIXED_REQUESTS = 1_000

#: Share of each mixed round's requests that are /v1/ingest batches.
INGEST_FRACTION = 0.2


@pytest.fixture(scope="module")
def serve_oracle(catalog_logs):
    log = catalog_logs["slashdot-sim"]
    return ApproxInfluenceOracle.from_index(
        ApproxIRS.from_log(log, log.window_from_percent(WINDOW_PERCENT), PRECISION)
    )


@pytest.fixture(scope="module")
def snapshot_path(serve_oracle, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "oracle.snap")
    save_oracle(path, serve_oracle)
    return path


def test_serve_snapshot_round_trip(benchmark, serve_oracle, snapshot_path, tmp_path):
    info = save_oracle(str(tmp_path / "size-probe.snap"), serve_oracle)
    register_text(
        "Serve-snapshot",
        f"Serve snapshot: {info['kind']} oracle, {info['nodes']} nodes, "
        f"{info['bytes']} bytes on disk",
    )

    def round_trip():
        path = str(tmp_path / "bench.snap")
        save_oracle(path, serve_oracle)
        return load_oracle(path)

    loaded = benchmark(round_trip)
    nodes = sorted(serve_oracle.nodes(), key=repr)[:16]
    assert loaded.spread(nodes) == serve_oracle.spread(nodes)


def test_serve_spread_uncached(benchmark, serve_oracle):
    service = OracleService(serve_oracle, cache_size=0)  # cache disabled
    nodes = sorted(serve_oracle.nodes(), key=repr)
    seeds = nodes[:64]
    benchmark(service.spread, seeds)
    assert service.stats()["cache"]["hits"] == 0


def test_serve_spread_cached(benchmark, serve_oracle):
    service = OracleService(serve_oracle, cache_size=64)
    nodes = sorted(serve_oracle.nodes(), key=repr)
    seeds = nodes[:64]
    service.spread(seeds)  # warm the single hot entry
    benchmark(service.spread, seeds)
    stats = service.stats()["cache"]
    assert stats["hits"] >= 1
    assert stats["hit_rate"] > 0.5


def test_serve_loadgen_acceptance(benchmark, serve_oracle):
    """4 threads × 2k requests through the service: zero errors, and the
    latency percentiles + cache hit-rate become a results artifact."""
    service = OracleService(serve_oracle, cache_size=256)
    nodes = sorted(serve_oracle.nodes(), key=repr)
    workload = synth_workload(nodes, LOADGEN_REQUESTS, rng=13)
    client = ServiceClient(service)

    report = benchmark.pedantic(
        lambda: run_loadgen(client, workload, threads=LOADGEN_THREADS),
        iterations=1,
        rounds=1,
    )
    assert report.errors == 0
    assert report.requests == LOADGEN_REQUESTS
    cache = service.stats()["cache"]
    assert cache["hit_rate"] > 0
    register_text(
        "Serve-loadgen",
        report.table()
        + f"\ncache_hit_rate  {cache['hit_rate']:.1%}"
        + f"\ncache_entries   {cache['size']}/{cache['capacity']}",
    )


def test_serve_mixed_ingest_rounds(serve_oracle):
    """Reads beside concurrent ingestion: zero errors, writes applied.

    ``INGEST_FRACTION`` of each round's requests are write batches
    applied to a live index through the same worker pool, so the reads
    share the process with the writer-priority ingest lock.  Each
    round's latency percentiles become one line of the results table.
    """
    service = OracleService(serve_oracle, cache_size=256)
    nodes = sorted(serve_oracle.nodes(), key=repr)
    lines = []
    for round_index in range(MIXED_ROUNDS):
        live = LiveIndex(window=10_000, decay_window=50_000)
        client = ServiceClient(service, live=live)
        workload = synth_workload(
            nodes,
            MIXED_REQUESTS,
            rng=29 + round_index,
            ingest_fraction=INGEST_FRACTION,
        )
        report = run_loadgen(client, workload, threads=LOADGEN_THREADS)
        assert report.errors == 0
        assert report.requests == MIXED_REQUESTS
        assert report.per_endpoint.get("ingest", 0) > 0
        assert live.stats()["events_applied"] > 0
        lines.append(
            f"round {round_index + 1}  p50 {report.p50_ms:>8.3f} ms  "
            f"p95 {report.p95_ms:>8.3f} ms  p99 {report.p99_ms:>8.3f} ms  "
            f"{report.throughput_rps:>8.1f} rps  "
            f"ingest {report.per_endpoint['ingest']}/{report.requests}"
        )
    register_text("Serve-mixed-ingest", "\n".join(lines))
