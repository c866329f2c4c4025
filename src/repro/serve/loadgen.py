"""Closed-loop load generator for the oracle serving layer.

Drives an :class:`~repro.serve.service.OracleService` — either in-process
or over HTTP — with a deterministic synthetic workload, and reports
latency percentiles the way a serving benchmark should: per-request
wall-clock measured around the *whole* call, p50/p95/p99 over the merged
per-thread samples, zero tolerance for errors.

Closed loop means each worker thread issues its next request only after
the previous one completed, so concurrency equals the thread count and
the measured latency is not inflated by client-side queueing.

The workload mirrors a dashboard-style query mix: mostly ``spread``
queries drawn from a small pool of recurring seed sets (which is what
makes the LRU cache earn its keep), some ``influence`` point lookups and
the occasional ``topk`` scan.  Everything is seeded through
:mod:`repro.utils.rng`, so two runs against the same snapshot issue the
same requests in the same per-thread order.

``ingest_fraction`` mixes *writes* into the stream: that share of
requests POST interaction batches to ``/v1/ingest`` (or apply straight
to an in-process :class:`~repro.ingest.live.LiveIndex`), so the reported
read percentiles measure query latency **under concurrent ingestion** —
the contention the writer-priority lock is supposed to keep small.
Event times come from a shared monotonic :class:`IngestClock` at *send*
time, because pre-assigning them per request would go stale under
multi-threaded reordering; the server counts any stragglers as
``rejected``, never as errors.

Also runnable standalone::

    python -m repro.serve.loadgen --snapshot oracle.snap --requests 1000
    python -m repro.serve.loadgen --url http://127.0.0.1:8750 --requests 500
    python -m repro.serve.loadgen --url ... --ingest-fraction 0.2
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.error
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.serve.accesslog import REQUEST_ID_HEADER, RequestIdGenerator
from repro.serve.client import JsonClient
from repro.serve.service import OracleService
from repro.utils.rng import RngLike, resolve_rng
from repro.utils.timer import Timer
from repro.utils.validation import require_int, require_positive, require_type

__all__ = [
    "HttpClient",
    "IngestClock",
    "LoadgenReport",
    "ServiceClient",
    "main",
    "run_loadgen",
    "synth_workload",
]

Node = Hashable

#: Request mix: cumulative probability bounds for (spread, influence, topk).
_SPREAD_SHARE = 0.70
_INFLUENCE_SHARE = 0.25


class IngestClock:
    """Monotonic event-time source shared by all loadgen workers.

    The live index requires non-decreasing event times; stamping at
    *send* time under one lock keeps concurrent workers ordered without
    coordinating the request schedule itself.
    """

    def __init__(self, start: int = 1) -> None:
        require_int(start, "start")
        self._lock = threading.Lock()
        self._now = start  # repro-lint: guarded-by=_lock

    def next_time(self) -> int:
        """The next (strictly increasing) event time."""
        with self._lock:
            self._now += 1
            return self._now


def synth_workload(
    nodes: Sequence[Node],
    count: int,
    rng: RngLike = 0,
    pool_size: int = 32,
    max_seeds: int = 8,
    ingest_fraction: float = 0.0,
    ingest_pairs: int = 4,
) -> List[Dict[str, object]]:
    """``count`` deterministic request dicts over ``nodes``.

    ``pool_size`` recurring seed sets are drawn first; each spread request
    then picks from the pool with a rank-skewed preference (earlier sets
    are hotter), so any cache larger than the pool converges to a high
    hit rate — the realistic shape of dashboard traffic.

    ``ingest_fraction`` of the requests become write batches of
    ``ingest_pairs`` random ``[source, target]`` pairs (times are stamped
    by the client at send time); the read mix keeps its internal 70/25/5
    proportions over the remaining share.
    """
    require_int(count, "count")
    require_positive(count, "count")
    require_int(pool_size, "pool_size")
    require_positive(pool_size, "pool_size")
    require_int(max_seeds, "max_seeds")
    require_positive(max_seeds, "max_seeds")
    require_type(ingest_fraction, "ingest_fraction", (int, float))
    if not 0.0 <= ingest_fraction <= 1.0:
        raise ValueError(
            f"ingest_fraction must be within [0, 1], got {ingest_fraction}"
        )
    require_int(ingest_pairs, "ingest_pairs")
    require_positive(ingest_pairs, "ingest_pairs")
    if not nodes:
        raise ValueError("synth_workload needs a non-empty node sequence")
    generator = resolve_rng(rng)
    universe = list(nodes)
    pool: List[List[Node]] = []
    for _ in range(pool_size):
        size = 1 + generator.randrange(max_seeds)
        pool.append([generator.choice(universe) for _ in range(size)])
    read_share = 1.0 - ingest_fraction
    spread_bound = ingest_fraction + _SPREAD_SHARE * read_share
    influence_bound = spread_bound + _INFLUENCE_SHARE * read_share
    requests: List[Dict[str, object]] = []
    for _ in range(count):
        roll = generator.random()
        if roll < ingest_fraction:
            pairs = [
                [generator.choice(universe), generator.choice(universe)]
                for _ in range(ingest_pairs)
            ]
            requests.append({"endpoint": "ingest", "pairs": pairs})
        elif roll < spread_bound:
            # Rank-skewed pool pick: square the uniform draw so low ranks
            # (hot seed sets) dominate without starving the tail.
            rank = int(generator.random() ** 2 * len(pool))
            requests.append({"endpoint": "spread", "seeds": list(pool[rank])})
        elif roll < influence_bound:
            requests.append({"endpoint": "influence", "node": generator.choice(universe)})
        else:
            requests.append({"endpoint": "topk", "k": 1 + generator.randrange(10)})
    return requests


class ServiceClient:
    """Executes workload requests against an in-process service.

    Pass a :class:`~repro.ingest.live.LiveIndex` as ``live`` to accept
    ``ingest`` workload ops; its event times come from ``clock``.
    """

    def __init__(
        self,
        service: OracleService,
        live: Optional[object] = None,
        clock: Optional[IngestClock] = None,
    ) -> None:
        require_type(service, "service", OracleService)
        self._service = service
        self._live = live
        self._clock = clock if clock is not None else IngestClock()

    def request(self, op: Dict[str, object]) -> object:
        """Execute one workload request; raises on service errors."""
        endpoint = op["endpoint"]
        if endpoint == "spread":
            return self._service.spread(op["seeds"])  # type: ignore[arg-type]
        if endpoint == "influence":
            return self._service.influence(op["node"])
        if endpoint == "topk":
            return self._service.influence_topk(op["k"])  # type: ignore[arg-type]
        if endpoint == "ingest":
            if self._live is None:
                raise ValueError(
                    "ingest workload needs a live index; pass ServiceClient(service, live=...)"
                )
            time = self._clock.next_time()
            events = [
                (source, target, time)
                for source, target in op["pairs"]  # type: ignore[union-attr]
            ]
            return self._live.apply_events(events)  # type: ignore[attr-defined]
        raise ValueError(f"unknown workload endpoint {endpoint!r}")


class HttpClient:
    """Executes workload requests against a running ``repro serve``.

    Each worker thread keeps one connection open across its requests
    (:class:`~repro.serve.client.JsonClient`).  Every request carries a
    client-minted ``X-Request-Id`` header, so the server's access log and
    spans attribute under ids the load generator can correlate with its
    own latency samples.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        clock: Optional[IngestClock] = None,
    ) -> None:
        self._json = JsonClient(base_url, timeout=timeout)
        self._request_ids = RequestIdGenerator()
        self._clock = clock if clock is not None else IngestClock()

    def request(self, op: Dict[str, object]) -> object:
        """POST one workload request; raises on any non-200 answer."""
        endpoint = op["endpoint"]
        if endpoint == "spread":
            route, body = "/v1/spread", {"seeds": op["seeds"]}
        elif endpoint == "influence":
            route, body = "/v1/influence", {"node": op["node"]}
        elif endpoint == "topk":
            route, body = "/v1/topk", {"k": op["k"], "method": "influence"}
        elif endpoint == "ingest":
            time = self._clock.next_time()
            route, body = "/v1/ingest", {
                "events": [
                    [source, target, time]
                    for source, target in op["pairs"]  # type: ignore[union-attr]
                ]
            }
        else:
            raise ValueError(f"unknown workload endpoint {endpoint!r}")
        request_id = f"loadgen:{self._request_ids.next_id()}"
        return self._json.post(route, body, {REQUEST_ID_HEADER: request_id})

    def close(self) -> None:
        """Close the workers' kept-alive connections."""
        self._json.close()


def _percentile(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile over an ascending sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(quantile * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass(frozen=True)
class LoadgenReport:
    """Latency and error summary of one closed-loop run."""

    requests: int
    errors: int
    threads: int
    elapsed_seconds: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    per_endpoint: Dict[str, int] = field(default_factory=dict)
    error_messages: Tuple[str, ...] = ()

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.requests / self.elapsed_seconds

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready summary (the CI artifact format)."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "threads": self.threads,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "p50": self.p50_ms,
                "p95": self.p95_ms,
                "p99": self.p99_ms,
                "mean": self.mean_ms,
                "max": self.max_ms,
            },
            "per_endpoint": dict(self.per_endpoint),
        }

    def table(self) -> str:
        """A small human-readable report block."""
        lines = [
            f"requests        {self.requests}",
            f"threads         {self.threads}",
            f"errors          {self.errors}",
            f"elapsed_s       {self.elapsed_seconds:.3f}",
            f"throughput_rps  {self.throughput_rps:.1f}",
            f"latency_p50_ms  {self.p50_ms:.3f}",
            f"latency_p95_ms  {self.p95_ms:.3f}",
            f"latency_p99_ms  {self.p99_ms:.3f}",
            f"latency_mean_ms {self.mean_ms:.3f}",
            f"latency_max_ms  {self.max_ms:.3f}",
        ]
        for endpoint in sorted(self.per_endpoint):
            lines.append(f"endpoint {endpoint:<12} {self.per_endpoint[endpoint]}")
        for message in self.error_messages:
            lines.append(f"error: {message}")
        return "\n".join(lines)


def run_loadgen(
    client: object,
    requests: Sequence[Dict[str, object]],
    threads: int = 4,
    join_timeout: float = 120.0,
) -> LoadgenReport:
    """Drive ``requests`` through ``client.request`` with ``threads`` workers.

    ``client`` is anything with a ``request(op) -> object`` method
    (:class:`ServiceClient`, :class:`HttpClient`, or a test double).
    Requests are claimed from a shared cursor, so the partition across
    threads adapts to per-request latency — the closed loop never idles a
    worker while requests remain.

    Workers are joined against one shared ``join_timeout`` budget; a
    worker still running when it expires (a hung request with no client
    timeout, a deadlock) is abandoned as a daemon and *reported as an
    error* in the returned report rather than hanging the run forever or
    silently vanishing at interpreter exit.
    """
    require_int(threads, "threads")
    require_positive(threads, "threads")
    if join_timeout <= 0:
        raise ValueError(f"join_timeout must be > 0, got {join_timeout}")
    send: Callable[[Dict[str, object]], object] = getattr(client, "request")
    cursor_lock = threading.Lock()
    cursor = [0]
    latencies: List[List[float]] = [[] for _ in range(threads)]
    endpoint_counts: List[Dict[str, int]] = [{} for _ in range(threads)]
    errors: List[List[str]] = [[] for _ in range(threads)]

    def worker(slot: int) -> None:
        local_latencies = latencies[slot]
        local_counts = endpoint_counts[slot]
        while True:
            with cursor_lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] = index + 1
            op = requests[index]
            timer = Timer()
            try:
                with timer:
                    send(op)
            except (ValueError, TypeError, OSError, urllib.error.URLError) as exc:
                if len(errors[slot]) < 8:
                    errors[slot].append(f"{op.get('endpoint')}: {exc}")
                else:
                    errors[slot].append("")
                continue
            local_latencies.append(timer.elapsed)
            endpoint = str(op.get("endpoint"))
            local_counts[endpoint] = local_counts.get(endpoint, 0) + 1

    pool = [
        threading.Thread(
            target=worker, args=(slot,), name=f"loadgen-{slot}", daemon=True
        )
        for slot in range(threads)
    ]
    stuck: List[str] = []
    wall = Timer()
    with wall:
        for thread in pool:
            thread.start()
        remaining = join_timeout
        for thread in pool:
            if remaining > 0:
                join_timer = Timer()
                with join_timer:
                    thread.join(remaining)
                remaining = max(0.0, remaining - join_timer.elapsed)
            if thread.is_alive():
                stuck.append(
                    f"{thread.name}: still running after the {join_timeout:.0f}s "
                    "join timeout; worker abandoned"
                )

    merged = sorted(value for bucket in latencies for value in bucket)
    per_endpoint: Dict[str, int] = {}
    for counts in endpoint_counts:  # O(threads·endpoints)
        for endpoint, count in counts.items():
            per_endpoint[endpoint] = per_endpoint.get(endpoint, 0) + count
    error_count = sum(len(bucket) for bucket in errors) + len(stuck)
    messages = tuple(
        [message for bucket in errors for message in bucket if message] + stuck
    )[:8]
    mean = sum(merged) / len(merged) if merged else 0.0
    return LoadgenReport(
        requests=len(merged),
        errors=error_count,
        threads=threads,
        elapsed_seconds=wall.elapsed,
        p50_ms=_percentile(merged, 0.50) * 1e3,
        p95_ms=_percentile(merged, 0.95) * 1e3,
        p99_ms=_percentile(merged, 0.99) * 1e3,
        mean_ms=mean * 1e3,
        max_ms=(merged[-1] if merged else 0.0) * 1e3,
        per_endpoint=per_endpoint,
        error_messages=messages,
    )


def _workload_nodes(client: object, service: Optional[OracleService]) -> List[Node]:
    """Node universe for workload synthesis (service- or HTTP-sourced)."""
    if service is not None:
        return [node for node, _ in service.influence_topk(k=512)]
    assert isinstance(client, HttpClient)
    ranked = client.request({"endpoint": "topk", "k": 512})
    assert isinstance(ranked, dict)
    return [entry["node"] for entry in ranked["seeds"]]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: generate load, print (or write) the report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Closed-loop load generator for the influence-oracle server.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--snapshot", help="drive an in-process service from this snapshot")
    target.add_argument("--url", help="drive a running server, e.g. http://127.0.0.1:8750")
    parser.add_argument("--requests", type=int, default=1000, help="request count")
    parser.add_argument("--threads", type=int, default=4, help="worker threads")
    parser.add_argument(
        "--join-timeout",
        type=float,
        default=120.0,
        help="seconds to wait for workers before reporting them stuck",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload rng seed")
    parser.add_argument(
        "--pool-size", type=int, default=32, help="distinct recurring seed sets"
    )
    parser.add_argument(
        "--ingest-fraction",
        type=float,
        default=0.0,
        help="share of requests that POST interaction batches to /v1/ingest "
        "(default: 0 = read-only)",
    )
    parser.add_argument(
        "--live-window",
        type=int,
        default=10_000,
        help="live-index omega for in-process --snapshot runs with "
        "--ingest-fraction > 0 (default: 10000)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--output", "-o", default="", help="also write the report to this file"
    )
    args = parser.parse_args(argv)

    service: Optional[OracleService] = None
    client: object
    if args.snapshot:
        service = OracleService.from_snapshot(args.snapshot)
        live = None
        if args.ingest_fraction > 0:
            from repro.ingest.live import LiveIndex

            live = LiveIndex(window=args.live_window)
        client = ServiceClient(service, live=live)
    else:
        client = HttpClient(args.url)
    try:
        nodes = _workload_nodes(client, service)
        workload = synth_workload(
            nodes,
            args.requests,
            rng=args.seed,
            pool_size=args.pool_size,
            ingest_fraction=args.ingest_fraction,
        )
        report = run_loadgen(
            client, workload, threads=args.threads, join_timeout=args.join_timeout
        )
    except (OSError, ValueError, urllib.error.URLError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if isinstance(client, HttpClient):
            client.close()
    rendered = (
        json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.format == "json"
        else report.table()
    )
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if service is not None:
        cache = service.stats()["cache"]
        assert isinstance(cache, dict)
        print(f"cache hit-rate: {cache['hit_rate']:.1%}")
    return 0 if report.errors == 0 else 1


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    sys.exit(main())
