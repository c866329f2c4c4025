"""The ``serve-live`` workload: writes beside reads, over real HTTP.

An in-process ``build_server(port=0)`` hosts a sketch-mode ``LiveIndex``
with a ``2ω`` decay window (the time-decaying influencer-tracking
setting).  One closed-loop client, like ``repro ingest tail``, replays
``enron-sim`` at twice catalog scale in time order: it POSTs
``/v1/ingest`` batches of 128 events and after each batch sends four
dashboard reads (the ``synth_workload`` spread and influence requests;
its O(n) ``topk`` scans are left out).  ``SnapshotPublisher.publish_once``
runs synchronously after the first batch and then after every 2,048
events, plus once at the end; no timer drives it.

The client is the program's own: ``HttpIngestClient`` (the client of
``repro ingest tail``) for ``/v1/ingest`` and ``/v1/topk_live``, and the
load generator's ``HttpClient`` for the reads.  ``peak_rss_mb`` is read
at the end of the pass, while the deployment is the only index alive.

After the pass the deployment is shut down and dropped, and the
workload measures a direct in-process ``LiveIndex.apply_events`` replay
(the live index build), CELF on the published oracle, distinct uncached
``Inf(S)`` queries on it and cold loads of the published snapshot.
"""

from __future__ import annotations

import gc
import os
import random
import threading
import time
import urllib.error
import urllib.request
from typing import Callable, List, Tuple

from repro.core.maximization import celf_top_k
from repro.datasets.catalog import CATALOG, load_dataset
from repro.ingest.live import LiveIndex
from repro.ingest.publisher import SnapshotPublisher
from repro.ingest.tail import HttpIngestClient
from repro.serve.http import build_server
from repro.serve.loadgen import HttpClient, synth_workload
from repro.serve.service import OracleService
from repro.serve.snapshot import load_oracle

from common import DATASET, Context, layer_means, mean, peak_rss_mb, query_pool, traced_step
from hostnorm import wait_for_threads
from proxies import TracedOracle

WINDOW = CATALOG[DATASET].time_span // 10
SCALE = 2.0
#: The live log is the same in every run; ``--seed`` draws the read mix
#: and the query sets.  Across generator seeds the live index's cost per
#: event has an interquartile range of about 20 % at this scale, wider
#: than any useful bound, and the batch workloads already sample input
#: structure with many logs per run.
LOG_SEED = 0
BATCH = 128
READS_PER_BATCH = 4
#: The live index sweeps every 1,024 events, so a step of 8 batches holds
#: exactly one sweep and the per-step figures are alike.
BATCHES_PER_STEP = 8
PUBLISH_EVERY = 2048
SEED_COUNT = 10
SETUPS = 5
TOPK_LIVE_CALLS = 5

#: Share of the budget left after the fixed live pass and replay.
SHARES = {"seeds": 0.35, "query": 0.35, "load": 0.3}


def _answer(call: Callable, *args) -> Tuple[int, dict]:
    """Status and body of one request; the clients raise on a non-200 answer."""
    try:
        return 200, call(*args)
    except urllib.error.HTTPError as error:
        return error.code, {}


class Deployment:
    """Live index, query service, publisher and HTTP server, in this process."""

    def __init__(self, scratch: str) -> None:
        self.live = LiveIndex(WINDOW, mode="sketch", decay_window=2 * WINDOW)
        self.service = OracleService(self.live.build_oracle(), source="boot")
        self.path = os.path.join(scratch, "live.snap")
        self.publisher = SnapshotPublisher(self.live, self.service, self.path)
        self.server = build_server(
            self.service, port=0, live=self.live, publisher=self.publisher
        )
        # A daemon, so a failed run still exits; close() stops it cleanly.
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="perfbench-http",
            daemon=True,
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        base = f"http://{host}:{port}"
        self.ingest = HttpIngestClient(base, timeout=30)
        self.reads = HttpClient(base, timeout=30)
        self.threads = threading.active_count()
        try:
            with urllib.request.urlopen(f"{base}/v1/healthz", timeout=30) as response:
                response.read()
        except urllib.error.HTTPError as error:
            self.close()
            raise RuntimeError(f"server not ready: /v1/healthz answered {error.code}")

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


def _reads(nodes: List, seed: int, generation: int, count: int) -> List[dict]:
    """Dashboard reads over the nodes the published generation knows."""
    ops: List[dict] = []
    draw = 0
    while len(ops) < count:
        batch = synth_workload(nodes, 2 * count, rng=seed * 7919 + generation * 31 + draw)
        ops.extend(op for op in batch if op["endpoint"] != "topk")
        draw += 1
    return ops[:count]


def _wrap(obj: object, attr: str, recorder, name: str, remote: bool = False) -> None:
    """Span every call of ``obj.attr`` (an instance attribute shadows the method)."""
    inner = getattr(obj, attr)

    def traced(*args, **kwargs):
        parent = (recorder.remote_parent or None) if remote else None
        with recorder.span(name, parent=parent):
            return inner(*args, **kwargs)

    setattr(obj, attr, traced)


def _setup(ctx: Context):
    """Log generation to a ready server, ``SETUPS`` times; keeps the last one."""
    rec = ctx.recorder
    clock = time.perf_counter
    state: dict = {}

    def setup_step(traced: bool):
        previous = state.pop("deployment", None)
        if previous is not None:
            previous.close()
        del previous
        state.clear()
        gc.collect()  # every set-up starts from the same heap
        start = clock()
        with rec.span("datasets.generate"):
            log = load_dataset(DATASET, rng=LOG_SEED, scale=SCALE)
        events = [(record.source, record.target, record.time) for record in log]
        deployment = Deployment(ctx.scratch)
        elapsed = clock() - start
        state.update(events=events, deployment=deployment)
        return elapsed, 1, ()

    setup = ctx.run_phase("setup", setup_step, SETUPS, max_steps=SETUPS)
    return setup, state["events"], state["deployment"]


def _live_pass(ctx: Context, deployment: Deployment, steps: List, events: List) -> dict:
    """Ingest, reads and publishes over HTTP, then the pass gates."""
    rec = ctx.recorder
    outcome = ctx.outcome
    meter = ctx.meter
    clock = time.perf_counter
    live, service = deployment.live, deployment.service
    meter.quiesce = lambda: wait_for_threads(deployment.threads)

    if ctx.trace:
        _wrap(live, "apply_events", rec, "ingest.live.apply_events", remote=True)
        _wrap(service, "spread", rec, "serve.service.call", remote=True)
        _wrap(service, "influence", rec, "serve.service.call", remote=True)
        _wrap(live, "build_oracle", rec, "ingest.live.build_oracle")
        _wrap(service, "reload", rec, "serve.service.reload")

    ingest, ingest_traced = ctx.twins("ingest")
    reads, reads_traced = ctx.twins("reads")
    publish, publish_traced = ctx.twins("publish")
    known = set()
    ops: List[dict] = []
    generation = 0
    since_publish = 0

    def publish_now(traced: bool) -> List[dict]:
        nonlocal generation, since_publish
        rec.enabled = traced
        start = clock()
        with rec.span("ingest.publisher.publish_once"):
            result = deployment.publisher.publish_once(force=True)
        elapsed = clock() - start
        rec.enabled = False
        (publish_traced if traced else publish).add(elapsed, meter.sample())
        outcome.check(result.get("outcome") == "published", f"publish failed: {result}")
        generation += 1
        since_publish = 0
        reads_per_generation = PUBLISH_EVERY // BATCH * READS_PER_BATCH
        return _reads(sorted(known, key=repr), ctx.seed, generation, reads_per_generation)

    for number, step in enumerate(steps):
        traced = ctx.trace and traced_step(number)
        rec.enabled = traced
        if traced:
            rec.new_step()
        ingest_s = 0.0
        step_events = 0
        latencies: List[float] = []
        for batch in step:
            begin = clock()
            with rec.span("serve.http.ingest") as span_id:
                rec.remote_parent = span_id
                status, body = _answer(deployment.ingest.ingest, batch)
                rec.remote_parent = 0
            ingest_s += clock() - begin
            outcome.check(
                status == 200 and body.get("applied") == len(batch) and body.get("rejected") == 0,
                f"ingest answered {status} {body}",
            )
            step_events += len(batch)
            since_publish += len(batch)
            for source, target, _ in batch:
                known.add(source)
                known.add(target)
            for _ in range(min(READS_PER_BATCH, len(ops))):
                op = ops.pop()
                begin = clock()
                with rec.span("serve.http.read") as span_id:
                    rec.remote_parent = span_id
                    status, body = _answer(deployment.reads.request, op)
                    rec.remote_parent = 0
                latencies.append(clock() - begin)
                outcome.check(status == 200, f"{op['endpoint']} answered {status}")
        rec.enabled = False
        kernel = meter.sample()
        (ingest_traced if traced else ingest).add(ingest_s, kernel, step_events)
        if latencies:
            (reads_traced if traced else reads).add(
                sum(latencies), kernel, len(latencies), latencies
            )
        if generation == 0 or since_publish >= PUBLISH_EVERY:
            ops = publish_now(ctx.trace and generation % 2 == 1)
    ops = publish_now(False)
    # The deployment at its largest: the live index, the served oracle and,
    # from the publishes, the one being built beside it.
    rss = peak_rss_mb()
    meter.quiesce = None

    # -- pass gates -------------------------------------------------------
    stats = live.stats()
    outcome.check(
        stats["events_applied"] == len(events),
        f"applied {stats['events_applied']} of {len(events)} events",
    )
    outcome.check(stats["events_rejected"] == 0, f"{stats['events_rejected']} events rejected")
    for op in ops:
        if op["endpoint"] == "spread":
            status, body = _answer(deployment.reads.request, op)
            outcome.check(
                status == 200 and body.get("spread") == live.spread(op["seeds"]),
                "served /v1/spread differs from LiveIndex.spread after the final publish",
            )
    topk_live: List[float] = []
    if ctx.trace:
        for _ in range(TOPK_LIVE_CALLS):
            begin = clock()
            status, _ = _answer(deployment.ingest.topk_live, SEED_COUNT)
            topk_live.append(clock() - begin)
            outcome.check(status == 200, f"/v1/topk_live answered {status}")

    # The queries after the pass run on the published snapshot; their
    # expected answers come from the live index.
    oracle = load_oracle(deployment.path)
    nodes = sorted(oracle.nodes(), key=repr)
    pool = query_pool(nodes, random.Random(ctx.seed), 512)
    return {
        "rss": rss,
        "stats": stats,
        "cache": service.stats()["cache"],
        "topk_live": topk_live,
        "snapshot_bytes": os.path.getsize(deployment.path),
        "oracle": oracle,
        "nodes": nodes,
        "pool": pool,
        "expected": [live.spread(seed_set) for seed_set in pool],
    }


def run(ctx: Context):
    rec = ctx.recorder
    outcome = ctx.outcome
    clock = time.perf_counter
    started = clock()
    # The server is in this process; no proxy from the environment may
    # see the clients' requests.
    for key in [key for key in os.environ if key.lower().endswith("_proxy")]:
        del os.environ[key]

    setup, events, deployment = _setup(ctx)
    batches = [events[i : i + BATCH] for i in range(0, len(events), BATCH)]
    # One batch first, so the first publish (and the dashboard reads after
    # it) comes early; then steps of BATCHES_PER_STEP batches.
    steps = [batches[:1]] + [
        batches[i : i + BATCHES_PER_STEP] for i in range(1, len(batches), BATCHES_PER_STEP)
    ]
    found = _live_pass(ctx, deployment, steps, events)
    path = deployment.path
    deployment.close()
    del deployment
    gc.collect()
    ingest = ctx.phases["ingest"][0]
    reads, reads_traced = ctx.phases["reads"]
    publish = ctx.phases["publish"][0]
    oracle, nodes, pool, expected = found["oracle"], found["nodes"], found["pool"], found["expected"]

    # -- the live index build: direct apply_events replay (one full pass) --
    replay = LiveIndex(WINDOW, mode="sketch", decay_window=2 * WINDOW)
    replayed: List[int] = []

    def build_step(traced: bool):
        count = 0
        start = clock()
        for batch in steps[len(replayed)]:
            with rec.span("ingest.live.replay"):
                replay.apply_events(batch)
            count += len(batch)
        elapsed = clock() - start
        replayed.append(count)
        return elapsed, count, ()

    count = len(steps) // 2 if ctx.trace else len(steps)  # traced runs split one replay
    build = ctx.run_phase("build", build_step, count, max_steps=count)
    replay_stats = replay.stats()
    outcome.check(
        replay_stats["events_applied"] == sum(replayed)
        and replay_stats["events_rejected"] == 0,
        "direct replay did not apply every event",
    )
    del replay
    gc.collect()

    # -- CELF, uncached Inf(S) and cold loads on the published oracle ------
    remaining = max(ctx.seconds - (clock() - started), 0.0)
    picks = []
    gain_calls = []

    def seeds_step(traced: bool):
        target = TracedOracle(oracle, rec) if traced else oracle
        start = clock()
        with rec.span("core.maximization.celf"):
            picks.append(celf_top_k(target, SEED_COUNT))
        elapsed = clock() - start
        if traced:
            gain_calls.append(target.gain_calls)
        return elapsed, 1, ()

    seeds = ctx.run_phase("seeds", seeds_step, 8, budget=remaining * SHARES["seeds"])
    outcome.tally(len(picks), sum(pick != picks[0] for pick in picks), "CELF runs disagree")

    plain_service = OracleService(oracle, cache_size=0)
    traced_service = OracleService(TracedOracle(oracle, rec), cache_size=0)
    cursor = [0]

    def query_step(traced: bool):
        low = cursor[0]
        block = pool[low : low + 256]
        cursor[0] = (low + 256) % len(pool)
        spread = (traced_service if traced else plain_service).spread
        latencies = []
        answers = []
        for seed_set in block:
            begin = clock()
            with rec.span("serve.service.spread"):
                answers.append(spread(seed_set))
            latencies.append(clock() - begin)
        wrong = sum(a != b for a, b in zip(answers, expected[low : low + 256]))
        outcome.tally(len(block), wrong, "wrong Inf(S) answers")
        return sum(latencies), len(block), latencies

    query = ctx.run_phase("query", query_step, 12, budget=remaining * SHARES["query"])

    loaded = []

    def load_step(traced: bool):
        start = clock()
        with rec.span("serve.snapshot.load"):
            loaded[:] = [load_oracle(path)]
        return clock() - start, 1, ()

    load = ctx.run_phase("load", load_step, 16, budget=remaining * SHARES["load"])
    outcome.tally(
        len(pool),
        sum(loaded[0].spread(seed_set) != want for seed_set, want in zip(pool, expected)),
        "reloaded snapshot answers differ from the live index",
    )

    snapshot_bytes = found["snapshot_bytes"]
    e2e = {
        "setup_s": setup.norm(),
        "build_events_per_s": 1.0 / build.norm(),
        "seeds_s": seeds.norm(),
        "query_ms": query.norm() * 1e3,
        "snapshot_bytes": float(snapshot_bytes),
        "snapshot_load_s": load.norm(),
        "peak_rss_mb": found["rss"],
        "ingest_events_per_s": 1.0 / ingest.norm(),
        "publish_s": publish.norm(),
        "read_p50_ms": reads.sample_quantile(0.5) * 1e3,
        "read_p90_ms": reads.sample_quantile(0.9) * 1e3,
    }
    wall = {
        "setup_s": setup.wall(),
        "build_events_per_s": 1.0 / build.wall(),
        "seeds_s": seeds.wall(),
        "query_ms": query.wall() * 1e3,
        "snapshot_load_s": load.wall(),
        "ingest_events_per_s": 1.0 / ingest.wall(),
        "publish_s": publish.wall(),
        "read_p50_ms": reads.sample_quantile(0.5, normalised=False) * 1e3,
        "read_p90_ms": reads.sample_quantile(0.9, normalised=False) * 1e3,
    }
    if not ctx.trace:
        return e2e, wall, {}

    # -- per-layer (traced run) ------------------------------------------
    layers = layer_means(
        rec,
        {
            "datasets.generate": ("datasets.generate_s", 1.0),
            "core.oracle.spread": ("core.oracle.spread_us", 1e6),
            "serve.service.spread": ("serve.service.spread_us", 1e6),
            "core.maximization.celf": ("core.maximization.celf_s", 1.0),
            "serve.snapshot.load": ("serve.snapshot.load_s", 1.0),
            # publish_once minus its oracle build and reload: the save.
            "ingest.publisher.publish_once": ("serve.snapshot.save_s", 1.0),
            "ingest.live.build_oracle": ("ingest.live.build_oracle_s", 1.0),
            "serve.service.reload": ("serve.service.reload_s", 1.0),
        },
    )
    durations = rec.durations()
    selves = rec.self_times()
    http_self = selves.get("serve.http.ingest", []) + selves.get("serve.http.read", [])
    traced_events = sum(count for number, count in enumerate(replayed) if traced_step(number))
    all_reads = sorted(seconds for seconds, _ in reads.samples + reads_traced.samples)
    outcome.tally(
        len(gain_calls),
        sum(calls != gain_calls[0] for calls in gain_calls),
        "CELF gain-call counts differ between runs",
    )
    stats = found["stats"]
    layers.update(
        {
            "core.maximization.gain_calls": float(gain_calls[0]),
            "core.maximization.gain_calls_per_node": gain_calls[0] / len(nodes),
            "serve.snapshot.bytes_per_node": snapshot_bytes / len(nodes),
            "ingest.live.apply_us_per_event": sum(durations["ingest.live.replay"])
            / traced_events
            * 1e6,
            "ingest.live.entries": float(stats["entries"]),
            "ingest.live.evicted": float(stats["evicted"]),
            "ingest.live.rejected": float(stats["events_rejected"]),
            "serve.http.ingest_ms": mean(durations["serve.http.ingest"]) * 1e3,
            "serve.http.read_ms": mean(durations["serve.http.read"]) * 1e3,
            "serve.http.overhead_ms": mean(http_self) * 1e3,
            "serve.http.read_p99_ms": all_reads[round(0.99 * (len(all_reads) - 1))] * 1e3,
            "serve.http.topk_live_ms": mean(found["topk_live"]) * 1e3,
            "serve.service.cache_hit_rate": float(found["cache"]["hit_rate"]),
        }
    )
    return e2e, wall, layers
