"""The ``batch-exact`` and ``batch-sketch`` workloads.

Catalog-scale ``enron-sim`` logs (ω = 10 % of the span) go through the
batch deployment: build the index, publish it (oracle, snapshot save,
service reload), pick CELF top-10 seeds, answer distinct uncached
``Inf(S)`` queries through ``OracleService(cache_size=0)`` and cold-load
the snapshot.  ``batch-exact`` loads the exact summaries and the
set-union oracle and leaves ``repro.sketch`` idle; ``batch-sketch`` does
the same steps with ``ApproxIRS`` at β = 512, where the vHLL kernels do
almost all the work.

One log's reachability structure varies a lot with its seed (entries per
event have an interquartile range of about 15 % across seeds), so a run
takes several independently seeded logs in turn, each for an equal share
of the budget, and every metric pools them.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Callable, Dict, List, NamedTuple

from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS
from repro.core.maximization import celf_top_k
from repro.core.oracle import ApproxInfluenceOracle, ExactInfluenceOracle, InfluenceOracle
from repro.datasets.catalog import CATALOG, load_dataset
from repro.serve.service import OracleService
from repro.serve.snapshot import load_oracle, save_oracle

import replays
from common import DATASET, Context, layer_means, mean, peak_rss_mb, query_pool
from proxies import TracedOracle

WINDOW = CATALOG[DATASET].time_span // 10
SEED_COUNT = 10

#: Share of each log's budget per phase.
SHARES = {"build": 0.25, "publish": 0.15, "seeds": 0.2, "query": 0.25, "load": 0.15}


class Flavour(NamedTuple):
    layer: str  # "exact" or "approx": the core module that builds the index
    logs: int  # independently seeded logs per run
    build: Callable[[object], object]
    oracle: Callable[[object], InfluenceOracle]
    build_reps: int  # calls per timed step, so a step lasts 50–400 ms
    publish_min: int  # steps per log
    seeds_reps: int
    seeds_min: int  # steps per log
    load_reps: int
    block: int  # queries per timed block
    pool: int  # distinct seed sets per log


FLAVOURS: Dict[str, Flavour] = {
    "batch-exact": Flavour(
        layer="exact",
        logs=16,
        build=lambda log: ExactIRS.from_log(log, WINDOW),
        oracle=ExactInfluenceOracle.from_index,
        build_reps=2,
        publish_min=2,
        seeds_reps=8,
        seeds_min=2,
        load_reps=4,
        block=2048,
        pool=4096,
    ),
    "batch-sketch": Flavour(
        layer="approx",
        logs=6,
        build=lambda log: ApproxIRS.from_log(log, WINDOW, 9),
        oracle=ApproxInfluenceOracle.from_index,
        build_reps=1,
        publish_min=3,
        seeds_reps=1,
        seeds_min=1,
        load_reps=1,
        block=256,
        pool=512,
    ),
}


def _one_log(ctx: Context, flavour: Flavour, log_seed: int, budget: float, counts: dict):
    """All phases on one log; steps add to the run's shared phases."""
    rec = ctx.recorder
    outcome = ctx.outcome
    clock = time.perf_counter
    state: dict = {}

    # -- setup: log generation to ready ---------------------------------
    def setup_step(traced: bool):
        gc.collect()  # every set-up starts from the same heap
        start = clock()
        with rec.span("datasets.generate"):
            log = load_dataset(DATASET, rng=log_seed)
        nodes = sorted(log.nodes, key=repr)
        pool = query_pool(nodes, random.Random(log_seed), flavour.pool)
        elapsed = clock() - start
        state.update(log=log, nodes=nodes, pool=pool)
        return elapsed, 1, ()

    ctx.run_phase("setup", setup_step, 1, max_steps=1)
    log, nodes, pool = state["log"], state["nodes"], state["pool"]
    events = len(log)

    # -- build ------------------------------------------------------------
    entry_counts: List[int] = []

    def build_step(traced: bool):
        start = clock()
        for _ in range(flavour.build_reps):
            with rec.span(f"core.{flavour.layer}.build"):
                index = flavour.build(log)
        elapsed = clock() - start
        state["index"] = index
        entry_counts.append(index.entry_count())
        return elapsed, flavour.build_reps * events, ()

    ctx.run_phase("build", build_step, 2, budget=budget * SHARES["build"])
    outcome.tally(
        len(entry_counts),
        sum(count != entry_counts[0] for count in entry_counts),
        "index builds disagree on entry count",
    )
    index = state["index"]
    oracle = flavour.oracle(index)

    # -- publish: oracle, snapshot save, service reload ------------------
    path = os.path.join(ctx.scratch, "oracle.snap")
    service = OracleService(oracle, cache_size=0)

    def publish_step(traced: bool):
        start = clock()
        with rec.span("serve.publish"):
            with rec.span("core.oracle.from_index"):
                fresh = flavour.oracle(index)
            with rec.span("serve.snapshot.save"):
                save_oracle(path, fresh)
            with rec.span("serve.service.reload"):
                service.reload(path)
        elapsed = clock() - start
        outcome.check(service.node_count() == len(nodes), "published oracle lost nodes")
        return elapsed, 1, ()

    ctx.run_phase(
        "publish", publish_step, flavour.publish_min, budget=budget * SHARES["publish"]
    )
    snapshot_bytes = os.path.getsize(path)

    # -- CELF top-10 ------------------------------------------------------
    picks = []
    gain_calls = []

    def seeds_step(traced: bool):
        target = TracedOracle(oracle, rec) if traced else oracle
        start = clock()
        for _ in range(flavour.seeds_reps):
            with rec.span("core.maximization.celf"):
                picks.append(celf_top_k(target, SEED_COUNT))
        elapsed = clock() - start
        if traced:
            gain_calls.append(target.gain_calls // flavour.seeds_reps)
        return elapsed, flavour.seeds_reps, ()

    ctx.run_phase(
        "seeds", seeds_step, flavour.seeds_min, budget=budget * SHARES["seeds"]
    )
    outcome.tally(len(picks), sum(pick != picks[0] for pick in picks), "CELF runs disagree")

    # Expected answers come from the index, not from the oracle the timed
    # calls use: the exact union of reachability sets, or the approximate
    # index's own register-wise union.
    if flavour.layer == "exact":
        reach = {node: index.reachability_set(node) for node in nodes}

        def truth(seed_set) -> float:
            return float(len(set().union(*(reach[node] for node in seed_set))))

    else:
        truth = index.spread
    outcome.check(
        service.spread(picks[0]) == truth(picks[0]), "served spread of the CELF seeds is wrong"
    )

    # -- distinct uncached Inf(S) queries ---------------------------------
    expected = [truth(seed_set) for seed_set in pool]
    plain_service = OracleService(oracle, cache_size=0)
    traced_service = OracleService(TracedOracle(oracle, rec), cache_size=0)
    cursor = [0]

    def query_step(traced: bool):
        low = cursor[0]
        block = pool[low : low + flavour.block]
        cursor[0] = (low + flavour.block) % len(pool)
        latencies = []
        answers = []
        if traced:
            spread = traced_service.spread
            for seed_set in block:
                begin = clock()
                with rec.span("serve.service.spread"):
                    answers.append(spread(seed_set))
                latencies.append(clock() - begin)
        else:  # no span context manager on the untraced path
            spread = plain_service.spread
            for seed_set in block:
                begin = clock()
                answers.append(spread(seed_set))
                latencies.append(clock() - begin)
        wrong = sum(a != b for a, b in zip(answers, expected[low : low + flavour.block]))
        outcome.tally(len(block), wrong, "wrong Inf(S) answers")
        return sum(latencies), len(block), latencies

    ctx.run_phase("query", query_step, 2, budget=budget * SHARES["query"])

    # -- snapshot cold load ----------------------------------------------
    def load_step(traced: bool):
        start = clock()
        for _ in range(flavour.load_reps):
            with rec.span("serve.snapshot.load"):
                loaded = load_oracle(path)
        elapsed = clock() - start
        state["loaded"] = loaded
        return elapsed, flavour.load_reps, ()

    ctx.run_phase("load", load_step, 2, budget=budget * SHARES["load"])
    loaded = state["loaded"]
    round_trip = [loaded.spread(seed_set) for seed_set in pool]
    outcome.tally(
        len(pool),
        sum(a != b for a, b in zip(round_trip, expected)),
        "reloaded snapshot answers differently",
    )
    if flavour.layer == "approx":
        outcome.tally(
            len(nodes),
            sum(loaded.registers(node) != index.registers(node) for node in nodes),
            "reloaded registers differ from the built ones",
        )
    outcome.tally(
        len(gain_calls),
        sum(calls != gain_calls[0] for calls in gain_calls),
        "CELF gain-call counts differ between runs",
    )

    counts["events"].append(events)
    counts["nodes"].append(len(nodes))
    counts["bytes"].append(snapshot_bytes)
    counts["entries"].append(entry_counts[0])
    counts["gain_calls"].extend(gain_calls[:1])
    if ctx.trace and "replays" not in counts:  # kernel replays on the first log
        if flavour.layer == "exact":
            counts["replays"] = {
                "core.summary.merge_within_us": replays.summary_merge_us(index, WINDOW)
            }
        else:
            counts["replays"] = dict(
                replays.vhll_kernels(index, WINDOW),
                **{"core.approx.max_cell_length": float(index.max_cell_length())},
            )


def run(ctx: Context, workload: str):
    flavour = FLAVOURS[workload]
    counts: dict = {key: [] for key in ("events", "nodes", "bytes", "entries", "gain_calls")}
    for offset in range(flavour.logs):
        _one_log(ctx, flavour, ctx.seed * 1000 + offset, ctx.seconds / flavour.logs, counts)
    phases = {name: plain for name, (plain, _) in ctx.phases.items()}
    setup, build, publish = phases["setup"], phases["build"], phases["publish"]
    seeds, query, load = phases["seeds"], phases["query"], phases["load"]
    events = mean(counts["events"])

    build_per_event = build.norm()
    publish_s = publish.norm()
    e2e = {
        "setup_s": setup.norm(),
        "build_events_per_s": 1.0 / build_per_event,
        "seeds_s": seeds.norm(),
        "query_ms": query.norm() * 1e3,
        "snapshot_bytes": mean(counts["bytes"]),
        "snapshot_load_s": load.norm(),
        "peak_rss_mb": peak_rss_mb(),
        # A batch deployment takes in new events by rebuilding and
        # republishing: events per second from log to served oracle.
        "ingest_events_per_s": 1.0 / (build_per_event + publish_s / events),
        "publish_s": publish_s,
        "read_p50_ms": query.sample_quantile(0.5) * 1e3,
        "read_p90_ms": query.sample_quantile(0.9) * 1e3,
    }
    wall_build = build.wall()
    wall = {
        "setup_s": setup.wall(),
        "build_events_per_s": 1.0 / wall_build,
        "seeds_s": seeds.wall(),
        "query_ms": query.wall() * 1e3,
        "snapshot_load_s": load.wall(),
        "ingest_events_per_s": 1.0 / (wall_build + publish.wall() / events),
        "publish_s": publish.wall(),
        "read_p50_ms": query.sample_quantile(0.5, normalised=False) * 1e3,
        "read_p90_ms": query.sample_quantile(0.9, normalised=False) * 1e3,
    }
    if not ctx.trace:
        return e2e, wall, {}

    layers = layer_means(
        ctx.recorder,
        {
            "datasets.generate": ("datasets.generate_s", 1.0),
            f"core.{flavour.layer}.build": (f"core.{flavour.layer}.build_s", 1.0),
            "core.oracle.spread": ("core.oracle.spread_us", 1e6),
            "serve.service.spread": ("serve.service.spread_us", 1e6),
            "core.maximization.celf": ("core.maximization.celf_s", 1.0),
            "serve.snapshot.save": ("serve.snapshot.save_s", 1.0),
            "serve.snapshot.load": ("serve.snapshot.load_s", 1.0),
            "serve.service.reload": ("serve.service.reload_s", 1.0),
        },
    )
    layers.update(counts["replays"])
    layers.update(
        {
            f"core.{flavour.layer}.entries": mean(counts["entries"]),
            "core.maximization.gain_calls": mean(counts["gain_calls"]),
            "core.maximization.gain_calls_per_node": mean(
                [calls / nodes for calls, nodes in zip(counts["gain_calls"], counts["nodes"])]
            ),
            "serve.snapshot.bytes_per_node": mean(
                [size / nodes for size, nodes in zip(counts["bytes"], counts["nodes"])]
            ),
        }
    )
    return e2e, wall, layers
