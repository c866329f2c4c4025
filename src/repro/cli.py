"""Command-line interface: ``python -m repro <command>``.

These subcommands cover the typical workflow end to end:

* ``generate`` — materialise a catalog dataset (or a generator) to an
  edge-list file;
* ``stats``    — basic statistics of an interaction log;
* ``topk``     — top-k influencers by IRS greedy (exact or sketch), or by
  one of the baselines;
* ``spread``   — expected TCIC spread of a given seed set;
* ``explain``  — reconstruct the information channel behind an influence
  claim ("how could u have influenced v within ω?");
* ``obs``      — observability utilities: render a recorded metrics
  snapshot (``obs report``) or evaluate per-route serving SLOs against a
  metrics snapshot (``obs slo``);
* ``xp``       — experiment-matrix orchestration: execute a declared
  matrix resumably into a ``repro-xp/1`` run directory (``xp run``),
  render significance-tested evidence reports of the paper's tables and
  figures (``xp report``), compare two runs under the trend-delta gate
  (``xp diff``), or list persisted cells (``xp ls``) — see
  :mod:`repro.xp`;
* ``snapshot`` — build an influence oracle from an edge list and persist
  it as a ``repro-snap/2`` file (``snapshot save``), or verify and
  summarise an existing one (``snapshot load``);
* ``serve``    — boot the JSON-over-HTTP oracle server from a snapshot
  (see :mod:`repro.serve.http`; SIGTERM drains gracefully); ``--live``
  adds the ``/v1/ingest`` + ``/v1/topk_live`` live-ingestion routes and
  ``--publish-path`` a periodic snapshot publisher;
* ``ingest``   — live-stream client: tail an interaction log into a
  running server (``ingest tail``) or print the continuously maintained
  top-k influencers (``ingest topk``) — see :mod:`repro.ingest`.

Every command reads/writes the whitespace ``source target time`` edge-list
format of :meth:`repro.core.interactions.InteractionLog.read`.

Observability: pass ``--obs`` to any command to record metrics for the
invocation and print the human-readable report afterwards, or
``--obs-output PATH`` to write the snapshot to a file instead (format
inferred from the suffix, see :func:`repro.obs.write_snapshot`).
``--profile`` additionally installs the span-integrated wall-time
profiler and prints the hottest frames after the command
(``--profile-output`` writes the flamegraph-ready collapsed stacks);
``--memprof`` attributes tracemalloc deltas to the span tree.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import repro.obs as obs
from repro.analysis.experiments import select_seeds
from repro.obs import from_jsonl, render_report, to_jsonl, to_prometheus
from repro.core.interactions import InteractionLog
from repro.datasets.catalog import dataset_names, load_dataset
from repro.ingest.live import LIVE_MODES
from repro.simulation.spread import estimate_spread

__all__ = ["main", "build_parser"]

_METHOD_ALIASES = {
    "irs": "IRS",
    "irs-approx": "IRS-approx",
    "pagerank": "PR",
    "pr": "PR",
    "hd": "HD",
    "high-degree": "HD",
    "shd": "SHD",
    "smart-high-degree": "SHD",
    "skim": "SKIM",
    "cte": "CTE",
    "continest": "CTE",
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for --help testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Influence analysis on interaction networks "
        "(Kumar & Calders, EDBT 2017 reproduction).",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="record metrics for this invocation and print a report afterwards",
    )
    parser.add_argument(
        "--obs-output",
        default="",
        metavar="PATH",
        help="write the metrics snapshot to PATH (implies --obs; "
        ".prom -> prometheus text, .txt -> table, else JSON lines)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="install the span-integrated wall-time profiler for this "
        "invocation and print the hottest frames afterwards",
    )
    parser.add_argument(
        "--profile-output",
        default="",
        metavar="PATH",
        help="write the collapsed-stack profile (flamegraph input) to PATH "
        "(implies --profile)",
    )
    parser.add_argument(
        "--memprof",
        action="store_true",
        help="attribute tracemalloc allocation deltas to the span tree and "
        "print the breakdown afterwards",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic catalog dataset to an edge list"
    )
    generate.add_argument(
        "--dataset", required=True, choices=dataset_names(), help="catalog name"
    )
    generate.add_argument("--scale", type=float, default=1.0, help="size multiplier")
    generate.add_argument("--seed", type=int, default=0, help="generator seed")
    generate.add_argument(
        "--output", "-o", required=True, help="edge-list file to write"
    )

    stats = commands.add_parser("stats", help="summarise an interaction log")
    stats.add_argument("log", help="edge-list file (source target time per line)")

    topk = commands.add_parser("topk", help="find the top-k influencers")
    topk.add_argument("log", help="edge-list file")
    topk.add_argument("--k", type=int, default=10, help="number of seeds")
    topk.add_argument(
        "--window-percent",
        type=float,
        default=10.0,
        help="omega as %% of the log's time span",
    )
    topk.add_argument(
        "--method",
        default="irs-approx",
        choices=sorted(_METHOD_ALIASES),
        help="selection method",
    )
    topk.add_argument(
        "--precision", type=int, default=9, help="sketch index bits (beta = 2^p)"
    )
    topk.add_argument("--seed", type=int, default=0, help="rng seed for randomised methods")

    spread = commands.add_parser(
        "spread", help="expected TCIC spread of a seed set"
    )
    spread.add_argument("log", help="edge-list file")
    spread.add_argument(
        "--seeds", required=True, help="comma-separated seed node names"
    )
    spread.add_argument(
        "--window-percent", type=float, default=10.0, help="omega as %% of span"
    )
    spread.add_argument(
        "--probability", type=float, default=0.5, help="infection probability"
    )
    spread.add_argument("--runs", type=int, default=20, help="Monte-Carlo cascades")
    spread.add_argument("--seed", type=int, default=0, help="rng seed")

    explain = commands.add_parser(
        "explain", help="show a witness channel between two nodes"
    )
    explain.add_argument("log", help="edge-list file")
    explain.add_argument("--source", required=True, help="influencing node")
    explain.add_argument("--target", required=True, help="influenced node")
    explain.add_argument(
        "--window-percent", type=float, default=10.0, help="omega as %% of span"
    )

    obs_cmd = commands.add_parser(
        "obs", help="observability utilities (metrics snapshots, serving SLOs)"
    )
    obs_actions = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_actions.add_parser(
        "report", help="render a JSON-lines metrics snapshot"
    )
    obs_report.add_argument(
        "--input", "-i", required=True, help="JSON-lines snapshot file"
    )
    obs_report.add_argument(
        "--format",
        choices=("table", "prometheus", "jsonl"),
        default="table",
        help="output rendering (default: table)",
    )
    obs_slo = obs_actions.add_parser(
        "slo",
        help="evaluate per-route serving SLOs against a metrics snapshot",
    )
    obs_slo.add_argument(
        "--input", "-i", required=True, help="JSON-lines metrics snapshot file"
    )
    obs_slo.add_argument(
        "--spec",
        default="",
        metavar="PATH",
        help="JSON SLO spec file (default: the built-in per-route objectives)",
    )
    obs_slo.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output rendering (default: table)",
    )
    obs_slo.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any route breaches its SLO (CI gate)",
    )

    from repro.xp.cli import add_xp_parser

    add_xp_parser(commands)

    from repro.ingest.cli import add_ingest_parser

    add_ingest_parser(commands)

    snapshot_cmd = commands.add_parser(
        "snapshot", help="build/inspect repro-snap/2 oracle snapshots"
    )
    snapshot_actions = snapshot_cmd.add_subparsers(dest="snapshot_command", required=True)
    snapshot_save = snapshot_actions.add_parser(
        "save", help="build an oracle from an edge list and write a snapshot"
    )
    snapshot_save.add_argument("log", help="edge-list file")
    snapshot_save.add_argument(
        "--kind",
        choices=("exact", "approx"),
        default="approx",
        help="oracle flavour to build (default: approx)",
    )
    snapshot_save.add_argument(
        "--window-percent",
        type=float,
        default=10.0,
        help="omega as %% of the log's time span",
    )
    snapshot_save.add_argument(
        "--precision", type=int, default=9, help="sketch index bits (approx only)"
    )
    snapshot_save.add_argument(
        "--output", "-o", required=True, help="snapshot file to write"
    )
    snapshot_load = snapshot_actions.add_parser(
        "load", help="load a snapshot back, verify CRCs, print a summary"
    )
    snapshot_load.add_argument("snapshot", help="repro-snap/2 file")

    serve_cmd = commands.add_parser(
        "serve", help="serve influence queries over HTTP from a snapshot"
    )
    serve_cmd.add_argument("snapshot", help="repro-snap/2 oracle snapshot")
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=8750, help="bind port (0 picks a free one)"
    )
    serve_cmd.add_argument(
        "--cache-size", type=int, default=1024, help="LRU spread-cache capacity"
    )
    serve_cmd.add_argument(
        "--max-request-bytes",
        type=int,
        default=None,
        help="largest accepted request body (default: 1 MiB)",
    )
    serve_cmd.add_argument(
        "--access-log",
        default="",
        metavar="PATH",
        help="append one JSON line per request to PATH (the in-memory "
        "ring behind /v1/debug/requests is always on)",
    )
    serve_cmd.add_argument(
        "--slo",
        default="",
        metavar="PATH",
        help="JSON SLO spec file for /v1/healthz evaluation "
        "(default: the built-in per-route objectives)",
    )
    serve_cmd.add_argument(
        "--live",
        choices=LIVE_MODES,
        default=None,
        metavar="MODE",
        help="enable /v1/ingest + /v1/topk_live with this live index mode",
    )
    serve_cmd.add_argument(
        "--live-window",
        type=int,
        default=None,
        metavar="TICKS",
        help="channel duration budget omega of the live index (required with --live)",
    )
    serve_cmd.add_argument(
        "--decay-window",
        type=int,
        default=None,
        metavar="TICKS",
        help="sliding decay horizon; interactions age out of sigma(u) once "
        "their channel start falls behind it (default: no decay)",
    )
    serve_cmd.add_argument(
        "--live-precision",
        type=int,
        default=9,
        help="sketch index bits of the live index (sketch mode; default: 9)",
    )
    serve_cmd.add_argument(
        "--publish-path",
        default="",
        metavar="PATH",
        help="periodically snapshot the live index here and hot-reload the "
        "service from it (off when empty)",
    )
    serve_cmd.add_argument(
        "--publish-interval",
        type=float,
        default=5.0,
        help="seconds between publish attempts (default: 5)",
    )
    serve_cmd.add_argument(
        "--publish-min-events",
        type=int,
        default=1,
        help="skip a publish unless this many new events arrived (default: 1)",
    )

    return parser


def _command_generate(args: argparse.Namespace, out) -> int:
    log = load_dataset(args.dataset, rng=args.seed, scale=args.scale)
    log.write(args.output)
    print(
        f"wrote {log.num_interactions} interactions over {log.num_nodes} nodes "
        f"to {args.output}",
        file=out,
    )
    return 0


def _command_stats(args: argparse.Namespace, out) -> int:
    log = InteractionLog.read(args.log)
    print(f"nodes:         {log.num_nodes}", file=out)
    print(f"interactions:  {log.num_interactions}", file=out)
    print(f"time span:     {log.time_span} ticks "
          f"[{log.min_time} .. {log.max_time}]", file=out)
    print(f"static edges:  {len(log.static_edges())}", file=out)
    print(f"distinct times: {'yes' if log.has_distinct_times() else 'no'}", file=out)
    return 0


def _command_topk(args: argparse.Namespace, out) -> int:
    log = InteractionLog.read(args.log)
    window = log.window_from_percent(args.window_percent)
    method = _METHOD_ALIASES[args.method]
    seeds = select_seeds(
        log, method, args.k, window, precision=args.precision, rng=args.seed
    )
    print(
        f"top-{args.k} seeds by {method} "
        f"(omega = {args.window_percent:g}% = {window} ticks):",
        file=out,
    )
    for rank, seed in enumerate(seeds, start=1):
        print(f"  {rank:2d}. {seed}", file=out)
    return 0


def _command_spread(args: argparse.Namespace, out) -> int:
    log = InteractionLog.read(args.log)
    window = log.window_from_percent(args.window_percent)
    seeds = [token for token in args.seeds.split(",") if token]
    unknown = [seed for seed in seeds if seed not in log.nodes]
    if unknown:
        print(f"warning: seeds not in the log: {unknown}", file=sys.stderr)
    estimate = estimate_spread(
        log,
        seeds,
        window,
        args.probability,
        runs=args.runs,
        rng=args.seed,
    )
    print(
        f"expected spread of {len(seeds)} seeds at omega = "
        f"{args.window_percent:g}% (= {window} ticks), p = {args.probability:g}: "
        f"{estimate.mean:.1f} ± {estimate.stderr:.1f} "
        f"({estimate.runs} cascades)",
        file=out,
    )
    return 0


def _command_explain(args: argparse.Namespace, out) -> int:
    from repro.core.witnesses import explain_influence

    log = InteractionLog.read(args.log)
    window = log.window_from_percent(args.window_percent)
    print(explain_influence(log, args.source, args.target, window), file=out)
    return 0


def _command_obs(args: argparse.Namespace, out) -> int:
    if args.obs_command == "slo":
        return _command_obs_slo(args, out)
    return _command_obs_report(args, out)


def _command_obs_report(args: argparse.Namespace, out) -> int:
    # Every failure mode surfaces as a one-line ValueError naming the
    # file; main() turns it into `error: ...` with exit code 1.
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(
            f"{args.input}: cannot read metrics snapshot: {exc.strerror or exc}"
        ) from exc
    try:
        samples = from_jsonl(text)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    if not samples:
        raise ValueError(f"{args.input}: empty metrics snapshot (no samples)")
    if args.format == "table":
        print(render_report(samples), file=out, end="")
    elif args.format == "prometheus":
        print(to_prometheus(samples), file=out, end="")
    else:
        print(to_jsonl(samples), file=out, end="")
    return 0


def _command_obs_slo(args: argparse.Namespace, out) -> int:
    from repro.obs import slo

    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(
            f"{args.input}: cannot read metrics snapshot: {exc.strerror or exc}"
        ) from exc
    try:
        samples = from_jsonl(text)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    specs = slo.load_slo_specs(args.spec) if args.spec else list(slo.DEFAULT_SLOS)
    statuses = slo.evaluate_slos(specs, samples)
    print(slo.render_slo(statuses, format=args.format), file=out, end="")
    if args.check and any(not status.ok for status in statuses):
        return 1
    return 0


def _command_xp(args: argparse.Namespace, out) -> int:
    from repro.xp.cli import command_xp

    return command_xp(args, out)


def _command_ingest(args: argparse.Namespace, out) -> int:
    from repro.ingest.cli import command_ingest

    return command_ingest(args, out)


def _command_snapshot(args: argparse.Namespace, out) -> int:
    from repro.serve.snapshot import SnapshotReader, save_oracle

    if args.snapshot_command == "load":
        with SnapshotReader(args.snapshot) as reader:
            sections = reader.verify()
            print(f"snapshot:  {args.snapshot}", file=out)
            print(f"kind:      {reader.kind}", file=out)
            print(f"nodes:     {reader.meta.get('node_count', '?')}", file=out)
            print(f"sections:  {sections} (all CRCs verified)", file=out)
            print(f"bytes:     {reader.size_bytes()}", file=out)
        return 0

    from repro.core.approx import ApproxIRS
    from repro.core.exact import ExactIRS
    from repro.core.oracle import ApproxInfluenceOracle, ExactInfluenceOracle

    log = InteractionLog.read(args.log)
    window = log.window_from_percent(args.window_percent)
    if args.kind == "exact":
        oracle: object = ExactInfluenceOracle.from_index(
            ExactIRS.from_log(log, window)
        )
    else:
        oracle = ApproxInfluenceOracle.from_index(
            ApproxIRS.from_log(log, window, precision=args.precision)
        )
    info = save_oracle(args.output, oracle)  # type: ignore[arg-type]
    print(
        f"wrote {info['kind']} snapshot of {info['nodes']} nodes "
        f"({info['bytes']} bytes) to {args.output}",
        file=out,
    )
    return 0


def _command_serve(args: argparse.Namespace, out) -> int:
    from repro.serve.http import (
        DEFAULT_MAX_REQUEST_BYTES,
        build_server,
        install_drain_handler,
        serve_until_shutdown,
    )
    from repro.serve.service import OracleService

    from repro.obs.slo import load_slo_specs
    from repro.serve.accesslog import AccessLog

    # Config files are validated before the (expensive) snapshot load so
    # a typo in the SLO spec fails fast.
    slo_specs = load_slo_specs(args.slo) if args.slo else None
    live = None
    publisher = None
    if args.live is not None:
        from repro.ingest.live import LiveIndex
        if args.live_window is None:
            raise ValueError("--live requires --live-window (omega, in ticks)")
        live = LiveIndex(
            window=args.live_window,
            mode=args.live,
            decay_window=args.decay_window,
            precision=args.live_precision,
        )
    elif args.live_window is not None or args.decay_window is not None:
        raise ValueError("--live-window/--decay-window require --live")
    service = OracleService.from_snapshot(args.snapshot, cache_size=args.cache_size)
    if args.publish_path:
        from repro.ingest.publisher import SnapshotPublisher
        if live is None:
            raise ValueError("--publish-path requires --live")
        publisher = SnapshotPublisher(
            live,
            service,
            args.publish_path,
            interval=args.publish_interval,
            min_events=args.publish_min_events,
        )
    limit = (
        args.max_request_bytes
        if args.max_request_bytes is not None
        else DEFAULT_MAX_REQUEST_BYTES
    )
    server = build_server(
        service,
        host=args.host,
        port=args.port,
        max_request_bytes=limit,
        access_log=AccessLog(path=args.access_log),
        slo_specs=slo_specs,
        live=live,
        publisher=publisher,
    )
    install_drain_handler(server)
    host, port = server.server_address[:2]
    info = service.info()
    live_note = f", live ingest ({args.live})" if live is not None else ""
    print(
        f"serving {info['kind']} oracle ({info['nodes']} nodes) "
        f"on http://{host}:{port}{live_note} — SIGTERM drains",
        file=out,
        flush=True,
    )
    if publisher is not None:
        publisher.start()
    try:
        serve_until_shutdown(server)
    finally:
        if publisher is not None:
            publisher.stop()
    print("server drained, exiting", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    output = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    obs_active = bool(args.obs or args.obs_output)
    profile_active = bool(args.profile or args.profile_output)
    memprof_active = bool(args.memprof)
    if obs_active:
        obs.enable()
    if profile_active:
        obs.profile.enable()  # implies obs.enable() for the span tree
    if memprof_active:
        obs.memprof.enable()
    handlers = {
        "generate": _command_generate,
        "stats": _command_stats,
        "topk": _command_topk,
        "spread": _command_spread,
        "explain": _command_explain,
        "obs": _command_obs,
        "xp": _command_xp,
        "ingest": _command_ingest,
        "snapshot": _command_snapshot,
        "serve": _command_serve,
    }
    try:
        code = handlers[args.command](args, output)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if profile_active:
        obs.profile.disable()
    if memprof_active:
        obs.memprof.disable()
    if code != 0:
        return code
    if obs_active:
        if args.obs_output:
            obs.write_snapshot(args.obs_output)
            print(f"wrote metrics snapshot to {args.obs_output}", file=output)
        else:
            print(file=output)
            print(render_report(obs.snapshot()), file=output, end="")
    if profile_active:
        profile_report = obs.profile.collect()
        if args.profile_output:
            with open(args.profile_output, "w", encoding="utf-8") as handle:
                handle.write(profile_report.collapsed())
            print(f"wrote collapsed-stack profile to {args.profile_output}", file=output)
        print(file=output)
        print(profile_report.top_table(), file=output, end="")
    if memprof_active:
        print(file=output)
        print(obs.memprof.collect().table(), file=output, end="")
    return code
