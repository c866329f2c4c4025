"""``repro ingest`` — the command-line face of the live subsystem.

Two subcommands, both talking HTTP to a ``repro serve --live`` process:

``repro ingest tail LOG --url http://host:port``
    Stream an interaction log into ``/v1/ingest``, batch by batch;
    ``--follow`` keeps tailing appended lines like ``tail -f``.
``repro ingest topk --url http://host:port``
    Print the continuously maintained top-k influencers from
    ``/v1/topk_live``.

Wired into the main parser through :func:`add_ingest_parser`, the same
plug-in pattern :mod:`repro.xp.cli` uses.
"""

from __future__ import annotations

import argparse
import json
from typing import TextIO

from repro.ingest.tail import DEFAULT_BATCH, HttpIngestClient, tail_file

__all__ = ["add_ingest_parser", "command_ingest"]


def add_ingest_parser(commands: argparse._SubParsersAction) -> None:
    """Register the ``ingest`` subcommand on the main CLI parser."""
    ingest_cmd = commands.add_parser(
        "ingest", help="feed live interactions into a running server"
    )
    actions = ingest_cmd.add_subparsers(dest="ingest_command", required=True)

    tail_cmd = actions.add_parser(
        "tail", help="stream an interaction log into /v1/ingest"
    )
    tail_cmd.add_argument("log", help="interaction log ('source target time' lines)")
    tail_cmd.add_argument(
        "--url", required=True, help="base URL of a repro serve --live process"
    )
    tail_cmd.add_argument(
        "--batch",
        type=int,
        default=DEFAULT_BATCH,
        help=f"events per POST (default: {DEFAULT_BATCH})",
    )
    tail_cmd.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing appended lines after EOF (tail -f)",
    )
    tail_cmd.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between EOF polls in --follow mode (default: 0.2)",
    )
    tail_cmd.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="stop after posting N events (default: unbounded)",
    )
    tail_cmd.add_argument(
        "--timeout", type=float, default=10.0, help="per-request HTTP timeout"
    )

    topk_cmd = actions.add_parser(
        "topk", help="print the live top-k influencers from /v1/topk_live"
    )
    topk_cmd.add_argument(
        "--url", required=True, help="base URL of a repro serve --live process"
    )
    topk_cmd.add_argument(
        "--k", type=int, default=10, help="how many influencers (default: 10)"
    )
    topk_cmd.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output rendering (default: table)",
    )
    topk_cmd.add_argument(
        "--timeout", type=float, default=10.0, help="per-request HTTP timeout"
    )


def command_ingest(args: argparse.Namespace, out: TextIO) -> int:
    """Dispatch an ``ingest`` invocation; returns a process exit code."""
    if args.ingest_command == "tail":
        client = HttpIngestClient(args.url, timeout=args.timeout)
        tally = tail_file(
            args.log,
            client.ingest,
            batch=args.batch,
            follow=args.follow,
            poll=args.poll,
            max_events=args.max_events,
        )
        print(
            f"posted {tally['posted']} events in {tally['batches']} batches: "
            f"{tally['applied']} applied, {tally['rejected']} rejected, "
            f"{tally['malformed']} malformed lines skipped",
            file=out,
        )
        return 0
    client = HttpIngestClient(args.url, timeout=args.timeout)
    response = client.topk_live(args.k)
    if args.format == "json":
        print(json.dumps(response, sort_keys=True, indent=2), file=out)
        return 0
    print(
        f"live top-{response['k']} ({response['mode']} mode, "
        f"last_time={response['last_time']}, horizon={response['horizon']})",
        file=out,
    )
    ranking = response.get("ranking")
    if not isinstance(ranking, list) or not ranking:
        print("  (no influencers yet)", file=out)
        return 0
    width = max(len(str(entry.get("node"))) for entry in ranking)
    for rank, entry in enumerate(ranking, start=1):
        print(
            f"  {rank:>3}. {str(entry.get('node')):<{width}}  "
            f"{entry.get('influence')}",
            file=out,
        )
    return 0
