"""The ``repro xp`` command family: ``run`` / ``report`` / ``diff`` / ``ls``.

Wired into the main :mod:`repro.cli` parser; kept here so the matrix
machinery only imports when an ``xp`` command actually runs.

Exit codes: ``xp diff`` exits 1 when any measurement regressed (unless
``--warn-only``), ``xp run`` exits 1 when any cell failed or was
interrupted, ``xp report``/``xp ls`` exit 1 only on unreadable inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List

from repro.xp.stats import DEFAULT_ALPHA, DEFAULT_THRESHOLD

__all__ = ["add_xp_parser", "command_xp"]


def add_xp_parser(commands: argparse._SubParsersAction) -> None:
    """Attach the ``xp`` subcommand tree to the main parser."""
    xp = commands.add_parser(
        "xp",
        help="experiment-matrix orchestration (resumable runs, evidence reports)",
    )
    actions = xp.add_subparsers(dest="xp_command", required=True)

    run = actions.add_parser(
        "run", help="execute a matrix spec into a resumable run directory"
    )
    run.add_argument(
        "--spec",
        default="smoke",
        help="spec file (JSON/TOML) or built-in name: paper, smoke "
        "(default: %(default)s)",
    )
    run.add_argument(
        "--out", "-o", required=True, metavar="DIR", help="run directory (created)"
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker threads; >1 disables per-cell obs capture "
        "(default: %(default)s)",
    )
    run.add_argument(
        "--scale",
        type=float,
        default=None,
        help="override the spec's dataset scale (e.g. 0.05 for smoke runs)",
    )
    run.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="stop after executing N cells (simulates an interrupted run; "
        "the rest stay pending for the next invocation)",
    )
    run.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell even when a fresh cached result exists",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    report = actions.add_parser(
        "report", help="render the evidence report from a run directory"
    )
    report.add_argument("run", help="run directory (from 'repro xp run')")
    report.add_argument(
        "--baseline",
        default="",
        metavar="DIR",
        help="prior run directory to render trend deltas against",
    )
    report.add_argument(
        "--format",
        choices=("markdown", "html"),
        default="markdown",
        help="output rendering (default: %(default)s)",
    )
    report.add_argument(
        "--output", "-o", default="", help="write to this file instead of stdout"
    )
    report.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative median shift tolerated in trend deltas (default: %(default)s)",
    )
    report.add_argument(
        "--alpha",
        type=float,
        default=DEFAULT_ALPHA,
        help="significance level of the annotations (default: %(default)s)",
    )

    diff = actions.add_parser(
        "diff",
        help="compare two run directories "
        "(exit 1 on regression unless --warn-only)",
    )
    diff.add_argument("old", help="baseline run directory")
    diff.add_argument("new", help="candidate run directory")
    diff.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative median shift tolerated before the IQR and rank-test "
        "rules are consulted (default: %(default)s)",
    )
    diff.add_argument(
        "--alpha",
        type=float,
        default=DEFAULT_ALPHA,
        help="Mann-Whitney significance level (default: %(default)s)",
    )
    diff.add_argument(
        "--format",
        choices=("table", "json", "markdown"),
        default="table",
        help="output rendering (default: %(default)s)",
    )
    diff.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (CI soft gate)",
    )

    ls = actions.add_parser("ls", help="list the persisted cells of a run directory")
    ls.add_argument("run", help="run directory")


def command_xp(args: argparse.Namespace, out) -> int:
    if args.xp_command == "run":
        return _command_run(args, out)
    if args.xp_command == "report":
        return _command_report(args, out)
    if args.xp_command == "diff":
        return _command_diff(args, out)
    return _command_ls(args, out)


def _command_run(args: argparse.Namespace, out) -> int:
    from repro.xp.runner import run_matrix
    from repro.xp.spec import load_spec
    from repro.xp.store import ResultStore

    spec = load_spec(args.spec)
    if args.scale is not None:
        if args.scale <= 0:
            raise ValueError(f"--scale must be positive, got {args.scale}")
        spec = dataclasses.replace(spec, scale=float(args.scale))
    if args.max_cells is not None and args.max_cells < 1:
        raise ValueError(f"--max-cells must be >= 1, got {args.max_cells}")
    store = ResultStore(args.out, create=True)
    progress = None if args.quiet else (lambda line: print(line, file=out, flush=True))
    print(
        f"matrix {spec.name!r} (hash {spec.spec_hash()}): "
        f"{len(spec.cells())} cells -> {args.out}",
        file=out,
        flush=True,
    )
    summary = run_matrix(
        spec,
        store,
        jobs=args.jobs,
        max_cells=args.max_cells,
        force=args.force,
        progress=progress,
    )
    print(summary.describe(), file=out)
    for label, error in summary.failures:
        print(f"  failed: {label}: {error}", file=sys.stderr)
    return 0 if summary.ok or (summary.deferred and not summary.failures) else 1


def _command_report(args: argparse.Namespace, out) -> int:
    from repro.xp.report import render_html, render_markdown
    from repro.xp.store import ResultStore

    store = ResultStore(args.run)
    baseline = ResultStore(args.baseline) if args.baseline else None
    renderer = render_html if args.format == "html" else render_markdown
    rendered = renderer(
        store, baseline=baseline, threshold=args.threshold, alpha=args.alpha
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.format} report to {args.output}", file=out)
    else:
        print(rendered, file=out, end="")
    return 0


def _command_diff(args: argparse.Namespace, out) -> int:
    from repro.xp.report import diff_runs, has_regressions, render_diff
    from repro.xp.store import ResultStore

    old = ResultStore(args.old)
    new = ResultStore(args.new)
    diff = diff_runs(old, new, threshold=args.threshold, alpha=args.alpha)
    print(render_diff(diff, args.format), file=out, end="")
    if has_regressions(diff) and not args.warn_only:
        return 1
    return 0


def _command_ls(args: argparse.Namespace, out) -> int:
    from repro.obs.export import _render_table
    from repro.xp.store import ResultStore

    store = ResultStore(args.run)
    manifest = store.load_manifest()
    if manifest:
        spec = manifest.get("spec", {})
        name = spec.get("name", "?") if isinstance(spec, dict) else "?"
        print(
            f"run {args.run}: spec {name!r}, status "
            f"{manifest.get('status', '?')}, code {manifest.get('code_fingerprint', '?')}",
            file=out,
        )
    rows: List[List[str]] = []
    for document in store.results():
        params = document["params"]
        axes = ", ".join(
            f"{key}={value}"
            for key, value in sorted(params.items())  # type: ignore[union-attr]
            if key in ("window_pct", "precision", "method", "seed")
        )
        rows.append(
            [
                str(document["key"]),
                str(document["experiment"]),
                str(params["dataset"]),  # type: ignore[index]
                axes,
                f"{float(document['duration_s']):.2f}",  # type: ignore[arg-type]
                str(len(document["rows"])),  # type: ignore[arg-type]
            ]
        )
    if not rows:
        print("(no cells persisted yet)", file=out)
        return 0
    headers = ("key", "experiment", "dataset", "axes", "duration_s", "rows")
    print("\n".join(_render_table(headers, rows)), file=out)
    print(f"\n{len(rows)} cell(s)", file=out)
    return 0
