"""Command-line interface: ``python -m repro.lint [paths...]``.

Exit status is 0 when the tree is clean (or every violation is covered
by the baseline), 1 when new violations were found, and 2 on usage
errors (unknown rule id, missing path, malformed baseline, syntax error
in a linted file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.baseline import Baseline, BaselineError
from repro.lint.engine import LintEngine
from repro.lint.reporting import render_json, render_text
from repro.lint.rules import all_rules, expand_rule_selectors, select_rules
from repro.lint.sarif import render_sarif

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for --help testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Repro-specific static analysis for the IRS reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text); sarif emits SARIF 2.1.0 for "
        "GitHub code scanning",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids or prefixes to run (e.g. "
        "'--select R2' runs the whole concurrency pass; default: all rules)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids or prefixes to skip (applied after "
        "--select)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="subtract the violations recorded in FILE; only new ones fail "
        "the run (the ratchet)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline FILE from this run's violations and exit 0",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parse and lint files with N worker processes (0 = one per "
        "CPU; default: 1, in-process)",
    )
    parser.add_argument(
        "--reference-root",
        action="append",
        metavar="DIR",
        dest="reference_roots",
        help="extra directory whose identifiers count as references for "
        "liveness rules (default: auto-detect tests/examples "
        "next to the linted src tree); may be repeated",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in all_rules():
            scopes = ", ".join(sorted(rule.scopes)) if rule.scopes else "all packages"
            kind = "project" if rule.project_scope else "file"
            print(f"{rule.rule_id} [{rule.name}] ({scopes}; {kind}-scope)")
            print(f"    {rule.description}")
        return 0

    if options.update_baseline and not options.baseline:
        print(
            "repro-lint: error: --update-baseline requires --baseline FILE",
            file=sys.stderr,
        )
        return 2
    if options.jobs < 0:
        print("repro-lint: error: --jobs must be >= 0", file=sys.stderr)
        return 2

    try:
        selected = (
            expand_rule_selectors(options.select.split(","))
            if options.select
            else [rule.rule_id for rule in all_rules()]
        )
        if options.ignore:
            ignored = set(expand_rule_selectors(options.ignore.split(",")))
            selected = [rule_id for rule_id in selected if rule_id not in ignored]
    except KeyError as exc:
        print(f"repro-lint: error: {exc.args[0]}", file=sys.stderr)
        return 2
    if not selected:
        print(
            "repro-lint: error: --select/--ignore left no rules to run",
            file=sys.stderr,
        )
        return 2
    filtered = bool(options.select or options.ignore)
    rules = select_rules(selected) if filtered else None

    engine = LintEngine(
        rules, jobs=options.jobs, reference_roots=options.reference_roots
    )
    try:
        violations, files_checked = engine.lint_paths(options.paths)
    except FileNotFoundError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"repro-lint: error: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return 2

    if options.baseline and options.update_baseline:
        Baseline.from_violations(violations).save(Path(options.baseline))
        print(
            f"repro-lint: baseline {options.baseline} updated with "
            f"{len(violations)} violation(s) from {files_checked} file(s)"
        )
        return 0

    suppressed = 0
    stale: list = []
    if options.baseline:
        try:
            baseline = Baseline.load(Path(options.baseline))
        except FileNotFoundError:
            print(
                f"repro-lint: error: baseline file not found: {options.baseline} "
                "(create it with --update-baseline)",
                file=sys.stderr,
            )
            return 2
        except BaselineError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return 2
        active_rules = set(selected) if filtered else None
        violations, suppressed, stale = baseline.apply(
            violations, active_rules=active_rules
        )

    if options.format == "sarif":
        print(render_sarif(violations, files_checked))
    else:
        renderer = render_json if options.format == "json" else render_text
        print(renderer(violations, files_checked))
        if options.baseline:
            print(
                f"repro-lint: baseline suppressed {suppressed} known violation(s)"
            )
            for path, rule_id, message in stale:
                print(
                    f"repro-lint: stale baseline entry (now fixed — run "
                    f"--update-baseline to retire): {path}: {rule_id} {message}"
                )
    return 1 if violations else 0
