"""Command-line interface: ``python -m repro.lint [paths...]``.

Exit status is 0 when the tree is clean, 1 when violations were found,
and 2 on usage errors (unknown rule id, missing path, syntax error in a
linted file).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

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
    rules = select_rules(selected) if options.select or options.ignore else None

    try:
        violations, files_checked = LintEngine(rules).lint_paths(options.paths)
    except FileNotFoundError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"repro-lint: error: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return 2

    if options.format == "sarif":
        print(render_sarif(violations, files_checked))
    else:
        renderer = render_json if options.format == "json" else render_text
        print(renderer(violations, files_checked))
    return 1 if violations else 0
