"""Lint engine throughput over the real ``src/repro`` tree.

Not a paper table — this tracks the cost of the static-analysis gate
itself so the whole-program rules (project index + call resolution) stay
cheap enough to run on every commit.  Three timings: serial, parallel
parse (``--jobs 2``), and the per-file rules alone (the difference to
the full run is the price of the cross-module analysis).
"""

from pathlib import Path

from conftest import register_table

import repro
from repro.lint.engine import LintEngine
from repro.lint.rules import all_rules, select_rules

SRC_ROOT = Path(repro.__file__).resolve().parent

FILE_RULE_IDS = [rule.rule_id for rule in all_rules() if not rule.project_scope]


def test_lint_whole_tree_serial(benchmark):
    engine = LintEngine(jobs=1)
    violations, files_checked = benchmark(engine.lint_paths, [SRC_ROOT])
    assert violations == []
    register_table(
        "Lint engine over src/repro",
        [
            {
                "files": files_checked,
                "rules": len(all_rules()),
                "file_rules": len(FILE_RULE_IDS),
                "project_rules": len(all_rules()) - len(FILE_RULE_IDS),
                "violations": len(violations),
            }
        ],
        note="timings in the pytest-benchmark table above (serial/parallel/file-only)",
    )


def test_lint_whole_tree_parallel(benchmark):
    engine = LintEngine(jobs=2)
    violations, _ = benchmark(engine.lint_paths, [SRC_ROOT])
    assert violations == []


def test_lint_file_rules_only(benchmark):
    engine = LintEngine(select_rules(FILE_RULE_IDS))
    violations, _ = benchmark(engine.lint_paths, [SRC_ROOT])
    assert violations == []

