"""CLI rule selection (``--select``/``--ignore``) and SARIF path keys.

Violation paths become repo-relative POSIX artifact URIs in SARIF.
"""

from __future__ import annotations

import pytest

from repro.lint.cli import main
from repro.lint.rules import expand_rule_selectors
from repro.lint.sarif import normalize_path


class TestNormalizePath:
    def test_relative_paths_become_posix(self):
        assert normalize_path("src/repro/core/exact.py") == "src/repro/core/exact.py"

    def test_cwd_prefix_stripped(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert normalize_path(str(tmp_path / "src" / "a.py")) == "src/a.py"


BAD_SOURCE = """
def feed(events):
    ordered = sorted(events)
    ordered.append(None)
    return ordered
"""


class TestRuleSelection:
    def test_prefix_expands_to_the_rule_family(self):
        assert expand_rule_selectors(["R2"]) == ["R201", "R204", "R205"]

    def test_exact_ids_and_prefixes_mix_and_dedupe(self):
        assert expand_rule_selectors(["R003", "R20", "R201"]) == [
            "R003",
            "R201",
            "R204",
            "R205",
        ]

    def test_unknown_selector_raises(self):
        with pytest.raises(KeyError, match="matches no rule"):
            expand_rule_selectors(["R9"])

    def test_empty_selectors_are_skipped(self):
        assert expand_rule_selectors(["", " "]) == []

    def test_cli_select_prefix_runs_the_family(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        # R003 fires on this source but no R2xx rule does.
        assert main([str(bad), "--select", "R2"]) == 0
        capsys.readouterr()
        assert main([str(bad), "--select", "R0"]) == 1
        capsys.readouterr()

    def test_cli_ignore_subtracts_from_selection(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE, encoding="utf-8")
        assert main([str(bad), "--select", "R003", "--ignore", "R003"]) == 2
        assert "left no rules" in capsys.readouterr().err
        # BAD_SOURCE violates R003 and R004; ignoring both leaves the
        # remaining R0xx rules, which are clean here.
        assert main([str(bad), "--select", "R0", "--ignore", "R003,R004"]) == 0
        capsys.readouterr()

    def test_cli_unknown_selector_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n", encoding="utf-8")
        assert main([str(bad), "--select", "R9"]) == 2
        assert "matches no rule" in capsys.readouterr().err
