"""Per-rule positive/negative fixtures plus the whole-tree gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.lint.cli import build_parser, main
from repro.lint.engine import LintEngine, lint_source
from repro.lint.rules import (
    NoDirectTimingCalls,
    NoMutationAfterSort,
    NoWallClockOrUnseededRandom,
    PublicApiFullyAnnotated,
    all_rules,
    get_rule,
    select_rules,
)

SRC_ROOT = Path(repro.__file__).resolve().parent


def ids_of(violations):
    return sorted({violation.rule_id for violation in violations})


def lint_with(rule_id, source, subpackage=None):
    return lint_source(source, subpackage=subpackage, rules=[get_rule(rule_id)])


# ----------------------------------------------------------------------
# R001 — no wall clock / unseeded randomness
# ----------------------------------------------------------------------


R001_POSITIVE = """
import random
import time


def simulate(cascades):
    started = time.time()
    coin = random.random()
    generator = random.Random()
    noise = np.random.rand(3)
    return started, coin, generator, noise
"""

R001_NEGATIVE = """
import time

from repro.utils.rng import resolve_rng, spawn_rng


def simulate(cascades, rng=None):
    generator = resolve_rng(rng)
    child = spawn_rng(generator, 1)
    seeded = np.random.default_rng(42)
    elapsed = time.perf_counter()
    return generator.random(), child, seeded, elapsed
"""


def test_r001_flags_wall_clock_and_unseeded_randomness():
    violations = lint_with("R001", R001_POSITIVE)
    assert ids_of(violations) == ["R001"]
    messages = " ".join(violation.message for violation in violations)
    assert "time.time" in messages
    assert len(violations) == 4  # time.time, random.random, random.Random, np.random.rand


def test_r001_accepts_seeded_rng_helpers():
    assert lint_with("R001", R001_NEGATIVE) == []


def test_r001_sees_a_probe_under_repro_ingest(tmp_path):
    # The sub-package comes from the path itself, so a new package under
    # repro/ is in scope without being listed anywhere in the linter.
    probe = tmp_path / "repro" / "ingest" / "probe.py"
    probe.parent.mkdir(parents=True)
    probe.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    violations, checked = LintEngine([get_rule("R001")]).lint_paths([probe])
    assert checked == 1
    assert [(v.rule_id, v.line) for v in violations] == [("R001", 5)]


def test_r001_is_scoped_to_algorithm_packages():
    assert lint_with("R001", R001_POSITIVE, subpackage="core")
    assert lint_with("R001", R001_POSITIVE, subpackage="analysis") == []
    assert lint_with("R001", R001_POSITIVE, subpackage="utils") == []


# ----------------------------------------------------------------------
# R003 — sorted sequences stay immutable
# ----------------------------------------------------------------------


R003_POSITIVE = """
def build(raw):
    ordered = sorted(raw)
    ordered.append(raw[0])
    return ordered


def ingest(path):
    log = load_interactions(path)
    log.sort()
    return log
"""

R003_NEGATIVE = """
def build(raw):
    ordered = sorted(raw)
    copy = list(ordered)
    copy.append(raw[0])
    return copy


def rebind(raw):
    ordered = sorted(raw)
    ordered = [x for x in ordered if x]
    ordered.append(0)
    return ordered
"""


def test_r003_flags_mutation_of_sorted_and_loaded_sequences():
    violations = lint_with("R003", R003_POSITIVE)
    assert len(violations) == 2
    assert "ordered.append" in violations[0].message
    assert "log.sort" in violations[1].message


def test_r003_allows_copies_and_rebinding():
    assert lint_with("R003", R003_NEGATIVE) == []


def test_r003_flags_augmented_assignment():
    source = "def f(raw):\n    log = sorted(raw)\n    log += [1]\n    return log\n"
    violations = lint_with("R003", source)
    assert len(violations) == 1 and "augmented" in violations[0].message


# ----------------------------------------------------------------------
# R004 — public API fully annotated
# ----------------------------------------------------------------------


R004_POSITIVE = """
class Sketch:
    def __init__(self, precision):
        self.precision = precision

    def add(self, item, timestamp: int):
        pass
"""

R004_NEGATIVE = """
class Sketch:
    def __init__(self, precision: int) -> None:
        self.precision = precision

    def add(self, item: object, timestamp: int) -> None:
        pass

    def _internal(self, anything):
        pass
"""


def test_r004_flags_missing_annotations():
    violations = lint_with("R004", R004_POSITIVE)
    assert len(violations) == 2
    assert "precision" in violations[0].message and "return" in violations[0].message
    assert "item" in violations[1].message


def test_r004_accepts_annotated_public_api_and_ignores_private():
    assert lint_with("R004", R004_NEGATIVE) == []


def test_r004_is_scoped_to_core_and_sketch():
    assert lint_with("R004", R004_POSITIVE, subpackage="sketch")
    assert lint_with("R004", R004_POSITIVE, subpackage="simulation") == []


# ----------------------------------------------------------------------
# R006 — timing goes through utils.timer / obs
# ----------------------------------------------------------------------


R006_POSITIVE = """
import time
from time import perf_counter as tick


def measure(func):
    start = time.perf_counter()
    func()
    wall = time.time()
    mono = time.monotonic_ns()
    bare = tick()
    return start, wall, mono, bare
"""

R006_NEGATIVE = """
import time

from repro.utils.timer import Timer, time_call


def measure(func):
    with Timer() as timer:
        func()
    _, elapsed = time_call(func)
    time.sleep(0.01)  # sleeping is not measuring
    return timer.elapsed, elapsed
"""


def test_r006_flags_direct_and_imported_timing_calls():
    violations = lint_with("R006", R006_POSITIVE)
    assert ids_of(violations) == ["R006"]
    messages = " ".join(violation.message for violation in violations)
    assert len(violations) == 4
    assert "time.perf_counter" in messages
    assert "time.time" in messages
    assert "time.monotonic_ns" in messages


def test_r006_accepts_timer_routed_code_and_sleep():
    assert lint_with("R006", R006_NEGATIVE) == []


def test_r006_exempts_the_instrumented_layer():
    rule = get_rule("R006")
    assert isinstance(rule, NoDirectTimingCalls)
    exempt = lint_source(
        R006_POSITIVE, path="src/repro/utils/timer.py", rules=[rule]
    )
    assert exempt == []
    in_obs = lint_source(
        R006_POSITIVE, path="src/repro/obs/registry.py", subpackage="obs", rules=[rule]
    )
    assert in_obs == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_file_level_suppression_silences_the_whole_file():
    source = "# repro-lint: disable=R003\n" + R003_POSITIVE
    assert lint_with("R003", source) == []


def test_line_level_suppression_silences_one_line_only():
    source = R003_POSITIVE.replace(
        "ordered.append(raw[0])", "ordered.append(raw[0])  # repro-lint: disable=R003"
    )
    violations = lint_with("R003", source)
    assert len(violations) == 1 and "log.sort" in violations[0].message


def test_disable_all_suppresses_every_rule():
    source = "# repro-lint: disable=all\n" + R001_POSITIVE + R003_POSITIVE
    assert lint_source(source) == []


# ----------------------------------------------------------------------
# Whole-tree gate and CLI
# ----------------------------------------------------------------------


def test_full_repro_tree_is_lint_clean():
    violations, files_checked = LintEngine().lint_paths([SRC_ROOT])
    assert violations == []
    assert files_checked >= 40  # every module of the package was visited


def test_r101_catches_a_deleted_core_validation_call(tmp_path):
    """Removing one validator from a public core entry point must fail R101."""
    import shutil

    mirror = tmp_path / "src" / "repro"
    shutil.copytree(SRC_ROOT, mirror)
    summary = mirror / "core" / "summary.py"
    patched = summary.read_text(encoding="utf-8").replace(
        '        require_int(end_time, "end_time")\n', ""
    )
    assert patched != summary.read_text(encoding="utf-8")
    summary.write_text(patched, encoding="utf-8")

    engine = LintEngine([get_rule("R101")], reference_roots=[])
    violations, _ = engine.lint_paths([mirror])
    assert any(
        v.rule_id == "R101" and "'end_time'" in v.message and "summary.py" in v.path
        for v in violations
    )


def test_rule_registry_is_complete():
    assert [rule.rule_id for rule in all_rules()] == [
        "R001",
        "R003",
        "R004",
        "R006",
        "R101",
        "R104",
        "R106",
        "R201",
        "R204",
        "R205",
    ]
    assert isinstance(get_rule("R001"), NoWallClockOrUnseededRandom)
    assert isinstance(get_rule("R003"), NoMutationAfterSort)
    assert isinstance(get_rule("R004"), PublicApiFullyAnnotated)
    assert isinstance(get_rule("R006"), NoDirectTimingCalls)
    with pytest.raises(KeyError, match="unknown rule"):
        get_rule("R999")
    assert [rule.rule_id for rule in select_rules(["R003", "R001"])] == ["R001", "R003"]


def test_cli_reports_violations_and_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(R003_POSITIVE, encoding="utf-8")

    assert main([str(bad), "--select", "R003"]) == 1
    out = capsys.readouterr().out
    assert "R003" in out and "bad.py" in out and "2 violations" in out

    assert main([str(bad), "--select", "R001"]) == 0
    assert "0 violations" in capsys.readouterr().out

    assert main([str(bad), "--select", "R003", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert payload["violations"][0]["rule"] == "R003"

    assert main([str(tmp_path / "missing.py")]) == 2
    assert main(["--select", "R999", str(bad)]) == 2
    assert main(["--list-rules"]) == 0
    assert "R001" in capsys.readouterr().out


def test_cli_options_and_rule_listing(capsys):
    options = {
        flag
        for action in build_parser()._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    assert options == {"--format", "--select", "--ignore", "--list-rules"}

    assert main(["--list-rules"]) == 0
    listed = [
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("R")
    ]
    assert listed == [rule.rule_id for rule in all_rules()]
