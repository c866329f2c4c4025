"""Positive/negative fixtures for the cross-module rules R101–R106."""

from __future__ import annotations

from repro.lint.engine import lint_project_sources, lint_source
from repro.lint.rules import get_rule
from repro.lint.rules_project import (
    ComplexityBudget,
    DeadExports,
    InterproceduralParameterValidation,
    ProjectRule,
    SketchMergeCompatibility,
    TemporalOrderMisuse,
    TimingImportsOutsideTimer,
)


def project_violations(sources, rule_id, external=()):
    return lint_project_sources(
        sources, rules=[get_rule(rule_id)], external_identifiers=external
    )


def test_rule_classes_registered_under_expected_ids():
    assert isinstance(get_rule("R101"), InterproceduralParameterValidation)
    assert isinstance(get_rule("R102"), TemporalOrderMisuse)
    assert isinstance(get_rule("R103"), ComplexityBudget)
    assert isinstance(get_rule("R104"), DeadExports)
    assert isinstance(get_rule("R105"), SketchMergeCompatibility)
    assert isinstance(get_rule("R106"), TimingImportsOutsideTimer)
    for rule_id in ("R101", "R104", "R105", "R106"):
        assert isinstance(get_rule(rule_id), ProjectRule)
        assert get_rule(rule_id).project_scope
    for rule_id in ("R102", "R103"):
        assert not get_rule(rule_id).project_scope


# ----------------------------------------------------------------------
# R101 — interprocedural parameter validation
# ----------------------------------------------------------------------

HELPERS = """
from repro.utils.validation import require_int, require_non_negative


def check_window(window):
    require_int(window, "window")
    require_non_negative(window, "window")
"""

HELPERS_PARTIAL = """
from repro.utils.validation import require_int


def check_window(window):
    require_int(window, "window")
"""


class TestR101:
    def test_unvalidated_public_parameter_flagged(self):
        sources = {"pkg/algo.py": "def run(window):\n    return window + 1\n"}
        violations = project_violations(sources, "R101")
        assert len(violations) == 1
        assert violations[0].rule_id == "R101"
        assert "'window'" in violations[0].message

    def test_cross_module_forward_counts_as_validation(self):
        sources = {
            "pkg/helpers.py": HELPERS,
            "pkg/algo.py": (
                "from pkg.helpers import check_window\n"
                "\n"
                "def run(window):\n"
                "    check_window(window)\n"
                "    return window + 1\n"
            ),
        }
        assert project_violations(sources, "R101") == []

    def test_partial_validation_names_the_missing_facet(self):
        sources = {
            "pkg/helpers.py": HELPERS_PARTIAL,
            "pkg/algo.py": (
                "from pkg.helpers import check_window\n"
                "\n"
                "def run(window):\n"
                "    check_window(window)\n"
                "    return window + 1\n"
            ),
        }
        # Both the helper itself and the caller that relies on it are
        # missing the same facet — the caller's coverage is the forward's.
        violations = project_violations(sources, "R101")
        assert {v.path for v in violations} == {"pkg/algo.py", "pkg/helpers.py"}
        assert all("range check" in v.message for v in violations)

    def test_private_functions_are_exempt(self):
        sources = {"pkg/algo.py": "def _run(window):\n    return window + 1\n"}
        assert project_violations(sources, "R101") == []

    def test_unresolved_forward_is_trusted(self):
        # ``checker.verify`` cannot be resolved to any known function, so
        # the rule assumes the best rather than produce a false positive.
        sources = {
            "pkg/algo.py": (
                "def run(checker, window):\n"
                "    checker.verify(window)\n"
                "    return window\n"
            ),
        }
        assert project_violations(sources, "R101") == []

    def test_builtin_call_is_not_a_forward(self):
        sources = {"pkg/algo.py": "def run(window):\n    return len(window)\n"}
        assert len(project_violations(sources, "R101")) == 1

    def test_validation_cycle_is_pessimistic(self):
        sources = {
            "pkg/a.py": (
                "from pkg.b import ping\n"
                "\n"
                "def run(window):\n"
                "    ping(window)\n"
            ),
            "pkg/b.py": (
                "from pkg.a import run\n"
                "\n"
                "def ping(window):\n"
                "    run(window)\n"
            ),
        }
        violations = project_violations(sources, "R101")
        assert {v.path for v in violations} == {"pkg/a.py", "pkg/b.py"}


# ----------------------------------------------------------------------
# R102 — temporal-order misuse
# ----------------------------------------------------------------------


class TestR102:
    def lint(self, source):
        return lint_source(source, rules=[get_rule("R102")])

    def test_set_iteration_into_process_time(self):
        violations = self.lint(
            "def feed(state, times):\n"
            "    for t in set(times):\n"
            "        state.process('a', 'b', t)\n"
        )
        assert len(violations) == 1
        assert "set(...)" in violations[0].message

    def test_dict_values_into_time_keyword(self):
        violations = self.lint(
            "def feed(state, stamps):\n"
            "    for t in stamps.values():\n"
            "        state.process('a', 'b', time=t)\n"
        )
        assert len(violations) == 1
        assert ".values()" in violations[0].message

    def test_sorted_cleanses_the_taint(self):
        assert (
            self.lint(
                "def feed(state, times):\n"
                "    for t in sorted(set(times)):\n"
                "        state.process('a', 'b', t)\n"
            )
            == []
        )

    def test_reassignment_clears_taint(self):
        assert (
            self.lint(
                "def feed(state, times):\n"
                "    t = set(times)\n"
                "    t = 5\n"
                "    state.process('a', 'b', t)\n"
            )
            == []
        )

    def test_non_time_arguments_are_ignored(self):
        assert (
            self.lint(
                "def feed(state, times):\n"
                "    for t in set(times):\n"
                "        state.process(t, 'b', 0)\n"
            )
            == []
        )


# ----------------------------------------------------------------------
# R103 — complexity budget
# ----------------------------------------------------------------------


class TestR103:
    def lint(self, source):
        return lint_source(source, rules=[get_rule("R103")])

    def test_unannotated_nested_loops_flagged(self):
        violations = self.lint(
            "def scan(rows):\n"
            "    total = 0\n"
            "    for row in rows:\n"
            "        for item in row:\n"
            "            total += item\n"
            "    return total\n"
        )
        assert len(violations) == 1
        assert "budget" in violations[0].message

    def test_budget_on_outer_loop_line_accepted(self):
        assert (
            self.lint(
                "def scan(rows):\n"
                "    for row in rows:  # repro-lint: budget=O(n*m)\n"
                "        for item in row:\n"
                "            print(item)\n"
            )
            == []
        )

    def test_budget_on_preceding_line_accepted(self):
        assert (
            self.lint(
                "def scan(rows):\n"
                "    # repro-lint: budget=O(n*m)\n"
                "    for row in rows:\n"
                "        for item in row:\n"
                "            print(item)\n"
            )
            == []
        )

    def test_single_loops_and_nested_defs_not_flagged(self):
        assert (
            self.lint(
                "def scan(rows):\n"
                "    for row in rows:\n"
                "        def handle(row):\n"
                "            for item in row:\n"
                "                print(item)\n"
                "        handle(row)\n"
            )
            == []
        )


# ----------------------------------------------------------------------
# R104 — dead exports
# ----------------------------------------------------------------------

R104_SOURCES = {
    "pkg/mod.py": (
        '__all__ = ["used", "unused"]\n'
        "\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "def unused():\n"
        "    return 2\n"
    ),
    "pkg/other.py": "from pkg.mod import used\n\nvalue = used()\n",
}


class TestR104:
    def test_unreferenced_export_flagged_once(self):
        violations = project_violations(R104_SOURCES, "R104")
        assert len(violations) == 1
        assert "'unused'" in violations[0].message
        assert violations[0].path == "pkg/mod.py"

    def test_external_reference_keeps_export_alive(self):
        assert project_violations(R104_SOURCES, "R104", external={"unused"}) == []

    def test_package_init_reexport_does_not_count(self):
        sources = dict(R104_SOURCES)
        sources["pkg/__init__.py"] = "from pkg.mod import unused\n"
        violations = project_violations(sources, "R104")
        assert [v.message.split("'")[1] for v in violations] == ["unused"]


# ----------------------------------------------------------------------
# R105 — sketch merge compatibility
# ----------------------------------------------------------------------

SKETCH = """
class Sketch:
    def __init__(self, precision: int = 9, salt: int = 0):
        self._precision = precision
        self._salt = salt

    def merge(self, other):
        pass

    def merge_within(self, other, start_time, window):
        pass
"""


def r105_user(body):
    return {"src/repro/sketch/lib.py": SKETCH, "src/repro/core/user.py": body}


class TestR105:
    def test_equal_constructions_accepted(self):
        sources = r105_user(
            "from repro.sketch.lib import Sketch\n"
            "\n"
            "def combine():\n"
            "    a = Sketch(precision=9)\n"
            "    b = Sketch(precision=9)\n"
            "    a.merge(b)\n"
            "    return a\n"
        )
        assert project_violations(sources, "R105") == []

    def test_differing_precision_flagged(self):
        sources = r105_user(
            "from repro.sketch.lib import Sketch\n"
            "\n"
            "def combine():\n"
            "    a = Sketch(precision=9)\n"
            "    b = Sketch(precision=12)\n"
            "    a.merge(b)\n"
            "    return a\n"
        )
        violations = project_violations(sources, "R105")
        assert len(violations) == 1
        assert "differing constructor configuration" in violations[0].message

    def test_default_arguments_participate_in_the_config(self):
        sources = r105_user(
            "from repro.sketch.lib import Sketch\n"
            "\n"
            "def combine():\n"
            "    a = Sketch(9, 1)\n"
            "    b = Sketch(9)\n"
            "    a.merge_within(b, 0, 5)\n"
            "    return a\n"
        )
        violations = project_violations(sources, "R105")
        assert len(violations) == 1
        assert "salt" in violations[0].message

    def test_single_class_pool_construction_is_proof(self):
        sources = r105_user(
            "from repro.sketch.lib import Sketch\n"
            "\n"
            "class Pool:\n"
            "    def __init__(self, precision: int):\n"
            "        self._precision = precision\n"
            "\n"
            "    def fresh(self) -> Sketch:\n"
            "        return Sketch(self._precision, 0)\n"
            "\n"
            "    def fold(self, target: Sketch, source: Sketch):\n"
            "        target.merge(source)\n"
        )
        assert project_violations(sources, "R105") == []

    def test_mixed_class_pool_cannot_prove(self):
        sources = r105_user(
            "from repro.sketch.lib import Sketch\n"
            "\n"
            "class Pool:\n"
            "    def __init__(self, precision: int):\n"
            "        self._precision = precision\n"
            "\n"
            "    def fresh(self) -> Sketch:\n"
            "        return Sketch(self._precision, 0)\n"
            "\n"
            "    def spare(self) -> Sketch:\n"
            "        return Sketch(4, 0)\n"
            "\n"
            "    def fold(self, target: Sketch, source: Sketch):\n"
            "        target.merge(source)\n"
        )
        violations = project_violations(sources, "R105")
        assert len(violations) == 1
        assert "cannot prove" in violations[0].message

    def test_suppression_comment_silences_the_site(self):
        sources = r105_user(
            "from repro.sketch.lib import Sketch\n"
            "\n"
            "def combine():\n"
            "    a = Sketch(precision=9)\n"
            "    b = Sketch(precision=12)\n"
            "    a.merge(b)  # repro-lint: disable=R105\n"
            "    return a\n"
        )
        assert project_violations(sources, "R105") == []


# ----------------------------------------------------------------------
# R106 — timing imports stay inside the instrumented layer
# ----------------------------------------------------------------------


class TestR106:
    def test_aliased_timing_imports_flagged(self):
        sources = {
            "src/repro/analysis/bad.py": (
                "from time import perf_counter as tick\n"
                "import time as t\n"
                "\n"
                "def measure(func):\n"
                "    start = tick()\n"
                "    func()\n"
                "    return t.perf_counter() - start\n"
            )
        }
        violations = project_violations(sources, "R106")
        assert len(violations) == 2
        messages = " ".join(v.message for v in violations)
        assert "'from time import perf_counter'" in messages
        assert "'import time as t'" in messages

    def test_plain_import_time_and_sleep_allowed(self):
        sources = {
            "src/repro/analysis/fine.py": (
                "import time\n"
                "from time import sleep\n"
                "\n"
                "def wait():\n"
                "    sleep(0.01)\n"
                "    time.sleep(0.01)\n"
            )
        }
        assert project_violations(sources, "R106") == []

    def test_instrumented_layer_is_exempt(self):
        sources = {
            "src/repro/utils/timer.py": "from time import perf_counter_ns\n",
            "src/repro/obs/registry.py": "from time import perf_counter_ns\n",
        }
        assert project_violations(sources, "R106") == []

    def test_suppression_comment_silences_the_import(self):
        sources = {
            "src/repro/analysis/quiet.py": (
                "from time import perf_counter  # repro-lint: disable=R106\n"
            )
        }
        assert project_violations(sources, "R106") == []
