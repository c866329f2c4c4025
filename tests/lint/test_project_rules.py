"""Positive/negative fixtures for the cross-module rules R101, R104, R106."""

from __future__ import annotations

from repro.lint.engine import lint_project_sources
from repro.lint.rules import get_rule
from repro.lint.rules_project import (
    DeadExports,
    InterproceduralParameterValidation,
    ProjectRule,
    TimingImportsOutsideTimer,
)


def project_violations(sources, rule_id, external=()):
    return lint_project_sources(
        sources, rules=[get_rule(rule_id)], external_identifiers=external
    )


def test_rule_classes_registered_under_expected_ids():
    assert isinstance(get_rule("R101"), InterproceduralParameterValidation)
    assert isinstance(get_rule("R104"), DeadExports)
    assert isinstance(get_rule("R106"), TimingImportsOutsideTimer)
    for rule_id in ("R101", "R104", "R106"):
        assert isinstance(get_rule(rule_id), ProjectRule)
        assert get_rule(rule_id).project_scope


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


UNVALIDATED_CONSTRUCTOR = """
class Index:
    def __init__(self, window, precision=9):
        self.window = window
        self.precision = precision
"""


class TestR101:
    def test_unvalidated_constructor_parameters_flagged(self):
        # A public ``window`` neither validated nor forwarded, beside a
        # defaulted ``precision``: each parameter is reported once.
        sources = {"pkg/index.py": UNVALIDATED_CONSTRUCTOR}
        violations = project_violations(sources, "R101")
        assert len(violations) == 2
        messages = " ".join(v.message for v in violations)
        assert "'window' of Index.__init__()" in messages
        assert "'precision' of Index.__init__()" in messages

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
