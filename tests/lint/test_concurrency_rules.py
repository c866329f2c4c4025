"""Positive/negative fixtures for the concurrency rules R201–R205."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.engine import lint_project_sources, lint_source
from repro.lint.concurrency import (
    LOCK_CONSTRUCTORS,
    BlockingCallUnderLock,
    ClassLockModel,
    EscapingGuardedState,
    GuardedFieldDiscipline,
    LockOrderInversion,
    NonAtomicSharedUpdate,
    build_class_models,
)
from repro.lint.rules import get_rule

FIXTURES = Path(__file__).parent / "fixtures"


def file_violations(source, rule_id):
    return lint_source(source, rules=[get_rule(rule_id)])


def project_violations(sources, rule_id):
    return lint_project_sources(sources, rules=[get_rule(rule_id)])


def test_rule_classes_registered_under_expected_ids():
    assert isinstance(get_rule("R201"), GuardedFieldDiscipline)
    assert isinstance(get_rule("R202"), LockOrderInversion)
    assert isinstance(get_rule("R203"), BlockingCallUnderLock)
    assert isinstance(get_rule("R204"), NonAtomicSharedUpdate)
    assert isinstance(get_rule("R205"), EscapingGuardedState)
    for rule_id in ("R202", "R203"):
        assert get_rule(rule_id).project_scope
    for rule_id in ("R201", "R204", "R205"):
        assert not get_rule(rule_id).project_scope


# ----------------------------------------------------------------------
# lock model
# ----------------------------------------------------------------------

MODEL_SOURCE = """
import threading


class Store:
    def __init__(self, lock=None):
        self._lock = lock if lock is not None else threading.Lock()
        self._items = {}  # repro-lint: guarded-by=_lock

    def put(self, key, value):
        with self._lock:
            self._items[key] = value


class ChildStore(Store):
    def size(self):
        with self._lock:
            return len(self._items)
"""


def test_lock_model_detects_lock_attrs_and_annotations():
    models = build_class_models(ast.parse(MODEL_SOURCE), MODEL_SOURCE)
    by_name = {model.node.name: model for model in models}
    store = by_name["Store"]
    assert isinstance(store, ClassLockModel)
    assert store.lock_attrs == {"_lock"}
    assert set(store.guarded_by) == {"_items"}
    lock_name, anchor = store.guarded_by["_items"]
    assert lock_name == "_lock"
    assert anchor is not None
    # Subclasses inherit same-module base-class locks.
    assert "_lock" in by_name["ChildStore"].lock_attrs


def test_lock_constructors_cover_the_stdlib_and_serving_locks():
    assert {"Lock", "RLock", "Condition", "ReadWriteLock"} <= set(LOCK_CONSTRUCTORS)


# ----------------------------------------------------------------------
# R201 — guarded-field discipline
# ----------------------------------------------------------------------

R201_ANNOTATED_BAD = """
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}  # repro-lint: guarded-by=_lock

    def get(self, key):
        return self._data.get(key)
"""

R201_ANNOTATED_CLEAN = """
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}  # repro-lint: guarded-by=_lock

    def get(self, key):
        with self._lock:
            return self._data.get(key)
"""

R201_INFERRED_BAD = """
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}

    def put(self, key, value):
        with self._lock:
            self._data[key] = value

    def get(self, key):
        return self._data.get(key)
"""


class TestR201:
    def test_annotated_field_access_without_lock_flagged(self):
        violations = file_violations(R201_ANNOTATED_BAD, "R201")
        assert len(violations) == 1
        assert violations[0].rule_id == "R201"
        assert "guarded-by=_lock" in violations[0].message
        assert "get()" in violations[0].message

    def test_annotated_field_access_under_lock_clean(self):
        assert file_violations(R201_ANNOTATED_CLEAN, "R201") == []

    def test_unknown_lock_name_in_annotation_flagged(self):
        source = R201_ANNOTATED_CLEAN.replace("guarded-by=_lock", "guarded-by=_mutex")
        violations = file_violations(source, "R201")
        assert any("no lock attribute self._mutex" in v.message for v in violations)

    def test_inferred_guarded_field_flagged_without_annotation(self):
        violations = file_violations(R201_INFERRED_BAD, "R201")
        assert len(violations) == 1
        assert "under self._lock in put()" in violations[0].message
        assert "without any lock in get()" in violations[0].message

    def test_line_suppression_is_the_escape_hatch(self):
        source = R201_INFERRED_BAD.replace(
            "return self._data.get(key)",
            "return self._data.get(key)  # repro-lint: disable=R201",
        )
        assert file_violations(source, "R201") == []

    def test_fields_only_written_in_init_are_exempt(self):
        source = R201_INFERRED_BAD.replace(
            "self._data[key] = value", "value and None"
        )
        # _data is never written outside __init__ → treated as immutable.
        assert file_violations(source, "R201") == []


# ----------------------------------------------------------------------
# R202 — lock-order inversion (uses the shared ABBA fixture)
# ----------------------------------------------------------------------


class TestR202:
    def test_seeded_abba_fixture_is_caught_statically(self):
        source = (FIXTURES / "deadlock_abba.py").read_text()
        violations = project_violations({"pkg/deadlock_abba.py": source}, "R202")
        assert len(violations) == 2
        for violation in violations:
            assert violation.rule_id == "R202"
            assert "lock-order inversion" in violation.message
            assert "ABBA" in violation.message
        # Each finding cites the opposite-order witness site.
        assert any("forward" in v.message for v in violations)
        assert any("backward" in v.message for v in violations)

    def test_consistent_order_is_clean(self):
        source = (FIXTURES / "deadlock_abba.py").read_text().replace(
            "with self._b:\n            with self._a:",
            "with self._a:\n            with self._b:",
        )
        assert project_violations({"pkg/consistent.py": source}, "R202") == []

    def test_inversion_through_a_helper_call_is_caught(self):
        source = """
import threading


class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def _grab_a(self):
        with self._a:
            pass

    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            self._grab_a()
"""
        violations = project_violations({"pkg/pair.py": source}, "R202")
        assert violations, "inversion reached through _grab_a() must be flagged"
        assert all("lock-order inversion" in v.message for v in violations)


# ----------------------------------------------------------------------
# R203 — blocking call while holding a lock
# ----------------------------------------------------------------------

R203_DIRECT = """
import threading
import time


class Slow:
    def __init__(self):
        self._lock = threading.Lock()

    def work(self):
        with self._lock:
            time.sleep(0.5)
"""

R203_TRANSITIVE = """
import threading


class Slow:
    def __init__(self):
        self._lock = threading.Lock()

    def _io(self):
        with open("/tmp/x") as handle:
            return handle.read()

    def work(self):
        with self._lock:
            return self._io()
"""

R203_CONDITION_WAIT = """
import threading


class Queue:
    def __init__(self):
        self._cond = threading.Condition()

    def take(self):
        with self._cond:
            self._cond.wait()
"""


class TestR203:
    def test_sleep_under_lock_flagged(self):
        violations = project_violations({"pkg/slow.py": R203_DIRECT}, "R203")
        assert len(violations) == 1
        assert "blocking call" in violations[0].message
        assert "time.sleep" in violations[0].message

    def test_transitive_blocking_call_flagged(self):
        violations = project_violations({"pkg/slow.py": R203_TRANSITIVE}, "R203")
        assert violations
        assert any(
            "call to _io()" in v.message and "reaches blocking" in v.message
            for v in violations
        )

    def test_condition_wait_on_held_lock_is_exempt(self):
        assert project_violations({"pkg/q.py": R203_CONDITION_WAIT}, "R203") == []

    def test_sleep_outside_lock_clean(self):
        source = R203_DIRECT.replace(
            "with self._lock:\n            time.sleep(0.5)",
            "time.sleep(0.5)",
        )
        assert project_violations({"pkg/slow.py": source}, "R203") == []


# ----------------------------------------------------------------------
# R204 — non-atomic read-modify-write
# ----------------------------------------------------------------------

R204_BAD = """
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0
        self.buckets = {}

    def bump(self):
        self.total += 1

    def record(self, key):
        if key not in self.buckets:
            self.buckets[key] = 0
        self.buckets[key] += 1
"""


class TestR204:
    def test_bare_augmented_assignment_flagged(self):
        violations = file_violations(R204_BAD, "R204")
        assert any(
            "non-atomic read-modify-write" in v.message and "bump()" in v.message
            for v in violations
        )

    def test_check_then_act_flagged(self):
        violations = file_violations(R204_BAD, "R204")
        assert any("record()" in v.message for v in violations)

    def test_rmw_under_lock_clean(self):
        source = """
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def bump(self):
        with self._lock:
            self.total += 1
"""
        assert file_violations(source, "R204") == []

    def test_lockless_class_not_flagged(self):
        source = "class Plain:\n    def __init__(self):\n        self.total = 0\n\n    def bump(self):\n        self.total += 1\n"
        # R204 only applies to classes that own locks.
        assert file_violations(source, "R204") == []


# ----------------------------------------------------------------------
# R205 — escaping lock-guarded mutable state
# ----------------------------------------------------------------------

R205_BAD = """
import threading


class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value

    def entries(self):
        with self._lock:
            return self._entries
"""


class TestR205:
    def test_returning_guarded_dict_flagged(self):
        violations = file_violations(R205_BAD, "R205")
        assert len(violations) == 1
        assert "leaks a reference" in violations[0].message
        assert "entries()" in violations[0].message

    def test_returning_a_copy_clean(self):
        source = R205_BAD.replace("return self._entries", "return dict(self._entries)")
        assert file_violations(source, "R205") == []
