"""Runtime lock sanitizer: patching, the ABBA fixture, holds, reports."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import locktrace
from repro.obs.locktrace import (
    HOLD_ENV,
    LOCKS_ENV,
    REPORT_ENV,
    TracedLock,
    dump_report,
    install_from_env,
    is_installed,
    locks_enabled,
    report,
)
from tests.lint.fixtures import deadlock_abba


@pytest.fixture
def sanitizer():
    """Enable tracing with clean state; restore the pre-test patch state."""
    was_installed = is_installed()
    locktrace.reset()
    locktrace.enable()
    yield locktrace
    if not was_installed:
        locktrace.disable()
    locktrace.reset()


def run_in_thread(target):
    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# enablement and zero-cost-off guarantees
# ----------------------------------------------------------------------


def test_locks_enabled_reads_the_env_flag(monkeypatch):
    monkeypatch.delenv(LOCKS_ENV, raising=False)
    assert not locks_enabled()
    monkeypatch.setenv(LOCKS_ENV, "0")
    assert not locks_enabled()
    monkeypatch.setenv(LOCKS_ENV, "1")
    assert locks_enabled()


def test_factories_untouched_when_flag_unset(monkeypatch):
    monkeypatch.delenv(LOCKS_ENV, raising=False)
    assert not install_from_env() or is_installed()
    if is_installed():
        pytest.skip("sanitizer enabled process-wide in this run")
    # With tracing off, threading.Lock() is the stock C implementation.
    assert not isinstance(threading.Lock(), TracedLock)


def test_install_from_env_patches_the_factories(monkeypatch):
    was_installed = is_installed()
    monkeypatch.setenv(LOCKS_ENV, "1")
    try:
        assert install_from_env()
        assert is_installed()
        lock = threading.Lock()
        assert isinstance(lock, TracedLock)
        assert ":" in lock.site  # file:line creation identity
    finally:
        if not was_installed:
            locktrace.disable()
        locktrace.reset()


def test_enable_disable_round_trip(sanitizer):
    assert is_installed()
    assert isinstance(threading.Lock(), TracedLock)
    assert isinstance(threading.RLock(), TracedLock)


# ----------------------------------------------------------------------
# the seeded ABBA fixture, dynamic half (static half: R202 tests)
# ----------------------------------------------------------------------


def test_seeded_abba_fixture_is_caught_at_runtime(sanitizer):
    pair = deadlock_abba.Pair()  # locks created by the patched factories
    run_in_thread(pair.forward)
    run_in_thread(pair.backward)
    snapshot = report()
    assert snapshot["cycles"], "opposite-order acquisition must record a cycle"
    cycle = snapshot["cycles"][0]
    assert all("deadlock_abba.py" in site for site in cycle["locks"])
    assert cycle["thread"]
    assert pair.calls == 2  # sequential threads: traced, not deadlocked


def test_consistent_order_records_no_cycle(sanitizer):
    pair = deadlock_abba.Pair()
    run_in_thread(pair.forward)
    run_in_thread(pair.forward)
    snapshot = report()
    assert snapshot["cycles"] == []
    # The a→b edge was still observed, with its acquisition counted.
    sites = {edge["from"] for edge in snapshot["edges"]} | {
        edge["to"] for edge in snapshot["edges"]
    }
    assert any("deadlock_abba.py" in site for site in sites)


# ----------------------------------------------------------------------
# hold-time accounting
# ----------------------------------------------------------------------


def test_long_hold_recorded_above_threshold(sanitizer, monkeypatch):
    monkeypatch.setenv(HOLD_ENV, "0.01")
    locktrace.reset()  # pick up the lowered threshold
    lock = threading.Lock()
    with lock:
        time.sleep(0.05)
    snapshot = report()
    assert snapshot["hold_threshold_seconds"] == pytest.approx(0.01)
    assert snapshot["long_holds"]
    hold = snapshot["long_holds"][0]
    assert hold["seconds"] >= 0.01
    assert snapshot["max_hold_seconds"][hold["lock"]] >= 0.01
    assert snapshot["acquire_counts"][hold["lock"]] == 1


def test_fast_holds_stay_below_threshold(sanitizer):
    lock = threading.Lock()
    with lock:
        pass
    assert report()["long_holds"] == []


# ----------------------------------------------------------------------
# Condition protocol (wait releases and reacquires the traced lock)
# ----------------------------------------------------------------------


def test_condition_wait_round_trip_on_traced_lock(sanitizer):
    cond = threading.Condition()  # underlying RLock comes from the patched factory
    with cond:
        cond.wait(timeout=0.01)
    # wait() released and reacquired: two acquisitions on the same site.
    counts = report()["acquire_counts"]
    assert any(count >= 2 for count in counts.values())


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


def test_dump_report_writes_json(sanitizer, tmp_path):
    lock = threading.Lock()
    with lock:
        pass
    target = tmp_path / "locktrace.json"
    snapshot = dump_report(str(target))
    on_disk = json.loads(target.read_text())
    assert on_disk == json.loads(json.dumps(snapshot))
    assert set(on_disk) == {
        "edges",
        "cycles",
        "long_holds",
        "acquire_counts",
        "max_hold_seconds",
        "hold_threshold_seconds",
    }


def test_dump_report_honours_the_env_path(sanitizer, tmp_path, monkeypatch):
    target = tmp_path / "from_env.json"
    monkeypatch.setenv(REPORT_ENV, str(target))
    lock = threading.Lock()
    with lock:
        pass
    dump_report()
    assert target.exists()
    assert json.loads(target.read_text())["acquire_counts"]
