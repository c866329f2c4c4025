"""Opt-in runtime lock sanitizer — the dynamic half of the lock checks.

The static pass in :mod:`repro.lint.concurrency` checks per-class
guarded-field discipline; lock order and hold times are whole-program,
run-time properties, and this module watches the locks that actually
run.  When ``REPRO_DEBUG_LOCKS=1`` is set (read once, at
import of :mod:`repro.obs` or via :func:`enable`), the
``threading.Lock`` / ``threading.RLock`` factories are replaced with
ones returning a :class:`TracedLock` wrapper that records, per thread:

* the **acquisition-order graph**: every ordered pair (held → acquired)
  ever observed, with counts.  A new edge whose reverse is already
  reachable is a **lock-order cycle** (a potential ABBA deadlock) and
  is recorded with both sites and the thread name;
* **long-held locks**: any hold longer than
  ``REPRO_DEBUG_LOCKS_HOLD_SECONDS`` (default 1.0s), such as blocking
  I/O inside a critical section;
* per-site **acquire counts** and maximum hold times.

Locks are identified by their *creation site* (``file:line``), so every
``self._lock = threading.Lock()`` in a class maps all instances onto
one stable key — the same per-class-attribute lock identity the static
rules use.  ``threading.Condition()`` is covered without patching it:
its default lock is an ``RLock()`` resolved through the (patched)
``threading`` namespace at call time, and :class:`TracedLock`
implements the ``_release_save`` / ``_acquire_restore`` / ``_is_owned``
protocol ``Condition.wait`` relies on, recording the release/reacquire
pair around every wait.

Cost model (same bar as :mod:`repro.utils.contracts`): with the flag
unset **nothing is patched** — production code uses the stock C lock
implementations and pays zero overhead, not even an attribute lookup.

A report is dumped at interpreter exit: JSON to the path named by
``REPRO_DEBUG_LOCKS_REPORT`` when set, otherwise a human summary to
stderr only if something suspicious (a cycle or a long hold) was seen::

    REPRO_DEBUG_LOCKS=1 REPRO_DEBUG_LOCKS_REPORT=locktrace.json \
        python -m pytest tests/serve/test_locking_stress.py

This module must stay standard-library only and must not import any
other ``repro.obs`` module: the package ``__init__`` imports *it*
first, to honour the env flag before creating the metric-registry
locks.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = [
    "LOCKS_ENV",
    "HOLD_ENV",
    "REPORT_ENV",
    "TracedLock",
    "locks_enabled",
    "enable",
    "disable",
    "is_installed",
    "install_from_env",
    "reset",
    "report",
    "dump_report",
]

LOCKS_ENV = "REPRO_DEBUG_LOCKS"
HOLD_ENV = "REPRO_DEBUG_LOCKS_HOLD_SECONDS"
REPORT_ENV = "REPRO_DEBUG_LOCKS_REPORT"

#: The untraced factories, captured before any patching so the tracer's
#: own bookkeeping lock can never trace itself.
_ORIGINAL_LOCK = threading.Lock
_ORIGINAL_RLOCK = threading.RLock

_SKIP_FRAME_FILES = ("locktrace.py", "threading.py")


def locks_enabled() -> bool:
    """True when ``REPRO_DEBUG_LOCKS`` requests runtime lock tracing."""
    return os.environ.get(LOCKS_ENV, "") not in ("", "0")


def _creation_site() -> str:
    """``file:line`` of the nearest caller outside locktrace/threading."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.replace("\\", "/").endswith(_SKIP_FRAME_FILES):
            return f"{os.path.basename(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class _TraceState:
    """Global acquisition-order graph plus per-thread held stacks."""

    def __init__(self) -> None:
        self._lock = _ORIGINAL_LOCK()
        self._local = threading.local()
        self.hold_threshold = float(os.environ.get(HOLD_ENV, "") or "1.0")
        self.edges: Dict[Tuple[str, str], int] = {}
        self.cycles: List[Dict[str, Any]] = []
        self.long_holds: List[Dict[str, Any]] = []
        self.acquire_counts: Dict[str, int] = {}
        self.max_hold: Dict[str, float] = {}

    # -- per-thread held stack -----------------------------------------
    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- events --------------------------------------------------------
    def note_acquire(self, site: str) -> None:
        stack = self._stack()
        held = [entry[0] for entry in stack]
        with self._lock:
            self.acquire_counts[site] = self.acquire_counts.get(site, 0) + 1
            for prior in held:
                if prior == site:
                    continue  # reentrant / same creation site
                edge = (prior, site)
                if edge not in self.edges and self._reachable(site, prior):
                    self.cycles.append(
                        {
                            "locks": [prior, site],
                            "thread": threading.current_thread().name,
                            "held": list(held),
                        }
                    )
                self.edges[edge] = self.edges.get(edge, 0) + 1
        stack.append([site, time.perf_counter()])

    def note_release(self, site: str) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] == site:
                _site, t0 = stack.pop(index)
                duration = time.perf_counter() - t0
                with self._lock:
                    if duration > self.max_hold.get(site, 0.0):
                        self.max_hold[site] = duration
                    if duration >= self.hold_threshold:
                        self.long_holds.append(
                            {
                                "lock": site,
                                "seconds": duration,
                                "thread": threading.current_thread().name,
                            }
                        )
                return
        # A release with no matching acquire on this thread (e.g. a lock
        # handed across threads) — ignore rather than crash the program
        # being traced.

    def _reachable(self, start: str, goal: str) -> bool:
        """DFS over the current edge graph (caller holds ``self._lock``)."""
        adjacency: Dict[str, Set[str]] = {}
        for before, after in self.edges:
            adjacency.setdefault(before, set()).add(after)
        stack = [start]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(adjacency.get(current, ()))
        return False

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "edges": [
                    {"from": before, "to": after, "count": count}
                    for (before, after), count in sorted(self.edges.items())
                ],
                "cycles": [dict(cycle) for cycle in self.cycles],
                "long_holds": [dict(hold) for hold in self.long_holds],
                "acquire_counts": dict(sorted(self.acquire_counts.items())),
                "max_hold_seconds": {
                    site: round(value, 6)
                    for site, value in sorted(self.max_hold.items())
                },
                "hold_threshold_seconds": self.hold_threshold,
            }


_STATE = _TraceState()


class TracedLock:
    """Protocol-compatible wrapper recording acquire/release events.

    Wraps a stock ``Lock`` or ``RLock``; implements the context-manager
    protocol and the private ``Condition`` protocol so it can serve as a
    Condition's underlying lock.
    """

    __slots__ = ("_inner", "site")

    def __init__(self, inner: Any, site: str) -> None:
        self._inner = inner
        self.site = site

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            _STATE.note_acquire(self.site)
        return acquired

    def release(self) -> None:
        _STATE.note_release(self.site)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TracedLock {self.site} wrapping {self._inner!r}>"

    # -- Condition protocol --------------------------------------------
    def _release_save(self) -> Any:
        _STATE.note_release(self.site)
        inner = self._inner
        if hasattr(inner, "_release_save"):
            return inner._release_save()
        inner.release()  # stock Lock fallback, mirroring Condition
        return None

    def _acquire_restore(self, state: Any) -> None:
        inner = self._inner
        if hasattr(inner, "_acquire_restore"):
            inner._acquire_restore(state)
        else:
            inner.acquire()
        _STATE.note_acquire(self.site)

    def _is_owned(self) -> bool:
        inner = self._inner
        if hasattr(inner, "_is_owned"):
            return inner._is_owned()
        if inner.acquire(False):  # stock Lock fallback, mirroring Condition
            inner.release()
            return False
        return True

    def _at_fork_reinit(self) -> None:  # pragma: no cover - fork safety
        self._inner._at_fork_reinit()


def _traced_lock_factory() -> TracedLock:
    return TracedLock(_ORIGINAL_LOCK(), _creation_site())


def _traced_rlock_factory() -> TracedLock:
    return TracedLock(_ORIGINAL_RLOCK(), _creation_site())


_installed = False
_atexit_registered = False


def is_installed() -> bool:
    """True while the traced factories are patched into ``threading``."""
    return _installed


def enable() -> None:
    """Patch the ``threading`` lock factories with traced versions.

    Locks created *before* enabling keep their stock implementation;
    enable tracing as early as possible (the env flag does this before
    :mod:`repro.obs` creates the registry locks).
    """
    global _installed, _atexit_registered
    if _installed:
        return
    threading.Lock = _traced_lock_factory  # type: ignore[assignment]
    threading.RLock = _traced_rlock_factory  # type: ignore[assignment]
    _installed = True
    if not _atexit_registered:
        atexit.register(_exit_report)
        _atexit_registered = True


def disable() -> None:
    """Restore the stock lock factories (existing TracedLocks keep working)."""
    global _installed
    if not _installed:
        return
    threading.Lock = _ORIGINAL_LOCK  # type: ignore[assignment]
    threading.RLock = _ORIGINAL_RLOCK  # type: ignore[assignment]
    _installed = False


def install_from_env() -> bool:
    """Enable tracing iff ``REPRO_DEBUG_LOCKS`` is set; returns installed."""
    if locks_enabled():
        enable()
    return _installed


def reset() -> None:
    """Drop all recorded events (the installed/patched state is kept).

    The hold threshold is re-read from ``REPRO_DEBUG_LOCKS_HOLD_SECONDS``
    so a changed environment takes effect on the fresh state.
    """
    global _STATE
    _STATE = _TraceState()


def report() -> Dict[str, Any]:
    """A snapshot of everything recorded so far (JSON-serialisable)."""
    return _STATE.snapshot()


def dump_report(path: Optional[str] = None) -> Dict[str, Any]:
    """Write the report as JSON to ``path`` (or ``REPRO_DEBUG_LOCKS_REPORT``).

    Returns the report dict either way; with no path it is not written.
    """
    snapshot = report()
    target = path or os.environ.get(REPORT_ENV, "")
    if target:
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return snapshot


def _exit_report() -> None:
    """Atexit hook: persist the report; summarise problems on stderr."""
    try:
        snapshot = dump_report()
    except Exception:  # pragma: no cover - never break interpreter exit
        return
    problems = snapshot["cycles"] or snapshot["long_holds"]
    if not problems:
        return
    lines = ["[locktrace] lock sanitizer findings:"]
    for cycle in snapshot["cycles"]:
        lines.append(
            "[locktrace]   lock-order cycle: "
            f"{' -> '.join(cycle['locks'])} (thread {cycle['thread']})"
        )
    for hold in snapshot["long_holds"]:
        lines.append(
            "[locktrace]   long-held lock: "
            f"{hold['lock']} held {hold['seconds']:.3f}s (thread {hold['thread']})"
        )
    print("\n".join(lines), file=sys.stderr)
