"""Seeded ABBA deadlock: two locks acquired in opposite orders.

This module is deliberately buggy.  It serves as the shared fixture for
both halves of the concurrency tooling:

* the **static** half: rule R202 must flag both methods when the source
  is linted (``tests/lint/test_concurrency_rules.py``);
* the **runtime** half: with the lock sanitizer enabled
  (``REPRO_DEBUG_LOCKS=1`` / ``locktrace.enable()``), running
  ``forward()`` then ``backward()`` must record a lock-order cycle
  (``tests/obs/test_locktrace.py``).

Construct :class:`Pair` *after* enabling the sanitizer so its locks are
created by the patched factories.
"""

import threading


class Pair:
    """Acquires ``_a`` then ``_b`` on one path, ``_b`` then ``_a`` on another."""

    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self.calls = 0

    def forward(self):
        with self._a:
            with self._b:
                self.calls += 1

    def backward(self):
        with self._b:
            with self._a:
                self.calls += 1
