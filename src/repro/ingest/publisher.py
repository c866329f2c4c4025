"""``SnapshotPublisher`` — periodic snapshots of a live index, hot-reloaded.

The serving tier never queries the :class:`~repro.ingest.live.LiveIndex`
directly for influence: oracles are immutable and lock-free once built,
so the publisher periodically freezes the live state into a
``repro-snap/2`` file and swaps it into the
:class:`~repro.serve.service.OracleService` — the same
build-outside-the-lock / pointer-swap discipline ``reload`` uses, now on
a timer.

Publish cadence is two-gated: a wall-clock ``interval`` *and* a
``min_events`` floor of newly applied events since the last publish.
A quiet stream publishes nothing (the snapshot would be identical); a
busy stream publishes at most once per interval.  Every attempt is
counted by outcome (``published`` / ``skipped`` / ``failed``) so the
serving dashboards can alert on a stalled publisher.

Lock discipline (see ``tests/ingest/test_locking_stress.py``): the
publisher's ``_state_lock`` guards only its counters and the
``_publishing`` in-flight flag — the expensive snapshot work (live index
read lock, then ``OracleService`` swap lock) runs with no publisher lock
held, serialised by the flag instead.  No thread ever holds two of the
subsystem's locks at once from here, so the ``REPRO_DEBUG_LOCKS`` tracer
sees an acyclic graph by construction.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

import repro.obs as obs
from repro.ingest.live import LiveIndex
from repro.serve.service import OracleService
from repro.serve.snapshot import save_oracle
from repro.utils.validation import require_int, require_non_negative, require_type

__all__ = ["SnapshotPublisher"]

_PUBLISHES = obs.counter(
    "ingest.publishes",
    "Snapshot publish attempts by the live publisher, by outcome.",
)
_PUBLISH_SECONDS = obs.histogram(
    "ingest.publish_seconds",
    "Wall time of one publish: oracle build + snapshot write + hot swap.",
)
_GENERATION = obs.gauge(
    "ingest.generation",
    "Service snapshot generation after the latest live publish.",
)


class SnapshotPublisher:
    """Periodically snapshot ``live`` to ``path`` and hot-reload ``service``.

    Parameters
    ----------
    live:
        The index being fed by the ingest front.
    service:
        The query service to hot-swap (None = snapshot-only publishing).
    path:
        Destination ``repro-snap/2`` file (written atomically).
    interval:
        Seconds between background publish attempts.
    min_events:
        Skip a publish unless at least this many events arrived since the
        last one (0 = always publish).
    """

    def __init__(
        self,
        live: LiveIndex,
        service: Optional[OracleService],
        path: str,
        interval: float = 5.0,
        min_events: int = 1,
    ) -> None:
        require_type(live, "live", LiveIndex)
        if service is not None:
            require_type(service, "service", OracleService)
        require_type(path, "path", str)
        require_type(interval, "interval", (int, float))
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        require_int(min_events, "min_events")
        require_non_negative(min_events, "min_events")
        self._live = live
        self._service = service
        self._path = path
        self._interval = float(interval)
        self._min_events = min_events
        # Guards the publish bookkeeping below.  The snapshot write itself
        # happens *outside* this lock (blocking I/O under a lock stalls
        # every reader); concurrent publish_once calls are instead
        # serialised by the ``_publishing`` in-flight flag.
        self._state_lock = threading.Lock()
        self._publishing = False  # repro-lint: guarded-by=_state_lock
        self._published_events = 0  # repro-lint: guarded-by=_state_lock
        self._publishes = 0  # repro-lint: guarded-by=_state_lock
        self._skipped = 0  # repro-lint: guarded-by=_state_lock
        self._failed = 0  # repro-lint: guarded-by=_state_lock
        self._last_generation: Optional[int] = None  # repro-lint: guarded-by=_state_lock
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None  # repro-lint: guarded-by=_state_lock

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish_once(self, force: bool = False) -> Dict[str, object]:
        """Snapshot now (unless gated); returns a one-line status dict.

        ``force`` bypasses the ``min_events`` gate — the serve command
        uses it once at boot so the service starts from a consistent
        published generation even before traffic arrives.
        """
        applied = int(self._live.stats()["events_applied"])  # type: ignore[arg-type]
        with self._state_lock:
            if self._publishing:
                self._skipped += 1
                _PUBLISHES.labels(outcome="skipped").inc()
                return {"outcome": "skipped", "reason": "publish already in flight"}
            fresh = applied - self._published_events
            if not force and fresh < max(self._min_events, 1):
                self._skipped += 1
                _PUBLISHES.labels(outcome="skipped").inc()
                return {"outcome": "skipped", "fresh_events": fresh}
            self._publishing = True
        # The expensive part — oracle build, snapshot write, hot swap —
        # runs without holding _state_lock; the in-flight flag keeps
        # concurrent publishers (CLI + timer thread) from interleaving.
        try:
            with _PUBLISH_SECONDS.time():
                oracle = self._live.build_oracle()
                save_oracle(self._path, oracle)
                generation: Optional[int] = None
                if self._service is not None:
                    generation = int(self._service.reload(self._path)["generation"])  # type: ignore[arg-type]
        except (OSError, ValueError) as error:
            with self._state_lock:
                self._publishing = False
                self._failed += 1
            _PUBLISHES.labels(outcome="failed").inc()
            return {"outcome": "failed", "error": str(error)}
        with self._state_lock:
            self._publishing = False
            self._published_events = applied
            self._publishes += 1
            self._last_generation = generation
        _PUBLISHES.labels(outcome="published").inc()
        if generation is not None:
            _GENERATION.set(generation)
        return {
            "outcome": "published",
            "path": self._path,
            "events": applied,
            "generation": generation,
        }

    # ------------------------------------------------------------------
    # Background thread
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background publish loop (idempotent)."""
        self._stop.clear()  # Event is self-synchronising; no lock needed
        with self._state_lock:
            if self._thread is not None:
                return
            thread = threading.Thread(
                target=self._run, name="repro-snapshot-publisher", daemon=True
            )
            self._thread = thread
        thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.publish_once()

    def stop(self, final_publish: bool = True, join_timeout: float = 10.0) -> None:
        """Stop the loop; by default cut one last snapshot on the way out."""
        self._stop.set()
        with self._state_lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout=join_timeout)
        if final_publish:
            self.publish_once()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Publish counters for ``/v1/healthz``."""
        with self._state_lock:
            return {
                "path": self._path,
                "interval": self._interval,
                "min_events": self._min_events,
                "publishes": self._publishes,
                "skipped": self._skipped,
                "failed": self._failed,
                "published_events": self._published_events,
                "generation": self._last_generation,
                "running": self._thread is not None,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SnapshotPublisher(path={self._path!r}, interval={self._interval}, "
            f"min_events={self._min_events})"
        )
