"""Live ingest under contention, watched by the runtime lock sanitizer.

The subsystem holds three locks in a fixed nesting: the publisher's
``_state_lock``, then the live index's writer-priority read/write lock,
then the service swap lock (see ``repro.ingest.publisher``).  These
tests run appliers, queriers and the publisher flat out with the
``locktrace`` sanitizer recording every acquisition, and assert the
observed lock-order graph stays acyclic — the proof the ``lock-stress``
CI job replays with ``REPRO_DEBUG_LOCKS=1``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs import locktrace

#: Generous wall-clock bound — failure means starvation, not slowness.
STARVATION_TIMEOUT = 15.0

APPLIER_BATCHES = 150
BATCH_EVENTS = 4
PUBLISHES = 25


@pytest.fixture
def tiny_switch_interval():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


@pytest.fixture
def sanitizer():
    """Trace lock acquisitions; restore the pre-test patch state after."""
    was_installed = locktrace.is_installed()
    locktrace.reset()
    locktrace.enable()
    yield locktrace
    if not was_installed:
        locktrace.disable()
    locktrace.reset()


def start_all(threads):
    for thread in threads:
        thread.start()


def join_all(threads, timeout=STARVATION_TIMEOUT):
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), f"{thread.name} still running"


class TestIngestLockingStress:
    def test_no_lock_cycle_under_full_contention(
        self, tiny_switch_interval, sanitizer, tmp_path
    ):
        """Appliers + queriers + publisher: the lock graph must be acyclic.

        Every participant is constructed *after* the sanitizer patches the
        lock factories, so all three locks in the nesting are traced.
        """
        from repro.ingest.live import LiveIndex
        from repro.ingest.publisher import SnapshotPublisher
        from repro.serve.loadgen import IngestClock
        from repro.serve.service import OracleService

        live = LiveIndex(window=10_000, decay_window=5_000, sweep_every=64)
        service = OracleService(live.build_oracle(), cache_size=16)
        publisher = SnapshotPublisher(
            live, service, str(tmp_path / "live.snap"), interval=3600.0
        )
        clock = IngestClock()
        stop_queriers = threading.Event()
        errors = []

        def applier(name):
            try:
                for batch_index in range(APPLIER_BATCHES):
                    stamp = clock.next_time()
                    events = [
                        (f"{name}-s{index}", f"n{(batch_index + index) % 7}", stamp)
                        for index in range(BATCH_EVENTS)
                    ]
                    live.apply_events(events)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(repr(exc))

        def querier():
            try:
                while not stop_queriers.is_set():
                    live.topk(5)
                    live.influence("n0")
                    live.stats()
                    service.info()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(repr(exc))

        def publish_loop():
            try:
                for _ in range(PUBLISHES):
                    publisher.publish_once(force=True)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(repr(exc))

        appliers = [
            threading.Thread(target=applier, args=(f"a{i}",), name=f"applier-{i}")
            for i in range(2)
        ]
        queriers = [
            threading.Thread(target=querier, name=f"querier-{i}") for i in range(2)
        ]
        publish_thread = threading.Thread(target=publish_loop, name="publisher")
        start_all(appliers + queriers + [publish_thread])
        try:
            join_all(appliers + [publish_thread])
        finally:
            stop_queriers.set()
        join_all(queriers)

        assert errors == [], f"worker failed under contention: {errors[0]}"
        # A batch stamped before a later-stamped rival lands is rejected as
        # stale, never errored — every event is accounted for either way.
        stats = live.stats()
        total = 2 * APPLIER_BATCHES * BATCH_EVENTS
        assert stats["events_applied"] + stats["events_rejected"] == total
        assert stats["events_applied"] > 0
        assert publisher.stats()["publishes"] == PUBLISHES
        assert service.info()["generation"] == 1 + PUBLISHES

        snapshot = sanitizer.report()
        assert snapshot["cycles"] == [], f"lock-order cycle: {snapshot['cycles'][0]}"
        # The publisher holds no second lock during its snapshot work, so
        # an empty edge list is the expected (strongest) shape — but the
        # locks themselves must have been traced, else this test proved
        # nothing.
        assert snapshot["acquire_counts"], "no acquisitions recorded — tracing was dead"

    def test_background_publisher_thread_is_cycle_free(
        self, tiny_switch_interval, sanitizer, tmp_path
    ):
        """Same proof with the real timer thread instead of a driven loop."""
        from repro.ingest.live import LiveIndex
        from repro.ingest.publisher import SnapshotPublisher
        from repro.serve.service import OracleService

        live = LiveIndex(window=10_000)
        service = OracleService(live.build_oracle(), cache_size=8)
        publisher = SnapshotPublisher(
            live, service, str(tmp_path / "live.snap"), interval=0.005
        )
        publisher.start()
        try:
            for stamp in range(400):
                live.apply("u", f"v{stamp % 5}", stamp)
                if stamp % 50 == 0:
                    live.topk(3)
        finally:
            publisher.stop(final_publish=True)
        assert publisher.stats()["publishes"] >= 1
        snapshot = sanitizer.report()
        assert snapshot["cycles"] == [], f"lock-order cycle: {snapshot['cycles'][0]}"
