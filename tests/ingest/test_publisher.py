"""SnapshotPublisher: gating, hot reload, failure handling, background loop."""

from __future__ import annotations

import os
import time

import pytest

from repro.ingest.live import LiveIndex
from repro.ingest.publisher import SnapshotPublisher
from repro.serve.service import OracleService
from repro.serve.snapshot import load_oracle

WINDOW = 50


@pytest.fixture
def live():
    index = LiveIndex(window=WINDOW, mode="exact")
    index.apply_events([("a", "b", 1), ("b", "c", 2), ("a", "d", 3)])
    return index


@pytest.fixture
def service(live):
    return OracleService(live.build_oracle(), cache_size=8)


class TestPublishOnce:
    def test_publishes_and_hot_reloads(self, live, service, tmp_path):
        path = str(tmp_path / "live.snap")
        before = service.info()["generation"]
        publisher = SnapshotPublisher(live, service, path)
        status = publisher.publish_once()
        assert status["outcome"] == "published"
        assert status["generation"] == before + 1
        assert service.info()["generation"] == before + 1
        # The published file answers the same queries as the live index.
        oracle = load_oracle(path)
        assert oracle.spread(["a"]) == live.spread(["a"])

    def test_min_events_gate_skips_quiet_streams(self, live, service, tmp_path):
        publisher = SnapshotPublisher(live, service, str(tmp_path / "live.snap"))
        assert publisher.publish_once()["outcome"] == "published"
        # No new events since the last publish: nothing to say.
        status = publisher.publish_once()
        assert status == {"outcome": "skipped", "fresh_events": 0}
        # ... unless forced (the serve command's boot-time publish).
        assert publisher.publish_once(force=True)["outcome"] == "published"
        # New traffic reopens the gate.
        live.apply("c", "d", 4)
        assert publisher.publish_once()["outcome"] == "published"

    def test_snapshot_only_mode_has_no_generation(self, live, tmp_path):
        path = str(tmp_path / "live.snap")
        publisher = SnapshotPublisher(live, None, path)
        status = publisher.publish_once()
        assert status["outcome"] == "published"
        assert status["generation"] is None
        assert load_oracle(path).influence("a") == live.influence("a")

    def test_unwritable_path_counts_as_failed(self, live, service, tmp_path):
        path = str(tmp_path / "no-such-dir" / "live.snap")
        publisher = SnapshotPublisher(live, service, path)
        status = publisher.publish_once()
        assert status["outcome"] == "failed"
        assert "error" in status
        assert publisher.stats()["failed"] == 1

    def test_crash_before_rename_keeps_the_prior_generation(
        self, live, service, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "live.snap")
        publisher = SnapshotPublisher(live, service, path)
        assert publisher.publish_once()["outcome"] == "published"
        generation = service.info()["generation"]
        prior_spread = live.spread(["a"])
        live.apply("d", "e", 4)
        assert live.spread(["a"]) != prior_spread

        def crash(src, dst):
            raise OSError("simulated crash between write and rename")

        # The new snapshot is fully written to <path>.tmp, then the
        # rename into place fails.
        monkeypatch.setattr("repro.serve.snapshot.os.replace", crash)
        status = publisher.publish_once()
        monkeypatch.undo()

        assert status["outcome"] == "failed"
        assert "simulated crash" in status["error"]
        assert publisher.stats()["failed"] == 1
        assert service.info()["generation"] == generation
        assert load_oracle(path).spread(["a"]) == prior_spread
        assert not os.path.exists(path + ".tmp")

    def test_stale_tmp_file_does_not_block_the_next_publish(
        self, live, service, tmp_path
    ):
        path = str(tmp_path / "live.snap")
        with open(path + ".tmp", "wb") as stale:
            stale.write(b"garbage left by a crashed writer")
        publisher = SnapshotPublisher(live, service, path)
        assert publisher.publish_once()["outcome"] == "published"
        assert load_oracle(path).spread(["a"]) == live.spread(["a"])
        assert not os.path.exists(path + ".tmp")

    def test_stats_counters(self, live, service, tmp_path):
        publisher = SnapshotPublisher(
            live, service, str(tmp_path / "live.snap"), interval=2.5, min_events=3
        )
        publisher.publish_once(force=True)
        publisher.publish_once()  # gated: only 0 fresh events
        stats = publisher.stats()
        assert stats["publishes"] == 1
        assert stats["skipped"] == 1
        assert stats["failed"] == 0
        assert stats["interval"] == 2.5
        assert stats["min_events"] == 3
        assert stats["published_events"] == 3
        assert stats["running"] is False


class TestBackgroundLoop:
    def test_start_publishes_on_a_timer(self, live, service, tmp_path):
        path = str(tmp_path / "live.snap")
        publisher = SnapshotPublisher(live, service, path, interval=0.05)
        publisher.start()
        try:
            assert publisher.stats()["running"] is True
            deadline = time.monotonic() + 10.0
            while publisher.stats()["publishes"] == 0:
                assert time.monotonic() < deadline, "publisher never fired"
                time.sleep(0.01)
        finally:
            publisher.stop(final_publish=False)
        assert publisher.stats()["running"] is False
        assert service.info()["generation"] >= 2

    def test_stop_cuts_a_final_snapshot(self, live, service, tmp_path):
        path = str(tmp_path / "live.snap")
        publisher = SnapshotPublisher(
            live, service, path, interval=60.0, min_events=1
        )
        publisher.start()
        publisher.stop(final_publish=True)
        # The interval never elapsed, so the only publish is the final one.
        assert publisher.stats()["publishes"] == 1
        assert load_oracle(path).influence("a") == live.influence("a")

    def test_start_is_idempotent(self, live, service, tmp_path):
        publisher = SnapshotPublisher(
            live, service, str(tmp_path / "live.snap"), interval=60.0
        )
        publisher.start()
        thread_stats = publisher.stats()
        publisher.start()  # second call must not spawn another thread
        assert publisher.stats()["running"] == thread_stats["running"]
        publisher.stop(final_publish=False)


class TestValidation:
    def test_rejects_bad_params(self, live, service, tmp_path):
        path = str(tmp_path / "live.snap")
        with pytest.raises(ValueError, match="interval"):
            SnapshotPublisher(live, service, path, interval=0)
        with pytest.raises(ValueError, match="min_events"):
            SnapshotPublisher(live, service, path, min_events=-1)
        with pytest.raises(TypeError, match="live"):
            SnapshotPublisher(object(), service, path)  # type: ignore[arg-type]
        with pytest.raises(TypeError, match="service"):
            SnapshotPublisher(live, object(), path)  # type: ignore[arg-type]
