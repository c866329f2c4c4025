"""Request ids and the structured access log (ring + JSON-lines file)."""

from __future__ import annotations

import errno
import json
import threading

import pytest

from repro.serve.accesslog import (
    DEFAULT_RING_SIZE,
    REQUEST_ID_HEADER,
    AccessLog,
    RequestIdGenerator,
    normalize_request_id,
)


class TestNormalize:
    def test_header_name(self):
        assert REQUEST_ID_HEADER == "X-Request-Id"

    def test_accepts_simple_ids(self):
        for raw in ("abc", "loadgen:9f3a-000001", "A.b_c-1:2", "  padded  "):
            assert normalize_request_id(raw) == raw.strip()

    def test_rejects_missing_empty_and_oversized(self):
        assert normalize_request_id(None) is None
        assert normalize_request_id("") is None
        assert normalize_request_id("   ") is None
        assert normalize_request_id("x" * 129) is None

    def test_rejects_injection_attempts(self):
        for hostile in ("a\r\nSet-Cookie: x", 'a"b', "a b", "é", "a\tb", "{}"):
            assert normalize_request_id(hostile) is None

    def test_boundary_length_accepted(self):
        assert normalize_request_id("x" * 128) == "x" * 128


class TestGenerator:
    def test_ids_are_unique_and_sequential(self):
        generator = RequestIdGenerator()
        first, second = generator.next_id(), generator.next_id()
        assert first != second
        assert first.split("-")[0] == second.split("-")[0]
        assert first.endswith("000001") and second.endswith("000002")

    def test_generated_ids_survive_normalization(self):
        assert normalize_request_id(RequestIdGenerator().next_id()) is not None

    def test_two_generators_have_distinct_prefixes(self):
        # os.urandom prefixes: a collision here is a 1-in-2^32 event.
        a, b = RequestIdGenerator(), RequestIdGenerator()
        assert a.next_id().split("-")[0] != b.next_id().split("-")[0]


class TestAccessLog:
    def test_ring_only_without_path(self):
        log = AccessLog()
        log.record({"request_id": "r1", "status": 200})
        entries = log.recent()
        assert len(entries) == 1
        assert entries[0]["request_id"] == "r1"
        assert entries[0]["ts"] > 0
        assert log.stats()["path"] == ""
        log.close()

    def test_ring_is_bounded_and_counts_drops(self):
        log = AccessLog(ring_size=4)
        for index in range(10):
            log.record({"seq": index})
        entries = log.recent()
        assert [entry["seq"] for entry in entries] == [6, 7, 8, 9]
        stats = log.stats()
        assert stats["ring_entries"] == 4
        assert stats["dropped_from_ring"] == 6
        assert log.ring_size == 4

    def test_recent_limit(self):
        log = AccessLog(ring_size=8)
        for index in range(5):
            log.record({"seq": index})
        assert [entry["seq"] for entry in log.recent(limit=2)] == [3, 4]
        with pytest.raises(ValueError, match="limit"):
            log.recent(limit=-1)

    def test_default_ring_size(self):
        assert AccessLog().ring_size == DEFAULT_RING_SIZE

    def test_file_gets_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "access.log"
        with AccessLog(path=str(path)) as log:
            log.record({"request_id": "a", "status": 200})
            log.record({"request_id": "b", "status": 404})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [entry["request_id"] for entry in parsed] == ["a", "b"]
        assert all("ts" in entry for entry in parsed)

    def test_close_is_idempotent_and_recording_continues_in_ring(self, tmp_path):
        log = AccessLog(path=str(tmp_path / "access.log"))
        log.close()
        log.close()
        log.record({"request_id": "after-close"})
        assert log.recent()[0]["request_id"] == "after-close"

    def test_full_disk_keeps_serving_from_the_ring(self, tmp_path):
        class FullDisk:
            """A file handle on a device with no space left."""

            def __init__(self):
                self.closes = 0

            def _enospc(self, *args):
                raise OSError(errno.ENOSPC, "No space left on device")

            write = flush = _enospc

            def close(self):
                self.closes += 1
                self._enospc()

        log = AccessLog(path=str(tmp_path / "access.log"))
        log._handle.close()
        full = log._handle = FullDisk()
        log.record({"request_id": "disk-full", "status": 200})
        assert log.recent()[-1]["request_id"] == "disk-full"
        assert log.stats()["ring_entries"] == 1
        log.close()
        log.close()
        assert full.closes == 1
        log.record({"request_id": "after-close"})
        assert [entry["request_id"] for entry in log.recent()] == [
            "disk-full",
            "after-close",
        ]

    def test_validates_construction(self, tmp_path):
        with pytest.raises(ValueError, match="ring_size"):
            AccessLog(ring_size=0)
        with pytest.raises(TypeError):
            AccessLog(path=123)  # type: ignore[arg-type]

    def test_concurrent_records_interleave_whole_lines(self, tmp_path):
        path = tmp_path / "access.log"
        log = AccessLog(path=str(path), ring_size=1024)
        threads = [
            threading.Thread(
                target=lambda slot=slot: [
                    log.record({"slot": slot, "seq": seq}) for seq in range(50)
                ]
            )
            for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 200
        for line in lines:
            json.loads(line)  # every line is a complete JSON document
        assert log.stats()["ring_entries"] == 200
