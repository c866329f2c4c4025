"""Log tailing: line parsing, batching, follow mode, malformed handling."""

from __future__ import annotations

import json
import threading
import time
import urllib.error

import pytest

from repro.core.oracle import ExactInfluenceOracle
from repro.ingest.live import LiveIndex
from repro.ingest.tail import HttpIngestClient, parse_event_line, tail_file
from repro.serve.http import OracleRequestHandler, build_server, serve_until_shutdown
from repro.serve.service import OracleService


class TestParseEventLine:
    @pytest.mark.parametrize(
        "line,expected",
        [
            ("alice bob 7", ("alice", "bob", 7)),
            ("  u v 0  \n", ("u", "v", 0)),
            ("u v -3", ("u", "v", -3)),
            ("", None),
            ("   \n", None),
            ("# a comment line", None),
            ("u v", None),
            ("u v 1 extra", None),
            ("u v soon", None),
        ],
    )
    def test_cases(self, line, expected):
        assert parse_event_line(line) == expected


class RecordingPost:
    """A stand-in for the HTTP client: records batches, echoes counts."""

    def __init__(self, reject_every: int = 0):
        self.batches = []
        self._reject_every = reject_every

    def __call__(self, events):
        self.batches.append(events)
        rejected = len(events) // self._reject_every if self._reject_every else 0
        return {"applied": len(events) - rejected, "rejected": rejected}


def write_log(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestTailFile:
    def test_batches_and_tally(self, tmp_path):
        lines = [f"u{index} v{index} {index}" for index in range(10)]
        path = write_log(tmp_path / "log.txt", lines)
        post = RecordingPost()
        tally = tail_file(path, post, batch=4)
        assert tally == {
            "posted": 10,
            "applied": 10,
            "rejected": 0,
            "malformed": 0,
            "batches": 3,
        }
        assert [len(batch) for batch in post.batches] == [4, 4, 2]
        assert post.batches[0][0] == ("u0", "v0", 0)

    def test_malformed_lines_are_counted_and_skipped(self, tmp_path):
        path = write_log(
            tmp_path / "log.txt",
            ["a b 1", "# header", "", "oops", "c d two", "e f 3"],
        )
        post = RecordingPost()
        tally = tail_file(path, post, batch=100)
        assert tally["posted"] == 2
        assert tally["malformed"] == 2  # "oops" and "c d two"; blanks/comments free
        assert post.batches == [[("a", "b", 1), ("e", "f", 3)]]

    def test_server_rejections_fold_into_tally(self, tmp_path):
        lines = [f"u{index} v{index} {index}" for index in range(6)]
        path = write_log(tmp_path / "log.txt", lines)
        tally = tail_file(path, RecordingPost(reject_every=3), batch=3)
        assert tally["posted"] == 6
        assert tally["rejected"] == 2
        assert tally["applied"] == 4

    def test_max_events_stops_early(self, tmp_path):
        lines = [f"u{index} v{index} {index}" for index in range(20)]
        path = write_log(tmp_path / "log.txt", lines)
        post = RecordingPost()
        tally = tail_file(path, post, batch=4, max_events=6)
        assert tally["posted"] == 6
        assert [len(batch) for batch in post.batches] == [4, 2]

    def test_validation(self, tmp_path):
        path = write_log(tmp_path / "log.txt", ["a b 1"])
        with pytest.raises(ValueError, match="batch"):
            tail_file(path, RecordingPost(), batch=0)
        with pytest.raises(ValueError, match="max_events"):
            tail_file(path, RecordingPost(), max_events=0)

    def test_follow_picks_up_appended_lines(self, tmp_path):
        """The tail -f loop: a writer appends while the tailer polls."""
        log = tmp_path / "log.txt"
        log.write_text("a b 1\n", encoding="utf-8")
        post = RecordingPost()
        finished = threading.Event()

        def append_then_finish():
            # Wait for the tailer to drain the first line, then extend.
            deadline_steps = 1000
            while not post.batches and deadline_steps:
                deadline_steps -= 1
                threading.Event().wait(0.01)
            with open(log, "a", encoding="utf-8") as handle:
                handle.write("c d 2\ne f 3\n")
            while len(post.batches) < 2 and deadline_steps:
                deadline_steps -= 1
                threading.Event().wait(0.01)
            finished.set()

        writer = threading.Thread(target=append_then_finish)
        writer.start()
        tally = tail_file(
            str(log),
            post,
            batch=100,
            follow=True,
            poll=0.01,
            stop=finished.is_set,
        )
        writer.join(timeout=10)
        assert tally["posted"] == 3
        assert post.batches[0] == [("a", "b", 1)]
        assert post.batches[1] == [("c", "d", 2), ("e", "f", 3)]


@pytest.fixture
def live_endpoint():
    """A live server, its index and a count of accepted connections."""
    live = LiveIndex(window=50, mode="exact")
    server = build_server(OracleService(ExactInfluenceOracle({})), port=0, live=live)
    accepted = []
    accept = server.get_request

    def counting_accept():
        accepted.append(1)
        return accept()

    server.get_request = counting_accept
    thread = threading.Thread(target=serve_until_shutdown, args=(server,))
    thread.start()
    host, port = server.server_address[:2]
    client = HttpIngestClient(f"http://{host}:{port}")
    yield client, live, accepted
    client.close()
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestHttpIngestClient:
    def test_ingest_after_the_idle_timeout_is_applied_once(self, live_endpoint):
        client, live, accepted = live_endpoint
        threads = threading.active_count()
        assert client.ingest([("a", "b", 1)])["applied"] == 1
        # The server closes the idle connection and its handler thread
        # ends; the client's next request fails on the closed connection
        # before a status line and is resent on a new one.
        time.sleep(OracleRequestHandler.idle_timeout * 2)
        deadline = time.monotonic() + 10
        while threading.active_count() > threads and time.monotonic() < deadline:
            time.sleep(0.01)
        batch = [("b", "c", 2), ("c", "d", 3), ("a", "d", 4)]
        assert client.ingest(batch)["applied"] == len(batch)
        assert live.stats()["events_applied"] == 1 + len(batch)
        assert len(accepted) == 2

    def test_error_answer_raises_and_the_client_recovers(self, live_endpoint):
        client, live, _ = live_endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client.ingest([("a", "b", "soon")])
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["status"] == 400
        assert client.ingest([("a", "b", 1)])["applied"] == 1
        assert live.stats()["events_applied"] == 1
