"""HTTP live routes: /v1/ingest, /v1/topk_live, healthz, end-to-end liveness."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.exact import ExactIRS
from repro.core.oracle import ExactInfluenceOracle
from repro.ingest.live import LiveIndex
from repro.ingest.publisher import SnapshotPublisher
from repro.ingest.tail import HttpIngestClient
from repro.serve.http import OracleHTTPServer, build_server, serve_until_shutdown
from repro.serve.service import OracleService

WINDOW = 50


@pytest.fixture
def live_server(tmp_path):
    """A server with live ingestion enabled and a manual-cadence publisher."""
    live = LiveIndex(window=WINDOW, mode="exact")
    service = OracleService(ExactInfluenceOracle({}), cache_size=8)
    publisher = SnapshotPublisher(
        live, service, str(tmp_path / "live.snap"), interval=3600.0
    )
    server = build_server(service, port=0, live=live, publisher=publisher)
    thread = threading.Thread(target=serve_until_shutdown, args=(server,))
    thread.start()
    yield server, live, publisher
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def plain_server(tmp_path):
    """A server without --live: ingest routes must 404."""
    service = OracleService(ExactInfluenceOracle({"a": {"b"}}), cache_size=8)
    server = build_server(service, port=0)
    thread = threading.Thread(target=serve_until_shutdown, args=(server,))
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=10)


def _url(server: OracleHTTPServer, route: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{route}"


def _get(server, route):
    with urllib.request.urlopen(_url(server, route), timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(server, route, payload):
    request = urllib.request.Request(
        _url(server, route),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post_error(server, route, payload):
    request = urllib.request.Request(
        _url(server, route),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    body = json.loads(excinfo.value.read())
    return excinfo.value.code, body


EVENTS = [["a", "b", 1], ["b", "c", 2], ["a", "d", 3], ["x", "y", 4]]


class TestIngestRoutes:
    def test_ingest_applies_batches(self, live_server):
        server, live, _ = live_server
        status, payload = _post(server, "/v1/ingest", {"events": EVENTS})
        assert status == 200
        assert payload["applied"] == 4
        assert payload["rejected"] == 0
        assert payload["last_time"] == 4
        assert live.stats()["events_applied"] == 4

    def test_stale_events_reported_not_erroring(self, live_server):
        server, _, _ = live_server
        _post(server, "/v1/ingest", {"events": [["a", "b", 10]]})
        status, payload = _post(server, "/v1/ingest", {"events": [["c", "d", 3]]})
        assert status == 200
        assert payload == {"applied": 0, "rejected": 1, "evicted": 0, "last_time": 10}

    def test_ingest_requires_events_list(self, live_server):
        server, _, _ = live_server
        code, body = _post_error(server, "/v1/ingest", {"events": "a b 1"})
        assert code == 400
        assert "events" in body["error"]["message"]

    def test_malformed_events_are_a_400(self, live_server):
        server, _, _ = live_server
        code, body = _post_error(server, "/v1/ingest", {"events": [["a", "b"]]})
        assert code == 400
        assert "triple" in body["error"]["message"]

    def test_topk_live_matches_index(self, live_server):
        server, live, _ = live_server
        _post(server, "/v1/ingest", {"events": EVENTS})
        status, payload = _post(server, "/v1/topk_live", {"k": 3})
        assert status == 200
        assert payload["k"] == 3
        assert payload["mode"] == "exact"
        assert payload["last_time"] == 4
        assert payload["ranking"] == [
            {"node": node, "influence": influence} for node, influence in live.topk(3)
        ]
        assert payload["ranking"][0] == {"node": "a", "influence": 3.0}

    def test_topk_live_requires_positive_k(self, live_server):
        server, _, _ = live_server
        code, body = _post_error(server, "/v1/topk_live", {"k": 0})
        assert code == 400
        assert "'k'" in body["error"]["message"]

    def test_routes_404_without_live_index(self, plain_server):
        for route, payload in (("/v1/ingest", {"events": []}), ("/v1/topk_live", {"k": 1})):
            code, body = _post_error(plain_server, route, payload)
            assert code == 404
            assert "not enabled" in body["error"]["message"]

    def test_http_ingest_client_round_trip(self, live_server):
        server, _, _ = live_server
        host, port = server.server_address[:2]
        client = HttpIngestClient(f"http://{host}:{port}")
        try:
            summary = client.ingest([("a", "b", 1), ("a", "c", 2)])
            assert summary["applied"] == 2
            ranked = client.topk_live(1)
            assert ranked["ranking"] == [{"node": "a", "influence": 2.0}]
        finally:
            client.close()


class TestHealthzIntegration:
    def test_healthz_reports_ingest_and_publisher(self, live_server):
        server, _, _ = live_server
        _post(server, "/v1/ingest", {"events": EVENTS})
        status, payload = _get(server, "/v1/healthz")
        assert status == 200
        assert payload["ingest"]["mode"] == "exact"
        assert payload["ingest"]["events_applied"] == 4
        assert payload["publisher"]["publishes"] == 0

    def test_healthz_omits_sections_without_live(self, plain_server):
        _, payload = _get(plain_server, "/v1/healthz")
        assert "ingest" not in payload
        assert "publisher" not in payload


class TestEndToEndLiveness:
    def test_ingest_publish_hot_reload_query(self, live_server):
        """The full loop: events in, snapshot out, queries answered live."""
        server, live, publisher = live_server
        _, before = _get(server, "/v1/healthz")
        generation = before["generation"]

        _post(server, "/v1/ingest", {"events": EVENTS})
        status = publisher.publish_once()
        assert status["outcome"] == "published"

        _, after = _get(server, "/v1/healthz")
        assert after["generation"] == generation + 1
        assert after["publisher"]["publishes"] == 1

        # The serving tier now answers from the published live state.
        _, influence = _post(server, "/v1/influence", {"node": "a"})
        assert influence["influence"] == live.influence("a") == 3.0
        _, spread = _post(server, "/v1/spread", {"seeds": ["a", "x"]})
        assert spread["spread"] == live.spread(["a", "x"])

    def test_published_topk_matches_batch_index(self, live_server, tmp_path):
        """/v1/topk_live converges to the batch reverse-scan answer."""
        server, _, _ = live_server
        import random

        rng = random.Random(7)
        nodes = [f"n{index}" for index in range(12)]
        events, time = [], 0
        for _ in range(300):
            time += rng.choice([0, 1, 1, 2])
            source, target = rng.sample(nodes, 2)
            events.append([source, target, time])
        _post(server, "/v1/ingest", {"events": events})

        from repro.core.interactions import Interaction, InteractionLog

        log = InteractionLog(
            [Interaction(source, target, stamp) for source, target, stamp in events]
        )
        batch = ExactIRS.from_log(log, WINDOW)
        expected = sorted(
            batch.irs_sizes().items(), key=lambda entry: (-entry[1], repr(entry[0]))
        )[:5]
        _, payload = _post(server, "/v1/topk_live", {"k": 5})
        assert payload["ranking"] == [
            {"node": node, "influence": float(size)} for node, size in expected
        ]
