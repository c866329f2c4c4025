"""HTTP front end: routes, error envelopes, size limits, graceful drain."""

from __future__ import annotations

import http.client
import json
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.serve.accesslog import REQUEST_ID_HEADER
from repro.serve.http import (
    DEFAULT_MAX_REQUEST_BYTES,
    OracleHTTPServer,
    OracleRequestHandler,
    Route,
    build_server,
    install_drain_handler,
    serve_until_shutdown,
)
from repro.serve.service import OracleService


@pytest.fixture
def running_server(exact_oracle):
    service = OracleService(exact_oracle, cache_size=16)
    server = build_server(service, port=0, max_request_bytes=4096)
    thread = threading.Thread(target=serve_until_shutdown, args=(server,))
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _url(server: OracleHTTPServer, route: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{route}"


def _wait_for(predicate, timeout: float = 10.0):
    """Poll until ``predicate()`` is truthy and return its value.

    The handler epilogue (access log, request counter, span finish) runs
    *after* the response bytes reach the client, so a client that just
    read a response may observe the signals a moment later.
    """
    deadline = time.monotonic() + timeout
    while True:
        result = predicate()
        if result or time.monotonic() > deadline:
            return result
        time.sleep(0.01)


def _get(server, route):
    with urllib.request.urlopen(_url(server, route), timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(server, route, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        _url(server, route),
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post_error(server, route, payload=None, raw=None, method="POST"):
    data = (
        raw
        if raw is not None
        else (json.dumps(payload).encode() if payload is not None else None)
    )
    request = urllib.request.Request(_url(server, route), data=data, method=method)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    body = json.loads(excinfo.value.read())
    return excinfo.value.code, body


class TestRouteTable:
    """Adding a route is a data change: one Route entry, not dispatch code."""

    def test_route_defaults_to_drained(self):
        route = Route(lambda handler: (200, {}), "POST")
        assert route.method == "POST"
        assert route.drain_exempt is False

    def test_drain_exempt_routes_are_marked(self):
        from repro.serve.http import _ROUTES

        exempt = {path for path, route in _ROUTES.items() if route.drain_exempt}
        assert exempt == {"/v1/healthz", "/v1/metrics", "/v1/debug/requests"}
        assert all(route.handler is not None for route in _ROUTES.values())


class TestRoutes:
    def test_healthz(self, running_server, exact_oracle):
        status, payload = _get(running_server, "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["nodes"] == len(list(exact_oracle.nodes()))
        assert payload["cache"]["capacity"] == 16

    def test_metrics_prometheus_text(self, running_server):
        with urllib.request.urlopen(_url(running_server, "/v1/metrics"), timeout=10) as response:
            assert response.status == 200
            assert "text/plain" in response.headers["Content-Type"]
            text = response.read().decode()
        assert "# HELP" in text

    def test_influence(self, running_server, exact_oracle):
        node = sorted(exact_oracle.nodes())[0]
        status, payload = _post(running_server, "/v1/influence", {"node": node})
        assert status == 200
        assert payload["influence"] == exact_oracle.influence(node)

    def test_spread_single(self, running_server, exact_oracle):
        seeds = sorted(exact_oracle.nodes())[:4]
        status, payload = _post(running_server, "/v1/spread", {"seeds": seeds})
        assert status == 200
        assert payload["spread"] == exact_oracle.spread(seeds)
        assert payload["seeds"] == 4

    def test_spread_batched(self, running_server, exact_oracle):
        nodes = sorted(exact_oracle.nodes())
        seed_sets = [nodes[:2], nodes[2:4]]
        status, payload = _post(running_server, "/v1/spread", {"seed_sets": seed_sets})
        assert status == 200
        assert payload["count"] == 2
        assert payload["spreads"] == [exact_oracle.spread(seeds) for seeds in seed_sets]

    def test_topk_influence(self, running_server):
        status, payload = _post(running_server, "/v1/topk", {"k": 3})
        assert status == 200
        assert len(payload["seeds"]) == 3
        assert {"node", "influence"} <= set(payload["seeds"][0])

    def test_topk_greedy(self, running_server):
        status, payload = _post(
            running_server, "/v1/topk", {"k": 2, "method": "greedy"}
        )
        assert status == 200
        assert len(payload["seeds"]) == 2

    def test_trailing_slash_accepted(self, running_server):
        status, _ = _get(running_server, "/v1/healthz/")
        assert status == 200


class TestErrorEnvelopes:
    def test_unknown_route_404(self, running_server):
        code, body = _post_error(running_server, "/v1/nope", payload={})
        assert code == 404
        assert body["error"]["status"] == 404

    def test_wrong_method_405(self, running_server):
        code, body = _post_error(running_server, "/v1/healthz", payload={})
        assert code == 405
        assert "GET" in body["error"]["message"]

    def test_unknown_node_404(self, running_server):
        code, body = _post_error(
            running_server, "/v1/influence", payload={"node": "missing-node"}
        )
        assert code == 404
        assert "unknown node" in body["error"]["message"]

    def test_missing_field_400(self, running_server):
        code, body = _post_error(running_server, "/v1/influence", payload={})
        assert code == 400
        assert "'node' is required" in body["error"]["message"]

    def test_bad_json_400(self, running_server):
        code, body = _post_error(running_server, "/v1/spread", raw=b"{not json")
        assert code == 400
        assert "not valid JSON" in body["error"]["message"]

    def test_non_object_body_400(self, running_server):
        code, body = _post_error(running_server, "/v1/spread", raw=b"[1, 2]")
        assert code == 400
        assert "JSON object" in body["error"]["message"]

    def test_bad_seeds_type_400(self, running_server):
        code, body = _post_error(
            running_server, "/v1/spread", payload={"seeds": "a,b"}
        )
        assert code == 400
        assert "'seeds' must be a list" in body["error"]["message"]

    def test_bad_k_400(self, running_server):
        for bad_k in (0, -3, "five", True):
            code, body = _post_error(running_server, "/v1/topk", payload={"k": bad_k})
            assert code == 400
            assert "'k' must be a positive integer" in body["error"]["message"]

    def test_unknown_topk_method_400(self, running_server):
        code, body = _post_error(
            running_server, "/v1/topk", payload={"k": 2, "method": "psychic"}
        )
        assert code == 400
        assert "unknown method" in body["error"]["message"]

    def test_oversize_body_413(self, running_server):
        huge = b"x" * 8192  # server fixture caps bodies at 4096
        code, body = _post_error(running_server, "/v1/spread", raw=huge)
        assert code == 413
        assert "exceeds" in body["error"]["message"]

    def test_reload_bad_path_400(self, running_server):
        code, body = _post_error(running_server, "/v1/reload", payload={"path": 7})
        assert code == 400
        assert "'path' must be a snapshot path" in body["error"]["message"]

    def test_reload_missing_snapshot_400(self, running_server, tmp_path):
        code, body = _post_error(
            running_server,
            "/v1/reload",
            payload={"path": str(tmp_path / "missing.snap")},
        )
        assert code == 400
        assert "cannot read snapshot" in body["error"]["message"]


class TestRequestIds:
    def test_inbound_request_id_echoed(self, running_server):
        request = urllib.request.Request(
            _url(running_server, "/v1/healthz"),
            headers={REQUEST_ID_HEADER: "abc"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers[REQUEST_ID_HEADER] == "abc"

    def test_request_id_generated_when_absent(self, running_server):
        with urllib.request.urlopen(_url(running_server, "/v1/healthz"), timeout=10) as response:
            generated = response.headers[REQUEST_ID_HEADER]
        assert generated
        prefix, _, sequence = generated.partition("-")
        assert len(prefix) == 8 and sequence.isdigit()

    def test_hostile_request_id_replaced(self, running_server):
        request = urllib.request.Request(
            _url(running_server, "/v1/healthz"),
            headers={REQUEST_ID_HEADER: "bad id with spaces"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            echoed = response.headers[REQUEST_ID_HEADER]
        assert echoed != "bad id with spaces"
        assert "-" in echoed  # a freshly generated one

    def test_error_responses_carry_the_id(self, running_server):
        request = urllib.request.Request(
            _url(running_server, "/v1/nope"),
            data=b"{}",
            headers={REQUEST_ID_HEADER: "err-1"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value:  # an unread error response holds its socket open
            assert excinfo.value.code == 404
            assert excinfo.value.headers[REQUEST_ID_HEADER] == "err-1"


def _raw_exchange(server, raw: bytes, half_close: bool = False):
    """Send ``raw`` in one write; return what came back and whether the
    server closed the socket (EOF within the timeout)."""
    host, port = server.server_address[:2]
    received = b""
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return received, True
                received += chunk
        except (socket.timeout, ConnectionResetError):
            return received, False


def _statuses(received: bytes):
    """Status codes of every response in ``received``."""
    return [
        int(part.split(b" ", 2)[0])
        for part in received.split(b"HTTP/1.1 ")[1:]
        if part[:3].isdigit()
    ]


_SMUGGLED = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"


class TestKeepAliveTransport:
    """HTTP/1.1 keep-alive, and the connection closes on an unread body."""

    def test_one_connection_serves_many_requests(self, running_server, monkeypatch):
        # No scheduling stall on a busy host may close the connection.
        monkeypatch.setattr(OracleRequestHandler, "idle_timeout", 10.0)
        host, port = running_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            sockets = set()
            for _ in range(4):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200 and response.version == 11
                assert response.getheader("Connection") is None
                sockets.add(connection.sock)
            assert len(sockets) == 1
        finally:
            connection.close()  # the handler sees EOF and ends at once

    def test_idle_connection_closes_after_idle_timeout(self, running_server):
        received, closed = _raw_exchange(running_server, _SMUGGLED)
        assert _statuses(received) == [200]
        assert closed  # well within the 5 s socket timeout

    @pytest.mark.parametrize(
        "head,status",
        [
            # Over the fixture's 4096-byte limit: the body is never read.
            (b"POST /v1/spread HTTP/1.1\r\nContent-Length: 5000\r\n", 413),
            (b"POST /v1/spread HTTP/1.1\r\n", 400),
            (b"POST /v1/spread HTTP/1.1\r\nContent-Length: 4x\r\n", 400),
            (b"POST /v1/spread HTTP/1.1\r\nContent-Length: -1\r\n", 400),
            (b"POST /v1/spread HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", 400),
            (b"POST /v1/nope HTTP/1.1\r\nContent-Length: %d\r\n" % len(_SMUGGLED), 404),
            (b"POST /v1/healthz HTTP/1.1\r\nContent-Length: %d\r\n" % len(_SMUGGLED), 405),
        ],
    )
    def test_unread_body_is_not_a_second_request(self, running_server, head, status):
        """The body of a request answered unread must not be parsed as a
        pipelined request: one response comes back, then the close."""
        raw = head + b"Host: x\r\n\r\n" + _SMUGGLED
        received, closed = _raw_exchange(running_server, raw)
        assert _statuses(received) == [status]
        assert b"\r\nConnection: close\r\n" in received
        assert closed

    def test_short_body_closes_the_connection(self, running_server):
        raw = (
            b"POST /v1/spread HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
            b'{"seeds"'
        )
        received, closed = _raw_exchange(running_server, raw, half_close=True)
        assert _statuses(received) == [400]
        assert b"\r\nConnection: close\r\n" in received
        assert closed

    def test_read_body_errors_keep_the_connection(self, running_server):
        """A 400 after the whole body was read leaves the stream in step."""
        body = b"{not json"
        raw = (
            b"POST /v1/spread HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % len(body)
            + body
            + _SMUGGLED
        )
        received, closed = _raw_exchange(running_server, raw)
        assert _statuses(received) == [400, 200]
        assert b"Connection: close" not in received
        assert closed  # by the idle timeout after the second response


class TestRequestObservability:
    def test_truncated_content_length_400(self, running_server):
        host, port = running_server.server_address[:2]
        head = (
            f"POST /v1/spread HTTP/1.0\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(head.encode() + b'{"seeds"')
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b"shorter than Content-Length" in response

    def test_unknown_routes_share_the_unmatched_label(self, running_server):
        obs.enable()
        for path in ("/v1/nope", "/v1/scan-1", "/v1/scan-2", "/../../etc/passwd"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(_url(running_server, path), timeout=10)
            excinfo.value.close()

        def unmatched_total():
            return sum(
                sample["value"]
                for sample in obs.snapshot(include_spans=False)
                if sample["name"] == "serve.http_requests"
                and sample["labels"]["route"] == "unmatched"
            )

        assert _wait_for(lambda: unmatched_total() >= 4)
        routes = {
            sample["labels"]["route"]
            for sample in obs.snapshot(include_spans=False)
            if sample["name"] == "serve.http_requests"
        }
        assert not any("scan" in route for route in routes)

    def test_trailing_slash_labels_the_matched_route(self, running_server):
        obs.enable()
        status, _ = _get(running_server, "/v1/healthz/")
        assert status == 200

        def routes():
            return {
                sample["labels"]["route"]
                for sample in obs.snapshot(include_spans=False)
                if sample["name"] == "serve.http_requests"
            }

        assert _wait_for(lambda: "/v1/healthz" in routes())
        assert "/v1/healthz/" not in routes()

    def test_latency_histogram_uses_serving_buckets(self, running_server):
        from repro.serve.service import SERVE_TIME_BUCKETS

        obs.enable()
        _get(running_server, "/v1/healthz")
        histograms = _wait_for(
            lambda: [
                sample
                for sample in obs.snapshot(include_spans=False)
                if sample["name"] == "serve.http_request_seconds"
            ]
        )
        assert histograms
        bounds = tuple(bound for bound, _ in histograms[0]["buckets"])
        assert bounds == SERVE_TIME_BUCKETS

    def test_debug_requests_endpoint(self, running_server, exact_oracle):
        node = sorted(exact_oracle.nodes())[0]
        _post(running_server, "/v1/influence", {"node": node})

        def influence_logged():
            status, payload = _get(running_server, "/v1/debug/requests")
            assert status == 200
            return [
                entry
                for entry in payload["requests"]
                if entry["route"] == "/v1/influence"
            ]

        influence_entries = _wait_for(influence_logged)
        assert influence_entries
        _, payload = _get(running_server, "/v1/debug/requests")
        assert payload["stats"]["ring_entries"] >= 1
        entry = influence_entries[-1]
        assert entry["status"] == 200
        assert entry["request_id"]
        assert entry["latency_ms"] >= 0
        assert entry["bytes"] > 0
        assert entry["generation"] == 1

    def test_debug_requests_stays_up_while_draining(self, running_server):
        running_server.draining = True
        status, payload = _get(running_server, "/v1/debug/requests")
        assert status == 200
        assert "requests" in payload

    def test_healthz_reports_slo(self, running_server):
        status, payload = _get(running_server, "/v1/healthz")
        assert status == 200
        assert payload["slo_ok"] is True
        routes = {entry["route"] for entry in payload["slo"]}
        assert {"/v1/spread", "/v1/influence", "/v1/topk"} <= routes
        assert all(set(entry) >= {"ok", "p99_ms", "burn_rate"} for entry in payload["slo"])

    def test_cache_hits_attributed_per_request(self, running_server, exact_oracle):
        seeds = sorted(exact_oracle.nodes())[:3]
        _post(running_server, "/v1/spread", {"seeds": seeds})
        _post(running_server, "/v1/spread", {"seeds": seeds})

        def spread_entries():
            found = [
                entry
                for entry in running_server.access_log.recent()
                if entry["route"] == "/v1/spread"
            ]
            return found if len(found) == 2 else None

        entries = _wait_for(spread_entries)
        assert entries and len(entries) == 2
        assert entries[0]["cache_misses"] == 1 and entries[0]["cache_hits"] == 0
        assert entries[1]["cache_hits"] == 1 and entries[1]["cache_misses"] == 0

    def test_end_to_end_trace(self, running_server, exact_oracle):
        """One request, one id, three signals: header, span, access log."""
        obs.enable()
        obs.profile.enable()
        try:
            seeds = sorted(exact_oracle.nodes())[:4]
            request = urllib.request.Request(
                _url(running_server, "/v1/spread"),
                data=json.dumps({"seeds": seeds}).encode(),
                headers={
                    "Content-Type": "application/json",
                    REQUEST_ID_HEADER: "abc",
                },
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
                assert response.headers[REQUEST_ID_HEADER] == "abc"
            spans = _wait_for(
                lambda: [
                    record
                    for record in obs.span_records()
                    if record["name"] == "serve.http_request"
                    and record["context"] == ["request:abc"]
                ]
            )
            assert spans, "request span not attributed to request:abc"
            assert spans[0]["labels"]["route"] == "/v1/spread"
            profiled = obs.profile.collect().span_totals()
            assert "request:abc" in profiled, sorted(profiled)
            logged = _wait_for(
                lambda: [
                    entry
                    for entry in running_server.access_log.recent()
                    if entry["request_id"] == "abc"
                ]
            )
            assert logged
            assert logged[0]["route"] == "/v1/spread"
            assert logged[0]["status"] == 200
        finally:
            obs.profile.disable()
            obs.profile.reset()


class TestDrainAndLifecycle:
    def test_draining_rejects_with_503(self, running_server):
        running_server.draining = True
        code, body = _post_error(running_server, "/v1/spread", payload={"seeds": []})
        assert code == 503
        assert "draining" in body["error"]["message"]

    def test_draining_healthz_reports_503(self, running_server):
        running_server.draining = True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(_url(running_server, "/v1/healthz"), timeout=10)
        assert excinfo.value.code == 503
        payload = json.loads(excinfo.value.read())
        assert payload["status"] == "draining"

    def test_metrics_stay_up_while_draining(self, running_server):
        running_server.draining = True
        with urllib.request.urlopen(_url(running_server, "/v1/metrics"), timeout=10) as response:
            assert response.status == 200

    def test_draining_response_closes_the_connection(self, running_server):
        running_server.draining = True
        received, closed = _raw_exchange(running_server, _SMUGGLED + _SMUGGLED)
        assert _statuses(received) == [503]
        assert b"\r\nConnection: close\r\n" in received
        assert closed

    def test_idle_keepalive_client_does_not_hold_up_the_drain(self, exact_oracle):
        server = build_server(OracleService(exact_oracle), port=0)
        thread = threading.Thread(target=serve_until_shutdown, args=(server,))
        thread.start()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            response.read()
            assert not response.will_close  # the socket stays open, idle
            begin = time.monotonic()
            server.shutdown()
            thread.join(timeout=10)
            assert not thread.is_alive()
            # serve_forever polls every 0.5 s; the handler thread parked
            # on the idle socket is gone within idle_timeout.
            assert time.monotonic() - begin < 1.0
        finally:
            connection.close()

    def test_install_drain_handler_registers_signals(self, exact_oracle):
        service = OracleService(exact_oracle)
        server = build_server(service, port=0)
        previous_term = signal.getsignal(signal.SIGTERM)
        previous_int = signal.getsignal(signal.SIGINT)
        try:
            install_drain_handler(server)
            handler = signal.getsignal(signal.SIGTERM)
            assert callable(handler)
            assert signal.getsignal(signal.SIGINT) is handler
            thread = threading.Thread(target=serve_until_shutdown, args=(server,))
            thread.start()
            handler(signal.SIGTERM, None)  # what the kernel would deliver
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert server.draining
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)
            server.server_close()

    def test_build_server_validates_limit(self, exact_oracle):
        service = OracleService(exact_oracle)
        with pytest.raises(ValueError, match="max_request_bytes"):
            build_server(service, port=0, max_request_bytes=0)

    def test_default_limit_constant(self):
        assert DEFAULT_MAX_REQUEST_BYTES == 1 << 20

    def test_reload_round_trip(self, exact_oracle, tmp_path):
        from repro.serve.snapshot import save_oracle

        service = OracleService(exact_oracle, cache_size=8)
        server = build_server(service, port=0)
        thread = threading.Thread(target=serve_until_shutdown, args=(server,))
        thread.start()
        try:
            path = str(tmp_path / "swap.snap")
            save_oracle(path, exact_oracle)
            status, payload = _post(server, "/v1/reload", {"path": path})
            assert status == 200
            assert payload["generation"] == 2
            status, health = _get(server, "/v1/healthz")
            assert health["generation"] == 2
        finally:
            server.shutdown()
            thread.join(timeout=10)
