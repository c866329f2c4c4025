"""JSON-over-HTTP front end for :class:`~repro.serve.service.OracleService`.

A deliberately small, dependency-free server: Python's
``ThreadingHTTPServer`` (one thread per connection) in front of the
read-write-locked service.  Routes:

=========================  ======  =====================================
``/v1/healthz``            GET     liveness + oracle info + per-route SLO
``/v1/metrics``            GET     Prometheus text of the whole obs registry
``/v1/debug/requests``     GET     recent access-log entries (ring buffer)
``/v1/influence``          POST    ``{"node": x}`` → individual influence
``/v1/spread``             POST    ``{"seeds": [...]}`` or ``{"seed_sets": [[...], ...]}``
``/v1/topk``               POST    ``{"k": n, "method": "influence"|"greedy"|"celf"}``
``/v1/reload``             POST    ``{"path": "..."}`` → hot snapshot swap
``/v1/ingest``             POST    ``{"events": [[u, v, t], ...]}`` → live apply
``/v1/topk_live``          POST    ``{"k": n}`` → continuously maintained top-k
=========================  ======  =====================================

Each route is one :class:`Route` entry in the ``_ROUTES`` table: a
handler returning ``(status, payload)`` plus its accepted method and
drain policy.  The dispatch helper owns everything else — request ids,
metrics, the access log, error envelopes, drain refusal — so adding a
route is one method and one table line.

The two ``/v1/ingest*`` routes exist only when the server was built with
a :class:`~repro.ingest.live.LiveIndex` (``repro serve --live``);
without one they answer 404 like any unknown feature.

**Request observability.**  Every request gets a request id — the
inbound ``X-Request-Id`` header when well-formed, generated otherwise —
echoed in the response header, pushed onto the tracing context
(:func:`repro.obs.request_context`) so spans/profiler/memprof attribute
the request's work under ``request:<id>``, and written to the structured
access log (one JSON line per request: id, route, status, latency,
bytes, cache hits/misses, snapshot generation).  Request metrics are
labelled with the *matched* route (or the literal ``"unmatched"``), so a
404 scan cannot mint unbounded label children; latency lands in
``serve.http_request_seconds{route}`` on serving-scale buckets, which is
what the per-route SLO evaluation in ``/v1/healthz`` reads.

Error handling is uniform: every non-2xx response is a JSON envelope
``{"error": {"status": <int>, "message": <str>}}`` — 400 for malformed
requests, 404 for unknown routes and unknown nodes, 405 for wrong
methods, 413 when the body exceeds the request-size limit, 503 while the
server drains, and 500 for anything unexpected (the swallowed traceback
goes to the access log under the request's id, not into the response).

**Transport.**  HTTP/1.1 with keep-alive: a client sends many requests
over one connection, and each response leaves in one write (headers and
body together, Nagle off).  The first request line on a connection may
take the 30 s ``timeout``; between requests the socket waits at most
``idle_timeout`` (50 ms), and a connection idle past it is closed before
a next request was parsed, so a client may resend on a fresh connection
without the request being applied twice.  A response sent before the
request body was read in full (413, a missing, bad or negative
``Content-Length``, a short body, any ``Transfer-Encoding``, a route that
answered without reading it) closes the connection: the unread bytes
would otherwise be parsed as the next request.

Graceful shutdown: :func:`install_drain_handler` hooks SIGTERM/SIGINT to
flip the server into *draining* (new requests get 503, ``/v1/healthz``
reports it, every response carries ``Connection: close``) and then stop
the accept loop; ``serve_until_shutdown`` joins the handler threads
before returning, so a supervisor's ``kill -TERM`` never cuts a response
short.  An idle keep-alive connection holds its thread for at most
``idle_timeout``, so the join never waits on a parked read.
"""

from __future__ import annotations

import json
import signal
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # layering: serve must not import ingest at runtime
    from repro.ingest.live import LiveIndex
    from repro.ingest.publisher import SnapshotPublisher

import repro.obs as obs
from repro.obs.slo import DEFAULT_SLOS, SLOSpec, SLOTracker
from repro.serve.accesslog import (
    DEFAULT_RING_SIZE,
    REQUEST_ID_HEADER,
    AccessLog,
    RequestIdGenerator,
    normalize_request_id,
)
from repro.serve.service import GREEDY_METHODS, SERVE_TIME_BUCKETS, OracleService
from repro.utils.timer import Timer
from repro.utils.validation import require_int, require_type

__all__ = [
    "DEFAULT_MAX_REQUEST_BYTES",
    "OracleHTTPServer",
    "Route",
    "build_server",
    "install_drain_handler",
    "serve_until_shutdown",
]

#: Largest accepted request body; a 10k-seed spread query is ~100 KB.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: Metric label for paths that matched no route (bounds cardinality).
UNMATCHED_ROUTE = "unmatched"

_HTTP_REQUESTS = obs.counter(
    "serve.http_requests", "HTTP requests by matched route and response code."
)
#: Pre-registered with serving-scale buckets so the ``serve.http_request``
#: span below lands its durations here instead of on build-scale bounds.
_HTTP_SECONDS = obs.histogram(
    "serve.http_request_seconds",
    "HTTP request latency by matched route.",
    buckets=SERVE_TIME_BUCKETS,
)


class OracleHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service plus serving policy."""

    #: Handler threads are joined on ``server_close`` — the drain step.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: OracleService,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        access_log: Optional[AccessLog] = None,
        slo_specs: Optional[Sequence[SLOSpec]] = None,
        live: Optional["LiveIndex"] = None,
        publisher: Optional["SnapshotPublisher"] = None,
    ) -> None:
        require_type(service, "service", OracleService)
        require_int(max_request_bytes, "max_request_bytes")
        if max_request_bytes <= 0:
            raise ValueError(
                f"max_request_bytes must be > 0, got {max_request_bytes}"
            )
        super().__init__(address, OracleRequestHandler)
        self.service = service
        #: Live ingestion index behind ``/v1/ingest`` (None = batch-only).
        self.live = live
        #: Background snapshot publisher, surfaced in ``/v1/healthz``.
        self.publisher = publisher
        self.max_request_bytes = max_request_bytes
        self.access_log = access_log if access_log is not None else AccessLog()
        self.request_ids = RequestIdGenerator()
        self.slo = SLOTracker(slo_specs if slo_specs is not None else DEFAULT_SLOS)
        self.draining = False
        #: The drain helper thread spawned by the signal handler, kept so
        #: :func:`serve_until_shutdown` can join it instead of abandoning
        #: it as an anonymous daemon.
        self.shutdown_thread: Optional[threading.Thread] = None


class _RequestError(Exception):
    """Maps straight onto one JSON error envelope."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Route(NamedTuple):
    """One row of the ``_ROUTES`` table — adding a route is data, not code.

    ``handler`` returns ``(status, payload)`` for the dispatch helper to
    serialise, or ``None`` if it already wrote a raw response (metrics).
    ``drain_exempt`` routes keep answering while the server drains.
    """

    handler: Callable[["OracleRequestHandler"], Optional[Tuple[int, object]]]
    method: str
    drain_exempt: bool = False


class OracleRequestHandler(BaseHTTPRequestHandler):
    """One request: route, parse, call the service, answer JSON."""

    server_version = "repro-serve/1"
    #: Keep-alive: a client reuses one connection for many requests.  The
    #: short ``idle_timeout`` between requests keeps the drain, which
    #: joins every handler thread, from waiting on a parked read.
    protocol_version = "HTTP/1.1"
    #: A response is one write; without Nagle it leaves at once.
    disable_nagle_algorithm = True
    #: Socket timeout while a request is read, so a silent client cannot
    #: stall the drain forever.
    timeout = 30.0
    #: Seconds a kept-alive connection may wait for its next request line.
    idle_timeout = 0.05
    server: OracleHTTPServer  # narrowed for the route handlers

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:
        """Silence the stderr access log (the structured one replaces it)."""

    def handle(self) -> None:
        """Serve requests on this connection until one side closes it.

        Between requests the socket waits under ``idle_timeout``; a
        timeout there closes the connection before a next request was
        parsed.
        """
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection:
            self.connection.settimeout(self.idle_timeout)
            self.handle_one_request()

    def parse_request(self) -> bool:
        """A request line arrived: read the rest under the full ``timeout``."""
        self.connection.settimeout(self.timeout)
        return super().parse_request()

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        """Write the status line, headers and body in one write."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header(REQUEST_ID_HEADER, self._request_id)
        if self._body_unread or self.server.draining or self.close_connection:
            # Unread body bytes would be parsed as the next request, a
            # draining server takes no further request on this connection,
            # and the client may have asked to close it.
            self.send_header("Connection", "close")
        self._headers_buffer.append(b"\r\n")
        self._headers_buffer.append(body)
        self.flush_headers()
        self._status = status
        self._body_bytes = len(body)

    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, "application/json", body)

    def _send_error_envelope(self, status: int, message: str) -> None:
        self._send_json(status, {"error": {"status": status, "message": message}})

    def _read_body(self) -> Dict[str, object]:
        # Every error below answers before the body was read in full.
        self._body_unread = True
        if "Transfer-Encoding" in self.headers:
            raise _RequestError(400, "Transfer-Encoding is not supported")
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise _RequestError(400, "missing Content-Length header")
        try:
            length = int(raw_length)
        except ValueError:
            raise _RequestError(400, f"bad Content-Length {raw_length!r}") from None
        if length < 0:
            raise _RequestError(400, f"bad Content-Length {raw_length!r}")
        if length > self.server.max_request_bytes:
            raise _RequestError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_request_bytes}-byte limit",
            )
        body = self.rfile.read(length)
        if len(body) < length:
            raise _RequestError(400, "request body shorter than Content-Length")
        self._body_unread = False
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _RequestError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(parsed, dict):
            raise _RequestError(400, "request body must be a JSON object")
        return parsed

    def _resolve_request_id(self) -> str:
        """Inbound ``X-Request-Id`` when well-formed, else a fresh id."""
        inbound = normalize_request_id(self.headers.get(REQUEST_ID_HEADER))
        if inbound is not None:
            return inbound
        return self.server.request_ids.next_id()

    def _dispatch(self, method: str) -> None:
        route = self.path.split("?")[0].rstrip("/") or "/"
        matched = _ROUTES.get(route)
        # Metrics and the access log carry the *matched* route (or the
        # shared "unmatched" bucket) so scanning 404 paths and
        # trailing-slash variants cannot mint new label children.
        self._route_key = route if matched is not None else UNMATCHED_ROUTE
        self._request_id = self._resolve_request_id()
        self._status = 0
        self._body_bytes = 0
        self._error_note = ""
        # A declared body is unread until _read_body consumes it.
        self._body_unread = (
            "Transfer-Encoding" in self.headers
            or self.headers.get("Content-Length", "0") != "0"
        )
        service = self.server.service
        service.begin_cache_window()
        timer = Timer()
        with timer, obs.request_context(f"request:{self._request_id}"):
            with obs.span("serve.http_request", route=self._route_key):
                self._handle_routed(method, route, matched)
        hits, misses = service.cache_window()
        entry: Dict[str, object] = {
            "request_id": self._request_id,
            "method": method,
            "route": self._route_key,
            "path": self.path,
            "status": self._status,
            "latency_ms": round(timer.elapsed * 1e3, 4),
            "bytes": self._body_bytes,
            "cache_hits": hits,
            "cache_misses": misses,
            "generation": service.generation(),
        }
        if self._error_note:
            entry["error"] = self._error_note
        self.server.access_log.record(entry)
        _HTTP_REQUESTS.labels(route=self._route_key, code=self._status).inc()

    def _handle_routed(
        self,
        method: str,
        route: str,
        matched: Optional[Route],
    ) -> None:
        try:
            if matched is None:
                raise _RequestError(404, f"unknown route {route!r}")
            if method != matched.method:
                raise _RequestError(
                    405, f"route {route!r} only accepts {matched.method}"
                )
            if self.server.draining and not matched.drain_exempt:
                raise _RequestError(503, "server is draining; retry elsewhere")
            result = matched.handler(self)
            if result is not None:
                status, payload = result
                self._send_json(status, payload)
        except _RequestError as error:
            self._send_error_envelope(error.status, error.message)
        except (TypeError, ValueError) as error:
            self._send_error_envelope(400, str(error))
        except Exception as error:  # pragma: no cover - defensive backstop
            # The envelope stays terse; the traceback goes to the access
            # log under this request's id instead of being swallowed.
            self._error_note = traceback.format_exc()
            self._send_error_envelope(500, f"internal error: {error}")

    def do_GET(self) -> None:  # noqa: N802 - http.server naming contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming contract
        self._dispatch("POST")

    # -- routes ---------------------------------------------------------
    def _health_payload(self, status: str) -> Dict[str, object]:
        info = self.server.service.info()
        stats = self.server.service.stats()
        slo_statuses = self.server.slo.observe(obs.snapshot(include_spans=False))
        payload: Dict[str, object] = {
            "status": status,
            "kind": info["kind"],
            "nodes": info["nodes"],
            "generation": info["generation"],
            "cache": stats["cache"],
            "slo": [slo_status.to_dict() for slo_status in slo_statuses],
            "slo_ok": all(slo_status.ok for slo_status in slo_statuses),
        }
        if self.server.live is not None:
            payload["ingest"] = self.server.live.stats()
        if self.server.publisher is not None:
            payload["publisher"] = self.server.publisher.stats()
        return payload

    def _route_healthz(self) -> Tuple[int, object]:
        if self.server.draining:
            return 503, self._health_payload("draining")
        return 200, self._health_payload("ok")

    def _route_metrics(self) -> None:
        text = obs.to_prometheus(obs.snapshot(include_spans=False)).encode("utf-8")
        self._send(200, "text/plain; version=0.0.4", text)
        return None

    def _route_debug_requests(self) -> Tuple[int, object]:
        log = self.server.access_log
        entries = log.recent(limit=DEFAULT_RING_SIZE)
        return 200, {"requests": entries, "stats": log.stats()}

    def _route_influence(self) -> Tuple[int, object]:
        body = self._read_body()
        if "node" not in body:
            raise _RequestError(400, "field 'node' is required")
        node = body["node"]
        service = self.server.service
        if not service.contains(node):
            raise _RequestError(404, f"unknown node {node!r}")
        return 200, {"node": node, "influence": service.influence(node)}

    def _route_spread(self) -> Tuple[int, object]:
        body = self._read_body()
        service = self.server.service
        if "seed_sets" in body:
            seed_sets = body["seed_sets"]
            if not isinstance(seed_sets, list) or not all(
                isinstance(seeds, list) for seeds in seed_sets
            ):
                raise _RequestError(400, "field 'seed_sets' must be a list of lists")
            spreads = service.spread_many(seed_sets)
            return 200, {"spreads": spreads, "count": len(spreads)}
        seeds = body.get("seeds")
        if not isinstance(seeds, list):
            raise _RequestError(400, "field 'seeds' must be a list of node labels")
        return 200, {"spread": service.spread(seeds), "seeds": len(set(seeds))}

    def _route_topk(self) -> Tuple[int, object]:
        body = self._read_body()
        k = self._require_k(body)
        method = body.get("method", "influence")
        service = self.server.service
        if method == "influence":
            ranked = service.influence_topk(k)
            payload: List[object] = [
                {"node": node, "influence": influence} for node, influence in ranked
            ]
        elif method in GREEDY_METHODS:
            payload = list(service.greedy_seeds(k, method=method))
        else:
            raise _RequestError(
                400,
                f"unknown method {method!r}; use 'influence', "
                f"{' or '.join(repr(m) for m in GREEDY_METHODS)}",
            )
        return 200, {"k": k, "method": method, "seeds": payload}

    def _route_reload(self) -> Tuple[int, object]:
        body = self._read_body()
        path = body.get("path")
        if not isinstance(path, str) or not path:
            raise _RequestError(400, "field 'path' must be a snapshot path")
        return 200, self.server.service.reload(path)

    # -- live ingestion routes -----------------------------------------
    def _require_live(self) -> "LiveIndex":
        live = self.server.live
        if live is None:
            raise _RequestError(404, "live ingestion is not enabled on this server")
        return live

    @staticmethod
    def _require_k(body: Dict[str, object]) -> int:
        k = body.get("k")
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            raise _RequestError(400, "field 'k' must be a positive integer")
        return k

    def _route_ingest(self) -> Tuple[int, object]:
        live = self._require_live()
        body = self._read_body()
        events = body.get("events")
        if not isinstance(events, list):
            raise _RequestError(
                400, "field 'events' must be a list of [source, target, time] triples"
            )
        return 200, live.apply_events(events).to_dict()

    def _route_topk_live(self) -> Tuple[int, object]:
        live = self._require_live()
        body = self._read_body()
        k = self._require_k(body)
        ranked = live.topk(k)
        return 200, {
            "k": k,
            "mode": live.mode,
            "last_time": live.last_time(),
            "horizon": live.horizon(),
            "ranking": [
                {"node": node, "influence": influence} for node, influence in ranked
            ],
        }


_ROUTES: Dict[str, Route] = {
    "/v1/healthz": Route(OracleRequestHandler._route_healthz, "GET", drain_exempt=True),
    "/v1/metrics": Route(OracleRequestHandler._route_metrics, "GET", drain_exempt=True),
    "/v1/debug/requests": Route(
        OracleRequestHandler._route_debug_requests, "GET", drain_exempt=True
    ),
    "/v1/influence": Route(OracleRequestHandler._route_influence, "POST"),
    "/v1/spread": Route(OracleRequestHandler._route_spread, "POST"),
    "/v1/topk": Route(OracleRequestHandler._route_topk, "POST"),
    "/v1/reload": Route(OracleRequestHandler._route_reload, "POST"),
    "/v1/ingest": Route(OracleRequestHandler._route_ingest, "POST"),
    "/v1/topk_live": Route(OracleRequestHandler._route_topk_live, "POST"),
}


def build_server(
    service: OracleService,
    host: str = "127.0.0.1",
    port: int = 8750,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    access_log: Optional[AccessLog] = None,
    slo_specs: Optional[Sequence[SLOSpec]] = None,
    live: Optional["LiveIndex"] = None,
    publisher: Optional["SnapshotPublisher"] = None,
) -> OracleHTTPServer:
    """Bind an :class:`OracleHTTPServer`; ``port=0`` picks a free port."""
    return OracleHTTPServer(
        (host, port),
        service,
        max_request_bytes=max_request_bytes,
        access_log=access_log,
        slo_specs=slo_specs,
        live=live,
        publisher=publisher,
    )


def install_drain_handler(server: OracleHTTPServer) -> None:
    """Route SIGTERM/SIGINT into a graceful drain of ``server``.

    The handler flips :attr:`OracleHTTPServer.draining` first (so health
    checks start failing and load balancers stop routing here) and stops
    the accept loop from a helper thread — ``shutdown()`` would deadlock
    if called from the ``serve_forever`` thread itself.
    """

    def _drain(signum: int, frame: object) -> None:
        server.draining = True
        thread = threading.Thread(
            target=server.shutdown, name="oracle-http-shutdown", daemon=True
        )
        server.shutdown_thread = thread
        thread.start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)


def serve_until_shutdown(
    server: OracleHTTPServer, shutdown_join_timeout: float = 10.0
) -> None:
    """Run the accept loop, then join in-flight handlers (the drain).

    The drain helper spawned by :func:`install_drain_handler` is joined
    with a timeout after the socket closes; a helper still alive then
    means ``shutdown()`` itself is wedged, which is surfaced as a
    ``RuntimeError`` instead of being silently abandoned.  The access
    log is flushed and closed once the last handler thread has finished.
    """
    try:
        server.serve_forever()
    finally:
        server.server_close()
        server.access_log.close()
        thread = server.shutdown_thread
        if thread is not None:
            thread.join(shutdown_join_timeout)
            if thread.is_alive():
                raise RuntimeError(
                    f"drain thread {thread.name!r} still running "
                    f"{shutdown_join_timeout:.0f}s after server_close()"
                )
