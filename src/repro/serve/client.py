"""Keep-alive JSON client for a running ``repro serve``.

The load generator's :class:`~repro.serve.loadgen.HttpClient` and
``repro ingest tail``'s :class:`~repro.ingest.tail.HttpIngestClient`
both POST JSON through one :class:`JsonClient`.  Each thread gets its own
``http.client`` connection, opened at its first request and reused for
every later one, so a closed-loop client pays one TCP connect per
thread, not one per request.

The server closes a kept-alive connection only after a full response,
or when it sat idle past the server's idle timeout before a request was
parsed.  So when a *reused* connection fails before a status line
arrives, the request was never applied, and it is sent once more on a
fresh connection; a retried ``/v1/ingest`` batch is never applied twice.
A new connection that fails is not retried.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
import urllib.error
import urllib.parse
from typing import Dict, List, Optional

from repro.utils.validation import require_type

__all__ = ["JsonClient"]

#: How a connection the server already closed fails before a status line.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class JsonClient:
    """POST JSON to one server over one kept-alive connection per thread.

    A non-200 answer raises :class:`urllib.error.HTTPError`, whose body
    (the server's JSON error envelope) stays readable; the connection
    stays usable for the next request.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        require_type(base_url, "base_url", str)
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"base_url must be an http(s) URL, got {base_url!r}")
        self._base = base_url.rstrip("/")
        self._netloc = parts.netloc
        self._prefix = parts.path.rstrip("/")
        self._https = parts.scheme == "https"
        self._timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        # Every thread's connection, so close() reaches them all.
        self._opened: List[http.client.HTTPConnection] = []  # repro-lint: guarded-by=_lock

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            factory = (
                http.client.HTTPSConnection if self._https else http.client.HTTPConnection
            )
            connection = factory(self._netloc, timeout=self._timeout)
            self._local.connection = connection
            with self._lock:
                self._opened.append(connection)
        return connection

    def post(
        self,
        route: str,
        payload: object,
        headers: Optional[Dict[str, str]] = None,
    ) -> object:
        """POST ``payload`` as JSON to ``route``; returns the decoded answer."""
        body = json.dumps(payload).encode("utf-8")
        sent = {"Content-Type": "application/json"}
        if headers:
            sent.update(headers)
        path = self._prefix + route
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request("POST", path, body, sent)
                response = connection.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                # Closed by the server while idle: the request was not
                # parsed there, so it is safe to send it again.
                connection.close()
                connection.request("POST", path, body, sent)
                response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()  # the next request starts on a clean socket
            raise
        if response.status != 200:
            raise urllib.error.HTTPError(
                self._base + route,
                response.status,
                response.reason,
                response.headers,
                io.BytesIO(data),
            )
        return json.loads(data.decode("utf-8"))

    def close(self) -> None:
        """Close every thread's connection; a later request reopens its own."""
        with self._lock:
            opened = list(self._opened)
        for connection in opened:
            connection.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JsonClient(base_url={self._base!r})"
