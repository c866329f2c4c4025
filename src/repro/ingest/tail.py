"""Log tailing for the ingest front (``repro ingest tail``).

Reads ``source target time`` lines — the
:meth:`~repro.core.interactions.InteractionLog.read` on-disk format — and
posts them in batches to a running server's ``/v1/ingest`` endpoint.
``follow`` mode keeps the file open and polls for appended lines, the
classic ``tail -f`` loop, so a simulator writing interactions and a
server indexing them can run side by side.

Malformed lines are counted and skipped (one bad line must not stall a
live feed); the final tally distinguishes posted, rejected-by-server and
skipped-as-malformed events so operators can see data-quality problems
at a glance.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.serve.client import JsonClient
from repro.utils.validation import require_int, require_positive, require_type

__all__ = ["HttpIngestClient", "parse_event_line", "tail_file"]

Event = Tuple[str, str, int]

#: Post this many events per ``/v1/ingest`` request by default.
DEFAULT_BATCH = 500


def parse_event_line(line: str) -> Optional[Event]:
    """``"u v t"`` → ``("u", "v", t)``; None for blank/comment/bad lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 3:
        return None
    try:
        return parts[0], parts[1], int(parts[2])
    except ValueError:
        return None


def tail_file(
    path: str,
    post: Callable[[List[Event]], Dict[str, object]],
    batch: int = DEFAULT_BATCH,
    follow: bool = False,
    poll: float = 0.2,
    max_events: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> Dict[str, int]:
    """Stream events from ``path`` through ``post`` in batches.

    Parameters
    ----------
    path:
        Interaction log to read (``source target time`` lines).
    post:
        Called with each batch; returns the server's ingest response
        (``applied`` / ``rejected`` counts are folded into the tally).
    batch:
        Maximum events per ``post`` call.
    follow:
        Keep polling for appended lines after EOF (``tail -f``).
    poll:
        Seconds to sleep between EOF polls in follow mode.
    max_events:
        Stop after posting this many events (None = unbounded).
    stop:
        Optional predicate checked at EOF; return True to end follow mode.
    """
    require_type(path, "path", str)
    require_int(batch, "batch")
    require_positive(batch, "batch")
    if max_events is not None:
        require_int(max_events, "max_events")
        require_positive(max_events, "max_events")
    tally = {"posted": 0, "applied": 0, "rejected": 0, "malformed": 0, "batches": 0}
    pending: List[Event] = []
    # Interruptible poll sleep without importing the clock module (R106);
    # nothing ever sets this event — wait() is purely a bounded sleep.
    pause = threading.Event()

    def flush() -> None:
        if not pending:
            return
        response = post(list(pending))
        tally["posted"] += len(pending)
        tally["batches"] += 1
        tally["applied"] += int(response.get("applied", 0))  # type: ignore[arg-type]
        tally["rejected"] += int(response.get("rejected", 0))  # type: ignore[arg-type]
        pending.clear()

    done = False
    with open(path, "r", encoding="utf-8") as handle:
        while not done:
            line = handle.readline()
            if not line:
                flush()
                if not follow or (stop is not None and stop()):
                    break
                pause.wait(poll)
                continue
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue  # blanks and comments are structure, not bad data
            event = parse_event_line(stripped)
            if event is None:
                tally["malformed"] += 1
                continue
            pending.append(event)
            if max_events is not None and tally["posted"] + len(pending) >= max_events:
                done = True
            if done or len(pending) >= batch:
                flush()
    flush()
    return tally


class HttpIngestClient:
    """Client for the ingest endpoints of a running server.

    One kept-alive connection per thread
    (:class:`~repro.serve.client.JsonClient`): batches posted back to back
    share one TCP connection instead of opening one each.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self._json = JsonClient(base_url, timeout=timeout)

    def _post(self, route: str, payload: Dict[str, object]) -> Dict[str, object]:
        decoded = self._json.post(route, payload)
        if not isinstance(decoded, dict):
            raise ValueError(f"expected a JSON object from {route}, got {decoded!r}")
        return decoded

    def ingest(self, events: List[Event]) -> Dict[str, object]:
        """POST a batch to ``/v1/ingest``; returns the apply summary."""
        return self._post("/v1/ingest", {"events": [list(event) for event in events]})

    def topk_live(self, k: int) -> Dict[str, object]:
        """POST ``/v1/topk_live`` — the continuously maintained top-k."""
        require_int(k, "k")
        require_positive(k, "k")
        return self._post("/v1/topk_live", {"k": k})

    def close(self) -> None:
        """Close the kept-alive connections."""
        self._json.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HttpIngestClient({self._json!r})"
