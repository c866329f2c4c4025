"""Live ingestion subsystem (extension).

The offline pipeline of this repo is batch-shaped: build an index with a
reverse scan, snapshot it, serve queries.  This package closes the loop
for *live* interaction streams — apply ``(u, v, t)`` events as they
happen, keep a continuously correct top-k influencer set, age stale
interactions out of ``σω(u)`` with a sliding decay horizon, and publish
fresh ``repro-snap/2`` snapshots that the serving tier hot-reloads.

* :mod:`repro.ingest.live` — :class:`LiveIndex`, the writer-priority
  locked index behind the ``/v1/ingest`` endpoint.
* :mod:`repro.ingest.publisher` — :class:`SnapshotPublisher`, periodic
  snapshot + :class:`~repro.serve.service.OracleService` hot reload.
* :mod:`repro.ingest.tail` — log tailing (``repro ingest tail``) and the
  small HTTP client it posts through.
"""

from repro.ingest.live import IngestResult, LiveIndex
from repro.ingest.publisher import SnapshotPublisher
from repro.ingest.tail import HttpIngestClient, parse_event_line, tail_file

__all__ = [
    "HttpIngestClient",
    "IngestResult",
    "LiveIndex",
    "SnapshotPublisher",
    "parse_event_line",
    "tail_file",
]
