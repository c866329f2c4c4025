"""Influence-oracle serving layer (snapshot store + query service + HTTP).

The paper's influence oracle (§4.1) is an *online query* structure: the
IRS summaries are built once, then ``Inf(S)`` and top-k queries are
answered cheaply for as long as the window ω stays relevant.  The rest of
the repo builds those summaries; this package deploys them:

* :mod:`repro.serve.snapshot` — a versioned binary snapshot format
  (``repro-snap/2``) that persists :class:`~repro.core.oracle.ExactInfluenceOracle`
  reachability sets, :class:`~repro.core.oracle.ApproxInfluenceOracle`
  register arrays, and whole :class:`~repro.sketch.vhll.VersionedHLL`
  sketch maps, with per-section CRCs and lazy section reads;
* :mod:`repro.serve.service` — :class:`~repro.serve.service.OracleService`,
  a thread-safe query front over any oracle: LRU spread cache, batched
  queries, top-k / greedy-seed endpoints, and hot snapshot reloads that
  never drop in-flight queries;
* :mod:`repro.serve.http` — a stdlib ``ThreadingHTTPServer`` JSON API
  (``repro serve``) with request-size limits, error envelopes and a
  graceful SIGTERM drain;
* :mod:`repro.serve.client` — the keep-alive JSON client (one
  connection per thread) behind the load generator and
  ``repro ingest tail``;
* :mod:`repro.serve.loadgen` — a closed-loop multi-threaded load
  generator reporting p50/p95/p99 latency (also ``python -m
  repro.serve.loadgen``).

Everything is standard-library only, like the rest of the project.
"""

from __future__ import annotations

from repro.serve.service import OracleService
from repro.serve.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotReader,
    load_oracle,
    load_sketches,
    save_oracle,
    save_sketches,
    snapshot_info,
)

__all__ = [
    "OracleService",
    "SNAPSHOT_MAGIC",
    "SnapshotReader",
    "load_oracle",
    "load_sketches",
    "save_oracle",
    "save_sketches",
    "snapshot_info",
]
