"""``OracleService`` — a thread-safe query front over an influence oracle.

The oracle answers ``Inf(S)`` in microseconds, but a serving process
needs more than the raw call: repeated seed sets should not be recomputed
(social dashboards hammer the same handful of campaigns), many queries
arrive per request, and the underlying snapshot must be replaceable while
traffic is flowing.  This module adds exactly those three things:

* an **LRU spread cache** keyed by the *frozenset* of seeds (order- and
  duplicate-insensitive, like ``Inf`` itself), instrumented with
  ``serve.cache_hits`` / ``serve.cache_misses`` counters and a
  ``serve.cache_size`` gauge;
* **batched and ranked endpoints** — ``spread_many``, ``influence_topk``
  (heap scan over every node) and ``greedy_seeds`` (the §4.2 greedy /
  CELF selectors);
* a **read-write-locked hot swap** — ``reload(path)`` builds the new
  oracle from a snapshot *outside* any lock, then takes the write side
  only for the pointer swap, so in-flight queries finish against the old
  oracle and the pause is microseconds regardless of snapshot size.

Every public endpoint records ``serve.request_seconds{endpoint,status}``
through the shared :mod:`repro.obs` registry.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

import repro.obs as obs
from repro.core.maximization import celf_top_k, greedy_top_k, top_k_by_influence
from repro.core.oracle import InfluenceOracle
from repro.obs import OBS_STATE as _OBS
from repro.utils.timer import Timer
from repro.utils.validation import require_int, require_positive, require_type

__all__ = ["OracleService", "ReadWriteLock", "SERVE_TIME_BUCKETS", "SpreadCache"]

Node = Hashable

#: Latency-histogram bounds tuned for the serving tier.  The paper's
#: Fig. 4 claim is microsecond-to-millisecond oracle queries, so the
#: default build-scale bounds (1µs…10s in decades) collapse the entire
#: serving range into two buckets; these add 2.5×/4× steps through the
#: 100µs–100ms band where p99 objectives actually live, while keeping a
#: 10s tail so nothing falls off the end of the cumulative export.
SERVE_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    10.0,
)

_REQUEST_SECONDS = obs.histogram(
    "serve.request_seconds",
    "Serving-layer request latency by endpoint and outcome status.",
    buckets=SERVE_TIME_BUCKETS,
)
_CACHE_HITS = obs.counter(
    "serve.cache_hits", "Spread queries answered from the LRU cache."
)
_CACHE_MISSES = obs.counter(
    "serve.cache_misses", "Spread queries that had to consult the oracle."
)
_CACHE_SIZE = obs.gauge("serve.cache_size", "Entries currently in the spread cache.")
_RELOADS = obs.counter("serve.reloads", "Hot snapshot swaps performed.")

#: Selector names accepted by :meth:`OracleService.greedy_seeds`.
GREEDY_METHODS = ("greedy", "celf")


class ReadWriteLock:
    """A writer-priority read-write lock (stdlib primitives only).

    Any number of readers may hold the lock together; a writer waits for
    them to drain and excludes everyone.  Arriving readers queue behind a
    waiting writer so a steady query stream cannot starve ``reload``.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # repro-lint: guarded-by=_cond
        self._writer_active = False  # repro-lint: guarded-by=_cond
        self._writers_waiting = 0  # repro-lint: guarded-by=_cond

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the shared (reader) side for the ``with`` body."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the exclusive (writer) side for the ``with`` body."""
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


_MISS = object()  # cache-miss sentinel (0.0 is a legitimate spread)


class SpreadCache:
    """A lock-guarded LRU of ``frozenset(seeds) → spread`` results.

    ``capacity == 0`` disables caching (every lookup misses, nothing is
    stored) without a special case at the call site.
    """

    def __init__(self, capacity: int) -> None:
        require_int(capacity, "capacity")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity  # immutable after construction
        self._entries: "OrderedDict[frozenset, float]" = OrderedDict()  # repro-lint: guarded-by=_lock
        self._lock = threading.Lock()
        self.hits = 0  # repro-lint: guarded-by=_lock
        self.misses = 0  # repro-lint: guarded-by=_lock
        self._tls = threading.local()  # per-thread hit/miss window, lock-free

    @property
    def capacity(self) -> int:
        """Maximum number of cached spreads."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: frozenset) -> object:
        """The cached spread for ``key``, or the module-private miss sentinel."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                _CACHE_MISSES.inc()
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                _CACHE_HITS.inc()
        window = getattr(self._tls, "window", None)
        if window is not None:
            window[0 if value is not _MISS else 1] += 1
        return value

    def begin_window(self) -> None:
        """Start a fresh hit/miss window on the calling thread.

        The serving tier opens a window per request so the access log
        can attribute cache behaviour to the request that caused it —
        thread-local, so concurrent handler threads never mix counts.
        """
        self._tls.window = [0, 0]

    def window(self) -> Tuple[int, int]:
        """``(hits, misses)`` on this thread since :meth:`begin_window`."""
        window = getattr(self._tls, "window", None)
        if window is None:
            return (0, 0)
        return (window[0], window[1])

    def put(self, key: frozenset, value: float) -> None:
        """Store ``key → value``, evicting the least recently used entries."""
        if self._capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
            _CACHE_SIZE.set(len(self._entries))

    def clear(self) -> None:
        """Drop every entry (hit/miss totals are kept)."""
        with self._lock:
            self._entries.clear()
            _CACHE_SIZE.set(0)

    def stats(self) -> Dict[str, object]:
        """Size, capacity, hit/miss counts and the lifetime hit rate."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }


class OracleService:
    """Concurrent query service over one (swappable) influence oracle.

    Parameters
    ----------
    oracle:
        Any :class:`~repro.core.oracle.InfluenceOracle`.
    cache_size:
        Spread-cache capacity; ``0`` disables caching.
    source:
        Optional provenance string (the snapshot path, typically) echoed
        by :meth:`info`.
    """

    def __init__(
        self,
        oracle: InfluenceOracle,
        cache_size: int = 1024,
        source: str = "",
    ) -> None:
        require_type(oracle, "oracle", InfluenceOracle)
        self._oracle = oracle  # repro-lint: guarded-by=_swap_lock
        self._cache = SpreadCache(cache_size)  # internally synchronised
        self._swap_lock = ReadWriteLock()
        self._counts_lock = threading.Lock()
        self._request_counts: Dict[str, int] = {}  # repro-lint: guarded-by=_counts_lock
        self._error_counts: Dict[str, int] = {}  # repro-lint: guarded-by=_counts_lock
        self._generation = 1  # repro-lint: guarded-by=_swap_lock
        self._source = source  # repro-lint: guarded-by=_swap_lock

    @classmethod
    def from_snapshot(cls, path: str, cache_size: int = 1024) -> "OracleService":
        """Build a service from a ``repro-snap/2`` oracle snapshot."""
        from repro.serve.snapshot import load_oracle

        return cls(load_oracle(path), cache_size=cache_size, source=path)

    # ------------------------------------------------------------------
    # Instrumentation plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def _tracked(self, endpoint: str) -> Iterator[None]:
        """Count the request and time it into ``serve.request_seconds``."""
        with self._counts_lock:
            self._request_counts[endpoint] = self._request_counts.get(endpoint, 0) + 1
        if not _OBS.enabled:
            try:
                yield
            except Exception:
                with self._counts_lock:
                    self._error_counts[endpoint] = self._error_counts.get(endpoint, 0) + 1
                raise
            return
        timer = Timer()
        status = "ok"
        try:
            with timer:
                yield
        except Exception:
            status = "error"
            with self._counts_lock:
                self._error_counts[endpoint] = self._error_counts.get(endpoint, 0) + 1
            raise
        finally:
            _REQUEST_SECONDS.labels(endpoint=endpoint, status=status).observe(
                timer.elapsed
            )

    # ------------------------------------------------------------------
    # Query endpoints
    # ------------------------------------------------------------------
    def contains(self, node: Node) -> bool:
        """True when the current oracle knows ``node``."""
        with self._swap_lock.read():
            try:
                # Both bundled oracles return a dict view: O(1) membership.
                return node in self._oracle.nodes()
            except TypeError:
                return False

    def influence(self, node: Node) -> float:
        """``|σω(node)|`` (or its estimate) from the current oracle."""
        with self._tracked("influence"), self._swap_lock.read():
            return self._oracle.influence(node)

    def spread(self, seeds: Iterable[Node]) -> float:
        """``Inf(seeds)``, served from the LRU cache when possible."""
        with self._tracked("spread"), self._swap_lock.read():
            return self._spread_locked(seeds)

    def _spread_locked(self, seeds: Iterable[Node]) -> float:
        key = frozenset(seeds)
        cached = self._cache.get(key)
        if cached is not _MISS:
            return float(cached)  # type: ignore[arg-type]
        value = self._oracle.spread(key)
        self._cache.put(key, value)
        return value

    def spread_many(self, seed_sets: Sequence[Iterable[Node]]) -> List[float]:
        """``Inf`` of each seed set, one oracle pass per cache miss."""
        require_type(seed_sets, "seed_sets", (list, tuple))
        with self._tracked("spread_many"), self._swap_lock.read():
            return [self._spread_locked(seeds) for seeds in seed_sets]

    def influence_topk(self, k: int) -> List[Tuple[Node, float]]:
        """The ``k`` nodes with the largest individual influence.

        A bounded-heap scan over every node — O(n log k) — with ties
        broken deterministically by node repr.
        """
        with self._tracked("topk"), self._swap_lock.read():
            require_int(k, "k")
            require_positive(k, "k")
            oracle = self._oracle
            # repro-lint: budget=O(n log k) — bounded-heap scan over all nodes.
            ranked = heapq.nsmallest(
                k,
                ((oracle.influence(node), repr(node), node) for node in oracle.nodes()),
                key=lambda entry: (-entry[0], entry[1]),
            )
            return [(node, influence) for influence, _, node in ranked]

    def greedy_seeds(self, k: int, method: str = "greedy") -> List[Node]:
        """A ``k``-seed set by submodular greedy (``greedy``) or CELF."""
        with self._tracked("seeds"), self._swap_lock.read():
            require_int(k, "k")
            require_positive(k, "k")
            if method not in GREEDY_METHODS:
                raise ValueError(
                    f"unknown seed-selection method {method!r}; "
                    f"use one of {GREEDY_METHODS}"
                )
            selector = greedy_top_k if method == "greedy" else celf_top_k
            return selector(self._oracle, k)

    def top_influencers(self, k: int) -> List[Node]:
        """Overlap-blind top-``k`` (the HD analogue), for comparisons."""
        with self._tracked("topk"), self._swap_lock.read():
            require_int(k, "k")
            require_positive(k, "k")
            return top_k_by_influence(self._oracle, k)

    # ------------------------------------------------------------------
    # Hot swap + introspection
    # ------------------------------------------------------------------
    def reload(self, path: str) -> Dict[str, object]:
        """Swap in the oracle stored at ``path`` without dropping queries.

        The snapshot is parsed *before* any lock is taken; the write lock
        covers only the pointer swap and cache flush, so concurrent
        readers observe either the old or the new oracle, never a torn
        state, and wait microseconds at most.
        """
        from repro.serve.snapshot import load_oracle

        with self._tracked("reload"):
            fresh = load_oracle(path)
            with self._swap_lock.write():
                self._oracle = fresh
                self._source = path
                self._generation += 1
                generation = self._generation
            self._cache.clear()
            _RELOADS.inc()
        return {
            "generation": generation,
            "source": path,
            "nodes": self.node_count(),
        }

    def swap_oracle(self, oracle: InfluenceOracle, source: str = "") -> int:
        """Like :meth:`reload` but with an already-built oracle; returns the generation."""
        require_type(oracle, "oracle", InfluenceOracle)
        with self._swap_lock.write():
            self._oracle = oracle
            self._source = source
            self._generation += 1
            generation = self._generation
        self._cache.clear()
        _RELOADS.inc()
        return generation

    def begin_cache_window(self) -> None:
        """Open a per-request cache hit/miss window on this thread."""
        self._cache.begin_window()

    def cache_window(self) -> Tuple[int, int]:
        """``(hits, misses)`` on this thread since :meth:`begin_cache_window`."""
        return self._cache.window()

    def generation(self) -> int:
        """The live snapshot generation (bumps on every swap)."""
        with self._swap_lock.read():
            return self._generation

    def node_count(self) -> int:
        """Number of nodes the current oracle answers about."""
        with self._swap_lock.read():
            nodes = self._oracle.nodes()
            try:
                return len(nodes)  # type: ignore[arg-type]
            except TypeError:
                return sum(1 for _ in nodes)

    def info(self) -> Dict[str, object]:
        """Kind, node count, provenance and generation of the live oracle."""
        with self._swap_lock.read():
            kind = type(self._oracle).__name__
            generation = self._generation
            source = self._source
        return {
            "kind": kind,
            "nodes": self.node_count(),
            "generation": generation,
            "source": source,
        }

    def stats(self) -> Dict[str, object]:
        """Cache statistics plus per-endpoint request/error counts."""
        with self._counts_lock:
            requests = dict(self._request_counts)
            errors = dict(self._error_counts)
        with self._swap_lock.read():
            generation = self._generation
        return {
            "cache": self._cache.stats(),
            "requests": requests,
            "errors": errors,
            "generation": generation,
        }
