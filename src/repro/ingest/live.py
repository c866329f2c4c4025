"""``LiveIndex`` — influence tracking that keeps up with the stream.

The paper's one-pass algorithms need the log's *end*: they scan in
reverse chronological order, so a new latest interaction invalidates the
whole pass (§3).  :mod:`repro.core.streaming` already exploits the dual
direction — the influenced-by sets ``σω_in(v)`` stream forward — and this
module builds the missing half on top of it: per-**influencer** influence
``|σω(u)|``, maintained incrementally per event.

The trick is that the dual index is a perfect *channel bookkeeper*.
After applying ``(u, v, t)``, exactly one summary changed — ``σω_in(v)``
— and diffing it against its pre-event state names every influencer
``x`` that just reached ``v`` (a new entry) or refreshed an existing
channel (a later start time).  Those per-event deltas drive two forward
representations, selected by ``mode``:

``exact``
    A plain ``influencer → |σω(u)|`` counter: new entry ⇒ increment,
    decay eviction ⇒ decrement.  Inverting the dual summaries
    (``σω(u) = {v | u ∈ σω_in(v)}``) yields a full
    :class:`~repro.core.oracle.ExactInfluenceOracle` for publishing.
``sketch``
    A per-influencer :class:`~repro.sketch.sliding_hll.SlidingWindowHLL`
    over reached nodes, fed *channel start times* so one sketch answers
    every decay horizon at once.  On logs whose live window contains no
    cycle this reproduces :class:`~repro.core.approx.ApproxIRS` registers
    exactly (same ``split_hash``; the reached-node sets coincide).

Stale influence ages out through a **decay horizon** ``decay_window``:
an interaction only counts while the *start* of its channel lies within
the last ``decay_window`` ticks of the newest event.  Bounding by channel
start is both sound and complete for eviction — starts never move once
recorded, and a future merge extending an evicted channel would inherit
the same expired start — so a periodic sweep (every ``sweep_every``
events) keeps memory and the counters honest without touching
correctness (queries filter by the horizon anyway).

All shared state sits behind one writer-priority
:class:`~repro.serve.service.ReadWriteLock`: queries run concurrently,
``apply_events`` and the decay sweep exclude them briefly.  Oracle
*construction* for publishing happens under the read side — it only
reads index state — so queries keep flowing while a snapshot is cut.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import repro.obs as obs
from repro.core.oracle import (
    ApproxInfluenceOracle,
    ExactInfluenceOracle,
    InfluenceOracle,
)
from repro.core.streaming import StreamingExactIndex
from repro.obs import OBS_STATE as _OBS
from repro.serve.service import ReadWriteLock
from repro.sketch.hll import estimate_from_cells
from repro.sketch.sliding_hll import SlidingWindowHLL
from repro.utils.validation import (
    require_in_range,
    require_int,
    require_non_negative,
    require_positive,
    require_type,
)

__all__ = ["IngestResult", "LiveIndex", "LIVE_MODES"]

Node = Hashable

#: Forward representations a :class:`LiveIndex` can maintain.
LIVE_MODES = ("exact", "sketch")

_EVENTS = obs.counter(
    "ingest.events",
    "Live interactions offered to a LiveIndex, by mode and outcome.",
)
_APPLY_SECONDS = obs.histogram(
    "ingest.apply_seconds",
    "Per-batch apply latency of LiveIndex.apply_events (lock held).",
)
_DECAY_EVICTIONS = obs.counter(
    "ingest.decay_evictions",
    "Channel entries dropped by LiveIndex decay sweeps.",
)
_ENTRIES = obs.gauge(
    "ingest.entries",
    "Stored channel entries of a LiveIndex (refreshed by each decay sweep).",
)


class IngestResult:
    """Outcome of one ``apply_events`` batch (a tiny value object)."""

    __slots__ = ("applied", "rejected", "evicted", "last_time")

    def __init__(
        self, applied: int, rejected: int, evicted: int, last_time: Optional[int]
    ) -> None:
        self.applied = applied
        self.rejected = rejected
        self.evicted = evicted
        self.last_time = last_time

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the ``/v1/ingest`` response body)."""
        return {
            "applied": self.applied,
            "rejected": self.rejected,
            "evicted": self.evicted,
            "last_time": self.last_time,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IngestResult(applied={self.applied}, rejected={self.rejected}, "
            f"evicted={self.evicted}, last_time={self.last_time})"
        )


class LiveIndex:
    """Thread-safe live influence index with optional sliding-window decay.

    Parameters
    ----------
    window:
        Maximum channel duration ω, in time ticks.
    mode:
        ``"exact"`` (per-influencer counts + invertible oracle) or
        ``"sketch"`` (per-influencer sliding HLLs, bounded query memory).
    decay_window:
        Sliding horizon in ticks; interactions only count while their
        channel *started* within the last ``decay_window`` ticks of the
        newest event.  ``None`` disables decay (pure accumulation).
    precision:
        Sketch index bits (``sketch`` mode only).
    salt:
        Hash-function selector shared by all sketches.
    sweep_every:
        Run the decay eviction sweep after this many applied events.
    """

    def __init__(
        self,
        window: int,
        mode: str = "exact",
        decay_window: Optional[int] = None,
        precision: int = 9,
        salt: int = 0,
        sweep_every: int = 1024,
    ) -> None:
        require_int(window, "window")
        require_non_negative(window, "window")
        require_type(mode, "mode", str)
        if mode not in LIVE_MODES:
            raise ValueError(f"unknown live mode {mode!r}; use one of {LIVE_MODES}")
        if decay_window is not None:
            require_int(decay_window, "decay_window")
            require_positive(decay_window, "decay_window")
        require_int(precision, "precision")
        require_in_range(precision, "precision", 2, 20)
        require_int(sweep_every, "sweep_every")
        require_positive(sweep_every, "sweep_every")
        self._window = window
        self._mode = mode
        self._decay_window = decay_window
        self._precision = precision
        self._salt = salt
        self._num_cells = 1 << precision
        self._sweep_every = sweep_every
        self._lock = ReadWriteLock()
        # The dual channel bookkeeper: σω_in(v) per node, entries keyed by
        # influencer with the latest channel start (both modes need it for
        # per-event deltas — a sketch dual has no item names to diff).
        self._dual = StreamingExactIndex(window)  # repro-lint: guarded-by=_lock
        self._nodes: Set[Node] = set()  # repro-lint: guarded-by=_lock
        # Forward representation (one of the two is active, by mode).
        self._counts: Dict[Node, int] = {}  # repro-lint: guarded-by=_lock
        self._sketches: Dict[Node, SlidingWindowHLL] = {}  # repro-lint: guarded-by=_lock
        self._events_applied = 0  # repro-lint: guarded-by=_lock
        self._events_rejected = 0  # repro-lint: guarded-by=_lock
        self._since_sweep = 0  # repro-lint: guarded-by=_lock
        self._sweeps = 0  # repro-lint: guarded-by=_lock
        self._evicted_total = 0  # repro-lint: guarded-by=_lock
        self._obs_applied = _EVENTS.labels(mode=mode, outcome="applied")
        self._obs_rejected = _EVENTS.labels(mode=mode, outcome="rejected")
        self._obs_latency = _APPLY_SECONDS.labels(mode=mode)
        self._obs_evictions = _DECAY_EVICTIONS.labels(mode=mode)
        self._obs_entries = _ENTRIES.labels(mode=mode)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        """The duration budget ω."""
        return self._window

    @property
    def mode(self) -> str:
        """The forward representation: ``exact`` or ``sketch``."""
        return self._mode

    @property
    def decay_window(self) -> Optional[int]:
        """The sliding horizon in ticks (None = no decay)."""
        return self._decay_window

    def last_time(self) -> Optional[int]:
        """Newest applied event time (None before any event)."""
        with self._lock.read():
            return self._dual.last_time

    def horizon(self) -> Optional[int]:
        """Oldest channel start that still counts (None = everything)."""
        with self._lock.read():
            return self._horizon_locked()

    def _horizon_locked(self) -> Optional[int]:
        if self._decay_window is None:
            return None
        now = self._dual.last_time
        if now is None:
            return None
        return now - self._decay_window + 1

    def node_count(self) -> int:
        """Distinct nodes seen so far."""
        with self._lock.read():
            return len(self._nodes)

    def stats(self) -> Dict[str, object]:
        """Counters for ``/v1/healthz`` and the CLI."""
        with self._lock.read():
            return {
                "mode": self._mode,
                "window": self._window,
                "decay_window": self._decay_window,
                "nodes": len(self._nodes),
                "events_applied": self._events_applied,
                "events_rejected": self._events_rejected,
                "last_time": self._dual.last_time,
                "horizon": self._horizon_locked(),
                "sweeps": self._sweeps,
                "evicted": self._evicted_total,
                "entries": self._dual.entry_count(),
            }

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def apply_events(
        self, events: Sequence[Tuple[Node, Node, int]]
    ) -> IngestResult:
        """Apply a batch of ``(source, target, time)`` interactions.

        Event times must be non-decreasing across the life of the index;
        a stale event (older than the newest applied one) is *rejected and
        counted*, not raised — a tailer replaying an unordered log edge
        should keep going.  Malformed events (wrong shape or non-integer
        time) raise ``ValueError`` so protocol bugs stay loud.
        """
        require_type(events, "events", (list, tuple))
        checked: List[Tuple[Node, Node, int]] = []
        for position, event in enumerate(events):
            if not isinstance(event, (list, tuple)) or len(event) != 3:
                raise ValueError(
                    f"event #{position} must be a (source, target, time) "
                    f"triple, got {event!r}"
                )
            source, target, time = event
            require_int(time, f"event #{position} time")
            checked.append((source, target, time))
        applied = rejected = evicted = 0
        with self._obs_latency.time(), self._lock.write():
            for source, target, time in checked:
                last = self._dual.last_time
                if last is not None and time < last:
                    rejected += 1
                    continue
                self._apply_locked(source, target, time)
                applied += 1
                self._since_sweep += 1
                if (
                    self._decay_window is not None
                    and self._since_sweep >= self._sweep_every
                ):
                    evicted += self._sweep_locked()
            self._events_applied += applied
            self._events_rejected += rejected
            last_time = self._dual.last_time
        if _OBS.enabled:
            if applied:
                self._obs_applied.inc(applied)
            if rejected:
                self._obs_rejected.inc(rejected)
        return IngestResult(applied, rejected, evicted, last_time)

    def apply(self, source: Node, target: Node, time: int) -> IngestResult:
        """Apply one interaction (see :meth:`apply_events`)."""
        return self.apply_events([(source, target, time)])

    def _apply_locked(self, source: Node, target: Node, time: int) -> None:
        """One event against the dual, diffed into the forward state."""
        self._nodes.add(source)
        self._nodes.add(target)
        before = self._dual.influencer_starts(target)
        self._dual.observe(source, target, time)
        if self._mode == "exact":
            counts = self._counts
            for influencer, start in self._dual.iter_influencer_starts(target):
                if influencer not in before:
                    counts[influencer] = counts.get(influencer, 0) + 1
        else:
            for influencer, start in self._dual.iter_influencer_starts(target):
                if before.get(influencer) != start:
                    self._sketch_for(influencer).add_at(target, start)

    def _sketch_for(self, influencer: Node) -> SlidingWindowHLL:
        sketch = self._sketches.get(influencer)
        if sketch is None:
            sketch = SlidingWindowHLL(self._precision, self._salt)
            self._sketches[influencer] = sketch
        return sketch

    def sweep(self) -> int:
        """Run a decay sweep now; returns evicted entry count (0 = no decay)."""
        with self._lock.write():
            return self._sweep_locked()

    def _sweep_locked(self) -> int:
        self._since_sweep = 0
        horizon = self._horizon_locked()
        if horizon is None:
            return 0
        per_influencer = self._dual.evict_started_before(horizon)
        evicted = sum(per_influencer.values())
        if self._mode == "exact":
            counts = self._counts
            for influencer, dropped in per_influencer.items():
                remaining = counts.get(influencer, 0) - dropped
                if remaining > 0:
                    counts[influencer] = remaining
                else:
                    counts.pop(influencer, None)
        else:
            # Future queries only ask windows starting at or after the
            # (monotone) horizon, so older sketch pairs are dead weight.
            for sketch in self._sketches.values():  # O(n·log W) decay sweep, amortised by sweep_every
                sketch.prune(horizon)
        self._sweeps += 1
        self._evicted_total += evicted
        if _OBS.enabled:
            if evicted:
                self._obs_evictions.inc(evicted)
            self._obs_entries.set(self._dual.entry_count())
        return evicted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def influence(self, node: Node) -> float:
        """``|σω(node)|`` within the decay horizon (or its estimate)."""
        with self._lock.read():
            return self._influence_locked(node, self._horizon_locked())

    def _influence_locked(self, node: Node, horizon: Optional[int]) -> float:
        if self._mode == "exact":
            if horizon is None:
                return float(self._counts.get(node, 0))
            # Between sweeps the counter may still include expired
            # channels; the authoritative answer filters by horizon.
            count = 0
            for reached in self._nodes:  # O(n) horizon-exact influence query
                start = self._dual.latest_start(reached, node)
                if start is not None and start >= horizon:
                    count += 1
            return float(count)
        sketch = self._sketches.get(node)
        if sketch is None:
            return 0.0
        if horizon is None:
            return sketch.cardinality()
        return sketch.cardinality_since(horizon)

    def topk(self, k: int) -> List[Tuple[Node, float]]:
        """The ``k`` nodes with the largest live influence.

        Ties break deterministically by node repr, matching
        :meth:`repro.serve.service.OracleService.influence_topk`.
        """
        require_int(k, "k")
        require_positive(k, "k")
        with self._lock.read():
            horizon = self._horizon_locked()
            if self._mode == "exact" and horizon is None:
                candidates: Iterable[Tuple[Node, float]] = (
                    (node, float(count)) for node, count in self._counts.items()
                )
            elif self._mode == "exact":
                candidates = self._horizon_counts_locked(horizon)
            else:
                candidates = (
                    (node, self._influence_locked(node, horizon))
                    for node in self._sketches
                )
            # O(n log k) — bounded-heap scan over influencers.
            ranked = heapq.nsmallest(
                k,
                ((value, repr(node), node) for node, value in candidates),
                key=lambda entry: (-entry[0], entry[1]),
            )
        return [(node, value) for value, _, node in ranked]

    def _horizon_counts_locked(self, horizon: int) -> Iterable[Tuple[Node, float]]:
        counts: Dict[Node, int] = {}
        for reached in self._nodes:  # O(n·|σ_in|) horizon-exact topk scan
            for influencer, start in self._dual.iter_influencer_starts(reached):
                if start >= horizon:
                    counts[influencer] = counts.get(influencer, 0) + 1
        return ((node, float(count)) for node, count in counts.items())

    def influencers(self, node: Node) -> Set[Node]:
        """``σω_in(node)`` within the decay horizon (who reached ``node``)."""
        with self._lock.read():
            return self._dual.influencers(node, since=self._horizon_locked())

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def build_oracle(self) -> InfluenceOracle:
        """A queryable oracle of the current (horizon-filtered) state.

        Runs under the *read* lock — the publisher can cut a snapshot
        while ingestion pauses but queries continue.
        """
        with self._lock.read():
            horizon = self._horizon_locked()
            if self._mode == "exact":
                sets: Dict[Node, Set[Node]] = {node: set() for node in self._nodes}
                for reached in self._nodes:  # O(n·|σ_in|) oracle inversion
                    for influencer, start in self._dual.iter_influencer_starts(reached):
                        if horizon is None or start >= horizon:
                            sets.setdefault(influencer, set()).add(reached)
                return ExactInfluenceOracle(sets)
            cells: Dict[Node, Dict[int, int]] = {}
            for node in self._nodes:  # O(Σ filled cells)
                sketch = self._sketches.get(node)
                cells[node] = {} if sketch is None else sketch.register_map(horizon)
            return ApproxInfluenceOracle.from_cells(cells, self._num_cells)

    def spread(self, seeds: Iterable[Node]) -> float:
        """``Inf(seeds)`` of the live state (exact mode: exact union)."""
        with self._lock.read():
            horizon = self._horizon_locked()
            if self._mode == "exact":
                covered: Set[Node] = set()
                seed_set = set(seeds)
                for reached in self._nodes:  # O(n·|σ_in|) live spread scan
                    for influencer, start in self._dual.iter_influencer_starts(reached):
                        if influencer in seed_set and (
                            horizon is None or start >= horizon
                        ):
                            covered.add(reached)
                            break
                return float(len(covered))
            combined: Dict[int, int] = {}
            for seed in seeds:  # O(Σ filled cells)
                sketch = self._sketches.get(seed)
                if sketch is None:
                    continue
                for cell, value in sketch.register_map(horizon).items():
                    if value > combined.get(cell, 0):
                        combined[cell] = value
            return estimate_from_cells(combined.values(), self._num_cells)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock.read():
            nodes = len(self._nodes)
        return (
            f"LiveIndex(mode={self._mode!r}, window={self._window}, "
            f"decay_window={self._decay_window}, nodes={nodes})"
        )
