"""Streaming maintenance of *influenced-by* sets (extension).

The paper is explicit that its one-pass algorithms are **not** streaming:
"if a new interaction arrives with a time stamp later than any other …
potentially the IRS of every node in the network changes" (§3).  That
asymmetry is directional.  The mirror statement of Lemma 1 holds forward:

    when the **latest** interaction ``(u, v, t)`` arrives, only the
    *influenced-by* set of ``v`` — the nodes with a channel **into** ``v``
    — can change.

So while the influence reachability sets σω(·) need the reverse scan, the
dual sets

    σω_in(v) = { u ∈ V | ∃ channel u → v with duration ≤ ω }

admit true streaming maintenance: process interactions as they arrive and
answer "how many distinct users could have influenced v within the last
ω ticks of path budget" at any moment.  This is the live-monitoring use
case (who has this account plausibly heard from?) that the offline index
cannot serve.

Implementation is by duality rather than re-derivation: an in-channel of
``v`` in the stream is exactly an out-channel of ``v`` in the
time-and-direction dual ``(u, v, t) → (v, u, −t)``
(:meth:`~repro.core.interactions.InteractionLog.time_reversed`).  Feeding
dual interactions to the paper's reverse-scan machinery — which requires
strictly *decreasing* stamps, i.e. strictly increasing original stamps —
yields per-node summaries whose entries ``(u, −s)`` record the **latest
channel start time** s: the dominance flips from "earliest end wins" to
"latest start wins", which is precisely what makes late arrivals cheap.

Both flavours are provided: :class:`StreamingExactIndex` (exact dual
summaries) and :class:`StreamingSketchIndex` (dual versioned-HLL), plus
the one-shot helper :func:`influencers_of`.

Live consumers need more than the summaries: what one event changed.
:meth:`StreamingExactIndex.observe` returns it — every ``(influencer,
start)`` entry of σω_in(target) the step added or refreshed — so a
forward view (:mod:`repro.ingest.live`) pays for the change, not for
σω_in(target).  The exact dual also keeps a running entry count and, per
node, a lower bound on the channel starts it holds, so a decay sweep
visits only the summaries that may hold an expired entry.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

import repro.obs as obs
from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS
from repro.core.interactions import InteractionLog
from repro.core.summary import IRSSummary
from repro.obs import OBS_STATE as _OBS
from repro.utils.contracts import (
    invariant,
    post_live_dual_apply,
    post_streaming_process,
)
from repro.utils.validation import require_int, require_type

__all__ = [
    "StreamingExactIndex",
    "StreamingSketchIndex",
    "influencers_of",
]

Node = Hashable

D = TypeVar("D", ExactIRS, ApproxIRS)
T = TypeVar("T", bound="_StreamingIndex[Any]")

_EVENTS = obs.counter("streaming.events", "Interactions ingested by a streaming index.")
_EVENT_SECONDS = obs.histogram(
    "streaming.event_seconds", "Per-event ingest latency of the streaming indexes."
)
_ENTRIES = obs.gauge(
    "streaming.entries",
    "Stored entries of a streaming index (sampled every 1024 events).",
)

#: Refresh the entries gauge this often; the sketch dual's entry_count() walks
#: every summary.
_ENTRIES_SAMPLE_EVERY = 1024

# The families ExactIRS and IRSSummary fire (registered by their modules):
# the live dual's apply step counts exactly what theirs would.
_INTERACTIONS = obs.counter("exact.interactions")
_MERGES = obs.counter("exact.merges")
_ADD_OPS = obs.counter("summary.add_ops")
_MERGE_OPS = obs.counter("summary.merge_ops")
_MERGE_ADDED = obs.counter("summary.merge_added")

#: One entry of σω_in(target) that a live step changed:
#: ``(influencer, latest channel start, new)``; ``new`` is False when an
#: existing channel was refreshed to a later start.
Change = Tuple[Node, int, bool]


class _StreamingIndex(Generic[D]):
    """Shared live-mode driver over a dual reverse-scan index.

    Every original interaction ``(u, v, t)`` is fed to the dual as
    ``(v, u, −t)``; subclasses pick the dual's summary type and add the
    queries that read it.
    """

    _dual_type: Type[D]
    _kind: str

    def __init__(self, window: int, **params: int) -> None:
        self._dual = self._dual_type(window, **params)
        # Live-mode tie handling: the original-time frontier plus pre-stamp
        # summary snapshots of every node touched at the current stamp.
        self._stamp: Optional[int] = None
        self._stamp_snapshots: Dict[Node, Any] = {}
        # Label children are resolved once; .inc()/.time() stay cheap.
        self._obs_events = _EVENTS.labels(kind=self._kind)
        self._obs_latency = _EVENT_SECONDS.labels(kind=self._kind)
        self._obs_entries = _ENTRIES.labels(kind=self._kind)
        self._obs_seen = 0

    @classmethod
    def from_log(cls: Type[T], log: InteractionLog, window: int, **params: int) -> T:
        """Replay a whole log (ties batched via the dual's ``from_log``).

        ``params`` are the constructor's keyword options (``precision``
        and ``salt`` for the sketch index).
        """
        require_type(log, "log", InteractionLog)
        index = cls(window, **params)
        index._dual = index._dual_type.from_log(log.time_reversed(), window, **params)
        if index._dual._last_time is not None:
            index._stamp = -index._dual._last_time
        return index

    @property
    def window(self) -> int:
        """The duration budget ω."""
        return self._dual.window

    @property
    def nodes(self) -> Iterable[Node]:
        """All nodes seen so far."""
        return self._dual.nodes

    @property
    def last_time(self) -> Optional[int]:
        """Original-time frontier of every event fed so far (None before any)."""
        return self._stamp

    @invariant(post_streaming_process)
    def process(self, source: Node, target: Node, time: int) -> None:
        """Feed one interaction; times must be strictly increasing.

        The time opens a new stamp: an :meth:`observe` at the same time
        afterwards reads this interaction as already applied.
        """
        require_int(time, "time")
        # Dual: flip direction, negate time.  The dual index enforces
        # strictly decreasing dual stamps == strictly increasing originals.
        with self._obs_latency.time():
            self._dual.process(target, source, -time)
        self._stamp = time
        self._stamp_snapshots.clear()
        if _OBS.enabled:
            self._count_event()

    def _observe(self, source: Node, target: Node, time: int) -> None:
        """The live step behind both ``observe`` methods (ties allowed)."""
        require_int(time, "time")
        if self._stamp is not None and time < self._stamp:
            raise ValueError(
                f"live interactions must arrive in non-decreasing time order: "
                f"got t={time} after t={self._stamp}"
            )
        with self._obs_latency.time():
            if time != self._stamp:
                self._stamp = time
                self._stamp_snapshots.clear()
            # Dual event: flip direction, negate time.  The dual source is
            # mutated: copy it before its first write in this stamp, since a
            # later tied event may read it.  The dual target is only read:
            # its pre-stamp copy if it was written in this stamp, else its
            # live summary, which no tied event has changed yet.
            snapshots = self._stamp_snapshots
            dual = self._dual
            if target not in snapshots:
                snapshots[target] = dual.snapshot(target)
            if source in snapshots:
                read = snapshots[source]
            else:
                read = dual._summaries.get(source)
            dual.process_tied(target, source, -time, read)
        if _OBS.enabled:
            self._count_event()

    def _count_event(self) -> None:
        self._obs_events.inc()
        self._obs_seen += 1
        if self._obs_seen % _ENTRIES_SAMPLE_EVERY == 0:
            self._obs_entries.set(self._dual.entry_count())

    def audience_overlap(self, nodes: Iterable[Node]) -> float:
        """``|⋃ σω_in(v)|`` — distinct users who could have influenced any
        of ``nodes`` (exact count or sketch estimate)."""
        return self._dual.spread(nodes)

    def entry_count(self) -> int:
        """Stored summary entries (sketch pairs for the sketch index)."""
        return self._dual.entry_count()


class _LiveDual(ExactIRS):
    """The exact dual of :class:`StreamingExactIndex`, with live bookkeeping.

    Its :meth:`_apply` does what :meth:`ExactIRS._apply` does, with the
    same summaries and the same obs counters, and also

    * appends every entry it adds or refreshes to :attr:`changes`, while
      a caller collects them (``changes`` is None otherwise);
    * keeps a running entry count, so :meth:`entry_count` is O(1);
    * keeps, per node with a non-empty summary, an upper bound on its λ
      (a lower bound on the channel starts it holds), so
      :meth:`evict_ends_after` visits only summaries that may hold an
      entry past the threshold.

    Every path that fills the dual (``process``, ``process_tied``, the
    tie-batched ``from_log`` scan) goes through :meth:`_apply`, so the
    count and the bounds hold whichever built it.
    """

    def __init__(self, window: int) -> None:
        super().__init__(window)
        self.changes: Optional[List[Change]] = None
        self._entries = 0
        self._ceilings: Dict[Node, int] = {}

    @invariant(post_live_dual_apply)
    def _apply(
        self,
        source: Node,
        target: Node,
        time: int,
        target_summary: Optional[IRSSummary],
    ) -> None:
        recording = _OBS.enabled
        if recording:
            _INTERACTIONS.inc()
        if source == target or self._window == 0:
            self._summary_for(source)
            self._summary_for(target)
            return
        summary = self._summaries.get(source)
        if summary is None:
            summary = self._summaries[source] = IRSSummary()
        entries = summary._entries
        changes = self.changes
        if changes is None:
            changes = []
        added = 0
        # Every λ of ϕ(source) is >= the scan frontier ``time``, so the
        # bound of an empty summary starts there.
        ceiling = self._ceilings.get(source, time)
        # Add(ϕ(u), (v, t)): the direct hop, with the minimal λ.
        if recording:
            _ADD_OPS.inc()
        current = entries.get(target)
        if current is None or time < current:
            entries[target] = time
            changes.append((target, -time, current is None))
            if current is None:
                added += 1
        if target_summary is not None and len(target_summary) > 0:
            # Merge(ϕ(u), ϕ(v), t, ω), as IRSSummary.merge_within does it.
            deadline = time + self._window
            merged = 0
            for node, end_time in target_summary.items():
                if end_time >= deadline or node is source or node == source:
                    continue
                current = entries.get(node)
                if current is None:
                    entries[node] = end_time
                    changes.append((node, -end_time, True))
                    merged += 1
                    if end_time > ceiling:
                        ceiling = end_time
                elif end_time < current:
                    entries[node] = end_time
                    changes.append((node, -end_time, False))
            added += merged
            if recording:
                _MERGES.inc()
                _MERGE_OPS.inc()
                _MERGE_ADDED.inc(merged)
        if added:
            self._entries += added
            self._ceilings[source] = ceiling

    def evict_ends_after(self, threshold: int) -> Dict[Node, int]:
        """Decay sweep: drop entries with ``λ > threshold`` from every summary.

        Visits only the summaries whose λ bound exceeds ``threshold`` and
        leaves each visited bound exact.  Returns how many entries were
        evicted per *reached* node — in the dual, per influencer.
        """
        require_int(threshold, "threshold")
        evicted: Dict[Node, int] = {}
        ceilings = self._ceilings
        stale = [node for node, ceiling in ceilings.items() if ceiling > threshold]
        for node in stale:
            summary = self._summaries[node]
            self._entries -= summary.evict_ends_after_into(threshold, evicted)
            if len(summary):
                ceilings[node] = max(end_time for _, end_time in summary.items())
            else:
                del ceilings[node]
        return evicted

    def entry_count(self) -> int:
        """Total ``(node, λ)`` pairs stored, from the running count."""
        return self._entries


class StreamingExactIndex(_StreamingIndex[ExactIRS]):
    """Exact influenced-by sets, maintained as interactions arrive.

    Parameters
    ----------
    window:
        Maximum channel duration ω.

    Example
    -------
    >>> index = StreamingExactIndex(window=5)
    >>> index.process("a", "b", 1)
    >>> index.process("b", "c", 3)
    >>> sorted(index.influencers("c"))
    ['a', 'b']
    """

    _dual_type = _LiveDual
    _kind = "exact"
    _dual: _LiveDual

    @invariant(post_streaming_process)
    def observe(self, source: Node, target: Node, time: int) -> List[Change]:
        """Feed one interaction; times must be *non-decreasing* (live mode).

        Unlike :meth:`process`, equal stamps are accepted: interactions
        sharing the current stamp are applied against a snapshot of each
        dual summary as it stood when the stamp opened — the incremental
        twin of :meth:`from_log`'s tie batching, so tied edges never chain
        into one channel.  Snapshots are taken lazily at a node's first
        touch within the stamp and dropped when the stamp advances.

        Returns what the step changed: every ``(influencer, start, new)``
        entry of σω_in(target) it added (``new``) or refreshed to a later
        start, at most one per influencer.
        """
        changes: List[Change] = []
        dual = self._dual
        dual.changes = changes
        try:
            self._observe(source, target, time)
        finally:
            dual.changes = None
        return changes

    def influencers(self, node: Node, since: Optional[int] = None) -> set[Node]:
        """``σω_in(node)`` — everyone with an in-budget channel into node.

        With ``since``, only influence along channels *starting* at or
        after ``since`` counts — the sliding-window decay semantics of
        :mod:`repro.ingest.live` (a channel's start is its oldest
        interaction, so every interaction of a counted channel is recent).
        """
        if since is None:
            return self._dual.reachability_set(node)
        require_int(since, "since")
        return {
            influencer
            for influencer, dual_lambda in self._dual.summary(node).items()
            if -dual_lambda >= since
        }

    def influencer_count(self, node: Node, since: Optional[int] = None) -> int:
        """``|σω_in(node)|`` (optionally decayed, see :meth:`influencers`)."""
        if since is None:
            return self._dual.irs_size(node)
        require_int(since, "since")
        return sum(
            1
            for _, dual_lambda in self._dual.summary(node).items()
            if -dual_lambda >= since
        )

    def influencer_starts(self, node: Node) -> Dict[Node, int]:
        """``{influencer: latest channel start}`` as a fresh dict."""
        return {
            influencer: -dual_lambda
            for influencer, dual_lambda in self._dual.summary(node).items()
        }

    def iter_influencer_starts(self, node: Node) -> Iterator[Tuple[Node, int]]:
        """Lazily yield ``(influencer, latest channel start)`` pairs."""
        for influencer, dual_lambda in self._dual.summary(node).items():
            yield influencer, -dual_lambda

    def evict_started_before(self, cutoff: int) -> Dict[Node, int]:
        """Decay sweep: drop every entry whose channel start precedes ``cutoff``.

        Sound *and* complete for the sliding-window semantics: starts are
        fixed once recorded (expiry is monotone), and any future merge
        extending an evicted channel would inherit the same expired start,
        so nothing evicted can ever be needed again.  Returns per-influencer
        eviction counts — the decrements for the live top-k counts.
        """
        require_int(cutoff, "cutoff")
        return self._dual.evict_ends_after(-cutoff)

    def latest_start(self, node: Node, influencer: Node) -> Optional[int]:
        """Latest start time of an in-budget channel ``influencer → node``.

        The dual's λ (minimal dual end time) is the negated maximal
        original start time — later starts are fresher influence.
        """
        dual_lambda = self._dual.summary(node).earliest_end(influencer)
        return -dual_lambda if dual_lambda is not None else None


class StreamingSketchIndex(_StreamingIndex[ApproxIRS]):
    """Sketch-based influenced-by counts, maintained as interactions arrive.

    The memory-bounded sibling of :class:`StreamingExactIndex`: per node a
    versioned HLL over the dual stream, β = ``2**precision`` cells.
    """

    _dual_type = ApproxIRS
    _kind = "sketch"

    def __init__(self, window: int, precision: int = 9, salt: int = 0) -> None:
        super().__init__(window, precision=precision, salt=salt)

    @invariant(post_streaming_process)
    def observe(self, source: Node, target: Node, time: int) -> None:
        """Feed one interaction; times must be *non-decreasing* (live mode).

        Ties are handled as in :meth:`StreamingExactIndex.observe`.
        """
        self._observe(source, target, time)

    @property
    def precision(self) -> int:
        """Sketch index bits."""
        return self._dual.precision

    def influencer_estimate(self, node: Node, since: Optional[int] = None) -> float:
        """Estimated ``|σω_in(node)|``.

        With ``since``, only channels starting at or after ``since`` count
        (dual pair times are negated starts, so the decay bound is an upper
        bound ``-since`` on pair time).
        """
        if since is None:
            return self._dual.irs_estimate(node)
        require_int(since, "since")
        return self._dual.sketch(node).cardinality_within(None, -since)

    def evict_started_before(self, cutoff: int) -> int:
        """Decay sweep: drop pairs whose channel start precedes ``cutoff``.

        Returns the evicted pair count; see
        :meth:`StreamingExactIndex.evict_started_before` for why eviction
        is sound and complete.
        """
        require_int(cutoff, "cutoff")
        return self._dual.prune_ends_after(-cutoff)


def influencers_of(
    log: InteractionLog, node: Node, window: int
) -> set[Node]:
    """One-shot ``σω_in(node)`` for a complete log.

    Convenience wrapper over :class:`StreamingExactIndex` for offline use;
    equivalent to checking ``node ∈ σω(u)`` for every ``u``, at a fraction
    of the cost.
    """
    require_type(log, "log", InteractionLog)
    return StreamingExactIndex.from_log(log, window).influencers(node)
