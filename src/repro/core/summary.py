"""Exact IRS summaries (paper Definition 4 and Lemma 2).

For a node ``u``, the summary ``ϕω(u)`` maps every node ``v`` reachable from
``u`` through an information channel of duration ≤ ω to
``λ(u, v)`` — the minimal *end time* over all such channels.  Keeping the
minimum end time is what makes the one-pass reverse scan work: when a new,
strictly earlier interaction ``(w, u, t)`` arrives, a channel of ``u``
ending at ``λ`` extends to a channel of ``w`` iff ``λ − t + 1 ≤ ω``, and
among all channels to the same node the one with minimal end time is always
the most extendable (it dominates the others — Lemma 2's ``↓`` operator).
"""

from __future__ import annotations

from typing import Dict, Hashable, ItemsView, Iterator, KeysView, Optional

import repro.obs as obs
from repro.obs import OBS_STATE as _OBS
from repro.utils.contracts import invariant, post_summary_add, post_summary_merge
from repro.utils.validation import require_int, require_non_negative, require_type

__all__ = ["IRSSummary"]

Node = Hashable

_ADD_OPS = obs.counter("summary.add_ops", "IRSSummary.add calls (Algorithm 2 Add).")
_MERGE_OPS = obs.counter(
    "summary.merge_ops", "IRSSummary.merge_within calls (Algorithm 2 Merge)."
)
_MERGE_ADDED = obs.counter(
    "summary.merge_added", "Entries newly added to summaries by merge_within."
)


class IRSSummary:
    """Mutable exact summary ``ϕω(u)``: ``{reached node → λ}``.

    The class is agnostic of which node it summarises and of ω; the
    windowing logic lives in :meth:`merge_within`'s arguments, mirroring the
    paper's ``Merge(ϕ(u), ϕ(v), t, ω)`` signature.

    Example
    -------
    >>> phi = IRSSummary()
    >>> phi.add("c", 8)
    >>> phi.add("c", 7)     # an earlier channel end dominates
    >>> phi.earliest_end("c")
    7
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Dict[Node, int]] = None) -> None:
        self._entries: Dict[Node, int] = dict(entries) if entries else {}

    # ------------------------------------------------------------------
    # Updates (paper Algorithm 2's Add / Merge)
    # ------------------------------------------------------------------
    @invariant(post_summary_add)
    def add(self, node: Node, end_time: int) -> None:
        """Record a channel to ``node`` ending at ``end_time``; keep the min.

        This is the paper's ``Add(ϕ(u), (v, t))``.
        """
        require_int(end_time, "end_time")
        if _OBS.enabled:
            _ADD_OPS.inc()
        current = self._entries.get(node)
        if current is None or end_time < current:
            self._entries[node] = end_time

    @invariant(post_summary_merge)
    def merge_within(
        self,
        other: "IRSSummary",
        start_time: int,
        window: int,
        skip: Optional[Node] = None,
    ) -> None:
        """Fold ``other`` into ``self`` under the duration budget.

        This is the paper's ``Merge(ϕ(u), ϕ(v), t, ω)``: every entry
        ``(x, t_x)`` of ``other`` with ``t_x − start_time < window`` (i.e.
        the prepended channel's duration ``t_x − start_time + 1 ≤ ω``) is
        added.  ``skip`` suppresses channels looping back to the summarised
        node itself, which carry no influence.
        """
        require_int(start_time, "start_time")
        require_int(window, "window")
        require_non_negative(window, "window")
        deadline = start_time + window  # keep t_x < deadline
        entries = self._entries
        recording = _OBS.enabled
        before = len(entries) if recording else 0
        for node, end_time in other._entries.items():
            if end_time >= deadline or node is skip or node == skip:
                continue
            current = entries.get(node)
            if current is None or end_time < current:
                entries[node] = end_time
        if recording:
            _MERGE_OPS.inc()
            _MERGE_ADDED.inc(len(entries) - before)

    def evict_ends_after_into(self, threshold: int, counts: Dict[Node, int]) -> int:
        """Drop every entry with ``λ > threshold``, counting each dropped
        node into ``counts``; return how many entries were dropped here.

        This is the decay sweep of the live dual index
        (:mod:`repro.core.streaming`, used by :mod:`repro.ingest.live`):
        dual end times are negated channel *start* times, so entries whose
        λ exceeds the negated horizon certify only channels that began
        before it and can never come back — channel starts are fixed once
        recorded.  The sweep folds every summary's drops into one shared
        dict, the per-influencer decrements of the live counts.
        """
        require_int(threshold, "threshold")
        entries = self._entries
        stale = [node for node, end_time in entries.items() if end_time > threshold]
        for node in stale:
            del entries[node]
            counts[node] = counts.get(node, 0) + 1
        return len(stale)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def earliest_end(self, node: Node) -> Optional[int]:
        """``λ(u, node)``, or ``None`` when ``node`` is not reachable."""
        return self._entries.get(node)

    def nodes(self) -> KeysView[Node]:
        """The influence reachability set ``σω(u)`` as a view."""
        return self._entries.keys()

    def items(self) -> ItemsView[Node, int]:
        """``(node, λ)`` pairs."""
        return self._entries.items()

    def to_dict(self) -> Dict[Node, int]:
        """A copy of the underlying mapping."""
        return dict(self._entries)

    def __contains__(self, node: object) -> bool:
        return node in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IRSSummary):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preview = dict(sorted(self._entries.items(), key=repr)[:4])
        suffix = ", …" if len(self._entries) > 4 else ""
        return f"IRSSummary({preview}{suffix} | {len(self._entries)} nodes)"

    def copy(self) -> "IRSSummary":
        """An independent copy."""
        clone = IRSSummary()
        clone._entries = dict(self._entries)
        return clone

    @classmethod
    def union(cls, *summaries: "IRSSummary") -> "IRSSummary":
        """Pointwise-minimum union of several summaries."""
        result = cls()
        add = result.add
        for summary in summaries:  # O(Σ|ϕ|)
            require_type(summary, "summary", IRSSummary)
            for node, end_time in summary._entries.items():
                add(node, end_time)
        return result
