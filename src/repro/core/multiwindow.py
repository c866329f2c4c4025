"""Multi-window IRS index: one pass, every window (extension).

The paper's indexes fix the duration budget ω up front; asking about a new
ω means another pass over the log (its Table 5 builds one index per window
to compare seed sets).  This module removes that restriction: one reverse
pass builds, per node pair, the **Pareto frontier of channels** — the set
of ``(start, end)`` pairs not dominated by a channel that starts later
*and* ends earlier.  Any window query then reduces to a frontier lookup:

* ``v ∈ σω(u)``  ⇔  some frontier entry has ``end − start + 1 ≤ ω``;
* the fastest channel duration (the smallest such ω) is the frontier's
  minimal duration;
* ``λω(u, v)`` is the earliest ``end`` among entries within the budget.

Why one pass suffices: scanning in reverse time order, every *new* channel
of ``u`` begins with the interaction being processed, so its start time
``t`` is strictly smaller than every start already recorded anywhere.  A
new ``(t, end)`` entry therefore enters ``u``'s frontier for target ``z``
iff ``end`` is strictly smaller than the frontier's current minimal end —
frontiers grow only at the low-start/low-end corner, and each per-pair
frontier is a list with both coordinates strictly decreasing.

Cost: worst case O(n²·F) space where F is the frontier length — strictly
more than :class:`~repro.core.exact.ExactIRS` (which is the special case
that keeps only the minimal-end entry).  The index answers *all* windows,
so it replaces W single-window builds at roughly the cost of the longest.

The merge rule mirrors Lemma 2: prepending ``(u, v, t)`` to a channel of
``v`` with frontier entry ``(s', e')`` requires ``s' > t`` (automatic) and
yields the channel ``(t, e')`` — no duration filter is applied, because
*every* duration is now retained for querying.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.interactions import InteractionLog
from repro.core.scan import ReverseScan
from repro.utils.validation import require_int, require_non_negative, require_type

__all__ = ["MultiWindowIRS"]

Node = Hashable


#: Per-source frontier: ``{target: [(start, end), ...]}``, both coordinates
#: strictly decreasing along each list.
Frontier = Dict[Node, List[Tuple[int, int]]]


class MultiWindowIRS(ReverseScan[Frontier]):
    """Window-free influence reachability index.

    Build once::

        index = MultiWindowIRS.from_log(log)

    then query any window::

        index.reachability_set("a", window=3)
        index.fastest_duration("a", "c")
        index.irs_size("a", window=10)

    Notes
    -----
    Like :class:`~repro.core.exact.ExactIRS`, ties in the input are handled
    by batching equal-stamp interactions against pre-batch snapshots, and
    channels looping back to their start node are excluded.
    """

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_log(cls, log: InteractionLog) -> "MultiWindowIRS":
        """Build the index with one reverse pass over ``log``."""
        require_type(log, "log", InteractionLog)
        index = cls()
        index._scan(log)
        return index

    def _new_summary(self) -> Frontier:
        return {}

    def _copy(self, summary: Frontier) -> Frontier:
        # The per-pair entry lists are mutated in place, so copy them too.
        return {v: list(entries) for v, entries in summary.items()}

    def _apply(
        self,
        source: Node,
        target: Node,
        time: int,
        target_frontier: Optional[Frontier],
    ) -> None:
        if source == target:
            self._summary_for(source)
            self._summary_for(target)
            return
        mine = self._summary_for(source)
        self._insert(mine, target, time, time)
        if target_frontier:
            for reached, entries in target_frontier.items():
                if reached == source:
                    continue
                # The cheapest extension of any of v's channels to `reached`
                # is the one with the earliest end; all extensions share the
                # new start `time`, so only the minimal end matters.
                best_end = entries[-1][1]
                self._insert(mine, reached, time, best_end)

    @staticmethod
    def _insert(
        frontier: Frontier,
        target: Node,
        start: int,
        end: int,
    ) -> None:
        entries = frontier.get(target)
        if entries is None:
            frontier[target] = [(start, end)]
            return
        last_start, last_end = entries[-1]
        if start == last_start:
            # Same batch stamp: keep the smaller end.
            if end < last_end:
                entries[-1] = (start, end)
            return
        # Reverse scan guarantees start < last_start; the new entry joins
        # the frontier iff it strictly improves the minimal end.
        if end < last_end:
            entries.append((start, end))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def frontier(self, source: Node, target: Node) -> List[Tuple[int, int]]:
        """The raw ``(start, end)`` Pareto frontier for one pair."""
        return list(self._summaries.get(source, {}).get(target, ()))

    def fastest_duration(self, source: Node, target: Node) -> Optional[int]:
        """Minimal channel duration ``source → target``; ``None`` if
        unreachable at any window."""
        entries = self._summaries.get(source, {}).get(target)
        if not entries:
            return None
        return min(end - start + 1 for start, end in entries)

    def reaches(self, source: Node, target: Node, window: int) -> bool:
        """``target ∈ σω(source)`` for ω = ``window``."""
        self._check_window(window)
        entries = self._summaries.get(source, {}).get(target)
        if not entries:
            return False
        return any(end - start + 1 <= window for start, end in entries)

    def earliest_end(
        self, source: Node, target: Node, window: int
    ) -> Optional[int]:
        """``λω(source, target)`` — minimal end among in-budget channels."""
        self._check_window(window)
        entries = self._summaries.get(source, {}).get(target)
        if not entries:
            return None
        candidates = [end for start, end in entries if end - start + 1 <= window]
        return min(candidates) if candidates else None

    def reachability_set(self, source: Node, window: int) -> set[Node]:
        """``σω(source)`` for ω = ``window``."""
        self._check_window(window)
        frontier = self._summaries.get(source, {})
        return {
            target
            for target, entries in frontier.items()
            if any(end - start + 1 <= window for start, end in entries)
        }

    def irs_size(self, source: Node, window: int) -> int:
        """``|σω(source)|``."""
        return len(self.reachability_set(source, window))

    def spread(self, seeds: Iterable[Node], window: int) -> int:
        """``|⋃ σω(seed)|`` — the influence-oracle answer at any window."""
        covered: set = set()
        for seed in seeds:
            covered.update(self.reachability_set(seed, window))
        return len(covered)

    def entry_count(self) -> int:
        """Total frontier entries stored (the memory driver)."""
        return sum(
            len(entries)
            for frontier in self._summaries.values()
            for entries in frontier.values()
        )

    def max_frontier_length(self) -> int:
        """Longest per-pair frontier."""
        longest = 0
        for frontier in self._summaries.values():  # O(n²·F)
            for entries in frontier.values():
                length = len(entries)
                if length > longest:
                    longest = length
        return longest

    @staticmethod
    def _check_window(window: int) -> None:
        require_int(window, "window")
        require_non_negative(window, "window")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MultiWindowIRS(nodes={len(self._summaries)}, "
            f"entries={self.entry_count()})"
        )
