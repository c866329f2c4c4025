"""The exact one-pass IRS algorithm (paper §3.1, Algorithm 2).

The algorithm scans the interaction log **in reverse chronological order**.
By Lemma 1, adding an interaction ``(u, v, t)`` whose time stamp precedes
everything processed so far can only change the summary of ``u``; the update
rule (Lemma 2) is::

    ϕ'(u) = ↓( {(v, t)} ∪ ϕ(u) ∪ {(z, t') ∈ ϕ(v) | t' − t + 1 ≤ ω} )

i.e. add the direct hop, then fold in every channel of ``v`` that still fits
the duration budget when prepended with the new edge; ``↓`` keeps, per
target, only the minimal end time.

Worst-case cost is O(m·n) time and O(n²) space (Lemma 3) — the price of
exactness that motivates the sketch-based variant in
:mod:`repro.core.approx`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional

import repro.obs as obs
from repro.core.interactions import InteractionLog
from repro.core.scan import ReverseScan
from repro.core.summary import IRSSummary
from repro.obs import OBS_STATE as _OBS
from repro.utils.contracts import invariant, post_exact_apply
from repro.utils.validation import require_int, require_non_negative, require_type

__all__ = ["ExactIRS"]

Node = Hashable

_INTERACTIONS = obs.counter(
    "exact.interactions", "Interactions processed by the exact reverse scan."
)
_MERGES = obs.counter(
    "exact.merges", "Summary merges performed by the exact reverse scan."
)
_ENTRIES = obs.gauge(
    "exact.entries", "Total (node, λ) entries stored in the exact index — Lemma 3's O(n²)."
)
_THROUGHPUT = obs.gauge(
    "exact.interactions_per_second",
    "Reverse-scan throughput of the last ExactIRS.from_log build (Fig. 3).",
)


class ExactIRS(ReverseScan[IRSSummary]):
    """Exact influence-reachability-set index over an interaction log.

    Build it in one call::

        index = ExactIRS.from_log(log, window=omega)

    or incrementally by feeding interactions in reverse chronological order
    through :meth:`process` — the paper's "one-pass but not streaming" mode,
    where each processed interaction must be older than all previous ones.

    Parameters
    ----------
    window:
        Maximum channel duration ω, in time ticks.
    """

    # Restated for repro-lint, which does not resolve the base's type parameter.
    _summaries: Dict[Node, IRSSummary]

    def __init__(self, window: int) -> None:
        require_int(window, "window")
        require_non_negative(window, "window")
        super().__init__()
        self._window = window

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_log(cls, log: InteractionLog, window: int) -> "ExactIRS":
        """Build the full index with one reverse pass over ``log``.

        Tied time stamps are handled by :class:`~repro.core.scan.ReverseScan`'s
        tie rule: two tied interactions can never chain into one channel.
        """
        require_type(log, "log", InteractionLog)
        index = cls(window)
        build_span = obs.span("exact.build", window=window)
        with build_span:
            index._scan(log)
        if _OBS.enabled:
            _ENTRIES.set(index.entry_count())
            seconds = build_span.duration_ns / 1e9
            if seconds > 0:
                _THROUGHPUT.labels(window=window).set(len(log) / seconds)
        return index

    def evict_ends_after(self, threshold: int) -> Dict[Node, int]:
        """Decay sweep: drop entries with ``λ > threshold`` from every summary.

        Returns how many entries were evicted per *reached* node, which is
        exactly the per-influencer decrement the live index's incremental
        top-k counts need (the index is used as a time-and-direction dual
        there, so "reached node" means influencer).
        """
        require_int(threshold, "threshold")
        evicted: Dict[Node, int] = {}
        for summary in self._summaries.values():  # O(n·|σ|) decay sweep, amortised by sweep_every
            summary.evict_ends_after_into(threshold, evicted)
        return evicted

    def _new_summary(self) -> IRSSummary:
        return IRSSummary()

    @invariant(post_exact_apply)
    def _apply(
        self,
        source: Node,
        target: Node,
        time: int,
        target_summary: Optional[IRSSummary],
    ) -> None:
        """Algorithm 2's body: ``Add(ϕ(u), (v, t)); Merge(ϕ(u), ϕ(v), t, ω)``."""
        if _OBS.enabled:
            _INTERACTIONS.inc()
        if source == target or self._window == 0:
            # Self-loops carry no influence; with ω = 0 even a single edge
            # (duration 1) exceeds the budget.
            self._summary_for(source)
            self._summary_for(target)
            return
        summary = self._summaries.get(source)
        if summary is None:
            summary = self._summaries[source] = IRSSummary()
        summary.add(target, time)
        if target_summary is not None and len(target_summary) > 0:
            if _OBS.enabled:
                _MERGES.inc()
            summary.merge_within(target_summary, time, self._window, skip=source)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        """The duration budget ω this index was built with."""
        return self._window

    def summary(self, node: Node) -> IRSSummary:
        """``ϕω(node)``; an empty summary for unknown nodes."""
        found = self._summaries.get(node)
        return found if found is not None else IRSSummary()

    def reachability_set(self, node: Node) -> set[Node]:
        """``σω(node)`` as a concrete set."""
        return set(self.summary(node).nodes())

    def irs_size(self, node: Node) -> int:
        """``|σω(node)|``."""
        return len(self.summary(node))

    def irs_sizes(self) -> Dict[Node, int]:
        """``|σω(u)|`` for every node of the index."""
        return {node: len(summary) for node, summary in self._summaries.items()}

    def spread(self, seeds: Iterable[Node]) -> int:
        """``|⋃_{u ∈ seeds} σω(u)|`` — the exact influence-oracle answer."""
        covered: set[Node] = set()
        for seed in seeds:
            covered.update(self.summary(seed).nodes())
        return len(covered)

    def entry_count(self) -> int:
        """Total number of ``(node, λ)`` pairs stored — the O(n²) quantity."""
        return sum(len(summary) for summary in self._summaries.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExactIRS(window={self._window}, nodes={len(self._summaries)}, "
            f"entries={self.entry_count()})"
        )
