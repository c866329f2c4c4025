"""The approximate one-pass IRS algorithm (paper §3.2, Algorithm 3).

Identical control flow to :class:`repro.core.exact.ExactIRS` — both run the
reverse chronological scan of :class:`repro.core.scan.ReverseScan` — but
each summary is a :class:`repro.sketch.vhll.VersionedHLL` instead of an
exact map.  The paper's ``ApproxAdd`` / ``ApproxMerge`` become the sketch's
``add_pair`` / ``merge_within``, whose unvalidated kernels the scan calls.

Expected complexity (paper Lemmas 5–6): O(m·β·log²ω) time and
O(n·β·log²ω) space, with β = 2**precision cells per sketch.  The estimate of
``|σω(u)|`` carries HyperLogLog's ≈ ``1.04/√β`` relative standard error;
β = 512 — the paper's default — gives ≈ 4.6 %.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional

import repro.obs as obs
from repro.core.interactions import InteractionLog
from repro.core.scan import ReverseScan
from repro.obs import OBS_STATE as _OBS
from repro.sketch.hashing import split_hash
from repro.sketch.hll import estimate_from_cells
from repro.sketch.vhll import VersionedHLL
from repro.utils.contracts import invariant, post_approx_apply
from repro.utils.validation import require_int, require_non_negative, require_type

__all__ = ["ApproxIRS"]

Node = Hashable

_INTERACTIONS = obs.counter(
    "approx.interactions", "Interactions processed by the sketch reverse scan."
)
_MERGES = obs.counter(
    "approx.merges", "Sketch merges performed by the sketch reverse scan."
)
_ENTRIES = obs.gauge(
    "approx.entries",
    "Total (ρ, t) pairs stored across all sketches — the Table 4 memory quantity.",
)
_THROUGHPUT = obs.gauge(
    "approx.interactions_per_second",
    "Reverse-scan throughput of the last ApproxIRS.from_log build (Fig. 3).",
)
_CELL_LEN = obs.histogram(
    "vhll.cell_list_len",
    "Non-empty vHLL cell version-list lengths — Lemma 4 expects O(log ω) means.",
    buckets=obs.DEFAULT_COUNT_BUCKETS,
)


class ApproxIRS(ReverseScan[VersionedHLL]):
    """Sketch-based influence-reachability-set index.

    Parameters
    ----------
    window:
        Maximum channel duration ω, in time ticks.
    precision:
        Index bits of the underlying sketches; β = ``2**precision`` cells.
        The paper evaluates β ∈ {16 … 512} and defaults to 512
        (precision 9).
    salt:
        Hash-function selector shared by all per-node sketches.

    Notes
    -----
    Unlike the exact index, the sketch cannot exclude channels that loop
    back to their own start node (items are hashed, not named), so a node
    sitting on a cycle of duration ≤ ω counts itself — a +1 overestimate
    for such nodes.  The relative effect vanishes for the large
    reachability sets influence maximization cares about.
    """

    # Restated for repro-lint, which does not resolve the base's type parameter.
    _summaries: Dict[Node, VersionedHLL]

    def __init__(self, window: int, precision: int = 9, salt: int = 0) -> None:
        require_int(window, "window")
        require_non_negative(window, "window")
        super().__init__()
        self._window = window
        self._precision = precision
        self._salt = salt
        # Validate precision/salt once through a throwaway sketch.
        VersionedHLL(precision, salt)
        self._num_cells = 1 << precision
        self._node_hash: Dict[Node, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_log(
        cls,
        log: InteractionLog,
        window: int,
        precision: int = 9,
        salt: int = 0,
    ) -> "ApproxIRS":
        """Build the full index with one reverse pass over ``log``.

        Ties follow :class:`~repro.core.scan.ReverseScan`'s tie rule, exactly
        like :meth:`repro.core.exact.ExactIRS.from_log`.
        """
        require_type(log, "log", InteractionLog)
        index = cls(window, precision, salt)
        build_span = obs.span("approx.build", window=window, precision=precision)
        with build_span:
            index._scan(log)
        if _OBS.enabled:
            _ENTRIES.set(index.entry_count())
            seconds = build_span.duration_ns / 1e9
            if seconds > 0:
                _THROUGHPUT.labels(window=window).set(len(log) / seconds)
            observe = _CELL_LEN.labels(window=window).observe
            for sketch in index._summaries.values():  # O(Σ filled cells)
                for pairs in sketch._cells.values():
                    observe(len(pairs))
        return index

    def prune_ends_after(self, threshold: int) -> int:
        """Decay sweep: drop pairs with ``t > threshold`` from every sketch.

        Returns the number of evicted pairs.  Used by the live dual index,
        where pair times are negated channel starts — pairs above the
        negated horizon certify only channels that began before it.
        """
        require_int(threshold, "threshold")
        evicted = 0
        for sketch in self._summaries.values():  # O(n·β) decay sweep, amortised by sweep_every
            evicted += sketch.prune_newer_than(threshold)
        return evicted

    def _new_summary(self) -> VersionedHLL:
        return VersionedHLL(self._precision, self._salt)

    @invariant(post_approx_apply)
    def _apply(
        self,
        source: Node,
        target: Node,
        time: int,
        target_sketch: Optional[VersionedHLL],
    ) -> None:
        """Algorithm 3's body: ``ApproxAdd`` the hop, ``ApproxMerge`` ϕ(v)."""
        if _OBS.enabled:
            _INTERACTIONS.inc()
        if source == target or self._window == 0:
            self._summary_for(source)
            self._summary_for(target)
            return
        sketch = self._summaries.get(source)
        if sketch is None:
            sketch = self._summaries[source] = self._new_summary()
        # ω was checked by __init__, and ``time`` by the log or by
        # process/process_tied, so the kernels run unvalidated.
        cell, r = self._hash_node(target)
        sketch._insert_pair(cell, (time, r))
        if target_sketch is not None and target_sketch._cells:
            if _OBS.enabled:
                _MERGES.inc()
            sketch._merge_below(target_sketch, time + self._window)

    def _hash_node(self, node: Node) -> tuple[int, int]:
        cached = self._node_hash.get(node)
        if cached is None:
            cached = split_hash(node, self._precision, self._salt)
            self._node_hash[node] = cached
        return cached

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        """The duration budget ω this index was built with."""
        return self._window

    @property
    def precision(self) -> int:
        """Sketch index bits."""
        return self._precision

    @property
    def num_cells(self) -> int:
        """β — cells per sketch."""
        return self._num_cells

    def sketch(self, node: Node) -> VersionedHLL:
        """The versioned sketch of ``node`` (empty for unknown nodes)."""
        found = self._summaries.get(node)
        if found is not None:
            return found
        return VersionedHLL(self._precision, self._salt)

    def registers(self, node: Node) -> list[int]:
        """Flat effective registers of ``node`` — all stored entries count.

        Every pair in a node's sketch was inserted only when its channel met
        the duration budget, so the final estimate uses the per-cell maximum
        over all pairs.
        """
        found = self._summaries.get(node)
        if found is None:
            return [0] * self._num_cells
        return found.effective_registers()

    def register_map(self, node: Node) -> dict[int, int]:
        """``node``'s nonzero registers as ``cell → ρ`` (empty if unknown).

        The sparse form of :meth:`registers`, O(filled cells): what the
        sketch oracle keeps per node.
        """
        found = self._summaries.get(node)
        if found is None:
            return {}
        return found.register_map()

    def irs_estimate(self, node: Node) -> float:
        """Estimated ``|σω(node)|``."""
        found = self._summaries.get(node)
        if found is None:
            return 0.0
        return found.cardinality()

    def irs_estimates(self) -> Dict[Node, float]:
        """Estimated ``|σω(u)|`` for every node."""
        return {node: sketch.cardinality() for node, sketch in self._summaries.items()}

    def spread(self, seeds: Iterable[Node]) -> float:
        """Estimated ``|⋃_{u ∈ seeds} σω(u)|`` via register-wise maxima.

        This is the approximate influence oracle of paper §4.1: unioning
        HyperLogLog sketches is a cell-wise ``max``, so the query cost is
        O(Σ filled cells of the seeds) regardless of network size.  It
        estimates through the same exact estimator as
        :class:`~repro.core.oracle.ApproxInfluenceOracle`, so the two agree
        bit for bit.
        """
        combined: dict[int, int] = {}
        for seed in seeds:  # O(Σ filled cells)
            sketch = self._summaries.get(seed)
            if sketch is None:
                continue
            for cell, r in sketch.register_map().items():
                if r > combined.get(cell, 0):
                    combined[cell] = r
        return estimate_from_cells(combined.values(), self._num_cells)

    def entry_count(self) -> int:
        """Total ``(ρ, t)`` pairs stored across every node's sketch."""
        return sum(sketch.entry_count() for sketch in self._summaries.values())

    def max_cell_length(self) -> int:
        """Longest per-cell version list — empirically O(log ω) (Lemma 4)."""
        longest = 0
        for sketch in self._summaries.values():  # O(Σ filled cells)
            for pairs in sketch._cells.values():
                if len(pairs) > longest:
                    longest = len(pairs)
        return longest

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ApproxIRS(window={self._window}, precision={self._precision}, "
            f"nodes={len(self._summaries)}, entries={self.entry_count()})"
        )
