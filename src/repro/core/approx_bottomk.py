"""Alternative approximate IRS backend on bottom-k sketches (ablation).

Same one-pass reverse scan as :class:`~repro.core.approx.ApproxIRS`, with
each node's versioned HLL replaced by a
:class:`~repro.sketch.bottomk.VersionedBottomK`.  Exists to answer, with
numbers, why the paper versions HyperLogLog rather than the bottom-k
sketches its SKIM/ConTinEst competitors use: a bottom-k sketch can only
afford to keep the k smallest hashes, so an evicted (hash, λ) pair is
unavailable to later merges with stricter time filters, biasing windowed
estimates low; the HLL's per-cell Pareto lists retain exactly the pairs
any future window could need at O(log ω) expected extra cost (Lemma 4).

The ablation benchmark builds both indexes at matched memory and compares
their per-node error against the exact IRS.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional

from repro.core.interactions import InteractionLog
from repro.core.scan import ReverseScan
from repro.sketch.bottomk import VersionedBottomK
from repro.utils.validation import require_int, require_non_negative, require_type

__all__ = ["BottomKIRS"]

Node = Hashable


class BottomKIRS(ReverseScan[VersionedBottomK]):
    """Bottom-k-backed influence reachability index (ablation backend).

    Parameters
    ----------
    window:
        Maximum channel duration ω.
    k:
        Bottom-k capacity per node (64 pairs ≈ the memory of a β=512 vHLL
        whose cells hold ~1.5 pairs each).
    salt:
        Hash-function selector.
    """

    # Restated for repro-lint, which does not resolve the base's type parameter.
    _summaries: Dict[Node, VersionedBottomK]

    def __init__(self, window: int, k: int = 64, salt: int = 0) -> None:
        require_int(window, "window")
        require_non_negative(window, "window")
        super().__init__()
        self._window = window
        self._k = k
        self._salt = salt
        VersionedBottomK(k, salt)  # validate parameters eagerly

    @classmethod
    def from_log(
        cls, log: InteractionLog, window: int, k: int = 64, salt: int = 0
    ) -> "BottomKIRS":
        """Build with one reverse pass (ties batched like the other indexes)."""
        require_type(log, "log", InteractionLog)
        index = cls(window, k, salt)
        index._scan(log)
        return index

    def _new_summary(self) -> VersionedBottomK:
        return VersionedBottomK(self._k, self._salt)

    def _apply(
        self,
        source: Node,
        target: Node,
        time: int,
        target_sketch: Optional[VersionedBottomK],
    ) -> None:
        if source == target or self._window == 0:
            self._summary_for(source)
            self._summary_for(target)
            return
        sketch = self._summaries.get(source)
        if sketch is None:
            sketch = self._summaries[source] = self._new_summary()
        sketch.add(target, time)
        if target_sketch is not None and not target_sketch.is_empty():
            sketch.merge_within(target_sketch, time, self._window)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        """The duration budget ω."""
        return self._window

    def irs_estimate(self, node: Node) -> float:
        """Estimated ``|σω(node)|``."""
        found = self._summaries.get(node)
        return found.cardinality() if found is not None else 0.0

    def irs_estimates(self) -> Dict[Node, float]:
        """Estimates for every node."""
        return {node: sk.cardinality() for node, sk in self._summaries.items()}

    def spread(self, seeds: Iterable[Node]) -> float:
        """Estimated union cardinality over the seeds' sketches."""
        combined = VersionedBottomK(self._k, self._salt)
        for seed in seeds:
            sketch = self._summaries.get(seed)
            if sketch is not None:
                combined.merge(sketch)
        return combined.cardinality()

    def entry_count(self) -> int:
        """Total stored (hash, λ) pairs across nodes."""
        return sum(sk.entry_count() for sk in self._summaries.values())
