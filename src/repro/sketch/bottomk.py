"""Bottom-k (min-hash) cardinality sketches, plain and versioned.

The natural competitor of HyperLogLog in this problem space: SKIM (Cohen
et al. 2014) and ConTinEst (Du et al. 2013) both estimate set sizes with
order statistics of hashed items — keep the ``k`` smallest hash values;
with the k-th smallest mapped into (0, 1], the cardinality estimate is
``(k − 1) / h_k``.

Two classes are provided:

* :class:`BottomK` — the textbook sketch: unions by multiset-merging and
  re-truncating; relative standard error ≈ ``1 / sqrt(k − 2)``.
* :class:`VersionedBottomK` — the windowed variant the approximate IRS
  algorithm would need if it were built on bottom-k instead of HLL: every
  retained hash carries the earliest channel end time λ, and merging into
  a predecessor filters by ``λ − t < ω`` like the paper's ApproxMerge.

:class:`VersionedBottomK` is deliberately *naive about eviction*: it keeps
the ``k`` smallest hashes overall, so a hash evicted today cannot
contribute to a later, stricter time filter even when every smaller hash
fails that filter.  Exact windowed merging would require keeping every
``(hash, λ)`` pair not dominated by ``k`` better pairs — a structure whose
size is no longer bounded by ``k``.  This asymmetry is precisely why the
paper versions *HyperLogLog* (one small Pareto list per cell, Lemma 4)
rather than bottom-k; the ablation benchmark quantifies the accuracy the
naive bottom-k loses, using :class:`~repro.core.approx.ApproxIRS`'s exact
counterpart as ground truth.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Hashable, Iterable

from repro.sketch.hashing import MASK64, hash64
from repro.utils.validation import (
    require_at_least,
    require_int,
    require_non_negative,
    require_type,
)

__all__ = ["BottomK", "VersionedBottomK"]


def _unit_hash(item: Hashable, salt: int) -> float:
    """Hash ``item`` into (0, 1]."""
    return (hash64(item, salt) + 1) / (MASK64 + 1)


class BottomK:
    """Keep the ``k`` smallest unit-interval hashes of the items seen.

    Example
    -------
    >>> sketch = BottomK(k=64)
    >>> sketch.update(range(1000))
    >>> 700 < sketch.cardinality() < 1400
    True
    """

    __slots__ = ("_k", "_salt", "_hashes")

    def __init__(self, k: int = 64, salt: int = 0) -> None:
        require_int(k, "k")
        # k >= 3 keeps the (k-1)/h_k estimator's variance bound meaningful.
        require_at_least(k, "k", 3)
        require_type(salt, "salt", int)
        self._k = k
        self._salt = salt
        self._hashes: list[float] = []  # sorted ascending, length <= k

    @property
    def k(self) -> int:
        """Sketch capacity."""
        return self._k

    @property
    def salt(self) -> int:
        """Hash-function selector."""
        return self._salt

    def add(self, item: Hashable) -> None:
        """Add one item."""
        self._insert(_unit_hash(item, self._salt))

    def update(self, items: Iterable[Hashable]) -> None:
        """Add every element of ``items``."""
        for item in items:
            self.add(item)

    def _insert(self, value: float) -> None:
        hashes = self._hashes
        if len(hashes) >= self._k and value >= hashes[-1]:
            return
        position = bisect_left(hashes, value)
        if position < len(hashes) and hashes[position] == value:
            return  # duplicate item
        hashes.insert(position, value)
        if len(hashes) > self._k:
            hashes.pop()

    def merge(self, other: "BottomK") -> None:
        """In-place union."""
        self._check_compatible(other)
        for value in other._hashes:
            self._insert(value)

    def cardinality(self) -> float:
        """The (k−1)/h_k estimate (exact count while undersaturated)."""
        hashes = self._hashes
        if len(hashes) < self._k:
            return float(len(hashes))
        return (self._k - 1) / hashes[-1]

    def is_empty(self) -> bool:
        """True when nothing was added."""
        return not self._hashes

    def __len__(self) -> int:
        return round(self.cardinality())

    def standard_error(self) -> float:
        """Analytic relative standard error ``1/sqrt(k − 2)``."""
        return 1.0 / (self._k - 2) ** 0.5

    def _check_compatible(self, other: "BottomK") -> None:
        require_type(other, "other", BottomK)
        if (self._k, self._salt) != (other._k, other._salt):
            raise ValueError(
                f"cannot merge sketches with different (k, salt): "
                f"({self._k}, {self._salt}) vs ({other._k}, {other._salt})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BottomK(k={self._k}, estimate={self.cardinality():.1f})"


class VersionedBottomK:
    """Bottom-k with per-hash earliest end times and windowed merging.

    The naive windowed bottom-k described in the module docstring: the
    ``k`` smallest hashes are kept, each with the minimal channel end time
    λ seen for it; :meth:`merge_within` transfers only entries whose λ
    fits the receiving channel's budget.  Eviction is by hash alone, which
    makes windowed estimates *approximate from below* in a way the
    versioned HLL is not — measured by the ablation benchmark.
    """

    __slots__ = ("_k", "_salt", "_entries")

    def __init__(self, k: int = 64, salt: int = 0) -> None:
        require_int(k, "k")
        require_at_least(k, "k", 3)
        require_type(salt, "salt", int)
        self._k = k
        self._salt = salt
        self._entries: Dict[float, int] = {}  # hash -> min lambda

    @property
    def k(self) -> int:
        """Sketch capacity."""
        return self._k

    def add(self, item: Hashable, timestamp: int) -> None:
        """Record ``item`` reached by a channel ending at ``timestamp``."""
        require_int(timestamp, "timestamp")
        self._insert(_unit_hash(item, self._salt), timestamp)

    def _insert(self, value: float, timestamp: int) -> None:
        entries = self._entries
        current = entries.get(value)
        if current is not None:
            if timestamp < current:
                entries[value] = timestamp
            return
        if len(entries) >= self._k:
            largest = max(entries)
            if value >= largest:
                return
            del entries[largest]
        entries[value] = timestamp

    def merge_within(
        self, other: "VersionedBottomK", start_time: int, window: int
    ) -> None:
        """Fold ``other`` in, keeping entries with ``λ − start_time < window``."""
        require_type(other, "other", VersionedBottomK)
        if (self._k, self._salt) != (other._k, other._salt):
            raise ValueError("cannot merge sketches with different (k, salt)")
        require_int(start_time, "start_time")
        require_int(window, "window")
        require_non_negative(window, "window")
        deadline = start_time + window
        for value, timestamp in other._entries.items():
            if timestamp < deadline:
                self._insert(value, timestamp)

    def merge(self, other: "VersionedBottomK") -> None:
        """Unconstrained union."""
        require_type(other, "other", VersionedBottomK)
        if (self._k, self._salt) != (other._k, other._salt):
            raise ValueError("cannot merge sketches with different (k, salt)")
        for value, timestamp in other._entries.items():
            self._insert(value, timestamp)

    def copy(self) -> "VersionedBottomK":
        """An independent sketch with the same entries."""
        clone = VersionedBottomK(self._k, self._salt)
        clone._entries = dict(self._entries)
        return clone

    def cardinality(self) -> float:
        """The (k−1)/h_k estimate over the stored entries."""
        entries = self._entries
        if len(entries) < self._k:
            return float(len(entries))
        return (self._k - 1) / max(entries)

    def entry_count(self) -> int:
        """Stored (hash, λ) pairs (≤ k by construction)."""
        return len(self._entries)

    def is_empty(self) -> bool:
        """True when nothing was added."""
        return not self._entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VersionedBottomK(k={self._k}, entries={len(self._entries)}, "
            f"estimate={self.cardinality():.1f})"
        )
