"""Sliding-window HyperLogLog (Kumar, Calders, Gionis & Tatti, ECML-PKDD
2015 — the paper's ref [15], whose construction the versioned HLL adapts).

Counts distinct items over *time-based sliding windows* of a forward
stream: after feeding items with non-decreasing timestamps, the sketch can
estimate "how many distinct items arrived in ``[start, now]``" for **any**
``start`` — one sketch answers every window length at once.

The trick mirrors :mod:`repro.sketch.vhll` with the time axis flipped.
Each cell keeps the Pareto frontier of ``(timestamp, ρ)`` pairs under the
dominance "newer and larger ρ wins": a pair survives only while it holds
the maximum ρ for *some* suffix window.  Stored in arrival order the
timestamps increase and the ρ values strictly decrease, so

* inserting prunes a suffix of the list (amortised O(1) per arrival), and
* a window query binary-searches the first pair inside the window — whose
  ρ is the window's register value — in O(log log n) expected.

Expected list length is O(log W) for windows of W arrivals, by the same
record-value argument as the paper's Lemma 4.  Cells are sparse, as in
:class:`~repro.sketch.vhll.VersionedHLL`: only filled cells are stored,
so pruning and register queries cost O(filled cells), not O(β).

Every update goes through one hash-free insert kernel on a raw
``(cell, ρ, t)`` pair.  :meth:`add` (forward feed) and :meth:`add_at`
(any order) hash the item and call it; :meth:`add_pair` is the kernel's
public face, for callers that insert one item into many sketches and so
hash it once (the live influence tracker of :mod:`repro.ingest.live`
feeds each event's target to every influencer it reached).  The kernel
appends when the pair is at least as new as its cell's newest pair and
binary-searches otherwise; the frontier does not depend on the order.

The sketch also keeps a lower bound on its oldest stored pair time.
Inserts lower it and :meth:`prune` resets it to the exact oldest time,
so a prune with nothing older than its cutoff returns at once instead
of visiting every filled cell.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Hashable, Optional

from repro.sketch.hashing import split_hash
from repro.sketch.hll import estimate_from_cells
from repro.utils.validation import require_in_range, require_int, require_type

__all__ = ["SlidingWindowHLL"]

_TIME = itemgetter(0)


class SlidingWindowHLL:
    """HyperLogLog over every suffix window of a forward stream.

    Parameters
    ----------
    precision:
        Index bits; β = ``2**precision`` cells.
    salt:
        Hash-function selector.

    Example
    -------
    >>> sketch = SlidingWindowHLL(precision=8)
    >>> for t in range(1000):
    ...     sketch.add(f"user-{t % 400}", timestamp=t)
    >>> 300 < sketch.cardinality_since(600) < 500   # last 400 ticks
    True
    """

    __slots__ = ("_precision", "_m", "_salt", "_cells", "_last_time", "_oldest")

    def __init__(self, precision: int = 9, salt: int = 0) -> None:
        require_int(precision, "precision")
        require_in_range(precision, "precision", 2, 20)
        require_type(salt, "salt", int)
        self._precision = precision
        self._m = 1 << precision
        self._salt = salt
        # Filled cells only: cell index -> non-empty list of (timestamp, rho),
        # timestamps increasing and rho strictly decreasing (the
        # suffix-maxima frontier).  Pruning deletes a cell's key once empty.
        self._cells: dict[int, list[tuple[int, int]]] = {}
        self._last_time: Optional[int] = None
        # A lower bound on every stored pair time (None when empty).
        self._oldest: Optional[int] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def precision(self) -> int:
        """Number of index bits."""
        return self._precision

    @property
    def num_cells(self) -> int:
        """β — number of cells."""
        return self._m

    @property
    def last_time(self) -> Optional[int]:
        """Timestamp of the most recent arrival (None when empty)."""
        return self._last_time

    def entry_count(self) -> int:
        """Stored ``(t, ρ)`` pairs across all cells."""
        return sum(map(len, self._cells.values()))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, item: Hashable, timestamp: int) -> None:
        """Feed one arrival; timestamps must be non-decreasing."""
        require_int(timestamp, "timestamp")
        if self._last_time is not None and timestamp < self._last_time:
            raise ValueError(
                f"stream must be fed in time order: got t={timestamp} "
                f"after t={self._last_time}"
            )
        cell, r = split_hash(item, self._precision, self._salt)
        self._insert(cell, r, timestamp)

    def add_at(self, item: Hashable, timestamp: int) -> None:
        """Like :meth:`add`, but accepts out-of-order timestamps.

        The live influence tracker (:mod:`repro.ingest.live`) feeds each
        node's sketch with *channel start times*, which do not arrive
        monotonically: a late interaction can extend a channel that began
        long ago.  The dominance frontier is the same as for a sorted feed.
        """
        require_int(timestamp, "timestamp")
        cell, r = split_hash(item, self._precision, self._salt)
        self._insert(cell, r, timestamp)

    def add_pair(self, cell: int, r: int, timestamp: int) -> None:
        """Insert a raw ``(t=timestamp, ρ=r)`` pair into ``cell``, in any order.

        The hash-free form of :meth:`add_at`: ``cell, r`` are what
        :func:`~repro.sketch.hashing.split_hash` gives for the item at
        this sketch's precision and salt.
        """
        require_int(timestamp, "timestamp")
        if not 0 <= cell < self._m:
            raise ValueError(f"cell must be in [0, {self._m}), got {cell}")
        self._insert(cell, r, timestamp)

    def _insert(self, cell: int, r: int, timestamp: int) -> None:
        """The insert kernel: splice ``(timestamp, r)`` into ``cell``'s
        frontier; no argument validation."""
        if self._last_time is None or timestamp > self._last_time:
            self._last_time = timestamp
        pairs = self._cells.get(cell)
        if pairs is None:
            self._cells[cell] = [(timestamp, r)]
            if self._oldest is None or timestamp < self._oldest:
                self._oldest = timestamp
            return
        if timestamp >= pairs[-1][0]:
            # Append path.  Remove every trailing pair with rho <= r: the
            # new pair is at least as recent AND at least as large, so it
            # dominates them.
            while pairs and pairs[-1][1] <= r:
                pairs.pop()
            if pairs and pairs[-1][0] == timestamp:
                # A same-time pair with larger rho dominates the arrival.
                return
            pairs.append((timestamp, r))
            return
        i = bisect_left(pairs, timestamp, key=_TIME)
        # At most one stored pair can share this timestamp (same-t pairs
        # dominate each other); it sits exactly at position i.
        if pairs[i][0] == timestamp:
            if pairs[i][1] >= r:
                return
            del pairs[i]
        # rho decreases with t, so pairs[i] holds the max rho of every
        # strictly newer pair: it alone decides domination of the new pair.
        if i < len(pairs) and pairs[i][1] >= r:
            return
        # Strictly older pairs with rho <= r are dominated by the new pair;
        # they form a contiguous run ending at i.
        j = i
        while j > 0 and pairs[j - 1][1] <= r:
            j -= 1
        pairs[j:i] = [(timestamp, r)]
        if self._oldest is None or timestamp < self._oldest:
            self._oldest = timestamp

    def prune(self, before: int) -> None:
        """Discard pairs with ``t < before``.

        Safe once only windows starting at or after ``before`` will ever be
        queried: a pair older than every future window start can never be a
        window's register again.  Call periodically to bound memory when
        tracking an endless stream with a fixed maximum window length.
        """
        require_int(before, "before")
        if self._oldest is None or self._oldest >= before:
            return  # nothing stored is older than ``before``
        emptied = []
        oldest: Optional[int] = None
        for index, pairs in self._cells.items():
            cut = bisect_left(pairs, before, key=_TIME)
            if cut == len(pairs):
                emptied.append(index)
                continue
            if cut:
                del pairs[:cut]
            if oldest is None or pairs[0][0] < oldest:
                oldest = pairs[0][0]
        for index in emptied:
            del self._cells[index]
        self._oldest = oldest

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def register_map(self, start: Optional[int] = None) -> dict[int, int]:
        """Nonzero registers over arrivals with ``t >= start`` as ``cell → ρ``.

        Within a cell the frontier's ρ decreases with time, so the first
        pair inside the window carries the maximum.  Only filled cells
        appear; ``start=None`` covers the whole stream.
        """
        if start is None:
            return {cell: pairs[0][1] for cell, pairs in self._cells.items()}
        registers: dict[int, int] = {}
        for cell, pairs in self._cells.items():
            index = bisect_left(pairs, start, key=_TIME)
            if index < len(pairs):
                registers[cell] = pairs[index][1]
        return registers

    def registers_since(self, start: int) -> list[int]:
        """Per-cell max ρ over arrivals with ``t >= start`` (dense β list)."""
        registers = [0] * self._m
        for cell, value in self.register_map(start).items():
            registers[cell] = value
        return registers

    def cardinality_since(self, start: int) -> float:
        """Estimated distinct items among arrivals with ``t >= start``."""
        return estimate_from_cells(self.register_map(start).values(), self._m)

    def registers(self) -> list[int]:
        """Per-cell max ρ over the whole stream (the plain HLL registers)."""
        registers = [0] * self._m
        for cell, pairs in self._cells.items():
            registers[cell] = pairs[0][1]
        return registers

    def cardinality(self) -> float:
        """Estimated distinct items over the whole stream seen so far."""
        return estimate_from_cells(self.register_map().values(), self._m)

    def __len__(self) -> int:
        """Whole-stream estimate, rounded."""
        return round(self.cardinality())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SlidingWindowHLL(precision={self._precision}, "
            f"entries={self.entry_count()}, last_time={self._last_time})"
        )
