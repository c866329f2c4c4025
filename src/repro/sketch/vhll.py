"""Versioned HyperLogLog (vHLL) — the paper's sketch (§3.2.2).

A plain HyperLogLog register keeps a single maximum ρ per cell, which is
enough to estimate the cardinality of *everything ever added*.  The
approximate IRS algorithm, however, repeatedly has to merge the sketch of a
node ``v`` into the sketch of a node ``u`` **restricted to the items whose
channel end time fits u's window** (``t_x − t < ω``).  A single maximum
cannot answer that, so each cell of the versioned sketch stores a small
dominance-pruned list of ``(ρ, t)`` pairs:

* pair ``(ρ', t')`` **dominates** ``(ρ, t)`` iff ``t' ≤ t`` and ``ρ' ≥ ρ`` —
  an earlier end time is usable by strictly more prefix extensions, and a
  larger ρ contributes a larger register value;
* each cell keeps only non-dominated pairs, so in list order of increasing
  ``t`` the ρ values are strictly increasing;
* the expected list length is ``O(log ω)`` (paper Lemma 4): a new item's ρ
  survives only if it exceeds every ρ already present at earlier times, which
  happens with probability ``1/i`` for the i-th item — a harmonic series.

Given any end-time deadline, the effective register of a cell is the ρ of
the *latest* pair not exceeding the deadline, and cardinality estimation
reduces to the standard HLL formula over those effective registers
(:func:`repro.sketch.hll.estimate_from_cells`, over the filled cells only).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Hashable, Iterable, Optional, Sequence

import repro.obs as obs
from repro.obs import OBS_STATE as _OBS
from repro.sketch.hashing import split_hash
from repro.sketch.hll import estimate_from_cells
from repro.utils.contracts import invariant, post_vhll_mutation
from repro.utils.validation import (
    require_in_range,
    require_int,
    require_non_negative,
    require_type,
)

__all__ = ["VersionedHLL"]

_TIME_KEY = lambda pair: pair[0]  # noqa: E731 - bisect key, kept tiny on purpose

#: ``merge``'s deadline: later than every pair time.
_NO_DEADLINE = math.inf

_PAIRS_INSERTED = obs.counter(
    "vhll.pairs_inserted", "Pairs that survived dominance checks and were stored."
)
_PAIRS_DOMINATED = obs.counter(
    "vhll.pairs_dominated", "Incoming pairs dropped because an existing pair dominates."
)
_PAIRS_PRUNED = obs.counter(
    "vhll.pairs_pruned", "Stored pairs evicted because a new pair dominates them."
)


class VersionedHLL:
    """A HyperLogLog whose cells remember *when* each maximum was achieved.

    Parameters
    ----------
    precision:
        Number of index bits; the sketch has ``β = 2**precision`` cells.
        The paper's default is β = 512 (precision 9).
    salt:
        Hash-function selector; only sketches with equal ``(precision, salt)``
        can be merged.

    Notes
    -----
    Timestamps must be integers (the paper models time stamps as natural
    numbers).  Cell lists store ``(t, ρ)`` pairs sorted by strictly
    increasing ``t`` with strictly increasing ρ — the Pareto frontier of the
    dominance order above.

    Cells are sparse: ``_cells`` maps a cell index to its non-empty pair
    list, and an absent key is an empty cell.  A per-node sketch of an
    IRS build fills only a handful of its β cells, so every walk below
    costs O(filled cells) rather than O(β).
    """

    __slots__ = ("_precision", "_m", "_salt", "_cells")

    def __init__(self, precision: int = 9, salt: int = 0) -> None:
        require_int(precision, "precision")
        require_in_range(precision, "precision", 2, 20)
        require_type(salt, "salt", int)
        self._precision = precision
        self._m = 1 << precision
        self._salt = salt
        # Filled cells only: cell index -> non-empty list of (t, rho) pairs.
        # Never holds an empty list; pruning deletes the key instead.
        self._cells: dict[int, list[tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def precision(self) -> int:
        """Number of index bits."""
        return self._precision

    @property
    def num_cells(self) -> int:
        """Number of cells ``β``."""
        return self._m

    @property
    def salt(self) -> int:
        """Hash-function salt."""
        return self._salt

    def entry_count(self) -> int:
        """Total number of ``(t, ρ)`` pairs stored across all cells.

        This is the quantity the memory-accounting experiment (paper Table 4)
        tracks: each pair costs a constant number of machine words.
        """
        return sum(map(len, self._cells.values()))

    def cell_lengths(self) -> list[int]:
        """Per-cell list lengths (used to validate Lemma 4 empirically)."""
        lengths = [0] * self._m
        for index, pairs in self._cells.items():
            lengths[index] = len(pairs)
        return lengths

    def is_empty(self) -> bool:
        """True if no pair is stored."""
        return not self._cells

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, item: Hashable, timestamp: int) -> None:
        """Record that ``item`` was reached by a channel ending at ``timestamp``."""
        self._check_time(timestamp)
        cell, r = split_hash(item, self._precision, self._salt)
        self.add_pair(cell, r, timestamp)

    @invariant(post_vhll_mutation)
    def add_pair(self, cell: int, r: int, timestamp: int) -> None:
        """Insert a raw ``(ρ=r, t=timestamp)`` pair into ``cell``.

        Implements the paper's ``ApproxAdd``: the pair is dropped if an
        existing pair dominates it; otherwise every pair it dominates is
        removed and the new pair is spliced in, preserving the sorted
        Pareto-frontier invariant.
        """
        self._check_time(timestamp)
        if not 0 <= cell < self._m:
            raise ValueError(f"cell must be in [0, {self._m}), got {cell}")
        self._insert_pair(cell, (timestamp, r))

    def _insert_pair(self, cell: int, pair: tuple[int, int]) -> None:
        """Splice one ``pair = (t, ρ)`` into ``cell``; no argument validation.

        The single-pair form of :meth:`_merge_below`'s splice, for callers
        that checked ``cell`` and ``t`` themselves.
        """
        pairs = self._cells.get(cell)
        if pairs is None:
            self._cells[cell] = [pair]
            if _OBS.enabled:
                _PAIRS_INSERTED.inc()
            return
        timestamp, r = pair
        # Position of the first pair with t >= timestamp.
        i = bisect_left(pairs, (timestamp,))
        # A dominating pair has t' <= timestamp and rho' >= r.  Pairs are
        # rho-increasing, so only the latest such pair can dominate.  A pair
        # at position i with t' == timestamp also has t' <= timestamp.
        if i < len(pairs) and pairs[i][0] == timestamp:
            if pairs[i][1] >= r:
                if _OBS.enabled:
                    _PAIRS_DOMINATED.inc()
                return
        elif i > 0 and pairs[i - 1][1] >= r:
            if _OBS.enabled:
                _PAIRS_DOMINATED.inc()
            return
        # Remove pairs the new one dominates: t'' >= timestamp and rho'' <= r
        # (a same-time pair with smaller rho included).  They form a
        # contiguous run starting at i (rho increases with t).
        j = i
        n = len(pairs)
        while j < n and pairs[j][1] <= r:
            j += 1
        pairs[i:j] = [pair]
        if _OBS.enabled:
            _PAIRS_INSERTED.inc()
            if j > i:
                _PAIRS_PRUNED.inc(j - i)

    def _merge_below(self, other: "VersionedHLL", deadline: float) -> None:
        """Insert every pair of ``other`` with ``t < deadline``; no validation.

        The one merge kernel behind :meth:`merge`, :meth:`merge_within`
        and the IRS build.  It leaves the same cells, and counts the same
        inserted, dominated and pruned pairs, as one :meth:`_insert_pair`
        per donor pair below the deadline, without a call per pair:

        * a donor cell whose first pair is at or past the deadline is
          skipped at the cost of one comparison;
        * an absent receiving cell takes a copy of the donor's pairs
          below the deadline (a frontier stays a frontier);
        * otherwise each pair runs the dominance test and the splice
          inline, with a direct path for one-pair cells — Lemma 4 keeps
          most cells that short.

        Pairs are immutable, so both sketches share the tuples.  The pair
        counters are flushed once per call.
        """
        cells = self._cells
        inserted = dominated = pruned = 0
        for index, donor in other._cells.items():  # O(filled cells·F)
            if donor[0][0] >= deadline:
                continue  # pairs are time-sorted; the whole cell is too late
            pairs = cells.get(index)
            if pairs is None:
                pairs = cells[index] = donor[: bisect_left(donor, (deadline,))]
                inserted += len(pairs)
                continue
            for pair in donor:
                t, r = pair
                if t >= deadline:
                    break
                n = len(pairs)
                if n == 1:
                    t0, r0 = pairs[0]
                    if t0 <= t:
                        if r0 >= r:
                            dominated += 1
                            continue
                        if t0 == t:
                            pairs[0] = pair
                            pruned += 1
                        else:
                            pairs.append(pair)
                    elif r0 <= r:
                        pairs[0] = pair
                        pruned += 1
                    else:
                        pairs.insert(0, pair)
                    inserted += 1
                    continue
                # Position of the first pair with t' >= t.
                i = bisect_left(pairs, (t,))
                if i < n and pairs[i][0] == t:
                    if pairs[i][1] >= r:
                        dominated += 1
                        continue
                elif i and pairs[i - 1][1] >= r:
                    dominated += 1
                    continue
                # The run the new pair dominates: t' >= t and rho' <= r
                # (a same-time pair with smaller rho included).
                j = i
                while j < n and pairs[j][1] <= r:
                    j += 1
                pairs[i:j] = (pair,)
                inserted += 1
                pruned += j - i
        if _OBS.enabled:
            if inserted:
                _PAIRS_INSERTED.inc(inserted)
            if dominated:
                _PAIRS_DOMINATED.inc(dominated)
            if pruned:
                _PAIRS_PRUNED.inc(pruned)

    @invariant(post_vhll_mutation)
    def merge(self, other: "VersionedHLL") -> None:
        """In-place union with ``other`` (no time constraint).

        Used by the influence oracle when combining the final sketches of
        several seed nodes (paper §4.1).
        """
        self._check_compatible(other)
        self._merge_below(other, _NO_DEADLINE)

    @invariant(post_vhll_mutation)
    def merge_within(self, other: "VersionedHLL", start_time: int, window: int) -> None:
        """Merge ``other`` keeping only pairs with ``t − start_time < window``.

        This is the paper's ``ApproxMerge``: when an interaction
        ``(u, v, start_time)`` is processed, ``v``'s sketch is folded into
        ``u``'s, but a channel through ``v`` ending at ``t`` only fits u's
        duration budget when ``t − start_time + 1 ≤ ω``.
        """
        self._check_compatible(other)
        self._check_time(start_time)
        require_int(window, "window")
        require_non_negative(window, "window")
        self._merge_below(other, start_time + window)  # exclusive: keep t < deadline

    def prune_newer_than(self, max_time: int) -> int:
        """Discard pairs with ``t > max_time``; return the eviction count.

        Safe once no query or merge will ever care about pairs later than
        ``max_time`` again.  That is exactly the decay situation of the
        live dual index (:mod:`repro.ingest.live`): dual stamps are
        negated channel starts, the decay horizon only moves forward, so
        its negation only moves down — pairs above today's cutoff are
        above every future cutoff too.  Pruned pairs are the highest-t
        (hence highest-ρ) suffix of each cell, so the sorted
        Pareto-frontier invariant survives, and since the latest pair of a
        cell dominates nothing, no surviving pair's presence depended on
        a pruned one.
        """
        require_int(max_time, "max_time")
        evicted = 0
        emptied = []
        for index, pairs in self._cells.items():
            size = len(pairs)
            cut = bisect_right(pairs, max_time, key=_TIME_KEY)
            if cut < size:
                evicted += size - cut
                if cut:
                    del pairs[cut:]
                else:
                    emptied.append(index)
        for index in emptied:
            del self._cells[index]
        return evicted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def effective_registers(
        self,
        min_time: Optional[int] = None,
        max_time: Optional[int] = None,
    ) -> list[int]:
        """Per-cell maximum ρ over pairs with ``min_time ≤ t ≤ max_time``.

        ``None`` bounds are unconstrained.  Because ρ increases with ``t``
        within a cell, the qualifying pair with the largest ``t`` carries the
        maximum ρ, so each filled cell is answered with one bisection.
        """
        registers = [0] * self._m
        self.max_registers_into(registers, min_time, max_time)
        return registers

    def max_registers_into(
        self,
        registers: list[int],
        min_time: Optional[int] = None,
        max_time: Optional[int] = None,
    ) -> None:
        """Cell-wise ``registers[i] = max(registers[i], effective ρ of cell i)``.

        The allocation-free form of :meth:`effective_registers` for union
        queries: the oracle folds many sketches into one accumulator array
        without materialising an intermediate register list per sketch.
        ``registers`` must have length ``num_cells``.
        """
        if len(registers) != self._m:
            raise ValueError(
                f"registers has length {len(registers)}, expected {self._m}"
            )
        for cell, pairs in self._cells.items():
            hi = len(pairs)
            if max_time is not None:
                hi = bisect_right(pairs, max_time, key=_TIME_KEY)
            if hi == 0:
                continue
            t, r = pairs[hi - 1]
            if min_time is not None and t < min_time:
                continue
            if r > registers[cell]:
                registers[cell] = r

    def register_map(
        self,
        min_time: Optional[int] = None,
        max_time: Optional[int] = None,
    ) -> dict[int, int]:
        """The nonzero effective registers as ``cell → ρ``, filled cells only.

        The sparse form of :meth:`effective_registers`: a cell appears iff
        some pair lies inside the time bounds, so the map costs
        O(filled cells) to build and to hold, not O(β).
        """
        if min_time is None and max_time is None:
            return {cell: pairs[-1][1] for cell, pairs in self._cells.items()}
        registers: dict[int, int] = {}
        for cell, pairs in self._cells.items():
            hi = len(pairs)
            if max_time is not None:
                hi = bisect_right(pairs, max_time, key=_TIME_KEY)
            if hi == 0:
                continue
            t, r = pairs[hi - 1]
            if min_time is not None and t < min_time:
                continue
            registers[cell] = r
        return registers

    def cardinality(self) -> float:
        """Estimate of the number of distinct items ever added."""
        return estimate_from_cells(self.register_map().values(), self._m)

    def cardinality_within(self, min_time: Optional[int] = None, max_time: Optional[int] = None) -> float:
        """Cardinality estimate restricted to pairs inside the time bounds."""
        return estimate_from_cells(
            self.register_map(min_time, max_time).values(), self._m
        )

    def __len__(self) -> int:
        """The all-time cardinality estimate, rounded."""
        return round(self.cardinality())

    def copy(self) -> "VersionedHLL":
        """An independent deep copy (cell lists are not shared)."""
        clone = VersionedHLL(self._precision, self._salt)
        clone._cells = {index: list(pairs) for index, pairs in self._cells.items()}
        return clone

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable representation with all β cells, empty or not."""
        return {
            "precision": self._precision,
            "salt": self._salt,
            "cells": [list(map(list, self._cells.get(index, ()))) for index in range(self._m)],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "VersionedHLL":
        """Inverse of :meth:`to_dict`, with invariant checking."""
        precision, salt, cells = payload["precision"], payload["salt"], payload["cells"]
        expected = cls(precision, salt).num_cells
        if len(cells) != expected:
            raise ValueError(f"cell array has length {len(cells)}, expected {expected}")
        return cls.from_filled_cells(
            precision, salt, [(index, pairs) for index, pairs in enumerate(cells) if pairs]
        )

    def filled_cells(self) -> list[list]:
        """The filled cells only, as ``[cell, [[t, ρ], …]]`` in cell order.

        The compact JSON form the ``vhll`` snapshot kind stores: a per-node
        sketch of an IRS build fills a handful of its β cells, so this
        costs O(filled cells) where :meth:`to_dict` writes all β.
        """
        return [
            [index, list(map(list, self._cells[index]))] for index in sorted(self._cells)
        ]

    @classmethod
    def from_filled_cells(
        cls, precision: int, salt: int, filled: Iterable[Sequence]
    ) -> "VersionedHLL":
        """Inverse of :meth:`filled_cells`, with invariant checking.

        Rejects a cell index outside ``[0, β)``, a cell listed twice and
        a pair list that is not a strict Pareto frontier.
        """
        sketch = cls(precision, salt)
        for entry in filled:  # O(filled cells·F)
            index, raw_pairs = entry
            require_int(index, "cell index")
            if not 0 <= index < sketch._m:
                raise ValueError(f"cell index {index} outside [0, {sketch._m})")
            if index in sketch._cells:
                raise ValueError(f"cell {index} is listed twice")
            if not raw_pairs:
                raise ValueError(f"cell {index} is listed without pairs")
            previous_t: Optional[int] = None
            previous_r: Optional[int] = None
            for t, r in raw_pairs:
                if previous_t is not None and (t <= previous_t or r <= previous_r):
                    raise ValueError(
                        f"cell {index} violates the Pareto-frontier invariant"
                    )
                sketch.add_pair(index, r, t)
                previous_t, previous_r = t, r
        return sketch

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "VersionedHLL") -> None:
        require_type(other, "other", VersionedHLL)
        if other._precision != self._precision or other._salt != self._salt:
            raise ValueError(
                "cannot combine sketches with different precision/salt: "
                f"({self._precision}, {self._salt}) vs ({other._precision}, {other._salt})"
            )

    @staticmethod
    def _check_time(timestamp: int) -> None:
        require_int(timestamp, "timestamp")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VersionedHLL(precision={self._precision}, salt={self._salt}, "
            f"entries={self.entry_count()}, estimate={self.cardinality():.1f})"
        )
