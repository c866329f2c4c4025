"""Influence oracles (paper §4.1, Definition 3).

Given the per-node influence reachability sets (or their sketches), an
**influence oracle** answers: for a seed set ``S ⊆ V``, what is
``Inf(S) = |⋃_{u∈S} σω(u)|``?

Two interchangeable implementations are provided behind a common interface:

* :class:`ExactInfluenceOracle` — backed by concrete Python sets, exact
  answers, O(Σ|σ(u)|) per query;
* :class:`ApproxInfluenceOracle` — backed by each node's filled HyperLogLog
  registers, ≈ 1.04/√β relative error, O(Σ_{u∈S} filled cells of u) per
  query — *independent of the network size* (the property paper Figure 4
  demonstrates) and of β.

Both expose an *accumulator* API (``new_accumulator`` / ``accumulate`` /
``value``) so the greedy maximization in :mod:`repro.core.maximization` can
grow a covered-union incrementally instead of recomputing unions from
scratch at every marginal-gain evaluation.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Iterable, List, Set, Tuple

import repro.obs as obs
from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS
from repro.obs import OBS_STATE as _OBS
from repro.sketch.hll import INDICATOR_SHIFT, estimate_from_indicator
from repro.utils.validation import require_int, require_type

__all__ = [
    "InfluenceOracle",
    "ExactInfluenceOracle",
    "ApproxInfluenceOracle",
]

Node = Hashable

_QUERY_SECONDS = obs.histogram(
    "oracle.query_seconds",
    "Influence-oracle query latency by oracle kind and operation (Fig. 4).",
)
_QUERY_SEEDS = obs.histogram(
    "oracle.query_seeds",
    "Seed-set sizes handed to oracle spread queries.",
    buckets=obs.DEFAULT_COUNT_BUCKETS,
)


class InfluenceOracle(abc.ABC):
    """Abstract interface shared by the exact and sketch-backed oracles."""

    @abc.abstractmethod
    def nodes(self) -> Iterable[Node]:
        """Every node the oracle can answer about."""

    @abc.abstractmethod
    def influence(self, node: Node) -> float:
        """``|σω(node)|`` (or its estimate)."""

    @abc.abstractmethod
    def spread(self, seeds: Iterable[Node]) -> float:
        """``|⋃_{u∈seeds} σω(u)|`` (or its estimate)."""

    # -- incremental accumulator API ------------------------------------
    @abc.abstractmethod
    def new_accumulator(self) -> object:
        """An empty covered-union state."""

    @abc.abstractmethod
    def accumulate(self, state: object, node: Node) -> None:
        """Fold ``σω(node)`` into ``state`` in place."""

    @abc.abstractmethod
    def value(self, state: object) -> float:
        """Cardinality (estimate) of the union held in ``state``."""

    def gain(self, state: object, node: Node) -> float:
        """Marginal gain of adding ``node`` to the union in ``state``.

        Default implementation copies the state; subclasses override with a
        cheaper evaluation that does not mutate ``state``.
        """
        probe = self.copy_accumulator(state)
        self.accumulate(probe, node)
        return self.value(probe) - self.value(state)

    @abc.abstractmethod
    def copy_accumulator(self, state: object) -> object:
        """An independent copy of ``state``."""


class ExactInfluenceOracle(InfluenceOracle):
    """Exact oracle over concrete reachability sets.

    Parameters
    ----------
    sets:
        Mapping ``node → σω(node)``; typically produced by
        :meth:`from_index`, or handed in directly (tests, ablations).
    """

    def __init__(self, sets: Dict[Node, Set[Node]]) -> None:
        require_type(sets, "sets", dict)
        self._sets: Dict[Node, frozenset] = {
            node: frozenset(reached) for node, reached in sets.items()
        }
        self._obs_spread = _QUERY_SECONDS.labels(kind="exact", op="spread")
        self._obs_gain = _QUERY_SECONDS.labels(kind="exact", op="gain")

    @classmethod
    def from_index(cls, index: ExactIRS) -> "ExactInfluenceOracle":
        """Build from a fully-constructed :class:`ExactIRS`."""
        require_type(index, "index", ExactIRS)
        return cls({node: index.reachability_set(node) for node in index.nodes})

    def nodes(self) -> Iterable[Node]:
        return self._sets.keys()

    def influence(self, node: Node) -> float:
        return float(len(self._sets.get(node, frozenset())))

    def spread(self, seeds: Iterable[Node]) -> float:
        if _OBS.enabled:
            seeds = list(seeds)
            _QUERY_SEEDS.observe(len(seeds))
        with self._obs_spread.time():
            covered: Set[Node] = set()
            for seed in seeds:
                covered.update(self._sets.get(seed, frozenset()))
            return float(len(covered))

    def new_accumulator(self) -> Set[Node]:
        return set()

    def accumulate(self, state: object, node: Node) -> None:
        assert isinstance(state, set)
        state.update(self._sets.get(node, frozenset()))

    def value(self, state: object) -> float:
        assert isinstance(state, set)
        return float(len(state))

    def gain(self, state: object, node: Node) -> float:
        assert isinstance(state, set)
        with self._obs_gain.time():
            reached = self._sets.get(node, frozenset())
            return float(len(reached - state))

    def copy_accumulator(self, state: object) -> Set[Node]:
        assert isinstance(state, set)
        return set(state)

    def reachability_set(self, node: Node) -> frozenset:
        """The stored ``σω(node)``."""
        return self._sets.get(node, frozenset())

    def targeted_spread(
        self, seeds: Iterable[Node], targets: Iterable[Node]
    ) -> float:
        """``|(⋃ σω(seed)) ∩ targets|`` — influence restricted to an
        audience of interest (e.g. one community, paying customers).

        Only the exact oracle supports this: the sketch union cannot be
        intersected with an arbitrary node set.
        """
        wanted = set(targets)
        covered: Set[Node] = set()
        for seed in seeds:
            covered.update(self._sets.get(seed, frozenset()) & wanted)
        return float(len(covered))

    def most_influential_towards(
        self, targets: Iterable[Node], k: int
    ) -> List[Node]:
        """Greedy top-``k`` seeds for covering ``targets`` specifically."""
        require_int(k, "k")
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        wanted = set(targets)
        restricted = ExactInfluenceOracle(
            {node: reached & wanted for node, reached in self._sets.items()}
        )
        # Local import: maximization imports this module.
        from repro.core.maximization import greedy_top_k

        return greedy_top_k(restricted, k)


#: ``2^-ρ`` scaled by ``2**INDICATOR_SHIFT`` for every register value a
#: 64-bit hash can produce: the exact integer terms of the HLL indicator.
_TERMS = tuple(1 << (INDICATOR_SHIFT - rho) for rho in range(INDICATOR_SHIFT + 1))


class _SketchUnion(list):
    """The accumulator of :class:`ApproxInfluenceOracle`.

    A dense array of the union's β registers that also carries the union's
    exact scaled indicator ``Σ 2^(64−M_j)`` and its zero-register count,
    so folding in a node and pricing a gain touch only that node's filled
    cells, and the estimate never rescans β registers.
    """

    __slots__ = ("indicator", "zeros")

    indicator: int
    zeros: int


class ApproxInfluenceOracle(InfluenceOracle):
    """Sketch-backed oracle over each node's filled HLL registers.

    Per node only the effective registers of its *filled* cells are kept,
    as a ``cell → ρ`` map (the version lists are not needed once the
    reverse pass is finished).  A node of an IRS build fills a handful of
    its β cells, so every query below costs O(Σ filled cells of the nodes
    it names), not O(|S|·β) — independent of network size, as paper
    Figure 4 shows, and of β too.

    The public constructor takes dense β-long register arrays;
    :meth:`from_cells` takes the sparse maps directly.
    """

    def __init__(self, registers: Dict[Node, List[int]], num_cells: int) -> None:
        require_type(registers, "registers", dict)
        _check_num_cells(num_cells)
        cells: Dict[Node, Dict[int, int]] = {}
        for node, array in registers.items():
            if len(array) != num_cells:
                raise ValueError(
                    f"register array of node {node!r} has length {len(array)}, "
                    f"expected {num_cells}"
                )
            cells[node] = {cell: value for cell, value in enumerate(array) if value}
        self._adopt(cells, num_cells)

    @classmethod
    def from_cells(
        cls, cells: Dict[Node, Dict[int, int]], num_cells: int
    ) -> "ApproxInfluenceOracle":
        """Build from sparse ``node → {cell: ρ}`` maps of filled cells only.

        Every cell must lie in ``[0, num_cells)`` and every ρ in
        ``[1, 64]``.  The maps are adopted, not copied: the caller hands
        them over and must not mutate them afterwards.
        """
        require_type(cells, "cells", dict)
        _check_num_cells(num_cells)
        oracle = cls.__new__(cls)
        oracle._adopt(cells, num_cells)
        return oracle

    def _adopt(self, cells: Dict[Node, Dict[int, int]], num_cells: int) -> None:
        for node, filled in cells.items():  # O(Σ filled cells)
            for cell, value in filled.items():
                if not 0 <= cell < num_cells:
                    raise ValueError(
                        f"node {node!r} fills cell {cell}, outside [0, {num_cells})"
                    )
                if not 0 < value <= INDICATOR_SHIFT:
                    raise ValueError(
                        f"node {node!r} holds register {value} in cell {cell}, "
                        f"outside [1, {INDICATOR_SHIFT}]"
                    )
        self._cells = cells
        self._m = num_cells
        self._obs_spread = _QUERY_SECONDS.labels(kind="sketch", op="spread")
        self._obs_gain = _QUERY_SECONDS.labels(kind="sketch", op="gain")

    @classmethod
    def from_index(cls, index: ApproxIRS) -> "ApproxInfluenceOracle":
        """Build from a fully-constructed :class:`ApproxIRS`."""
        require_type(index, "index", ApproxIRS)
        cells = {node: index.register_map(node) for node in index.nodes}
        return cls.from_cells(cells, index.num_cells)

    @property
    def num_cells(self) -> int:
        """β — registers per node."""
        return self._m

    def nodes(self) -> Iterable[Node]:
        return self._cells.keys()

    def registers(self, node: Node) -> List[int]:
        """A dense copy of ``node``'s β effective registers (zeros if unknown).

        This is the serialisation surface the snapshot round trip is
        checked against: a reloaded oracle returns the same arrays.
        """
        array = [0] * self._m
        for cell, value in self._cells.get(node, {}).items():
            array[cell] = value
        return array

    def filled_cells(self, node: Node) -> List[Tuple[int, int]]:
        """``node``'s filled cells as ``(cell, ρ)`` pairs in cell order.

        The sparse serialisation surface: the ``approx`` snapshot kind
        stores exactly these pairs (empty for an unknown node).
        """
        return sorted(self._cells.get(node, {}).items())

    def influence(self, node: Node) -> float:
        cells = self._cells.get(node)
        if not cells:
            return 0.0
        zeros = self._m - len(cells)
        indicator = zeros << INDICATOR_SHIFT
        terms = _TERMS
        for value in cells.values():
            indicator += terms[value]
        return estimate_from_indicator(indicator, zeros, self._m)

    def spread(self, seeds: Iterable[Node]) -> float:
        if _OBS.enabled:
            seeds = list(seeds)
            _QUERY_SEEDS.observe(len(seeds))
        # One code path for unions: spread == value(accumulate(seeds)).
        # A private re-merge here could drift from the accumulator the
        # greedy maximization grows, and then cached spreads would not be
        # comparable across the two entry points.
        with self._obs_spread.time():
            combined = self.new_accumulator()
            for seed in seeds:
                self.accumulate(combined, seed)
            return self.value(combined)

    def new_accumulator(self) -> _SketchUnion:
        state = _SketchUnion([0] * self._m)
        state.indicator = self._m << INDICATOR_SHIFT
        state.zeros = self._m
        return state

    def accumulate(self, state: object, node: Node) -> None:
        assert isinstance(state, _SketchUnion)
        cells = self._cells.get(node)
        if not cells:
            return
        terms = _TERMS
        indicator = state.indicator
        zeros = state.zeros
        for cell, value in cells.items():
            current = state[cell]
            if value > current:
                state[cell] = value
                indicator -= terms[current] - terms[value]
                if not current:
                    zeros -= 1
        state.indicator = indicator
        state.zeros = zeros

    def value(self, state: object) -> float:
        assert isinstance(state, _SketchUnion)
        return estimate_from_indicator(state.indicator, state.zeros, self._m)

    def gain(self, state: object, node: Node) -> float:
        """``value(state ∪ node) − value(state)`` without mutating ``state``.

        The union's indicator and zero count change only in the cells
        where ``node`` holds a larger register, so the delta is summed
        over ``node``'s filled cells alone: CELF's inner loop costs
        O(filled cells), not two β-wide estimates.
        """
        assert isinstance(state, _SketchUnion)
        with self._obs_gain.time():
            cells = self._cells.get(node)
            if not cells:
                return 0.0
            terms = _TERMS
            before = state.indicator
            indicator = before
            zeros = state.zeros
            for cell, value in cells.items():
                current = state[cell]
                if value > current:
                    indicator -= terms[current] - terms[value]
                    if not current:
                        zeros -= 1
            if indicator == before:
                return 0.0
            m = self._m
            return estimate_from_indicator(indicator, zeros, m) - estimate_from_indicator(
                before, state.zeros, m
            )

    def copy_accumulator(self, state: object) -> _SketchUnion:
        assert isinstance(state, _SketchUnion)
        clone = _SketchUnion(state)
        clone.indicator = state.indicator
        clone.zeros = state.zeros
        return clone


def _check_num_cells(num_cells: int) -> None:
    require_int(num_cells, "num_cells")
    if num_cells <= 0 or num_cells & (num_cells - 1) != 0:
        raise ValueError(f"num_cells must be a power of two, got {num_cells}")
