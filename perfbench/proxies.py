"""Delegating wrappers that observe the program through its public API."""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.core.oracle import InfluenceOracle

from spantrace import SpanRecorder

Node = Hashable


class TracedOracle(InfluenceOracle):
    """Forwards every call to ``inner``; spans ``spread`` and counts ``gain``."""

    def __init__(self, inner: InfluenceOracle, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.gain_calls = 0

    def nodes(self) -> Iterable[Node]:
        return self._inner.nodes()

    def influence(self, node: Node) -> float:
        return self._inner.influence(node)

    def spread(self, seeds: Iterable[Node]) -> float:
        with self._recorder.span("core.oracle.spread"):
            return self._inner.spread(seeds)

    def new_accumulator(self) -> object:
        return self._inner.new_accumulator()

    def accumulate(self, state: object, node: Node) -> None:
        self._inner.accumulate(state, node)

    def value(self, state: object) -> float:
        return self._inner.value(state)

    def gain(self, state: object, node: Node) -> float:
        self.gain_calls += 1
        return self._inner.gain(state, node)

    def copy_accumulator(self, state: object) -> object:
        return self._inner.copy_accumulator(state)
