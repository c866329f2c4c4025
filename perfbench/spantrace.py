"""A small in-memory span recorder for the traced benchmark run.

Each span is ``(id, name, start, end, parent, step)``.  Spans are opened
by the benchmark around its calls into each layer's public functions;
nothing inside the program is instrumented.  A layer's *self time* is
its span's duration minus the time covered by its child spans.  Spans
opened on a server handler thread name their parent explicitly through
:attr:`SpanRecorder.remote_parent`, which the single closed-loop client
sets while its request is in flight.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    step: int


class SpanRecorder:
    """Collects spans while :attr:`enabled`; a disabled recorder is a no-op."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.step = 0
        self.remote_parent = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def new_step(self) -> int:
        """Start a new step; spans record the id of the step they ran in."""
        self.step += 1
        return self.step

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[int]:
        if not self.enabled:
            yield 0
            return
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, self.step))

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its children's."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent:
                covered[span.parent] += span.end - span.start
        result: Dict[str, List[float]] = defaultdict(list)
        for span in self.spans:
            own = span.end - span.start - covered.get(span.id, 0.0)
            result[span.name].append(max(own, 0.0))
        return result

    def durations(self) -> Dict[str, List[float]]:
        result: Dict[str, List[float]] = defaultdict(list)
        for span in self.spans:
            result[span.name].append(span.end - span.start)
        return result
