"""Shared run context for the benchmark workloads."""

from __future__ import annotations

import random
import resource
import time
from typing import Callable, Dict, FrozenSet, Hashable, List, Sequence, Tuple

from hostnorm import Meter, Phase
from spantrace import SpanRecorder

#: The paper's Enron analogue at catalog scale; ω is 10 % of its span.
DATASET = "enron-sim"

#: Host sensitivity α of each phase (see ``hostnorm``): the slope of
#: log raw time against log median kernel time over about 25 A/A runs
#: per workload on a 2-vCPU VM, rounded to 0.1.  The slope errors were
#: 0.05–0.2.  Queries and builds track the kernel closely; snapshot
#: loads and publishes, which parse and write megabytes, much less.
SENSITIVITY: Dict[str, Dict[str, float]] = {
    "batch-exact": {
        "setup": 1.0, "build": 0.9, "publish": 0.6, "seeds": 0.7, "query": 0.7, "load": 0.6,
    },
    "batch-sketch": {
        "setup": 0.8, "build": 0.8, "publish": 0.6, "seeds": 0.7, "query": 0.8, "load": 0.4,
    },
    "serve-live": {
        "setup": 0.8, "ingest": 0.7, "reads": 0.8, "publish": 0.4,
        "build": 0.7, "seeds": 0.7, "query": 0.9, "load": 0.4,
    },
}

StepResult = Tuple[float, float, Sequence[float]]


class Outcome:
    """Operations attempted and failed; a wrong answer is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, passed: bool, what: str) -> None:
        self.tally(1, 0 if passed else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.errors) < 20:
                self.errors.append(f"{what} ({failed} of {attempted})")


class Context:
    """Everything one workload run needs: budget, meter, recorder, scratch."""

    def __init__(
        self, workload: str, seed: int, seconds: float, trace: bool, scratch: str
    ) -> None:
        self.sensitivity = SENSITIVITY[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.outcome = Outcome()
        self.recorder = SpanRecorder()
        self.meter = Meter()
        # (untraced, traced) phase pairs, in run order.
        self.phases: Dict[str, Tuple[Phase, Phase]] = {}

    def twins(self, name: str) -> Tuple[Phase, Phase]:
        """The (untraced, traced) phase pair of ``name``, made on first use."""
        if name not in self.phases:
            alpha = self.sensitivity[name]
            self.phases[name] = (Phase(name, alpha), Phase(name, alpha))
        return self.phases[name]

    def run_phase(
        self,
        name: str,
        step: Callable[[bool], StepResult],
        min_steps: int,
        max_steps: int = 1 << 30,
        budget: float = 0.0,
    ) -> Phase:
        """Repeat ``step`` for ``budget`` seconds and at least ``min_steps`` times.

        Returns the untraced phase.  Steps add to the phase of the same name from earlier calls.  In a
        traced run the recorder is off and on in turn (see
        :func:`traced_step`), so every phase has an untraced and a traced
        twin of about equal work.
        """
        plain, traced = self.twins(name)
        recorder = self.recorder
        meter = self.meter
        twins = 2 if self.trace else 1
        deadline = time.perf_counter() + budget
        count = 0
        while count < max_steps * twins and (
            count < min_steps * twins or time.perf_counter() < deadline
        ):
            on = self.trace and traced_step(count)
            recorder.enabled = on
            if on:
                recorder.new_step()
            try:
                seconds, units, samples = step(on)
            finally:
                recorder.enabled = False
            (traced if on else plain).add(seconds, meter.sample(), units, samples)
            count += 1
        return plain

    def trace_overhead_pct(self) -> float:
        """Normalised traced time against untraced time for the same work."""
        plain_total = traced_total = 0.0
        for plain, traced in self.phases.values():
            if not len(traced):
                continue
            units = sum(plain.units)
            plain_total += plain.norm() * units
            traced_total += traced.norm() * units
        return (traced_total / plain_total - 1.0) * 100.0 if plain_total else 0.0


def traced_step(count: int) -> bool:
    """Traced runs record steps in the pattern off, on, on, off, repeated.

    Two steps already hold one of each, and work that recurs every
    second step (the live index sweeps every 1,024 events, two steps of
    512) falls on traced and untraced steps alike.
    """
    return count % 4 in (1, 2)


def query_pool(nodes: Sequence[Hashable], rng: random.Random, size: int) -> List[FrozenSet]:
    """``size`` distinct seed sets of 1–16 nodes."""
    seen = set()
    pool: List[FrozenSet] = []
    while len(pool) < size:
        seeds = frozenset(rng.sample(nodes, rng.randint(1, 16)))
        if seeds not in seen:
            seen.add(seeds)
            pool.append(seeds)
    return pool


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_means(recorder: SpanRecorder, scale: Dict[str, Tuple[str, float]]) -> Dict[str, float]:
    """Mean self time of each span name, renamed and scaled (e.g. to µs)."""
    selves = recorder.self_times()
    return {
        metric: mean(selves.get(span, [])) * factor
        for span, (metric, factor) in scale.items()
    }
