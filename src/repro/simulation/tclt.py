"""Time-Constrained Linear Threshold model (extension).

The paper adapts the Independent Cascade model to interaction networks
(TCIC, its Algorithm 1) and notes that classical influence models "such as
the Independent Cascade Model or Linear Threshold Model no longer suffice
as they do not take the temporal aspect into account" (§2).  It only
builds the IC adaptation; this module supplies the analogous **Linear
Threshold** adaptation, so seed sets can be cross-checked under a second,
structurally different judge:

* every node ``v`` draws a threshold ``θ_v ~ U[0, 1]`` per run;
* each *distinct* active neighbour ``u`` that interacts with ``v`` while
  inside its chain window contributes weight ``1 / indegree(v)``
  (the classical uniform LT weighting, with ``indegree`` counted on the
  flattened graph);
* ``v`` activates once the accumulated weight reaches ``θ_v``, inheriting
  the freshest contributing chain clock (same window semantics as TCIC:
  the budget constrains the whole temporal path from a seed activation,
  and by default a seed's clock re-arms at each of its interactions).

Relationship to TCIC: an LT activation needs at least one in-window
interaction from an active neighbour, so every TCLT cascade is contained
in the TCIC cascade at p = 1 over the same log — a containment the tests
assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Set

import repro.obs as obs
from repro.core.interactions import InteractionLog
from repro.obs import OBS_STATE as _OBS
from repro.utils.rng import RngLike, resolve_rng
from repro.utils.validation import require_int, require_non_negative, require_type

__all__ = ["TCLTResult", "run_tclt", "estimate_tclt_spread"]

Node = Hashable

_RUNS = obs.counter("tclt.runs", "TCLT cascade simulations executed.")
_SPREAD = obs.histogram(
    "tclt.spread",
    "Active-node counts at the end of TCLT runs.",
    buckets=obs.DEFAULT_COUNT_BUCKETS,
)


@dataclass
class TCLTResult:
    """Outcome of one TCLT cascade."""

    active: Set[Node]
    """All activated nodes (seeds included once they interact)."""

    thresholds: Dict[Node, float] = field(default_factory=dict)
    """The sampled thresholds (diagnostic)."""

    @property
    def spread(self) -> int:
        """Number of active nodes."""
        return len(self.active)


def run_tclt(
    log: InteractionLog,
    seeds: Iterable[Node],
    window: int,
    rng: RngLike = None,
    reset_seed_clock: bool = True,
) -> TCLTResult:
    """Run one Time-Constrained Linear Threshold cascade.

    Parameters mirror :func:`repro.simulation.tcic.run_tcic`, with the
    per-interaction coin replaced by threshold accumulation.
    """
    require_type(log, "log", InteractionLog)
    require_int(window, "window")
    require_non_negative(window, "window")
    generator = resolve_rng(rng)
    seed_set = set(seeds)

    # Uniform LT weights need in-degrees of the flattened graph.
    in_neighbours: Dict[Node, Set[Node]] = {}
    for source, target, _ in log:
        in_neighbours.setdefault(target, set()).add(source)

    # Deterministic per-node thresholds: draw in sorted node order so that
    # a fixed rng seed yields identical cascades across runs.
    thresholds: Dict[Node, float] = {}
    for node in sorted(log.nodes, key=repr):
        thresholds[node] = generator.random()

    activate_time: Dict[Node, int] = {}
    # accumulated[v]: set of distinct active in-neighbours whose in-window
    # interaction has been counted.
    contributors: Dict[Node, Set[Node]] = {}

    for source, target, time in log:
        if source in seed_set and (
            reset_seed_clock or source not in activate_time
        ):
            activate_time[source] = time
        source_clock = activate_time.get(source)
        if source_clock is None or time - source_clock > window:
            continue
        if target in activate_time:
            # Already active: a fresher chain still extends its budget.
            if source_clock > activate_time[target]:
                activate_time[target] = source_clock
            continue
        counted = contributors.setdefault(target, set())
        counted.add(source)
        weight = len(counted) / max(len(in_neighbours.get(target, ())), 1)
        if weight >= thresholds[target]:
            activate_time[target] = source_clock

    if _OBS.enabled:
        _RUNS.inc()
        _SPREAD.observe(len(activate_time))
    return TCLTResult(active=set(activate_time), thresholds=thresholds)


def estimate_tclt_spread(
    log: InteractionLog,
    seeds: Iterable[Node],
    window: int,
    runs: int = 10,
    rng: RngLike = None,
) -> float:
    """Mean TCLT spread over ``runs`` independent threshold draws."""
    require_type(log, "log", InteractionLog)
    if isinstance(runs, bool) or not isinstance(runs, int):
        raise TypeError("runs must be an int")
    if runs <= 0:
        raise ValueError(f"runs must be > 0, got {runs}")
    from repro.utils.rng import spawn_rng

    generator = resolve_rng(rng)
    seed_list = list(seeds)
    total = 0
    for repetition in range(runs):
        child = spawn_rng(generator, repetition)
        total += run_tclt(log, seed_list, window, rng=child).spread
    return total / runs
