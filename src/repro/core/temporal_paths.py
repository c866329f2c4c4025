"""Temporal path algorithms (Wu et al., PVLDB 2014 — the paper's ref [26]).

Information channels are a special case of temporal paths, and the paper's
related work leans on this toolbox.  Four classic single-source problems
over an interaction log, each solved with one forward scan over the
time-sorted interactions (the "one-pass" style of Wu et al.):

* **earliest arrival** — for every node, the earliest time information
  leaving ``source`` (not before ``start``) can arrive;
* **latest departure** — for every node, the latest time one can leave it
  and still deliver to ``target`` by a deadline (one *reverse* scan);
* **fastest path** — minimal elapsed duration from ``source`` to each node
  (exactly the minimal ω for which the node enters σω — see
  :func:`repro.core.channels.fastest_channel_duration` for the brute-force
  counterpart restricted to one target);
* **shortest path** — fewest hops along any time-respecting path.

These complement the IRS machinery: the IRS answers "how many nodes can u
reach within ω", temporal paths answer "how fast / how directly can u
reach v".
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional

from repro.core.interactions import InteractionLog
from repro.utils.validation import require_type

__all__ = [
    "earliest_arrival_times",
    "latest_departure_times",
    "fastest_path_durations",
    "shortest_path_hops",
]

Node = Hashable


def earliest_arrival_times(
    log: InteractionLog,
    source: Node,
    start: Optional[int] = None,
) -> Dict[Node, int]:
    """Earliest arrival time at every reachable node.

    Information is available at ``source`` from time ``start`` (default:
    before the log begins) and travels along interactions whose time is
    **at least** the arrival time at their source node — the source itself
    may act at the time of its own interaction, while relayed information
    needs a strictly later interaction (Definition 1's strict increase is
    preserved because an arrival *at* time t can only be forwarded by an
    interaction at time > t; the source's own sends need no such gap).

    Returns ``{node: earliest arrival}``; the source maps to ``start`` (or
    the log's minimum time − 1 when unconstrained).
    """
    require_type(log, "log", InteractionLog)
    if start is not None and (isinstance(start, bool) or not isinstance(start, int)):
        raise TypeError("start must be an int or None")
    origin = start if start is not None else (
        log.min_time - 1 if log.min_time is not None else 0
    )
    arrival: Dict[Node, int] = {source: origin}
    for record in log:
        if record.time < origin:
            continue
        at_source = arrival.get(record.source)
        if at_source is None:
            continue
        # The original source may send at its own interaction time; any
        # relay must have strictly later time than its arrival.
        usable = record.time >= at_source if record.source == source else (
            record.time > at_source
        )
        if not usable:
            continue
        previous = arrival.get(record.target)
        if previous is None or record.time < previous:
            arrival[record.target] = record.time
    return arrival


def latest_departure_times(
    log: InteractionLog,
    target: Node,
    deadline: Optional[int] = None,
) -> Dict[Node, int]:
    """Latest time one can leave each node and still reach ``target``.

    The mirror image of :func:`earliest_arrival_times`, computed with one
    reverse scan: an interaction ``(u, v, t)`` is usable when ``v`` can
    still forward strictly after ``t`` (or ``v`` is the target, which only
    needs to receive by the deadline).

    Returns ``{node: latest departure}``; the target maps to ``deadline``
    (or the log's maximum time + 1 when unconstrained).
    """
    require_type(log, "log", InteractionLog)
    if deadline is not None and (
        isinstance(deadline, bool) or not isinstance(deadline, int)
    ):
        raise TypeError("deadline must be an int or None")
    horizon = deadline if deadline is not None else (
        log.max_time + 1 if log.max_time is not None else 0
    )
    departure: Dict[Node, int] = {target: horizon}
    for record in log.reverse_time_order():
        if record.time > horizon:
            continue
        at_target = departure.get(record.target)
        if at_target is None:
            continue
        usable = record.time <= at_target if record.target == target else (
            record.time < at_target
        )
        if not usable:
            continue
        previous = departure.get(record.source)
        if previous is None or record.time > previous:
            departure[record.source] = record.time
    return departure


def fastest_path_durations(log: InteractionLog, source: Node) -> Dict[Node, int]:
    """Minimal channel duration from ``source`` to every reachable node.

    ``result[v]`` is the smallest ω such that ``v ∈ σω(source)``.  Computed
    by one earliest-arrival scan per outgoing interaction of ``source``
    (each possible channel start), keeping per-target minima of
    ``end − start + 1``.
    """
    require_type(log, "log", InteractionLog)
    interactions = list(log)
    best: Dict[Node, int] = {}
    for index, first in enumerate(interactions):  # O(m²)
        if first.source != source:
            continue
        arrival: Dict[Node, int] = {first.target: first.time}
        for record in interactions[index + 1 :]:
            at = arrival.get(record.source)
            if at is not None and at < record.time:
                previous = arrival.get(record.target)
                if previous is None or record.time < previous:
                    arrival[record.target] = record.time
        for node, end in arrival.items():
            if node == source:
                continue
            duration = end - first.time + 1
            current = best.get(node)
            if current is None or duration < current:
                best[node] = duration
    return best


def shortest_path_hops(log: InteractionLog, source: Node) -> Dict[Node, int]:
    """Fewest hops of any time-respecting path from ``source``.

    One forward scan maintaining, per node, the minimal hop count over all
    (arrival time, hops) states that are not dominated — here simplified
    to per-node Pareto lists of (time, hops) with both coordinates
    minimal, which a single time-ordered scan keeps consistent.
    """
    require_type(log, "log", InteractionLog)
    # states[v]: list of (arrival_time, hops), Pareto-minimal:
    # time strictly increasing, hops strictly decreasing.
    states: Dict[Node, list] = {source: [(-math.inf, 0)]}
    best: Dict[Node, int] = {}
    for record in log:  # O(m·P)
        frontier = states.get(record.source)
        if not frontier:
            continue
        # Minimal hops among states with arrival strictly before the
        # interaction (the source's own initial state has time -inf).
        usable = [hops for at, hops in frontier if at < record.time]
        if not usable:
            continue
        hops = min(usable) + 1
        if record.target != source:
            if record.target not in best or hops < best[record.target]:
                best[record.target] = hops
        target_states = states.setdefault(record.target, [])
        # Insert (record.time, hops) keeping the Pareto invariant.
        dominated = False
        for at, existing_hops in target_states:
            if at <= record.time and existing_hops <= hops:
                dominated = True
                break
        if not dominated:
            target_states[:] = [
                (at, existing_hops)
                for at, existing_hops in target_states
                if not (at >= record.time and existing_hops >= hops)
            ]
            target_states.append((record.time, hops))
    return best
