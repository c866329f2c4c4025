"""Reference algorithms for information channels (paper Definitions 1–2).

An **information channel** from ``u`` to ``v`` is a series of interactions
``(u,n1,t1),(n1,n2,t2),…,(nk,v,tk)`` with strictly increasing times
``t1 < t2 < … < tk``; its *duration* is ``tk − t1 + 1`` and its *end time*
is ``tk``.  The **influence reachability set** ``σω(u)`` collects every node
reachable from ``u`` through a channel of duration at most ``ω``.

This module contains deliberately simple, obviously-correct implementations
— per-start-edge forward scans and bounded channel enumeration.  They are
quadratic-ish and only suitable for small graphs; their purpose is to be the
ground truth that the one-pass algorithms (:mod:`repro.core.exact`,
:mod:`repro.core.approx`) are tested against, and to provide channel-level
introspection (actual paths, durations) that the summaries discard.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence

from repro.core.interactions import Interaction, InteractionLog
from repro.utils.validation import require_int, require_non_negative, require_type

__all__ = [
    "reachability_summary",
    "reachability_set",
    "all_reachability_sets",
    "all_reachability_summaries",
    "enumerate_channels",
    "channel_duration",
    "channel_end",
    "has_channel",
    "fastest_channel_duration",
]

Node = Hashable


def channel_duration(channel: Sequence[Interaction]) -> int:
    """``dur(ic) = tk − t1 + 1`` (paper Definition 1)."""
    if not channel:
        raise ValueError("channel must contain at least one interaction")
    return channel[-1].time - channel[0].time + 1


def channel_end(channel: Sequence[Interaction]) -> int:
    """``end(ic) = tk`` (paper Definition 1)."""
    if not channel:
        raise ValueError("channel must contain at least one interaction")
    return channel[-1].time


def _validate(log: InteractionLog, window: int) -> None:
    require_type(log, "log", InteractionLog)
    require_int(window, "window")
    require_non_negative(window, "window")


def reachability_summary(
    log: InteractionLog, source: Node, window: int
) -> Dict[Node, int]:
    """Exact IRS summary ``ϕω(source)`` by brute force.

    Returns ``{v: λ(source, v)}`` where ``λ`` is the minimal end time over
    all channels ``source → v`` of duration ≤ ``window`` (paper Definition
    4).  The source itself never appears in its own summary.

    Method: for every interaction ``(source, v, t)`` — each possible first
    hop — run one forward earliest-arrival scan over the interactions in
    ``(t, t + window − 1]``, then take per-target minima across first hops.
    """
    _validate(log, window)
    interactions = list(log)
    best: Dict[Node, int] = {}
    for start_index, first in enumerate(interactions):  # O(m²)
        if first.source != source:
            continue
        deadline = first.time + window - 1
        if window == 0:
            continue
        # Earliest arrival time at each node for channels starting with
        # `first`.  `first.target` is reached at `first.time`.
        arrival: Dict[Node, int] = {first.target: first.time}
        for record in interactions[start_index + 1 :]:
            if record.time > deadline:
                break
            origin_arrival = arrival.get(record.source)
            if origin_arrival is not None and origin_arrival < record.time:
                previous = arrival.get(record.target)
                if previous is None or record.time < previous:
                    arrival[record.target] = record.time
        for node, end_time in arrival.items():
            if node == source:
                continue
            current = best.get(node)
            if current is None or end_time < current:
                best[node] = end_time
    return best


def reachability_set(log: InteractionLog, source: Node, window: int) -> set[Node]:
    """Exact ``σω(source)`` (paper Definition 2) by brute force."""
    return set(reachability_summary(log, source, window))


def all_reachability_sets(log: InteractionLog, window: int) -> Dict[Node, set[Node]]:
    """``σω(u)`` for every node ``u`` of the network, by brute force."""
    _validate(log, window)
    return {node: reachability_set(log, node, window) for node in log.nodes}


def all_reachability_summaries(
    log: InteractionLog, window: int
) -> Dict[Node, Dict[Node, int]]:
    """``ϕω(u)`` for every node ``u`` of the network, by brute force."""
    _validate(log, window)
    return {node: reachability_summary(log, node, window) for node in log.nodes}


def enumerate_channels(
    log: InteractionLog,
    source: Node,
    target: Optional[Node] = None,
    window: Optional[int] = None,
    max_channels: int = 100_000,
) -> Iterator[List[Interaction]]:
    """Yield information channels starting at ``source`` by DFS.

    Every yielded value is a list of interactions with strictly increasing
    times whose first source is ``source``.  When ``target`` is given, only
    channels ending at ``target`` are yielded; when ``window`` is given,
    only channels of duration ≤ ``window``.

    The number of channels can be exponential in pathological inputs, so an
    explicit ``max_channels`` budget guards the enumeration; exceeding it
    raises :class:`RuntimeError`.  This function exists for analysis and for
    testing the summary algorithms against literal Definition 1.
    """
    require_type(log, "log", InteractionLog)
    if window is not None:
        require_int(window, "window")
        require_non_negative(window, "window")

    by_source: Dict[Node, List[Interaction]] = {}
    for record in log:
        by_source.setdefault(record.source, []).append(record)
    # Lists inherit the log's time-sorted order.

    yielded = 0
    path: List[Interaction] = []

    def extend(node: Node, after_time: int, start_time: Optional[int]) -> Iterator[List[Interaction]]:
        nonlocal yielded
        for record in by_source.get(node, ()):  # time-ascending
            if record.time <= after_time:
                continue
            if start_time is not None and window is not None:
                if record.time - start_time + 1 > window:
                    break  # later interactions only get worse
            path.append(record)
            if target is None or record.target == target:
                yielded += 1
                if yielded > max_channels:
                    raise RuntimeError(
                        f"more than max_channels={max_channels} channels; "
                        "raise the budget or constrain the query"
                    )
                yield list(path)
            effective_start = start_time if start_time is not None else record.time
            yield from extend(record.target, record.time, effective_start)
            path.pop()

    yield from extend(source, float("-inf"), None)  # type: ignore[arg-type]


def has_channel(
    log: InteractionLog, source: Node, target: Node, window: Optional[int] = None
) -> bool:
    """True iff some channel ``source → target`` exists (duration ≤ window)."""
    if window is not None:
        require_int(window, "window")
        require_non_negative(window, "window")
    effective_window = window if window is not None else log.time_span
    return target in reachability_set(log, source, effective_window)


def fastest_channel_duration(
    log: InteractionLog, source: Node, target: Node
) -> Optional[int]:
    """Minimal duration of any channel ``source → target``, or ``None``.

    This is the "fastest temporal path" notion of Wu et al. (VLDB 2014)
    restricted to channels: the smallest ω for which ``target ∈ σω(source)``.
    Computed by scanning start edges like :func:`reachability_summary` but
    minimising ``end − start + 1`` instead of ``end``.
    """
    require_type(log, "log", InteractionLog)
    interactions = list(log)
    best: Optional[int] = None
    for start_index, first in enumerate(interactions):  # O(m²)
        if first.source != source:
            continue
        arrival: Dict[Node, int] = {first.target: first.time}
        for record in interactions[start_index + 1 :]:
            origin_arrival = arrival.get(record.source)
            if origin_arrival is not None and origin_arrival < record.time:
                previous = arrival.get(record.target)
                if previous is None or record.time < previous:
                    arrival[record.target] = record.time
        if target in arrival and target != source:
            duration = arrival[target] - first.time + 1
            if best is None or duration < best:
                best = duration
    return best
