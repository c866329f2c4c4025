"""Witness channels: reconstruct the interactions behind an influence claim.

The IRS indexes answer *whether* (and how many); users auditing a result
usually want to see *how* — the concrete sequence of interactions that
realises "u could have influenced v within ω".  This module reconstructs
such a channel:

* :func:`find_channel` returns an actual information channel ``u → v`` of
  duration ≤ ω whose end time is **minimal** (i.e. a witness for
  λω(u, v)), or ``None`` when v ∉ σω(u);
* :func:`explain_influence` renders it as a human-readable hop list.

Reconstruction replays the brute-force earliest-arrival scan of
:mod:`repro.core.channels` with parent pointers; cost is O(starts·m), fine
for the sporadic audit queries this exists for (the indexes remain the
bulk-query machinery).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.interactions import Interaction, InteractionLog
from repro.utils.validation import require_int, require_non_negative, require_type

__all__ = ["find_channel", "explain_influence"]

Node = Hashable


def find_channel(
    log: InteractionLog,
    source: Node,
    target: Node,
    window: int,
) -> Optional[List[Interaction]]:
    """A minimal-end-time channel ``source → target`` of duration ≤ window.

    Returns the interactions in order, or ``None`` when no such channel
    exists.  Among all witnesses with the minimal end time, the one found
    uses earliest-arrival hops (each prefix arrives as early as possible).
    """
    require_type(log, "log", InteractionLog)
    require_int(window, "window")
    require_non_negative(window, "window")
    if window == 0 or source == target:
        return None

    interactions = list(log)
    best: Optional[List[Interaction]] = None
    best_end: Optional[int] = None
    for start_index, first in enumerate(interactions):  # O(m²)
        if first.source != source:
            continue
        deadline = first.time + window - 1
        if best_end is not None and first.time > best_end:
            # Channels from this start cannot end before an already-found
            # witness (their end is >= their start).
            continue
        arrival: Dict[Node, Tuple[int, Optional[Interaction]]] = {
            first.target: (first.time, first)
        }
        for record in interactions[start_index + 1 :]:
            if record.time > deadline:
                break
            reached = arrival.get(record.source)
            if reached is not None and reached[0] < record.time:
                current = arrival.get(record.target)
                if current is None or record.time < current[0]:
                    arrival[record.target] = (record.time, record)
        found = arrival.get(target)
        if found is None or target == source:
            continue
        end_time = found[0]
        if best_end is not None and end_time >= best_end:
            continue
        # Walk parent pointers back to the start edge.
        channel: List[Interaction] = []
        node = target
        while True:
            _, via = arrival[node]
            assert via is not None
            channel.append(via)
            if via is first:
                break
            node = via.source
        channel.reverse()
        best = channel
        best_end = end_time
    return best


def explain_influence(
    log: InteractionLog,
    source: Node,
    target: Node,
    window: int,
) -> str:
    """A human-readable account of how ``source`` could reach ``target``.

    Example output::

        a could have influenced e within 3 ticks:
          t=1  a -> d
          t=3  d -> e
        (duration 3, end time 3)
    """
    channel = find_channel(log, source, target, window)
    if channel is None:
        return (
            f"{source!r} has no information channel to {target!r} "
            f"within {window} ticks"
        )
    duration = channel[-1].time - channel[0].time + 1
    lines = [
        f"{source!r} could have influenced {target!r} within {window} ticks:"
    ]
    for record in channel:
        lines.append(f"  t={record.time}  {record.source!r} -> {record.target!r}")
    lines.append(f"(duration {duration}, end time {channel[-1].time})")
    return "\n".join(lines)
