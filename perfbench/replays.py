"""Kernel replays over a deterministic sample taken from a built index.

Each replay times one public kernel call (``IRSSummary.merge_within``,
``VersionedHLL.add`` / ``merge_within`` / ``copy``) on copies, so the
index itself is never changed.  The sample is every k-th node in label
order, so the same seed replays the same calls.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, List

Node = Hashable


def _sample(nodes: Iterable[Node], count: int) -> List[Node]:
    ordered = sorted(nodes, key=repr)
    stride = max(1, len(ordered) // count)
    return ordered[::stride][:count]


def summary_merge_us(index, window: int, count: int = 256, rounds: int = 8) -> float:
    """Mean µs of ``IRSSummary.merge_within`` over sampled node pairs."""
    nodes = _sample(index.nodes, count + 1)
    pairs = list(zip(nodes, nodes[1:]))
    starts = []
    for _, other in pairs:
        ends = [end for _, end in index.summary(other).items()]
        starts.append(min(ends) - 1 if ends else 0)
    total = 0.0
    calls = 0
    clock = time.perf_counter
    for _ in range(rounds):
        targets = [index.summary(node).copy() for node, _ in pairs]
        for target, (node, other), start in zip(targets, pairs, starts):
            source = index.summary(other)
            begin = clock()
            target.merge_within(source, start, window, skip=node)
            total += clock() - begin
            calls += 1
    return total / calls * 1e6


def vhll_kernels(index, window: int, count: int = 64, rounds: int = 4) -> dict:
    """Per-call cost of ``VersionedHLL.copy``, ``add`` and ``merge_within``."""
    nodes = _sample(index.nodes, count + 1)
    sketches = [index.sketch(node) for node in nodes]
    starts = []
    for other in sketches[1:]:
        times = [t for cell in other.to_dict()["cells"] for t, _ in cell]
        starts.append(min(times) - 1 if times else 0)
    adds_per_copy = 256
    stamps = [(j * 7919) % window for j in range(adds_per_copy)]
    clock = time.perf_counter
    copy_s = add_s = merge_s = 0.0
    copies = adds = merges = 0
    for round_index in range(rounds):
        for position, sketch in enumerate(sketches[:-1]):
            begin = clock()
            clone = sketch.copy()
            copy_s += clock() - begin
            copies += 1
            begin = clock()
            clone.merge_within(sketches[position + 1], max(starts[position], 0), window)
            merge_s += clock() - begin
            merges += 1
            base = (round_index * len(sketches) + position) * adds_per_copy
            begin = clock()
            for offset, stamp in enumerate(stamps):
                clone.add(base + offset, stamp)
            add_s += clock() - begin
            adds += adds_per_copy
    return {
        "sketch.vhll.copy_us": copy_s / copies * 1e6,
        "sketch.vhll.merge_within_us": merge_s / merges * 1e6,
        "sketch.vhll.add_ns": add_s / adds * 1e9,
    }
