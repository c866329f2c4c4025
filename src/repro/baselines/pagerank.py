"""PageRank baseline (paper §6, "PR").

The paper ranks nodes by PageRank on the **reversed** flattened graph:
PageRank measures incoming importance while influence flows outward, so
flipping the edges makes high scores mean "many nodes are downstream of
me".  Settings follow the paper: restart probability 0.15 and an L1
stopping threshold of 1e-4 between successive iterations.

Implemented from scratch with dangling-mass redistribution (a node without
out-links donates its mass uniformly), which the power iteration needs to
keep the scores a proper distribution.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.baselines.static import StaticGraph, flatten
from repro.core.interactions import InteractionLog
from repro.utils.validation import (
    require_int,
    require_positive,
    require_probability,
    require_type,
)

__all__ = ["pagerank", "pagerank_top_k"]

Node = Hashable


def pagerank(
    graph: StaticGraph,
    restart: float = 0.15,
    tolerance: float = 1e-4,
    max_iterations: int = 200,
) -> Dict[Node, float]:
    """Power-iteration PageRank scores of ``graph``.

    Parameters
    ----------
    graph:
        The directed graph to score (callers wanting the paper's influence
        semantics pass an already-reversed graph; :func:`pagerank_top_k`
        does this automatically).
    restart:
        Teleport probability (the paper uses 0.15).
    tolerance:
        Stop when the L1 distance between successive score vectors drops
        below this (the paper uses 1e-4).
    max_iterations:
        Hard cap to guarantee termination.
    """
    require_type(graph, "graph", StaticGraph)
    require_probability(restart, "restart")
    require_positive(tolerance, "tolerance")
    if isinstance(max_iterations, bool) or not isinstance(max_iterations, int):
        raise TypeError("max_iterations must be an int")
    require_positive(max_iterations, "max_iterations")

    nodes: List[Node] = sorted(graph.nodes, key=repr)
    n = len(nodes)
    if n == 0:
        return {}
    index = {node: i for i, node in enumerate(nodes)}
    out_lists = [sorted(graph.out_neighbours(node), key=repr) for node in nodes]
    out_index = [[index[t] for t in targets] for targets in out_lists]

    damping = 1.0 - restart
    scores = [1.0 / n] * n
    for _ in range(max_iterations):
        fresh = [restart / n] * n
        dangling_mass = 0.0
        for i, targets in enumerate(out_index):
            if not targets:
                dangling_mass += scores[i]
                continue
            share = damping * scores[i] / len(targets)
            for j in targets:
                fresh[j] += share
        if dangling_mass > 0.0:
            bonus = damping * dangling_mass / n
            fresh = [value + bonus for value in fresh]
        delta = sum(abs(a - b) for a, b in zip(fresh, scores))
        scores = fresh
        if delta < tolerance:
            break
    return {node: scores[index[node]] for node in nodes}


def pagerank_top_k(
    log: InteractionLog,
    k: int,
    restart: float = 0.15,
    tolerance: float = 1e-4,
) -> List[Node]:
    """The paper's PR baseline: top-``k`` by PageRank on the reversed graph."""
    require_type(log, "log", InteractionLog)
    require_int(k, "k")
    require_positive(k, "k")
    reversed_graph = flatten(log).reversed()
    scores = pagerank(reversed_graph, restart=restart, tolerance=tolerance)
    ranked = sorted(scores, key=lambda node: (-scores[node], repr(node)))
    return ranked[:k]
