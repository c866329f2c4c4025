"""Greedy influence maximization over an influence oracle (paper §4.2).

Finding the ``k``-seed set with maximum combined IRS coverage is NP-hard
(paper Lemma 7 — it is maximum coverage), but the objective
``Inf(S) = |⋃_{u∈S} σω(u)|`` is monotone and submodular (Lemma 8), so the
classical greedy algorithm achieves the ``1 − 1/e`` approximation.

Three selectors are provided:

* :func:`greedy_top_k` — the paper's Algorithm 4: candidates sorted by
  individual influence; each round scans the sorted list and stops early as
  soon as the best gain found so far exceeds the *individual* influence of
  the next candidate (an upper bound on its gain);
* :func:`celf_top_k` — CELF lazy greedy (Leskovec et al. 2007): cached
  stale gains in a max-heap, re-evaluated only when they surface.  Returns
  identical seed sets (up to ties) with far fewer oracle calls — the
  ablation benchmark quantifies the difference;
* :func:`top_k_by_influence` — no-overlap-awareness baseline that simply
  takes the ``k`` individually strongest nodes (the paper's HD analogue at
  the IRS level), used in tests and ablations.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.core.oracle import InfluenceOracle
from repro.obs import OBS_STATE as _OBS
from repro.utils.validation import require_int, require_positive, require_type

__all__ = [
    "greedy_top_k",
    "celf_top_k",
    "top_k_by_influence",
    "spread_trajectory",
]

Node = Hashable

_GAIN_EVALS = obs.counter(
    "maximization.gain_evaluations",
    "Marginal-gain oracle evaluations during seed selection.",
)
_LAZY_HITS = obs.counter(
    "maximization.lazy_hits",
    "CELF selections accepted from a cached gain without re-evaluation.",
)
_CUTOFF_BREAKS = obs.counter(
    "maximization.cutoff_breaks",
    "Greedy rounds ended early by the sorted-scan upper-bound cutoff.",
)
_SEEDS_SELECTED = obs.counter(
    "maximization.seeds_selected", "Seeds chosen across all selector calls."
)


def _ranked_candidates(
    oracle: InfluenceOracle, candidates: Optional[Iterable[Node]]
) -> Tuple[List[Node], List[float]]:
    """Candidates strongest first, with their influences; each computed once.

    Deterministic tie-breaking: influence descending, then stable repr.
    """
    pool = list(candidates) if candidates is not None else list(oracle.nodes())
    pool.sort(key=repr)
    influence = oracle.influence
    scores = [influence(node) for node in pool]
    order = sorted(range(len(pool)), key=scores.__getitem__, reverse=True)
    return [pool[i] for i in order], [scores[i] for i in order]


def _validate(oracle: InfluenceOracle, k: int) -> None:
    require_type(oracle, "oracle", InfluenceOracle)
    require_int(k, "k")
    require_positive(k, "k")


def greedy_top_k(
    oracle: InfluenceOracle,
    k: int,
    candidates: Optional[Iterable[Node]] = None,
) -> List[Node]:
    """Paper Algorithm 4: greedy seed selection with the sorted-scan cutoff.

    Parameters
    ----------
    oracle:
        An :class:`~repro.core.oracle.InfluenceOracle`.
    k:
        Number of seeds to select (fewer are returned when the oracle knows
        fewer nodes).
    candidates:
        Restrict selection to this pool; defaults to every oracle node.
    """
    _validate(oracle, k)
    pool, upper_bounds = _ranked_candidates(oracle, candidates)
    selected: List[Node] = []
    covered = oracle.new_accumulator()
    chosen: set = set()
    oracle_gain = oracle.gain
    count_cutoff = _CUTOFF_BREAKS.inc
    count_eval = _GAIN_EVALS.inc
    while len(selected) < k and len(chosen) < len(pool):
        best_gain = -1.0
        best_node: Optional[Node] = None
        for node, upper_bound in zip(pool, upper_bounds):
            if node in chosen:
                continue
            if best_node is not None and best_gain >= upper_bound:
                # Candidates are influence-sorted, so no later node can beat
                # the current best — the paper's `if gain > σu: break`.
                count_cutoff()
                break
            count_eval()
            gain = oracle_gain(covered, node)
            if gain > best_gain:
                best_gain = gain
                best_node = node
        if best_node is None:
            break
        selected.append(best_node)
        chosen.add(best_node)
        oracle.accumulate(covered, best_node)
        _SEEDS_SELECTED.inc()
    return selected


def celf_top_k(
    oracle: InfluenceOracle,
    k: int,
    candidates: Optional[Iterable[Node]] = None,
) -> List[Node]:
    """CELF lazy-greedy seed selection.

    Exploits submodularity: a node's marginal gain can only shrink as the
    seed set grows, so stale cached gains are valid upper bounds.  The node
    at the top of the heap is re-evaluated against the current covered set;
    if it stays on top it is selected without touching the other candidates.
    """
    _validate(oracle, k)
    selected: List[Node] = []
    covered = oracle.new_accumulator()
    # Heap of (-gain, insertion_index, node, round_evaluated); the ranked
    # list is already in (-influence, index) order, hence a valid heap.
    pool, influences = _ranked_candidates(oracle, candidates)
    heap: List[tuple] = [
        (-influence, order, node, -1)
        for order, (node, influence) in enumerate(zip(pool, influences))
    ]
    current_round = 0
    while len(selected) < k and heap:
        neg_gain, order, node, evaluated = heapq.heappop(heap)
        if evaluated == current_round:
            if _OBS.enabled:
                _LAZY_HITS.inc()
                _SEEDS_SELECTED.inc()
            selected.append(node)
            oracle.accumulate(covered, node)
            current_round += 1
            continue
        _GAIN_EVALS.inc()
        fresh_gain = oracle.gain(covered, node)
        heapq.heappush(heap, (-fresh_gain, order, node, current_round))
    return selected


def top_k_by_influence(
    oracle: InfluenceOracle,
    k: int,
    candidates: Optional[Iterable[Node]] = None,
) -> List[Node]:
    """The ``k`` nodes with largest individual influence (overlap-blind)."""
    _validate(oracle, k)
    return _ranked_candidates(oracle, candidates)[0][:k]


def spread_trajectory(oracle: InfluenceOracle, seeds: Sequence[Node]) -> List[float]:
    """Cumulative oracle spread after each prefix of ``seeds``.

    ``result[i] = Inf(seeds[: i + 1])`` — the curve plotted on the y-axis of
    the paper's Figure 5 (there measured by TCIC simulation instead of the
    oracle; :func:`repro.simulation.spread.estimate_spread` provides that).
    """
    require_type(oracle, "oracle", InfluenceOracle)
    covered = oracle.new_accumulator()
    trajectory: List[float] = []
    for seed in seeds:
        oracle.accumulate(covered, seed)
        trajectory.append(oracle.value(covered))
    return trajectory
