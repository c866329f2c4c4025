"""The experiment harness — one function per paper table / figure / ablation.

Every function returns a list of plain dict rows.  ``repro xp run`` (see
:mod:`repro.xp.runner`) calls them one matrix cell at a time and
``repro xp report`` renders the persisted rows, so this module holds the
computation and nothing else.

Mapping to the paper (see DESIGN.md §4 for the full index):

=========================  ================================================
function                   reproduces
=========================  ================================================
dataset_characteristics    Table 2 (dataset statistics)
accuracy_experiment        Table 3 (avg relative IRS-size error vs β and ω)
memory_experiment          Table 4 (memory at ω ∈ {1, 10, 20}%)
runtime_experiment         Figure 3 (processing time vs ω)
oracle_query_experiment    Figure 4 (oracle query time vs seed-set size)
spread_comparison          Figure 5 (TCIC spread of each method's top-k)
seed_overlap_experiment    Table 5 (common seeds across window lengths)
seed_time_experiment       Table 6 (time to find the top-50 seeds)
selector_ablation          A1 (greedy vs CELF vs top-|σ| seed selectors)
vhll_list_ablation         A2 (vHLL version-list length vs Lemma 4)
exact_vs_sketch_ablation   A3 (exact vs sketch index: time, memory)
sketch_backend_ablation    A4 (vHLL vs versioned bottom-k accuracy)
multiwindow_ablation       A5 (one multi-window build vs per-ω builds)
tcic_judge_ablation        A6 (literal vs prose TCIC judge)
cross_judge_experiment     Figure 5 seeds re-scored under the TCLT judge
=========================  ================================================
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set

import repro.obs as obs
from repro.analysis.memory import accounted_bytes, megabytes
from repro.analysis.metrics import average_relative_error, seed_overlap
from repro.baselines.continest import continest_top_k
from repro.baselines.degree import (
    degree_discount_top_k,
    high_degree_top_k,
    smart_high_degree_top_k,
)
from repro.baselines.ic_greedy import ic_greedy_top_k
from repro.baselines.pagerank import pagerank_top_k
from repro.baselines.skim import skim_top_k
from repro.core.approx import ApproxIRS
from repro.core.approx_bottomk import BottomKIRS
from repro.core.exact import ExactIRS
from repro.core.interactions import InteractionLog
from repro.core.maximization import celf_top_k, greedy_top_k, top_k_by_influence
from repro.core.multiwindow import MultiWindowIRS
from repro.core.oracle import ApproxInfluenceOracle, ExactInfluenceOracle
from repro.datasets.catalog import dataset_names, load_dataset
from repro.simulation.spread import estimate_spread
from repro.simulation.tclt import estimate_tclt_spread
from repro.utils.rng import RngLike, resolve_rng, spawn_rng
from repro.utils.timer import Timer
from repro.utils.validation import require_type

_SUMMARY_BYTES = obs.gauge(
    "summary.bytes",
    "Accounted sketch-index memory per dataset and window (Table 4).",
)

__all__ = [
    "ALL_METHODS",
    "select_seeds",
    "dataset_characteristics",
    "accuracy_experiment",
    "memory_experiment",
    "runtime_experiment",
    "oracle_query_experiment",
    "spread_comparison",
    "seed_overlap_experiment",
    "seed_time_experiment",
    "selector_ablation",
    "vhll_list_ablation",
    "exact_vs_sketch_ablation",
    "sketch_backend_ablation",
    "multiwindow_ablation",
    "tcic_judge_ablation",
    "cross_judge_experiment",
]

Node = Hashable

ALL_METHODS = ("PR", "HD", "SHD", "SKIM", "CTE", "IRS", "IRS-approx")
"""The seven competitors of paper Figure 5 / Table 6."""

EXTRA_METHODS = ("DD", "ICG")
"""Classical baselines beyond the paper's panel: DegreeDiscount (ref [4])
and Kempe-style Monte-Carlo IC greedy (refs [13]/[17]).  Accepted by
:func:`select_seeds` but not part of the default comparison (ICG in
particular is orders of magnitude slower, which is rather the point)."""


# ---------------------------------------------------------------------------
# Seed selection dispatcher
# ---------------------------------------------------------------------------
def select_seeds(
    log: InteractionLog,
    method: str,
    k: int,
    window: int,
    precision: int = 9,
    rng: RngLike = 0,
) -> List[Node]:
    """Top-``k`` seeds of ``log`` according to ``method``.

    ``method`` is one of :data:`ALL_METHODS`.  ``window`` (ω in ticks) is
    used by the IRS methods and as ConTinEst's horizon; the static methods
    ignore it, exactly as in the paper.
    """
    require_type(log, "log", InteractionLog)
    if method == "PR":
        return pagerank_top_k(log, k)
    if method == "HD":
        return high_degree_top_k(log, k)
    if method == "SHD":
        return smart_high_degree_top_k(log, k)
    if method == "SKIM":
        return skim_top_k(log, k, rng=rng)
    if method == "CTE":
        return continest_top_k(log, k, horizon=max(window, 1), rng=rng)
    if method == "IRS":
        oracle = ExactInfluenceOracle.from_index(ExactIRS.from_log(log, window))
        return greedy_top_k(oracle, k)
    if method == "IRS-approx":
        index = ApproxIRS.from_log(log, window, precision=precision)
        return greedy_top_k(ApproxInfluenceOracle.from_index(index), k)
    if method == "DD":
        return degree_discount_top_k(log, k)
    if method == "ICG":
        return ic_greedy_top_k(log, k, probability=0.1, runs=20, rng=rng)
    raise ValueError(
        f"unknown method {method!r}; known: {ALL_METHODS + EXTRA_METHODS}"
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------
def dataset_characteristics(
    names: Optional[Sequence[str]] = None,
    rng: RngLike = 0,
    scale: float = 1.0,
) -> List[Dict[str, object]]:
    """Table 2: |V|, |E| and day span of every (simulated) dataset."""
    rows = []
    for name in names if names is not None else dataset_names():
        log = load_dataset(name, rng=rng, scale=scale)
        rows.append(
            {
                "dataset": name,
                "nodes": log.num_nodes,
                "interactions": log.num_interactions,
                "span_ticks": log.time_span,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------
def accuracy_experiment(
    log: InteractionLog,
    dataset: str = "",
    betas: Sequence[int] = (16, 32, 64, 128, 256, 512),
    window_percents: Sequence[float] = (1, 10, 20),
    salt: int = 0,
) -> List[Dict[str, object]]:
    """Table 3: average relative IRS-size error per β and window length.

    Builds one exact index per window (the expensive part) and one
    approximate index per (β, window) pair, then compares sizes node by
    node via :func:`~repro.analysis.metrics.average_relative_error`.
    """
    require_type(log, "log", InteractionLog)
    rows = []
    for percent in window_percents:
        window = log.window_from_percent(percent)
        exact_sizes = ExactIRS.from_log(log, window).irs_sizes()
        for beta in betas:
            precision = _precision_for(beta)
            approx = ApproxIRS.from_log(log, window, precision=precision, salt=salt)
            error = average_relative_error(exact_sizes, approx.irs_estimates())
            rows.append(
                {
                    "dataset": dataset,
                    "beta": beta,
                    "window_pct": percent,
                    "avg_rel_error": error,
                }
            )
    return rows


def _precision_for(beta: int) -> int:
    if beta <= 0 or beta & (beta - 1) != 0:
        raise ValueError(f"beta must be a positive power of two, got {beta}")
    return beta.bit_length() - 1


# ---------------------------------------------------------------------------
# Table 4
# ---------------------------------------------------------------------------
def memory_experiment(
    logs: Mapping[str, InteractionLog],
    window_percents: Sequence[float] = (1, 10, 20),
    precision: int = 9,
) -> List[Dict[str, object]]:
    """Table 4: accounted sketch memory per dataset and window length."""
    rows = []
    for name, log in logs.items():
        row: Dict[str, object] = {"dataset": name}
        for percent in window_percents:
            window = log.window_from_percent(percent)
            with obs.span("experiment.memory", dataset=name, window_pct=percent):
                index = ApproxIRS.from_log(log, window, precision=precision)
                index_bytes = accounted_bytes(index)
            _SUMMARY_BYTES.labels(dataset=name, window_pct=f"{percent:g}").set(
                index_bytes
            )
            row[f"mb_at_{percent:g}pct"] = megabytes(index_bytes)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------
def runtime_experiment(
    logs: Mapping[str, InteractionLog],
    window_percents: Sequence[float] = (1, 5, 10, 20, 40, 60, 80, 100),
    precision: int = 9,
) -> List[Dict[str, object]]:
    """Figure 3: one-pass processing time of the approximate algorithm as a
    function of the window length."""
    rows = []
    for name, log in logs.items():
        for percent in window_percents:
            window = log.window_from_percent(percent)
            with obs.span("experiment.runtime", dataset=name, window_pct=percent):
                with Timer() as timer:
                    ApproxIRS.from_log(log, window, precision=precision)
            rows.append(
                {
                    "dataset": name,
                    "window_pct": percent,
                    "seconds": timer.elapsed,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------
def oracle_query_experiment(
    log: InteractionLog,
    dataset: str = "",
    seed_counts: Sequence[int] = (10, 100, 1_000, 5_000, 10_000),
    window_percent: float = 20,
    precision: int = 9,
    repetitions: int = 5,
    rng: RngLike = 0,
) -> List[Dict[str, object]]:
    """Figure 4: influence-oracle query time vs seed-set size.

    Seeds are sampled uniformly (with replacement past the node count, as
    the paper's 10 000-seed queries on smaller graphs imply); each query is
    repeated and averaged.
    """
    require_type(log, "log", InteractionLog)
    generator = resolve_rng(rng)
    window = log.window_from_percent(window_percent)
    oracle = ApproxInfluenceOracle.from_index(
        ApproxIRS.from_log(log, window, precision=precision)
    )
    nodes = sorted(log.nodes, key=repr)
    rows = []
    for count in seed_counts:
        seeds = [nodes[generator.randrange(len(nodes))] for _ in range(count)]
        with obs.span("experiment.oracle_query", dataset=dataset, num_seeds=count):
            with Timer() as timer:
                for _ in range(repetitions):
                    oracle.spread(seeds)
        rows.append(
            {
                "dataset": dataset,
                "num_seeds": count,
                "milliseconds": timer.elapsed / repetitions * 1_000.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------
def spread_comparison(
    log: InteractionLog,
    dataset: str = "",
    ks: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    window_percents: Sequence[float] = (1, 20),
    probabilities: Sequence[float] = (0.5, 1.0),
    methods: Sequence[str] = ALL_METHODS,
    runs: int = 5,
    precision: int = 9,
    rng: RngLike = 0,
) -> List[Dict[str, object]]:
    """Figure 5: simulated TCIC spread of every method's top-k seeds.

    Greedy selectors produce *nested* seed lists, so each method selects
    ``max(ks)`` seeds once and the spread of every prefix is simulated —
    exactly how the paper's curves are drawn.
    """
    require_type(log, "log", InteractionLog)
    generator = resolve_rng(rng)
    k_max = max(ks)
    rows = []
    for percent in window_percents:
        window = log.window_from_percent(percent)
        for stream, method in enumerate(methods):
            seeds = select_seeds(
                log,
                method,
                k_max,
                window,
                precision=precision,
                rng=spawn_rng(generator, stream),
            )
            for probability in probabilities:
                for k in ks:
                    estimate = estimate_spread(
                        log,
                        seeds[:k],
                        window,
                        probability,
                        runs=runs,
                        rng=spawn_rng(generator, 7_000 + stream * 101 + k),
                    )
                    rows.append(
                        {
                            "dataset": dataset,
                            "window_pct": percent,
                            "probability": probability,
                            "method": method,
                            "k": k,
                            "spread": estimate.mean,
                        }
                    )
    return rows


# ---------------------------------------------------------------------------
# Table 5
# ---------------------------------------------------------------------------
def seed_overlap_experiment(
    logs: Mapping[str, InteractionLog],
    window_percents: Sequence[float] = (1, 10, 20),
    k: int = 10,
    precision: int = 9,
) -> List[Dict[str, object]]:
    """Table 5: common seeds among the top-k found at different windows."""
    rows = []
    for name, log in logs.items():
        seeds_by_window = {}
        for percent in window_percents:
            window = log.window_from_percent(percent)
            index = ApproxIRS.from_log(log, window, precision=precision)
            oracle = ApproxInfluenceOracle.from_index(index)
            seeds_by_window[percent] = greedy_top_k(oracle, k)
        row: Dict[str, object] = {"dataset": name}
        percents = list(window_percents)
        for i, first in enumerate(percents):
            for second in percents[i + 1 :]:
                row[f"common_{first:g}pct_{second:g}pct"] = seed_overlap(
                    seeds_by_window[first], seeds_by_window[second]
                )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 6
# ---------------------------------------------------------------------------
def seed_time_experiment(
    logs: Mapping[str, InteractionLog],
    k: int = 50,
    window_percent: float = 1,
    methods: Sequence[str] = ALL_METHODS,
    precision: int = 9,
    rng: RngLike = 0,
) -> List[Dict[str, object]]:
    """Table 6: wall-clock seconds to find the top-``k`` seeds per method.

    For the IRS methods the timing *includes* the one-pass index
    construction (the paper's Table 6 does the same — its IRS column grows
    with the interaction count, not the node count).
    """
    generator = resolve_rng(rng)
    rows = []
    for name, log in logs.items():
        row: Dict[str, object] = {"dataset": name}
        window = log.window_from_percent(window_percent)
        for stream, method in enumerate(methods):
            with obs.span("experiment.seed_time", dataset=name, method=method):
                with Timer() as timer:
                    select_seeds(
                        log,
                        method,
                        k,
                        window,
                        precision=precision,
                        rng=spawn_rng(generator, stream),
                    )
            row[method] = timer.elapsed
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Ablations (beyond the paper; DESIGN.md §4 A1–A6)
# ---------------------------------------------------------------------------
class CountingOracle(ExactInfluenceOracle):
    """The exact oracle, counting gain evaluations."""

    def __init__(self, sets: Dict[Node, Set[Node]]) -> None:
        super().__init__(sets)
        self.gain_calls = 0

    def gain(self, state: object, node: Node) -> float:
        self.gain_calls += 1
        return super().gain(state, node)


def selector_ablation(
    log: InteractionLog,
    dataset: str = "",
    k: int = 20,
    window_percent: float = 10,
) -> List[Dict[str, object]]:
    """A1: greedy and CELF agree on spread; CELF needs far fewer gain
    calls; top-|σ| is cheapest but loses coverage to overlap."""
    require_type(log, "log", InteractionLog)
    index = ExactIRS.from_log(log, log.window_from_percent(window_percent))
    sets = {node: index.reachability_set(node) for node in index.nodes}
    rows = []
    for selector_name, selector in (
        ("greedy", greedy_top_k),
        ("celf", celf_top_k),
        ("top-by-sigma", top_k_by_influence),
    ):
        oracle = CountingOracle(sets)
        with Timer() as timer:
            seeds = selector(oracle, k)
        rows.append(
            {
                "dataset": dataset,
                "selector": selector_name,
                "oracle_spread": oracle.spread(seeds),
                "gain_calls": oracle.gain_calls,
                "seconds": timer.elapsed,
            }
        )
    return rows


def vhll_list_ablation(
    log: InteractionLog,
    dataset: str = "",
    window_percents: Sequence[float] = (1, 10, 20),
    precision: int = 9,
) -> List[Dict[str, object]]:
    """A2 (Lemma 4): the longest per-cell version list against the
    3·ln(ω) + 3 envelope of its O(log ω) expectation bound."""
    require_type(log, "log", InteractionLog)
    rows = []
    for percent in window_percents:
        window = log.window_from_percent(percent)
        index = ApproxIRS.from_log(log, window, precision=precision)
        rows.append(
            {
                "dataset": dataset,
                "window_pct": percent,
                "max_cell_list": index.max_cell_length(),
                "lemma4_bound": 3 * math.log(max(window, 2)) + 3,
            }
        )
    return rows


def exact_vs_sketch_ablation(
    log: InteractionLog,
    dataset: str = "",
    window_percent: float = 20,
    precision: int = 9,
) -> List[Dict[str, object]]:
    """A3, the §3.2 trade: the sketch costs more CPU in pure Python but
    its memory is bounded by n·β, while the exact index grows with n²."""
    require_type(log, "log", InteractionLog)
    window = log.window_from_percent(window_percent)
    with Timer() as exact_timer:
        exact = ExactIRS.from_log(log, window)
    with Timer() as sketch_timer:
        sketch = ApproxIRS.from_log(log, window, precision=precision)
    return [
        {
            "dataset": dataset,
            "exact_s": exact_timer.elapsed,
            "sketch_s": sketch_timer.elapsed,
            "exact_mb": megabytes(accounted_bytes(exact)),
            "sketch_mb": megabytes(accounted_bytes(sketch)),
            "exact_entries": exact.entry_count(),
            "sketch_entries": sketch.entry_count(),
        }
    ]


def sketch_backend_ablation(
    log: InteractionLog,
    dataset: str = "",
    window_percents: Sequence[float] = (1, 10),
    precision: int = 9,
    bottomk_k: int = 64,
) -> List[Dict[str, object]]:
    """A4: vHLL vs versioned bottom-k at matched stored-pair budgets.

    Quantifies why the paper versions HyperLogLog: a bottom-k sketch's
    eviction (by hash only) loses exactly the pairs stricter time filters
    need, so its windowed-merge accuracy degrades where the vHLL's Pareto
    lists do not.
    """
    require_type(log, "log", InteractionLog)
    rows = []
    for percent in window_percents:
        window = log.window_from_percent(percent)
        truth = ExactIRS.from_log(log, window).irs_sizes()
        vhll = ApproxIRS.from_log(log, window, precision=precision)
        bottomk = BottomKIRS.from_log(log, window, k=bottomk_k)
        rows.append(
            {
                "dataset": dataset,
                "window_pct": percent,
                "vhll_err": average_relative_error(truth, vhll.irs_estimates()),
                "bottomk_err": average_relative_error(truth, bottomk.irs_estimates()),
                "vhll_pairs": vhll.entry_count(),
                "bottomk_pairs": bottomk.entry_count(),
            }
        )
    return rows


def multiwindow_ablation(
    log: InteractionLog,
    dataset: str = "",
    window_percents: Sequence[float] = (1, 5, 10, 20, 50),
) -> List[Dict[str, object]]:
    """A5: one MultiWindowIRS build vs one ExactIRS build per queried ω.

    The multi-window index answers *every* ω; this quantifies its
    overhead against the separate single-window builds it replaces.
    """
    require_type(log, "log", InteractionLog)
    with Timer() as multi_timer:
        multi = MultiWindowIRS.from_log(log)
    with Timer() as repeated_timer:
        for percent in window_percents:
            ExactIRS.from_log(log, log.window_from_percent(percent))
    return [
        {
            "dataset": dataset,
            "multi_s": multi_timer.elapsed,
            "repeated_exact_s": repeated_timer.elapsed,
            "multi_entries": multi.entry_count(),
            "max_frontier": multi.max_frontier_length(),
        }
    ]


def tcic_judge_ablation(
    log: InteractionLog,
    dataset: str = "",
    k: int = 10,
    window_percent: float = 1,
) -> List[Dict[str, object]]:
    """A6: the literal Algorithm 1 (seed clock resets per interaction)
    always spreads at least as far as the prose variant, often far more."""
    require_type(log, "log", InteractionLog)
    window = log.window_from_percent(window_percent)
    seeds = sorted(log.nodes, key=repr)[:k]
    literal = estimate_spread(log, seeds, window, 1.0, reset_seed_clock=True)
    prose = estimate_spread(log, seeds, window, 1.0, reset_seed_clock=False)
    return [
        {
            "dataset": dataset,
            "literal_spread": literal.mean,
            "prose_spread": prose.mean,
        }
    ]


CROSS_JUDGE_METHODS = ("PR", "HD", "SHD", "IRS", "IRS-approx")
"""The methods whose top-k seeds the cross-judge check re-scores."""


def cross_judge_experiment(
    log: InteractionLog,
    dataset: str = "",
    methods: Sequence[str] = CROSS_JUDGE_METHODS,
    k: int = 30,
    window_percent: float = 1,
    precision: int = 9,
    tclt_runs: int = 3,
    rng: RngLike = 0,
) -> List[Dict[str, object]]:
    """Figure 5's seeds scored by both the TCIC and the TCLT judge.

    The paper scores every method under its own TCIC model.  Re-scoring
    the same seed sets under the structurally different Time-Constrained
    Linear Threshold judge (:mod:`repro.simulation.tclt`) tests whether
    the IRS advantage is a property of the seeds or of the judge.  Every
    method's TCLT score uses the same threshold draws.
    """
    require_type(log, "log", InteractionLog)
    generator = resolve_rng(rng)
    tclt_seed = generator.getrandbits(64)
    window = log.window_from_percent(window_percent)
    rows = []
    for stream, method in enumerate(methods):
        seeds = select_seeds(
            log, method, k, window, precision=precision, rng=spawn_rng(generator, stream)
        )
        rows.append(
            {
                "dataset": dataset,
                "method": method,
                "tcic_spread": estimate_spread(log, seeds, window, 1.0).mean,
                "tclt_spread": estimate_tclt_spread(
                    log, seeds, window, runs=tclt_runs, rng=tclt_seed
                ),
            }
        )
    return rows
