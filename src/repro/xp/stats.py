"""Significance testing for experiment-cell comparisons.

Dependency-free implementations of the two tests the evidence reports
need, plus the one median-plus-disjoint-IQR comparison rule in the tree:

* :func:`quartiles` — ``median``/``q1``/``q3``/``iqr`` by linear
  interpolation, the summary both the verdict rule and the report
  tables are built on;
* :func:`mann_whitney_u` — two-sided Mann-Whitney U (Wilcoxon rank-sum)
  with tie correction and continuity-corrected normal approximation.
  The replicate counts here (3–10 seeds per cell) are far below any
  asymptotic regime, so the p-value is advisory — which is exactly why
  the verdict below *also* requires the median shift and disjoint-IQR
  conditions;
* :func:`bootstrap_ci` — seeded percentile-bootstrap confidence interval
  of the median (or mean), for annotating point estimates.
* :func:`compare_samples` — the three-part verdict rule: a difference
  counts only when (1) the median moved more than ``threshold``,
  (2) the ``[q1, q3]`` ranges do not overlap (the noise rule that makes
  the verdict honest on shared runners: noisy metrics have wide,
  overlapping IQRs, a genuine shift separates them), and
  (3) Mann-Whitney rejects at ``alpha``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_THRESHOLD",
    "quartiles",
    "MannWhitneyResult",
    "rankdata",
    "mann_whitney_u",
    "bootstrap_ci",
    "significance_marker",
    "compare_samples",
]

#: Default two-sided significance level of the report annotations.
DEFAULT_ALPHA = 0.05

#: Default relative median shift that the verdict rule tolerates.
DEFAULT_THRESHOLD = 0.10


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """``median``/``q1``/``q3``/``iqr`` of ``values`` (linear interpolation)."""
    if not values:
        raise ValueError("cannot take quartiles of an empty sequence")
    ordered = sorted(float(v) for v in values)

    def _at(quantile: float) -> float:
        position = quantile * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    q1, median, q3 = _at(0.25), _at(0.5), _at(0.75)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def rankdata(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based), ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda index: values[index])
    ranks = [0.0] * len(values)
    position = 0
    while position < len(order):
        tail = position
        while (
            tail + 1 < len(order)
            and values[order[tail + 1]] == values[order[position]]
        ):
            tail += 1
        average = (position + tail) / 2.0 + 1.0
        for index in order[position : tail + 1]:
            ranks[index] = average
        position = tail + 1
    return ranks


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of a two-sided Mann-Whitney U test."""

    u: float  #: U statistic of the *first* sample.
    p_value: float  #: two-sided, normal approximation (1.0 when degenerate)
    n_x: int
    n_y: int

    @property
    def significant(self) -> bool:
        return self.p_value < DEFAULT_ALPHA


def mann_whitney_u(xs: Sequence[float], ys: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U over two independent samples.

    Uses the tie-corrected normal approximation with continuity
    correction.  Degenerate inputs (an empty sample, or all values
    identical) return ``p = 1.0`` rather than raising: a cell comparison
    with no variation carries no evidence either way.
    """
    n_x, n_y = len(xs), len(ys)
    if n_x == 0 or n_y == 0:
        return MannWhitneyResult(u=0.0, p_value=1.0, n_x=n_x, n_y=n_y)
    pooled = [float(v) for v in xs] + [float(v) for v in ys]
    ranks = rankdata(pooled)
    rank_sum_x = sum(ranks[:n_x])
    u_x = rank_sum_x - n_x * (n_x + 1) / 2.0
    mean_u = n_x * n_y / 2.0
    total = n_x + n_y
    # Tie correction on the variance: sum over tie groups of (t^3 - t).
    tie_term = 0.0
    counts: Dict[float, int] = {}
    for value in pooled:
        counts[value] = counts.get(value, 0) + 1
    for count in counts.values():
        tie_term += count**3 - count
    variance = (
        n_x * n_y / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
        if total > 1
        else 0.0
    )
    if variance <= 0.0:
        return MannWhitneyResult(u=u_x, p_value=1.0, n_x=n_x, n_y=n_y)
    z = (abs(u_x - mean_u) - 0.5) / math.sqrt(variance)
    z = max(z, 0.0)
    p = 2.0 * (1.0 - _normal_cdf(z))
    return MannWhitneyResult(u=u_x, p_value=min(max(p, 0.0), 1.0), n_x=n_x, n_y=n_y)


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def bootstrap_ci(
    values: Sequence[float],
    statistic: str = "median",
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Seeded percentile-bootstrap CI of ``median`` or ``mean``.

    Deterministic for a given ``seed`` so report regeneration is
    reproducible bit for bit.
    """
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if statistic == "median":
        stat: Callable[[Sequence[float]], float] = _median
    elif statistic == "mean":
        stat = lambda sample: sum(sample) / len(sample)  # noqa: E731
    else:
        raise ValueError(f"unknown bootstrap statistic {statistic!r}; use median or mean")
    data = [float(v) for v in values]
    if len(data) == 1:
        return (data[0], data[0])
    rng = random.Random(seed)
    n = len(data)
    estimates = []
    for _ in range(resamples):
        sample = [data[rng.randrange(n)] for _ in range(n)]
        estimates.append(stat(sample))
    estimates.sort()
    lower = (1.0 - confidence) / 2.0
    lo = estimates[min(int(lower * resamples), resamples - 1)]
    hi = estimates[min(int((1.0 - lower) * resamples), resamples - 1)]
    return (lo, hi)


def _median(sample: Sequence[float]) -> float:
    ordered = sorted(sample)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


#: Cache of "can an (n_x, n_y, alpha) rank test ever reject?" answers.
_POWER_CACHE: Dict[Tuple[int, int, float], bool] = {}


def _test_is_powered(n_x: int, n_y: int, alpha: float) -> bool:
    """Whether Mann-Whitney at these sample sizes can reject at ``alpha``.

    The best case is two perfectly separated tie-free samples; if even
    that p-value misses ``alpha`` (e.g. 3 vs 3 bottoms out near 0.08),
    requiring rejection would make a regression verdict unreachable, so
    :func:`compare_samples` treats the test as advisory instead.
    """
    cache_key = (n_x, n_y, alpha)
    cached = _POWER_CACHE.get(cache_key)
    if cached is None:
        floor = mann_whitney_u(
            [float(i) for i in range(n_x)],
            [float(n_x + i) for i in range(n_y)],
        ).p_value
        cached = floor < alpha
        _POWER_CACHE[cache_key] = cached
    return cached


def significance_marker(p_value: float) -> str:
    """The usual star notation: ``***`` <0.001, ``**`` <0.01, ``*`` <0.05."""
    if p_value < 0.001:
        return "***"
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def compare_samples(
    baseline: Sequence[float],
    candidate: Sequence[float],
    direction: str = "lower",
    threshold: float = DEFAULT_THRESHOLD,
    alpha: float = DEFAULT_ALPHA,
) -> Dict[str, object]:
    """Compare two replicate samples of one metric; the trend-delta rule.

    ``direction`` is ``"lower"`` (smaller is better: timings, error,
    memory) or ``"higher"`` (spread, overlap).  The returned dict has the
    two medians, the ratio, the Mann-Whitney ``p_value`` and a
    ``verdict``: ``regression`` / ``improvement`` only when *all three*
    conditions hold (median shift beyond ``threshold``, disjoint IQRs,
    ``p < alpha``); otherwise ``ok``.  When the replicate counts are too
    small for the rank test ever to reject at ``alpha`` (a 3-vs-3 split
    bottoms out near ``p = 0.08``; single replicates are fully
    degenerate), the test becomes advisory and the plain trend rule
    (median shift + disjoint IQRs) decides alone — the recorded
    ``p_value`` still shows what the test said (``1.0`` for single
    replicates), visible in the report as unannotated.
    """
    if direction not in ("lower", "higher"):
        raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    old = quartiles(baseline)
    new = quartiles(candidate)
    overlap = new["q1"] <= old["q3"] and old["q1"] <= new["q3"]
    old_median, new_median = old["median"], new["median"]
    ratio = new_median / old_median if old_median else math.inf
    test = mann_whitney_u(baseline, candidate)
    multi = test.n_x > 1 and test.n_y > 1
    grew = new_median > old_median * (1.0 + threshold)
    shrank = new_median < old_median * (1.0 - threshold)
    if direction == "higher":
        grew, shrank = shrank, grew  # a drop in spread is the regression
    powered = multi and _test_is_powered(test.n_x, test.n_y, alpha)
    tested_ok = test.p_value < alpha if powered else True
    if grew and not overlap and tested_ok:
        verdict = "regression"
    elif shrank and not overlap and tested_ok:
        verdict = "improvement"
    else:
        verdict = "ok"
    return {
        "old_median": old_median,
        "new_median": new_median,
        "ratio": ratio,
        "iqr_overlap": overlap,
        "p_value": test.p_value if multi else 1.0,
        "n_old": test.n_x,
        "n_new": test.n_y,
        "direction": direction,
        "verdict": verdict,
    }
