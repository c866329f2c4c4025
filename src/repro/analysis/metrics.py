"""Metrics shared by the experiment harness and the test-suite.

Small, dependency-free implementations of the quantities the paper reports:
average relative estimation error (Table 3) and seed-set overlap counts
(Table 5).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

__all__ = [
    "relative_error",
    "average_relative_error",
    "seed_overlap",
    "jaccard",
]

Node = Hashable


def relative_error(true_value: float, estimate: float) -> float:
    """``|estimate − true| / true``; true must be non-zero."""
    if true_value == 0:
        raise ValueError("relative error undefined for a zero true value")
    return abs(estimate - true_value) / abs(true_value)


def average_relative_error(
    true_values: Mapping[Node, float],
    estimates: Mapping[Node, float],
) -> float:
    """Mean relative error over keys with non-zero true value.

    This is the paper's Table 3 metric: "the average relative error in the
    estimation of the IRS size for all the nodes".  Nodes with an empty IRS
    are skipped (their relative error is undefined; both algorithms agree
    on them anyway because an empty sketch estimates exactly zero).
    """
    errors = []
    for key, true_value in true_values.items():
        if true_value == 0:
            continue
        errors.append(relative_error(true_value, estimates.get(key, 0.0)))
    if not errors:
        return 0.0
    return sum(errors) / len(errors)


def seed_overlap(first: Iterable[Node], second: Iterable[Node]) -> int:
    """Number of common elements — the paper's Table 5 statistic."""
    return len(set(first) & set(second))


def jaccard(first: Iterable[Node], second: Iterable[Node]) -> float:
    """Jaccard similarity of two seed sets."""
    a, b = set(first), set(second)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)
