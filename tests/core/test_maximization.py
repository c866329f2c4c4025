"""Unit tests for greedy / CELF influence maximization (paper Alg. 4)."""

import pytest

from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS
from repro.core.maximization import (
    celf_top_k,
    greedy_top_k,
    spread_trajectory,
    top_k_by_influence,
)
from repro.core.oracle import ApproxInfluenceOracle, ExactInfluenceOracle


@pytest.fixture
def coverage_oracle():
    """A maximum-coverage instance where greedy beats top-by-influence:
    x covers 4 items, y and z cover 3 disjoint items each but overlap x."""
    return ExactInfluenceOracle(
        {
            "x": {1, 2, 3, 4},
            "y": {1, 2, 5},
            "z": {3, 4, 6},
            "w": {7, 8, 9},
        }
    )


class TestGreedy:
    def test_first_seed_is_max_influence(self, coverage_oracle):
        assert greedy_top_k(coverage_oracle, 1) == ["x"]

    def test_greedy_accounts_for_overlap(self, coverage_oracle):
        seeds = greedy_top_k(coverage_oracle, 2)
        # After x, w adds 3 new items while y/z add only 1/2.
        assert seeds == ["x", "w"]

    def test_full_selection_order(self, coverage_oracle):
        seeds = greedy_top_k(coverage_oracle, 4)
        assert seeds[0] == "x"
        assert seeds[1] == "w"
        assert set(seeds) == {"x", "y", "z", "w"}

    def test_k_larger_than_nodes(self, coverage_oracle):
        seeds = greedy_top_k(coverage_oracle, 100)
        assert len(seeds) == 4

    def test_candidates_restriction(self, coverage_oracle):
        seeds = greedy_top_k(coverage_oracle, 2, candidates=["y", "z"])
        assert set(seeds) == {"y", "z"}

    def test_rejects_bad_k(self, coverage_oracle):
        with pytest.raises(ValueError):
            greedy_top_k(coverage_oracle, 0)
        with pytest.raises(TypeError):
            greedy_top_k(coverage_oracle, 1.5)

    def test_rejects_non_oracle(self):
        with pytest.raises(TypeError):
            greedy_top_k({"a": {1}}, 1)

    def test_deterministic(self, coverage_oracle):
        assert greedy_top_k(coverage_oracle, 3) == greedy_top_k(coverage_oracle, 3)

    def test_greedy_guarantee_on_paper_log(self, paper_log):
        """Greedy's covered set must reach (1 − 1/e) of the best single
        pair's coverage; on this tiny instance we can brute-force optimum."""
        oracle = ExactInfluenceOracle.from_index(ExactIRS.from_log(paper_log, 3))
        seeds = greedy_top_k(oracle, 2)
        greedy_value = oracle.spread(seeds)
        nodes = sorted(paper_log.nodes)
        best = max(
            oracle.spread([first, second])
            for first in nodes
            for second in nodes
            if first != second
        )
        assert greedy_value >= (1 - 1 / 2.718281828) * best


class TestCelf:
    def test_matches_greedy_on_exact_oracle(self, coverage_oracle):
        assert celf_top_k(coverage_oracle, 3) == greedy_top_k(coverage_oracle, 3)

    def test_matches_greedy_on_irs_oracles(self, small_email_log):
        window = small_email_log.window_from_percent(10)
        exact = ExactInfluenceOracle.from_index(
            ExactIRS.from_log(small_email_log, window)
        )
        assert celf_top_k(exact, 8) == greedy_top_k(exact, 8)
        approx = ApproxInfluenceOracle.from_index(
            ApproxIRS.from_log(small_email_log, window, precision=7)
        )
        celf_seeds = celf_top_k(approx, 8)
        greedy_seeds = greedy_top_k(approx, 8)
        # Sketch gains are floats; ties may resolve differently, but the
        # achieved spread must match.
        assert approx.spread(celf_seeds) == pytest.approx(
            approx.spread(greedy_seeds), rel=0.05
        )

    def test_k_larger_than_nodes(self, coverage_oracle):
        assert len(celf_top_k(coverage_oracle, 50)) == 4

    def test_candidates_restriction(self, coverage_oracle):
        assert set(celf_top_k(coverage_oracle, 2, candidates=["y", "w"])) == {
            "y",
            "w",
        }

    def test_rejects_bad_k(self, coverage_oracle):
        with pytest.raises(ValueError):
            celf_top_k(coverage_oracle, -1)


class TestTopKByInfluence:
    def test_orders_by_individual_influence(self, coverage_oracle):
        assert top_k_by_influence(coverage_oracle, 2) == ["x", "w"] or \
            top_k_by_influence(coverage_oracle, 2)[0] == "x"

    def test_ignores_overlap(self):
        oracle = ExactInfluenceOracle(
            {"a": {1, 2, 3}, "b": {1, 2}, "c": {9}}
        )
        assert top_k_by_influence(oracle, 2) == ["a", "b"]

    def test_k_capped(self, coverage_oracle):
        assert len(top_k_by_influence(coverage_oracle, 10)) == 4


class TestSpreadTrajectory:
    def test_cumulative_values(self, coverage_oracle):
        trajectory = spread_trajectory(coverage_oracle, ["x", "w", "y"])
        assert trajectory == [4.0, 7.0, 8.0]

    def test_empty_seeds(self, coverage_oracle):
        assert spread_trajectory(coverage_oracle, []) == []

    def test_trajectory_monotone(self, paper_log):
        oracle = ExactInfluenceOracle.from_index(ExactIRS.from_log(paper_log, 3))
        trajectory = spread_trajectory(oracle, sorted(paper_log.nodes))
        assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))


class _CountingOracle(ExactInfluenceOracle):
    """Counts influence() calls per node."""

    def __init__(self, sets):
        super().__init__(sets)
        self.influence_calls = {}

    def influence(self, node):
        self.influence_calls[node] = self.influence_calls.get(node, 0) + 1
        return super().influence(node)


@pytest.mark.parametrize("selector", [celf_top_k, greedy_top_k, top_k_by_influence])
def test_each_candidate_influence_is_computed_once(selector):
    sets = {f"n{i}": set(range(i, 3 * i)) for i in range(12)}
    oracle = _CountingOracle(sets)
    picks = selector(oracle, 4)
    assert oracle.influence_calls == {node: 1 for node in sets}
    assert picks == selector(ExactInfluenceOracle(sets), 4)


def test_ties_still_break_by_repr():
    """Equal influences rank in repr order, whichever way they are listed."""
    sets = {"b": {1}, "a": {2}, "c": {3}, "d": {4, 5}}
    assert top_k_by_influence(ExactInfluenceOracle(sets), 4) == ["d", "a", "b", "c"]
    assert celf_top_k(ExactInfluenceOracle(sets), 4) == ["d", "a", "b", "c"]
    assert greedy_top_k(ExactInfluenceOracle(sets), 4) == ["d", "a", "b", "c"]
