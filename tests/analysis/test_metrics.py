"""Unit tests for analysis metrics."""

import pytest

from repro.analysis.metrics import (
    average_relative_error,
    jaccard,
    relative_error,
    seed_overlap,
)


class TestRelativeError:
    def test_basic(self):
        assert relative_error(10, 12) == pytest.approx(0.2)

    def test_symmetric_direction(self):
        assert relative_error(10, 8) == pytest.approx(0.2)

    def test_zero_true_rejected(self):
        with pytest.raises(ValueError):
            relative_error(0, 1)


class TestAverageRelativeError:
    def test_averages_over_nonzero_keys(self):
        true = {"a": 10, "b": 20, "c": 0}
        estimates = {"a": 11, "b": 18, "c": 5}
        # errors: 0.1 and 0.1; c skipped.
        assert average_relative_error(true, estimates) == pytest.approx(0.1)

    def test_missing_estimates_count_as_zero(self):
        assert average_relative_error({"a": 10}, {}) == pytest.approx(1.0)

    def test_all_zero_true_values(self):
        assert average_relative_error({"a": 0}, {"a": 3}) == 0.0

    def test_perfect_estimates(self):
        true = {"a": 5, "b": 9}
        assert average_relative_error(true, dict(true)) == 0.0


class TestSeedOverlap:
    def test_counts_common(self):
        assert seed_overlap(["a", "b", "c"], ["b", "c", "d"]) == 2

    def test_disjoint(self):
        assert seed_overlap(["a"], ["b"]) == 0

    def test_duplicates_ignored(self):
        assert seed_overlap(["a", "a"], ["a"]) == 1


class TestJaccard:
    def test_identical(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert jaccard([], []) == 1.0

    def test_partial(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
