"""Tests for the dependency-free significance machinery."""

import pytest

from repro.xp.stats import (
    DEFAULT_THRESHOLD,
    MannWhitneyResult,
    bootstrap_ci,
    compare_samples,
    mann_whitney_u,
    quartiles,
    rankdata,
    significance_marker,
)


class TestQuartiles:
    def test_odd_length(self):
        assert quartiles([3, 1, 2]) == {
            "median": 2.0,
            "q1": 1.5,
            "q3": 2.5,
            "iqr": 1.0,
        }

    def test_even_length(self):
        assert quartiles([4, 2, 1, 3]) == {
            "median": 2.5,
            "q1": 1.75,
            "q3": 3.25,
            "iqr": 1.5,
        }

    def test_linear_interpolation_between_neighbours(self):
        stats = quartiles([0.0, 10.0])
        assert stats["q1"] == pytest.approx(2.5)
        assert stats["median"] == pytest.approx(5.0)
        assert stats["q3"] == pytest.approx(7.5)

    def test_single_value_has_zero_iqr(self):
        assert quartiles([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "iqr": 0.0}

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError, match="empty"):
            quartiles([])

    def test_default_threshold(self):
        assert DEFAULT_THRESHOLD == 0.10


class TestRankdata:
    def test_simple(self):
        assert rankdata([10, 30, 20]) == [1.0, 3.0, 2.0]

    def test_ties_share_mean_rank(self):
        assert rankdata([5, 5, 1]) == [2.5, 2.5, 1.0]

    def test_empty(self):
        assert rankdata([]) == []


class TestMannWhitney:
    def test_separated_samples_significant(self):
        low = [1.0, 1.1, 1.2, 1.05, 0.95, 1.15, 1.02, 0.98]
        high = [9.0, 9.1, 9.2, 9.05, 8.95, 9.15, 9.02, 8.98]
        result = mann_whitney_u(low, high)
        assert result.p_value < 0.01
        assert result.significant

    def test_identical_samples_not_significant(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0]
        result = mann_whitney_u(sample, list(sample))
        assert result.p_value > 0.5

    def test_degenerate_inputs_return_p_one(self):
        assert mann_whitney_u([], [1.0]).p_value == 1.0
        assert mann_whitney_u([2.0, 2.0], [2.0, 2.0]).p_value == 1.0

    def test_symmetry(self):
        xs, ys = [1.0, 2.0, 7.0], [3.0, 4.0, 5.0]
        assert mann_whitney_u(xs, ys).p_value == pytest.approx(
            mann_whitney_u(ys, xs).p_value
        )

    def test_result_type(self):
        result = mann_whitney_u([1.0], [2.0, 3.0])
        assert isinstance(result, MannWhitneyResult)
        assert (result.n_x, result.n_y) == (1, 2)


class TestBootstrapCI:
    def test_deterministic_for_seed(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        assert bootstrap_ci(values, seed=7) == bootstrap_ci(values, seed=7)

    def test_interval_brackets_the_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        lo, hi = bootstrap_ci(values)
        assert lo <= 12.0 <= hi
        assert lo >= 10.0 and hi <= 14.0

    def test_single_value_degenerate(self):
        assert bootstrap_ci([5.0]) == (5.0, 5.0)

    def test_rejects_empty_and_bad_args(self):
        with pytest.raises(ValueError, match="empty"):
            bootstrap_ci([])
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_ci([1.0, 2.0], confidence=1.5)
        with pytest.raises(ValueError, match="statistic"):
            bootstrap_ci([1.0, 2.0], statistic="mode")


class TestSignificanceMarker:
    def test_stars(self):
        assert significance_marker(0.0005) == "***"
        assert significance_marker(0.005) == "**"
        assert significance_marker(0.04) == "*"
        assert significance_marker(0.2) == ""


class TestCompareSamples:
    BASE = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0]

    def test_clear_regression(self):
        slower = [v * 3.0 for v in self.BASE]
        verdict = compare_samples(self.BASE, slower, direction="lower")
        assert verdict["verdict"] == "regression"
        assert verdict["p_value"] < 0.05
        assert not verdict["iqr_overlap"]

    def test_clear_improvement(self):
        faster = [v / 3.0 for v in self.BASE]
        assert compare_samples(self.BASE, faster, direction="lower")["verdict"] == "improvement"

    def test_direction_higher_flips_the_rule(self):
        # For spread, a drop is the regression.
        dropped = [v / 3.0 for v in self.BASE]
        assert compare_samples(self.BASE, dropped, direction="higher")["verdict"] == "regression"

    def test_small_shift_within_threshold_is_ok(self):
        nudged = [v * 1.02 for v in self.BASE]
        assert compare_samples(self.BASE, nudged, direction="lower")["verdict"] == "ok"

    def test_overlapping_iqrs_suppress_the_verdict(self):
        # Median shifts beyond threshold but the spreads interleave.
        noisy_base = [1.0, 1.5, 2.0, 2.5]
        noisy_new = [1.3, 1.9, 2.4, 3.1]
        verdict = compare_samples(noisy_base, noisy_new, direction="lower")
        assert verdict["iqr_overlap"] is True
        assert verdict["verdict"] == "ok"

    def test_underpowered_test_falls_back_to_trend_rule(self):
        # A 3-vs-3 rank test bottoms out near p=0.08 and can never reject
        # at 0.05, so the median+IQR rule must decide alone.
        base = [1.0, 1.01, 1.02]
        slower = [3.0, 3.01, 3.02]
        verdict = compare_samples(base, slower, direction="lower")
        assert verdict["verdict"] == "regression"
        assert verdict["p_value"] > 0.05

    def test_single_replicate_falls_back_to_trend_rule(self):
        verdict = compare_samples([1.0], [3.0], direction="lower")
        assert verdict["verdict"] == "regression"
        assert verdict["p_value"] == 1.0  # degenerate test recorded as unannotated

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            compare_samples([1.0], [2.0], direction="sideways")
