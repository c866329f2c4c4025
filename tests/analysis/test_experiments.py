"""Unit tests for the experiment harness (one per paper table/figure).

Each harness function is exercised on tiny data: the goal here is row
structure, determinism and basic sanity; the paper's shapes are asserted
over a whole ``paper`` matrix run in tests/xp/test_paper_shape.py.
"""

import pytest

from repro.analysis import grid
from repro.analysis.experiments import (
    ALL_METHODS,
    _precision_for,
    accuracy_experiment,
    dataset_characteristics,
    memory_experiment,
    oracle_query_experiment,
    runtime_experiment,
    seed_overlap_experiment,
    seed_time_experiment,
    select_seeds,
    spread_comparison,
)
from repro.datasets.generators import email_network


@pytest.fixture(scope="module")
def tiny_log():
    return email_network(40, 400, 2_000, rng=13)


class TestSelectSeeds:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_each_method_returns_k_seeds(self, tiny_log, method):
        seeds = select_seeds(tiny_log, method, 3, window=200, precision=6, rng=1)
        assert len(seeds) == 3
        assert len(set(seeds)) == 3
        assert all(seed in tiny_log.nodes for seed in seeds)

    def test_unknown_method_rejected(self, tiny_log):
        with pytest.raises(ValueError, match="unknown method"):
            select_seeds(tiny_log, "ORACLE-OF-DELPHI", 3, window=10)

    def test_irs_methods_use_window(self, tiny_log):
        wide = select_seeds(tiny_log, "IRS", 5, window=tiny_log.time_span)
        narrow = select_seeds(tiny_log, "IRS", 5, window=1)
        assert wide != narrow  # different windows change the ranking

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_deterministic_under_fixed_rng(self, tiny_log, method):
        first = select_seeds(tiny_log, method, 4, window=200, precision=6, rng=9)
        second = select_seeds(tiny_log, method, 4, window=200, precision=6, rng=9)
        assert first == second


class TestPrecisionFor:
    @pytest.mark.parametrize(
        "beta,precision", [(2, 1), (16, 4), (64, 6), (512, 9), (2**16, 16)]
    )
    def test_exact_powers(self, beta, precision):
        assert _precision_for(beta) == precision

    def test_matches_grid_betas(self):
        # The canonical Table 3 sweep must all map cleanly.
        for beta in grid.BETAS:
            assert 2 ** _precision_for(beta) == beta

    @pytest.mark.parametrize("beta", [0, -4, 3, 15, 17, 100])
    def test_rejects_non_powers(self, beta):
        with pytest.raises(ValueError, match="power of two"):
            _precision_for(beta)


class TestDatasetCharacteristics:
    def test_rows_for_requested_names(self):
        rows = dataset_characteristics(["slashdot-sim"], rng=1, scale=0.1)
        assert len(rows) == 1
        row = rows[0]
        assert row["dataset"] == "slashdot-sim"
        assert row["interactions"] == 140
        assert row["nodes"] > 0 and row["span_ticks"] > 0

    def test_deterministic_for_fixed_rng(self):
        first = dataset_characteristics(["enron-sim"], rng=3, scale=0.1)
        second = dataset_characteristics(["enron-sim"], rng=3, scale=0.1)
        assert first == second

    def test_row_column_shape(self):
        (row,) = dataset_characteristics(["enron-sim"], rng=1, scale=0.1)
        assert set(row) == {"dataset", "nodes", "interactions", "span_ticks"}


class TestGridConsistency:
    def test_grid_betas_are_powers_of_two(self):
        for beta in grid.BETAS:
            assert beta > 0 and beta & (beta - 1) == 0

    def test_grid_methods_are_known(self):
        assert set(grid.SPREAD_METHODS) <= set(ALL_METHODS)
        assert set(grid.SEED_TIME_METHODS) <= set(ALL_METHODS)

    def test_default_precision_matches_paper_beta(self):
        assert 2**grid.DEFAULT_PRECISION == 512


class TestAccuracyExperiment:
    def test_row_grid(self, tiny_log):
        rows = accuracy_experiment(
            tiny_log, "tiny", betas=(16, 64), window_percents=(5, 20)
        )
        assert len(rows) == 4
        assert {row["beta"] for row in rows} == {16, 64}
        assert all(0 <= row["avg_rel_error"] for row in rows)

    def test_error_generally_falls_with_beta(self, tiny_log):
        rows = accuracy_experiment(
            tiny_log, "tiny", betas=(16, 256), window_percents=(20,)
        )
        by_beta = {row["beta"]: row["avg_rel_error"] for row in rows}
        assert by_beta[256] <= by_beta[16] + 0.02

    def test_rejects_non_power_beta(self, tiny_log):
        with pytest.raises(ValueError):
            accuracy_experiment(tiny_log, betas=(15,), window_percents=(5,))


class TestMemoryExperiment:
    def test_columns_per_window(self, tiny_log):
        rows = memory_experiment({"tiny": tiny_log}, window_percents=(1, 10), precision=5)
        assert len(rows) == 1
        row = rows[0]
        assert "mb_at_1pct" in row and "mb_at_10pct" in row
        assert row["mb_at_10pct"] >= row["mb_at_1pct"] >= 0.0


class TestRuntimeExperiment:
    def test_rows_and_positive_times(self, tiny_log):
        rows = runtime_experiment({"tiny": tiny_log}, window_percents=(1, 10), precision=5)
        assert len(rows) == 2
        assert all(row["seconds"] > 0 for row in rows)


class TestOracleQueryExperiment:
    def test_rows_per_seed_count(self, tiny_log):
        rows = oracle_query_experiment(
            tiny_log, "tiny", seed_counts=(5, 50), precision=5, repetitions=2
        )
        assert [row["num_seeds"] for row in rows] == [5, 50]
        assert all(row["milliseconds"] > 0 for row in rows)


class TestSpreadComparison:
    def test_grid_of_rows(self, tiny_log):
        rows = spread_comparison(
            tiny_log,
            "tiny",
            ks=(2, 4),
            window_percents=(10,),
            probabilities=(1.0,),
            methods=("HD", "IRS"),
            runs=1,
            precision=5,
            rng=1,
        )
        assert len(rows) == 4  # 2 methods x 2 ks
        assert all(row["spread"] >= 0 for row in rows)

    def test_spread_non_decreasing_in_k(self, tiny_log):
        rows = spread_comparison(
            tiny_log,
            "tiny",
            ks=(2, 6),
            window_percents=(10,),
            probabilities=(1.0,),
            methods=("HD",),
            runs=1,
            precision=5,
        )
        by_k = {row["k"]: row["spread"] for row in rows}
        assert by_k[6] >= by_k[2]


class TestSeedOverlapExperiment:
    def test_pairwise_columns(self, tiny_log):
        rows = seed_overlap_experiment(
            {"tiny": tiny_log}, window_percents=(1, 10, 20), k=5, precision=5
        )
        row = rows[0]
        assert set(row) == {
            "dataset",
            "common_1pct_10pct",
            "common_1pct_20pct",
            "common_10pct_20pct",
        }
        for key, value in row.items():
            if key != "dataset":
                assert 0 <= value <= 5


class TestSeedTimeExperiment:
    def test_all_methods_timed(self, tiny_log):
        rows = seed_time_experiment(
            {"tiny": tiny_log}, k=3, methods=("HD", "SHD", "IRS-approx"), precision=5
        )
        row = rows[0]
        assert set(row) == {"dataset", "HD", "SHD", "IRS-approx"}
        assert all(value > 0 for key, value in row.items() if key != "dataset")
