"""Unit tests for the experiment harness (one cell function per paper
table/figure).

Each cell function is exercised on tiny data: the goal here is row
structure, determinism and basic sanity; the paper's shapes are asserted
over a whole ``paper`` matrix run in tests/xp/test_paper_shape.py.
"""

import pytest

from repro.analysis.experiments import (
    ALL_METHODS,
    _precision_for,
    accuracy_cell,
    datasets_cell,
    memory_cell,
    overlap_cell,
    query_cell,
    runtime_cell,
    seed_time_cell,
    select_seeds,
    spread_cell,
)
from repro.datasets.catalog import load_dataset
from repro.datasets.generators import email_network
from repro.xp.spec import EXPERIMENTS, Cell, spec_from_dict


@pytest.fixture(scope="module")
def tiny_log():
    return email_network(40, 400, 2_000, rng=13)


def _cell(experiment, window_pct=None, precision=None, method=None, seed=None, **params):
    """One ``experiment`` cell with its declared default params, overridden
    by ``params``."""
    merged = {**EXPERIMENTS[experiment].default_params, **params}
    return Cell(
        experiment=experiment,
        dataset="tiny",
        window_pct=window_pct,
        precision=precision,
        method=method,
        seed=seed,
        scale=1.0,
        dataset_rng=0,
        extra=tuple(sorted(merged.items())),
    )


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
        # The declared Table 3 sweep must all map cleanly.
        for beta in EXPERIMENTS["accuracy"].default_params["betas"]:
            assert 2 ** _precision_for(beta) == beta

    @pytest.mark.parametrize("beta", [0, -4, 3, 15, 17, 100])
    def test_rejects_non_powers(self, beta):
        with pytest.raises(ValueError, match="power of two"):
            _precision_for(beta)


class TestDatasetCharacteristics:
    def test_rows_for_requested_names(self):
        log = load_dataset("slashdot-sim", rng=1, scale=0.1)
        (row,) = datasets_cell(log, _cell("datasets"))
        assert row["interactions"] == 140
        assert row["nodes"] > 0 and row["span_ticks"] > 0

    def test_deterministic_for_fixed_rng(self):
        first = datasets_cell(load_dataset("enron-sim", rng=3, scale=0.1), _cell("datasets"))
        second = datasets_cell(load_dataset("enron-sim", rng=3, scale=0.1), _cell("datasets"))
        assert first == second

    def test_row_column_shape(self):
        log = load_dataset("enron-sim", rng=1, scale=0.1)
        (row,) = datasets_cell(log, _cell("datasets"))
        assert list(row) == ["nodes", "interactions", "span_ticks"]


class TestGridConsistency:
    def test_grid_betas_are_powers_of_two(self):
        for beta in EXPERIMENTS["accuracy"].default_params["betas"]:
            assert beta > 0 and beta & (beta - 1) == 0

    def test_grid_methods_are_known(self):
        for name in ("spread", "seed_time", "cross_judge"):
            assert set(EXPERIMENTS[name].default_methods) <= set(ALL_METHODS)

    def test_default_precision_matches_paper_beta(self):
        spec = spec_from_dict(
            {"name": "t", "blocks": [{"experiment": "memory", "datasets": ["enron-sim"]}]}
        )
        assert {2**cell.precision for cell in spec.cells()} == {512}


class TestAccuracyExperiment:
    def test_row_grid(self, tiny_log):
        for window in (5, 20):
            cell = _cell("accuracy", window_pct=window, seed=0, betas=(16, 64))
            rows = accuracy_cell(tiny_log, cell)
            assert [list(row) for row in rows] == [["beta", "avg_rel_error"]] * 2
            assert [row["beta"] for row in rows] == [16, 64]
            assert all(0 <= row["avg_rel_error"] for row in rows)

    def test_error_generally_falls_with_beta(self, tiny_log):
        cell = _cell("accuracy", window_pct=20, seed=0, betas=(16, 256))
        by_beta = {row["beta"]: row["avg_rel_error"] for row in accuracy_cell(tiny_log, cell)}
        assert by_beta[256] <= by_beta[16] + 0.02

    def test_rejects_non_power_beta(self, tiny_log):
        with pytest.raises(ValueError):
            accuracy_cell(tiny_log, _cell("accuracy", window_pct=5, seed=0, betas=(15,)))


class TestMemoryExperiment:
    def test_columns_per_window(self, tiny_log):
        (small,) = memory_cell(tiny_log, _cell("memory", window_pct=1, precision=5))
        (large,) = memory_cell(tiny_log, _cell("memory", window_pct=10, precision=5))
        assert list(small) == ["megabytes"]
        assert large["megabytes"] >= small["megabytes"] >= 0.0


class TestRuntimeExperiment:
    def test_rows_and_positive_times(self, tiny_log):
        for window in (1, 10):
            cell = _cell("runtime", window_pct=window, precision=5, seed=0)
            (row,) = runtime_cell(tiny_log, cell)
            assert row["seconds"] > 0


class TestOracleQueryExperiment:
    def test_rows_per_seed_count(self, tiny_log):
        cell = _cell("query", precision=5, seed=0, seed_counts=(5, 50), repetitions=2)
        rows = query_cell(tiny_log, cell)
        assert [row["num_seeds"] for row in rows] == [5, 50]
        assert all(row["milliseconds"] > 0 for row in rows)


class TestSpreadComparison:
    def test_grid_of_rows(self, tiny_log):
        for method in ("HD", "IRS"):
            cell = _cell(
                "spread",
                window_pct=10,
                precision=5,
                method=method,
                seed=1,
                ks=(2, 4),
                probabilities=(1.0,),
                runs=1,
            )
            rows = spread_cell(tiny_log, cell)
            assert [(row["k"], row["probability"]) for row in rows] == [(2, 1.0), (4, 1.0)]
            assert all(row["spread"] >= 0 for row in rows)

    def test_spread_non_decreasing_in_k(self, tiny_log):
        cell = _cell(
            "spread",
            window_pct=10,
            precision=5,
            method="HD",
            seed=0,
            ks=(2, 6),
            probabilities=(1.0,),
            runs=1,
        )
        by_k = {row["k"]: row["spread"] for row in spread_cell(tiny_log, cell)}
        assert by_k[6] >= by_k[2]


class TestSeedOverlapExperiment:
    def test_pairwise_columns(self, tiny_log):
        cell = _cell("overlap", precision=5, window_percents=(1, 10, 20), k=5)
        rows = overlap_cell(tiny_log, cell)
        assert [row["pair"] for row in rows] == ["1-10", "1-20", "10-20"]
        assert all(0 <= row["common"] <= 5 for row in rows)


class TestSeedTimeExperiment:
    def test_all_methods_timed(self, tiny_log):
        for method in ("HD", "SHD", "IRS-approx"):
            cell = _cell("seed_time", window_pct=1, precision=5, method=method, seed=0, k=3)
            (row,) = seed_time_cell(tiny_log, cell)
            assert row["seconds"] > 0
