"""Tests for the bottom-k sketch family."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.bottomk import BottomK, VersionedBottomK


class TestBottomK:
    def test_exact_while_undersaturated(self):
        sketch = BottomK(k=64)
        sketch.update(range(30))
        assert sketch.cardinality() == 30.0

    def test_estimate_at_scale(self):
        sketch = BottomK(k=256)
        sketch.update(range(5_000))
        error = abs(sketch.cardinality() - 5_000) / 5_000
        assert error < 5 * sketch.standard_error()

    def test_duplicates_ignored(self):
        sketch = BottomK(k=16)
        for _ in range(100):
            sketch.add("same")
        assert sketch.cardinality() == 1.0

    def test_union_equals_combined_stream(self):
        a, b, both = BottomK(k=64), BottomK(k=64), BottomK(k=64)
        for i in range(400):
            a.add(i)
            both.add(i)
        for i in range(300, 800):
            b.add(i)
            both.add(i)
        a.merge(b)
        assert a.cardinality() == both.cardinality()

    def test_merge_rejects_mismatch(self):
        with pytest.raises(ValueError):
            BottomK(k=8).merge(BottomK(k=16))
        with pytest.raises(ValueError, match=r"different \(k, salt\)"):
            BottomK(k=8, salt=0).merge(BottomK(k=8, salt=1))
        with pytest.raises(TypeError):
            BottomK(k=8).merge(object())

    def test_rejects_tiny_k(self):
        with pytest.raises(ValueError):
            BottomK(k=2)
        with pytest.raises(TypeError):
            BottomK(k=8.0)
        with pytest.raises(TypeError):
            BottomK(k=True)

    def test_empty(self):
        sketch = BottomK(k=8)
        assert sketch.is_empty()
        assert sketch.cardinality() == 0.0
        assert len(sketch) == 0

    @given(st.integers(min_value=1, max_value=3_000))
    @settings(max_examples=25, deadline=None)
    def test_estimate_in_reasonable_band(self, count):
        sketch = BottomK(k=128)
        sketch.update(range(count))
        assert 0.5 * count <= sketch.cardinality() <= 1.7 * count


class TestVersionedBottomK:
    def test_keeps_min_lambda(self):
        sketch = VersionedBottomK(k=8)
        sketch.add("x", 10)
        sketch.add("x", 4)
        sketch.add("x", 20)
        assert list(sketch._entries.values()) == [4]

    def test_capacity_respected(self):
        sketch = VersionedBottomK(k=4)
        for i in range(100):
            sketch.add(i, i)
        assert sketch.entry_count() == 4

    def test_merge_within_filters_by_time(self):
        a = VersionedBottomK(k=8)
        b = VersionedBottomK(k=8)
        b.add("early", 3)
        b.add("late", 40)
        a.merge_within(b, start_time=0, window=10)
        assert a.entry_count() == 1

    def test_merge_within_boundary_exclusive(self):
        a = VersionedBottomK(k=8)
        b = VersionedBottomK(k=8)
        b.add("x", 10)
        a.merge_within(b, start_time=5, window=5)
        assert a.is_empty()

    def test_unconstrained_merge(self):
        a = VersionedBottomK(k=8)
        b = VersionedBottomK(k=8)
        a.add("x", 1)
        b.add("y", 2)
        a.merge(b)
        assert a.entry_count() == 2

    def test_cardinality_small_exact(self):
        sketch = VersionedBottomK(k=32)
        for i in range(10):
            sketch.add(i, i)
        assert sketch.cardinality() == 10.0

    def test_eviction_bias_exists(self):
        """The documented failure mode: an evicted large-hash entry with a
        small λ cannot serve a strict future filter, so the windowed merge
        undercounts relative to ground truth."""
        import random

        generator = random.Random(3)
        undercounts = 0
        trials = 30
        for trial in range(trials):
            k = 8
            donor = VersionedBottomK(k=k, salt=trial)
            # 3*k items: early-λ items mixed with late-λ items.
            early = [f"early-{trial}-{i}" for i in range(3 * k)]
            late = [f"late-{trial}-{i}" for i in range(3 * k)]
            for item in early:
                donor.add(item, 5)
            for item in late:
                donor.add(item, 100)
            receiver = VersionedBottomK(k=k, salt=trial)
            receiver.merge_within(donor, start_time=0, window=10)
            # Ground truth: 3k early items qualify; the donor only kept the
            # k smallest hashes overall, so at most k (and usually fewer
            # early ones) survive to be transferred.
            if receiver.cardinality() < 3 * k * 0.9:
                undercounts += 1
        assert undercounts > trials * 0.8

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            VersionedBottomK(k=1)
        sketch = VersionedBottomK(k=8)
        with pytest.raises(TypeError):
            sketch.add("x", 1.5)
        with pytest.raises(ValueError):
            sketch.merge_within(VersionedBottomK(k=8), 0, -1)
        with pytest.raises(TypeError):
            sketch.merge_within(VersionedBottomK(k=8), 0.5, 3)
        with pytest.raises(ValueError):
            sketch.merge(VersionedBottomK(k=16))
        with pytest.raises(ValueError, match=r"different \(k, salt\)"):
            sketch.merge(VersionedBottomK(k=8, salt=1))
        for other in (VersionedBottomK(k=16), VersionedBottomK(k=8, salt=1)):
            with pytest.raises(ValueError, match=r"different \(k, salt\)"):
                sketch.merge_within(other, 0, 5)


class TestBottomKIRS:
    def test_matches_exact_on_paper_log(self, paper_log):
        from repro.core.approx_bottomk import BottomKIRS
        from repro.core.exact import ExactIRS

        exact = ExactIRS.from_log(paper_log, 3)
        index = BottomKIRS.from_log(paper_log, 3, k=32)
        for node in paper_log.nodes:
            true = exact.irs_size(node) + (1 if node == "e" else 0)  # self-cycle
            assert index.irs_estimate(node) == pytest.approx(true, abs=0.6), node

    def test_spread_union(self, paper_log):
        from repro.core.approx_bottomk import BottomKIRS

        index = BottomKIRS.from_log(paper_log, 3, k=32)
        assert index.spread(["a", "e"]) == pytest.approx(6.0, abs=1.0)

    def test_entry_count_bounded(self, small_email_log):
        from repro.core.approx_bottomk import BottomKIRS

        k = 16
        index = BottomKIRS.from_log(
            small_email_log, small_email_log.window_from_percent(10), k=k
        )
        assert index.entry_count() <= k * small_email_log.num_nodes

    def test_less_accurate_than_vhll_at_matched_memory(self):
        """The headline ablation claim, asserted at test scale: on a log
        with real windowed merging, vHLL at beta=512 beats bottom-k at
        k=64 (similar stored-pair budgets) on average relative error."""
        from repro.analysis.metrics import average_relative_error
        from repro.core.approx import ApproxIRS
        from repro.core.approx_bottomk import BottomKIRS
        from repro.core.exact import ExactIRS
        from repro.datasets.generators import email_network

        log = email_network(200, 3_000, 10_000, rng=9)
        window = log.window_from_percent(5)
        truth = ExactIRS.from_log(log, window).irs_sizes()
        vhll_error = average_relative_error(
            truth, ApproxIRS.from_log(log, window, precision=9).irs_estimates()
        )
        bottomk_error = average_relative_error(
            truth, BottomKIRS.from_log(log, window, k=64).irs_estimates()
        )
        assert vhll_error <= bottomk_error * 1.2
