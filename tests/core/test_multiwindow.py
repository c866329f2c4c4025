"""Tests for the multi-window IRS index (extension).

Correctness standard: for EVERY window ω, the multi-window index must give
exactly the same reachability sets and λ values as a fresh
:class:`ExactIRS` built at that ω.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exact import ExactIRS
from repro.core.interactions import InteractionLog
from repro.core.multiwindow import MultiWindowIRS


@pytest.fixture
def paper_index(paper_log):
    return MultiWindowIRS.from_log(paper_log)


class TestPaperExample:
    def test_window3_matches_example2(self, paper_log, paper_index):
        expected = {
            "a": {"b", "c", "d", "e"},
            "b": {"c", "e"},
            "c": set(),
            "d": {"b", "e"},
            "e": {"b", "c", "f"},
            "f": set(),
        }
        for node, reached in expected.items():
            assert paper_index.reachability_set(node, window=3) == reached

    def test_lambda_matches_example2(self, paper_index):
        assert paper_index.earliest_end("a", "e", window=3) == 3
        assert paper_index.earliest_end("a", "c", window=3) == 7
        assert paper_index.earliest_end("a", "f", window=3) is None

    def test_intro_claim_any_window(self, paper_index, paper_log):
        full = paper_log.time_span
        assert "e" in paper_index.reachability_set("a", full)
        assert "f" not in paper_index.reachability_set("a", full)

    def test_fastest_duration(self, paper_index):
        # a→e fastest: a→d@1, d→e@3 gives duration 3; via b: a→b@5,b→e@6
        # duration 2.
        assert paper_index.fastest_duration("a", "e") == 2
        assert paper_index.fastest_duration("a", "zzz") is None

    def test_reaches_threshold(self, paper_index):
        assert not paper_index.reaches("a", "e", window=1)
        assert paper_index.reaches("a", "e", window=2)


class TestAgainstExactIRS:
    def test_all_windows_on_paper_log(self, paper_log, paper_index):
        for window in range(0, 10):
            reference = ExactIRS.from_log(paper_log, window)
            for node in paper_log.nodes:
                assert paper_index.reachability_set(node, window) == (
                    reference.reachability_set(node)
                ), (node, window)
                for target in paper_log.nodes:
                    assert paper_index.earliest_end(node, target, window) == (
                        reference.summary(node).earliest_end(target)
                    ), (node, target, window)

    def test_generated_log(self, tiny_uniform_log):
        index = MultiWindowIRS.from_log(tiny_uniform_log)
        for window in (1, 10, 60, 250, 600):
            reference = ExactIRS.from_log(tiny_uniform_log, window)
            for node in tiny_uniform_log.nodes:
                assert index.reachability_set(node, window) == (
                    reference.reachability_set(node)
                )

    @given(
        edges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=25),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_property_equivalence_every_window(self, edges):
        records = [(u, v, t) for u, v, t in edges if u != v]
        log = InteractionLog(records)
        index = MultiWindowIRS.from_log(log)
        for window in (0, 1, 3, 8, 30):
            reference = ExactIRS.from_log(log, window)
            for node in log.nodes:
                assert index.reachability_set(node, window) == (
                    reference.reachability_set(node)
                ), (node, window)

    def test_spread_matches_exact(self, small_email_log):
        index = MultiWindowIRS.from_log(small_email_log)
        seeds = sorted(small_email_log.nodes, key=repr)[:6]
        for percent in (1, 10, 50):
            window = small_email_log.window_from_percent(percent)
            reference = ExactIRS.from_log(small_email_log, window)
            assert index.spread(seeds, window) == reference.spread(seeds)


class TestFrontierStructure:
    def test_frontier_strictly_decreasing(self, small_email_log):
        index = MultiWindowIRS.from_log(small_email_log)
        for source in list(index.nodes)[:20]:
            for target in list(index._summaries[source])[:20]:
                entries = index.frontier(source, target)
                starts = [s for s, _ in entries]
                ends = [e for _, e in entries]
                assert starts == sorted(starts, reverse=True)
                assert ends == sorted(ends, reverse=True)
                assert len(set(starts)) == len(starts)
                assert len(set(ends)) == len(ends)

    def test_entry_count_at_least_exact(self, small_email_log):
        """The multi-window index stores at least as much as any
        single-window exact index (it is the union of their information)."""
        index = MultiWindowIRS.from_log(small_email_log)
        widest = ExactIRS.from_log(small_email_log, small_email_log.time_span)
        assert index.entry_count() >= widest.entry_count()

    def test_max_frontier_length_reported(self, paper_index):
        assert paper_index.max_frontier_length() >= 1


class TestValidation:
    def test_rejects_negative_window(self, paper_index):
        with pytest.raises(ValueError):
            paper_index.reachability_set("a", -1)

    def test_rejects_float_window(self, paper_index):
        with pytest.raises(TypeError):
            paper_index.reaches("a", "b", 2.0)

    def test_unknown_nodes(self, paper_index):
        assert paper_index.reachability_set("ghost", 5) == set()
        assert paper_index.fastest_duration("ghost", "a") is None

    def test_empty_log(self):
        index = MultiWindowIRS.from_log(InteractionLog([]))
        assert index.entry_count() == 0

    def test_tied_stamps_handled(self):
        log = InteractionLog([(0, 1, 0), (1, 2, 0)])
        index = MultiWindowIRS.from_log(log)
        assert index.reachability_set(0, window=10) == {1}
