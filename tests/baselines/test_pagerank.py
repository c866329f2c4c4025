"""Unit tests for the PageRank baseline."""

import pytest

from repro.baselines.pagerank import pagerank, pagerank_top_k
from repro.baselines.static import StaticGraph
from repro.core.interactions import InteractionLog


def cycle_graph(n: int) -> StaticGraph:
    graph = StaticGraph()
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


class TestPagerank:
    def test_scores_sum_to_one(self):
        scores = pagerank(cycle_graph(5))
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_cycle_is_uniform(self):
        scores = pagerank(cycle_graph(4))
        for value in scores.values():
            assert value == pytest.approx(0.25, abs=1e-3)

    def test_hub_with_many_in_links_scores_high(self):
        graph = StaticGraph()
        for i in range(1, 6):
            graph.add_edge(i, 0)
        graph.add_edge(0, 1)
        scores = pagerank(graph)
        assert scores[0] == max(scores.values())

    def test_dangling_mass_redistributed(self):
        graph = StaticGraph()
        graph.add_edge("a", "sink")
        scores = pagerank(graph)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)
        assert scores["sink"] > scores["a"]

    def test_empty_graph(self):
        assert pagerank(StaticGraph()) == {}

    def test_rejects_bad_restart(self):
        with pytest.raises(ValueError):
            pagerank(cycle_graph(3), restart=1.5)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            pagerank(cycle_graph(3), tolerance=0)

    def test_rejects_non_graph(self):
        with pytest.raises(TypeError):
            pagerank({"a": ["b"]})


class TestPagerankTopK:
    def test_reversal_picks_influencers_not_authorities(self):
        """A node mailing many others should rank first: the paper reverses
        edges so that outgoing influence becomes incoming PageRank mass."""
        log = InteractionLog(
            [("hub", f"user{i}", i + 1) for i in range(6)]
            + [("user0", "user1", 100)]
        )
        assert pagerank_top_k(log, 1) == ["hub"]

    def test_k_truncation(self):
        log = InteractionLog([("a", "b", 1), ("b", "c", 2)])
        assert len(pagerank_top_k(log, 2)) == 2

    def test_deterministic(self):
        records = [
            (i % 11, (i * 3 + 1) % 11, i)
            for i in range(30)
            if i % 11 != (i * 3 + 1) % 11
        ]
        log = InteractionLog(records)
        assert pagerank_top_k(log, 5) == pagerank_top_k(log, 5)

    def test_rejects_bad_k(self):
        log = InteractionLog([("a", "b", 1)])
        with pytest.raises(ValueError):
            pagerank_top_k(log, 0)
