"""Cross-method validation on shared random graphs.

Each baseline optimises a different proxy; these tests check the
*relationships* between them that must hold regardless of proxies:
coverage ratios, rank correlations, and dispatcher completeness.
"""

import pytest

from repro.analysis.experiments import EXTRA_METHODS, select_seeds
from repro.baselines.degree import degree_discount_top_k, high_degree_top_k
from repro.baselines.pagerank import pagerank
from repro.baselines.skim import skim_top_k
from repro.baselines.static import flatten
from repro.core.interactions import InteractionLog
from repro.datasets.generators import email_network, uniform_network


@pytest.fixture(scope="module")
def shared_log():
    return email_network(120, 1_500, 6_000, rng=33)


class TestDispatcherCompleteness:
    @pytest.mark.parametrize("method", EXTRA_METHODS)
    def test_extra_methods_dispatch(self, shared_log, method):
        seeds = select_seeds(shared_log, method, 3, window=300, rng=1)
        assert len(seeds) == 3
        assert len(set(seeds)) == 3

    def test_error_message_lists_extras(self, shared_log):
        with pytest.raises(ValueError, match="ICG"):
            select_seeds(shared_log, "nonsense", 3, window=300)


class TestSkimVsExactCoverage:
    def test_skim_seed_coverage_near_optimal(self, shared_log):
        """SKIM's 5 seeds must reach at least 80% of what exhaustive
        greedy max-coverage reaches (its guarantee is multiplicative)."""
        graph = flatten(shared_log)

        def coverage(seed_list):
            covered = set()
            for seed in seed_list:
                covered |= graph.reachable_from(seed) | {seed}
            return len(covered)

        # Exhaustive greedy (small graph, fine).
        chosen = []
        covered = set()
        for _ in range(5):
            best, best_gain = None, -1
            for node in sorted(graph.nodes, key=repr):
                if node in chosen:
                    continue
                gain = len((graph.reachable_from(node) | {node}) - covered)
                if gain > best_gain:
                    best, best_gain = node, gain
            chosen.append(best)
            covered |= graph.reachable_from(best) | {best}

        skim_seeds = skim_top_k(shared_log, 5, sketch_size=64, rng=4)
        assert coverage(skim_seeds) >= 0.8 * len(covered)


class TestDegreeDiscountVsHighDegree:
    def test_first_seed_agrees(self, shared_log):
        assert degree_discount_top_k(shared_log, 1)[0] == high_degree_top_k(
            shared_log, 1
        )[0]

    def test_later_seeds_diverge_on_overlapping_hubs(self):
        """Two hubs sharing their audience: HD picks both, DD does not."""
        records = []
        t = 1
        for hub in ("h1", "h2"):
            for i in range(5):
                records.append((hub, f"shared{i}", t))
                t += 1
        records.append(("h1", "h2", t))
        records.append(("loner", "own0", t + 1))
        records.append(("loner", "own1", t + 2))
        log = InteractionLog(records)
        hd = high_degree_top_k(log, 2)
        dd = degree_discount_top_k(log, 2, probability=0.8)
        assert set(hd) == {"h1", "h2"}
        assert dd[1] == "loner"


class TestPagerankStructuralProperties:
    def test_uniform_log_scores_nearly_uniform(self):
        log = uniform_network(40, 4_000, 10_000, rng=2)
        scores = pagerank(flatten(log))
        values = sorted(scores.values())
        assert values[-1] < 3 * values[0]

    def test_scores_always_normalised(self, shared_log):
        scores = pagerank(flatten(shared_log))
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-5)


class TestIrsVsStaticRankCorrelation:
    def test_large_window_irs_correlates_with_reachability(self, shared_log):
        """At unbounded ω, |σ(u)| equals static reachability filtered by
        time order; the two rankings should agree strongly at the top."""
        from repro.core.exact import ExactIRS

        graph = flatten(shared_log)
        index = ExactIRS.from_log(shared_log, shared_log.time_span)
        by_irs = sorted(
            shared_log.nodes, key=lambda u: -index.irs_size(u)
        )[:10]
        by_reach = sorted(
            shared_log.nodes, key=lambda u: -len(graph.reachable_from(u))
        )[:10]
        assert len(set(by_irs) & set(by_reach)) >= 3

    def test_small_window_decorrelates(self, shared_log):
        """At tiny ω the temporal ranking must differ from the static one
        — the premise of the whole paper."""
        from repro.core.exact import ExactIRS

        window = shared_log.window_from_percent(1)
        index = ExactIRS.from_log(shared_log, window)
        by_irs = sorted(shared_log.nodes, key=lambda u: -index.irs_size(u))[:10]
        graph = flatten(shared_log)
        by_reach = sorted(
            shared_log.nodes, key=lambda u: -len(graph.reachable_from(u))
        )[:10]
        assert set(by_irs) != set(by_reach)
