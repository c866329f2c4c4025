"""Metamorphic property tests: invariances the whole pipeline must respect.

Each test transforms an input log in a way with a *known* effect on the
output (none, or a predictable one) and checks the implementation agrees:

* time translation — shifting every timestamp by a constant changes
  nothing about reachability;
* node relabelling — renaming nodes permutes but does not change the
  structure of summaries, seeds and spreads;
* interaction removal — deleting interactions can only shrink
  reachability sets (monotonicity in E);
* window growth — σω is monotone in ω (also covered elsewhere; included
  here at the oracle level);
* log concatenation — appending interactions strictly after the old
  maximum cannot *remove* anything from any IRS computed at unbounded ω.
"""

from hypothesis import given, settings, strategies as st

from repro.core.exact import ExactIRS
from repro.core.interactions import Interaction, InteractionLog
from repro.core.maximization import greedy_top_k
from repro.core.oracle import ExactInfluenceOracle
from repro.simulation.tcic import run_tcic


edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=30,
).map(lambda edges: [(u, v, t) for u, v, t in edges if u != v])


class TestTimeTranslation:
    @given(edges=edge_lists, shift=st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_exact_irs_invariant(self, edges, shift):
        log = InteractionLog(edges)
        shifted = InteractionLog([(u, v, t + shift) for u, v, t in edges])
        window = 7
        original = ExactIRS.from_log(log, window)
        moved = ExactIRS.from_log(shifted, window)
        for node in log.nodes:
            assert original.reachability_set(node) == moved.reachability_set(node)
            # λ values shift by exactly the constant.
            for target, end in original.summary(node).items():
                assert moved.summary(node).earliest_end(target) == end + shift

    @given(edges=edge_lists, shift=st.integers(min_value=-500, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_tcic_invariant(self, edges, shift):
        log = InteractionLog(edges)
        shifted = InteractionLog([(u, v, t + shift) for u, v, t in edges])
        seeds = [0] if 0 in log.nodes else []
        a = run_tcic(log, seeds, window=9, probability=1.0)
        b = run_tcic(shifted, seeds, window=9, probability=1.0)
        assert a.active == b.active


class TestNodeRelabelling:
    @given(edges=edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_exact_irs_commutes_with_relabelling(self, edges):
        log = InteractionLog(edges)
        mapping = {node: f"renamed-{node}" for node in log.nodes}
        renamed = InteractionLog(
            [(mapping[u], mapping[v], t) for u, v, t in edges]
        )
        window = 10
        original = ExactIRS.from_log(log, window)
        relabelled = ExactIRS.from_log(renamed, window)
        for node in log.nodes:
            expected = {mapping[v] for v in original.reachability_set(node)}
            assert relabelled.reachability_set(mapping[node]) == expected

    def test_greedy_seeds_commute_with_relabelling(self, small_email_log):
        window = small_email_log.window_from_percent(10)
        mapping = {node: node + 10_000 for node in small_email_log.nodes}
        renamed = InteractionLog(
            [
                Interaction(mapping[r.source], mapping[r.target], r.time)
                for r in small_email_log
            ]
        )
        original = greedy_top_k(
            ExactInfluenceOracle.from_index(ExactIRS.from_log(small_email_log, window)),
            5,
        )
        relabelled = greedy_top_k(
            ExactInfluenceOracle.from_index(ExactIRS.from_log(renamed, window)), 5
        )
        # Tie-breaking uses repr ordering which relabelling may permute, so
        # compare the achieved coverage instead of the identity of seeds.
        index = ExactIRS.from_log(small_email_log, window)
        renamed_index = ExactIRS.from_log(renamed, window)
        assert index.spread(original) == renamed_index.spread(relabelled)


class TestInteractionRemoval:
    @given(edges=edge_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_removing_interactions_shrinks_irs(self, edges, data):
        log = InteractionLog(edges)
        if len(edges) == 0:
            return
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(edges), max_size=len(edges))
        )
        subset = [edge for edge, kept in zip(edges, keep) if kept]
        sub_log = InteractionLog(subset)
        window = 8
        full_index = ExactIRS.from_log(log, window)
        sub_index = ExactIRS.from_log(sub_log, window)
        for node in sub_log.nodes:
            assert sub_index.reachability_set(node).issubset(
                full_index.reachability_set(node)
            )


class TestLogExtension:
    @given(edges=edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_appending_later_interactions_preserves_irs(self, edges):
        """At unbounded ω, interactions appended strictly after max_time
        can only grow reachability sets."""
        log = InteractionLog(edges)
        start = (log.max_time or 0) + 1
        extra = [(0, 1, start), (1, 2, start + 1)]
        extended = InteractionLog(edges + extra)
        window = 10_000
        before = ExactIRS.from_log(log, window)
        after = ExactIRS.from_log(extended, window)
        for node in log.nodes:
            assert before.reachability_set(node).issubset(
                after.reachability_set(node)
            )


class TestOracleWindowMonotonicity:
    def test_spread_monotone_in_window(self, small_email_log):
        seeds = sorted(small_email_log.nodes, key=repr)[:5]
        previous = -1.0
        for percent in (1, 5, 20, 60, 100):
            window = small_email_log.window_from_percent(percent)
            oracle = ExactInfluenceOracle.from_index(
                ExactIRS.from_log(small_email_log, window)
            )
            current = oracle.spread(seeds)
            assert current >= previous
            previous = current
