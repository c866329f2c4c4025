"""Tests for streaming influenced-by maintenance (extension).

Correctness standard: the influencers of ``v`` must equal
``{u : v ∈ σω(u)}`` computed by the (offline) exact IRS index — on worked
examples and on arbitrary generated logs (hypothesis).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exact import ExactIRS
from repro.core.interactions import InteractionLog
from repro.core.summary import IRSSummary
from repro.core.streaming import (
    StreamingExactIndex,
    StreamingSketchIndex,
    influencers_of,
)
from repro.datasets.generators import uniform_network


@pytest.fixture(scope="module")
def tied_log() -> InteractionLog:
    """Dense little log with plenty of tied time stamps."""
    return uniform_network(30, 400, 120, rng=19)


def offline_influencers(log: InteractionLog, node, window: int) -> set:
    """Reference: invert the forward IRS index."""
    index = ExactIRS.from_log(log, window)
    return {u for u in log.nodes if node in index.reachability_set(u)}


class TestTimeReversedLog:
    def test_dual_shape(self):
        log = InteractionLog([("a", "b", 3), ("b", "c", 7)])
        dual = log.time_reversed()
        assert set(dual) == {("b", "a", -3), ("c", "b", -7)}

    def test_double_dual_is_identity(self):
        log = InteractionLog([("a", "b", 3), ("b", "c", 7)])
        assert log.time_reversed().time_reversed() == log


class TestStreamingExact:
    def test_chain(self):
        index = StreamingExactIndex(window=10)
        index.process("a", "b", 1)
        index.process("b", "c", 3)
        assert index.influencers("c") == {"a", "b"}
        assert index.influencers("b") == {"a"}
        assert index.influencers("a") == set()

    def test_window_cuts_long_channels(self):
        index = StreamingExactIndex(window=3)
        index.process("a", "b", 1)
        index.process("b", "c", 10)
        # a→b@1, b→c@10 has duration 10; only b influences c.
        assert index.influencers("c") == {"b"}

    def test_updates_arrive_live(self):
        index = StreamingExactIndex(window=100)
        index.process("a", "b", 1)
        assert index.influencer_count("c") == 0
        index.process("b", "c", 2)
        assert index.influencers("c") == {"a", "b"}

    def test_rejects_non_increasing_times(self):
        index = StreamingExactIndex(window=5)
        index.process("a", "b", 5)
        with pytest.raises(ValueError):
            index.process("b", "c", 5)
        with pytest.raises(ValueError):
            index.process("b", "c", 4)

    def test_latest_start_is_freshest_channel(self):
        index = StreamingExactIndex(window=100)
        index.process("a", "b", 1)
        index.process("a", "b", 7)
        assert index.latest_start("b", "a") == 7

    def test_latest_start_none_when_unreachable(self):
        index = StreamingExactIndex(window=5)
        index.process("a", "b", 1)
        assert index.latest_start("a", "b") is None

    def test_audience_overlap(self):
        index = StreamingExactIndex(window=100)
        index.process("a", "x", 1)
        index.process("b", "y", 2)
        index.process("a", "y", 3)
        assert index.audience_overlap(["x", "y"]) == 2  # {a, b}

    def test_matches_offline_reference_on_paper_log(self, paper_log):
        for window in (1, 3, 8):
            streaming = StreamingExactIndex.from_log(paper_log, window)
            for node in paper_log.nodes:
                assert streaming.influencers(node) == offline_influencers(
                    paper_log, node, window
                ), (node, window)

    @given(
        edges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=25),
            ),
            max_size=20,
        ),
        window=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_duality(self, edges, window):
        records = [(u, v, t) for u, v, t in edges if u != v]
        log = InteractionLog(records)
        streaming = StreamingExactIndex.from_log(log, window)
        forward = ExactIRS.from_log(log, window)
        for node in log.nodes:
            expected = {u for u in log.nodes if node in forward.reachability_set(u)}
            assert streaming.influencers(node) == expected

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            StreamingExactIndex(window=-1)
        with pytest.raises(TypeError):
            StreamingExactIndex(window=1.5)


class TestStreamingSketch:
    def test_estimates_track_exact(self, small_email_log):
        window = small_email_log.window_from_percent(10)
        exact = StreamingExactIndex.from_log(small_email_log, window)
        sketch = StreamingSketchIndex.from_log(small_email_log, window, precision=9)
        for node in small_email_log.nodes:
            true = exact.influencer_count(node)
            estimate = sketch.influencer_estimate(node)
            # Self-cycles may add one, HLL adds noise.
            assert estimate == pytest.approx(true, rel=0.25, abs=2.0)

    def test_live_updates(self):
        sketch = StreamingSketchIndex(window=50, precision=8)
        sketch.process("a", "b", 1)
        sketch.process("b", "c", 2)
        assert sketch.influencer_estimate("c") == pytest.approx(2.0, abs=0.6)

    def test_rejects_non_increasing_times(self):
        sketch = StreamingSketchIndex(window=5, precision=6)
        sketch.process("a", "b", 5)
        with pytest.raises(ValueError):
            sketch.process("b", "c", 5)

    def test_audience_overlap_estimate(self):
        sketch = StreamingSketchIndex(window=50, precision=8)
        sketch.process("a", "x", 1)
        sketch.process("b", "y", 2)
        sketch.process("a", "y", 3)
        assert sketch.audience_overlap(["x", "y"]) == pytest.approx(2.0, abs=0.7)

    def test_entry_count_positive(self, small_email_log):
        sketch = StreamingSketchIndex.from_log(
            small_email_log, small_email_log.window_from_percent(10), precision=7
        )
        assert sketch.entry_count() > 0


class TestObserve:
    """Live ``observe()`` accepts tied stamps and equals the batch replay."""

    def test_tied_stamps_do_not_chain(self):
        index = StreamingExactIndex(window=10)
        index.observe("a", "b", 5)
        index.observe("b", "c", 5)
        # Both edges see the pre-stamp state: no a→c channel exists.
        assert index.influencers("b") == {"a"}
        assert index.influencers("c") == {"b"}

    def test_rejects_decreasing_but_allows_equal_times(self):
        index = StreamingExactIndex(window=10)
        index.observe("a", "b", 5)
        index.observe("c", "d", 5)
        with pytest.raises(ValueError):
            index.observe("e", "f", 4)
        assert index.last_time == 5

    @pytest.mark.parametrize("index_type", [StreamingExactIndex, StreamingSketchIndex])
    def test_process_moves_the_frontier(self, index_type):
        index = index_type(window=10)
        index.process("a", "b", 1)
        assert index.last_time == 1
        # Refused by the live order check, not by the dual's tie check.
        with pytest.raises(ValueError, match="non-decreasing time order"):
            index.observe("c", "d", 0)
        index.observe("b", "c", 2)
        assert index.last_time == 2

    def test_from_log_sets_the_frontier(self, tied_log):
        index = StreamingExactIndex.from_log(tied_log, 120)
        assert index.last_time == max(record.time for record in tied_log.forward())
        assert StreamingExactIndex.from_log(InteractionLog([]), 120).last_time is None

    def test_matches_from_log_on_tied_log(self, tied_log):
        window = 120
        live = StreamingExactIndex(window)
        for record in tied_log.forward():
            live.observe(record.source, record.target, record.time)
        batch = StreamingExactIndex.from_log(tied_log, window)
        for node in tied_log.nodes:
            assert live.influencers(node) == batch.influencers(node), node
            assert live.influencer_starts(node) == batch.influencer_starts(node), node

    def test_sketch_matches_from_log_on_tied_log(self, tied_log):
        window = 120
        live = StreamingSketchIndex(window, precision=7)
        for record in tied_log.forward():
            live.observe(record.source, record.target, record.time)
        batch = StreamingSketchIndex.from_log(tied_log, window, precision=7)
        for node in tied_log.nodes:
            assert live.influencer_estimate(node) == batch.influencer_estimate(
                node
            ), node


def _starts_diff(before, after):
    """The before/after diff of σω_in(target) a live consumer would take:
    every entry that is new or holds a different start."""
    return {
        (influencer, start, influencer not in before)
        for influencer, start in after.items()
        if before.get(influencer) != start
    }


LIVE_NODES = "abcde"

#: ``(source, target, gap to the previous stamp)``: ties, self-loops and
#: repeated edges are all common.
LIVE_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(LIVE_NODES),
        st.sampled_from(LIVE_NODES),
        st.sampled_from([0, 0, 1, 2, 3]),
    ),
    min_size=1,
    max_size=30,
)


def _all_starts(index):
    return {node: index.influencer_starts(node) for node in LIVE_NODES}


class TestObserveChanges:
    """``observe`` returns exactly the entries its step added or refreshed."""

    @given(raw=LIVE_EVENTS, window=st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_changes_are_the_before_after_diff(self, raw, window):
        index = StreamingExactIndex(window)
        time = 0
        for source, target, gap in raw:
            time += gap
            before = _all_starts(index)
            changes = index.observe(source, target, time)
            after = _all_starts(index)
            assert len({influencer for influencer, _, _ in changes}) == len(changes)
            assert set(changes) == _starts_diff(before[target], after[target])
            # Only σω_in(target) changes (the mirror of Lemma 1).
            assert {n: s for n, s in before.items() if n != target} == {
                n: s for n, s in after.items() if n != target
            }
            assert index.entry_count() == sum(map(len, after.values()))

    def test_tied_stamps(self):
        index = StreamingExactIndex(window=10)
        assert index.observe("a", "b", 1) == [("a", 1, True)]
        assert index.observe("b", "c", 5) == [("b", 5, True), ("a", 1, True)]
        # Refreshes a→b; tied with b→c, so it does not reach c.
        assert index.observe("a", "b", 5) == [("a", 5, False)]
        # Merges b's pre-stamp state {a: 1}: nothing new for c.
        assert index.observe("b", "c", 5) == []
        assert index.observe("b", "c", 6) == [("b", 6, False), ("a", 5, False)]
        assert index.observe("c", "c", 7) == []  # self-loops carry no influence

    def test_rejected_event_changes_nothing(self):
        index = StreamingExactIndex(window=10)
        index.observe("a", "b", 5)
        with pytest.raises(ValueError):
            index.observe("b", "c", 4)
        assert index.observe("b", "c", 6) == [("b", 6, True), ("a", 5, True)]

    def test_process_keeps_the_entry_count(self, tied_log):
        index = StreamingExactIndex(window=60)
        for time, record in enumerate(tied_log.forward()):
            index.process(record.source, record.target, time)
        assert index.entry_count() == sum(
            len(index.influencer_starts(node)) for node in index.nodes
        )

    @given(raw=LIVE_EVENTS, window=st.integers(1, 6), lag=st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_eviction_drops_exactly_the_expired_entries(self, raw, window, lag):
        index = StreamingExactIndex(window)
        time = 0
        for step, (source, target, gap) in enumerate(raw):
            time += gap
            index.observe(source, target, time)
            if step % 4 != 3:
                continue
            cutoff = time - lag
            before = _all_starts(index)
            expected: dict = {}
            for starts in before.values():
                for influencer, start in starts.items():
                    if start < cutoff:
                        expected[influencer] = expected.get(influencer, 0) + 1
            assert index.evict_started_before(cutoff) == expected
            assert _all_starts(index) == {
                node: {i: s for i, s in starts.items() if s >= cutoff}
                for node, starts in before.items()
            }
            assert index.entry_count() == sum(map(len, _all_starts(index).values()))
            assert index.evict_started_before(cutoff) == {}

    def test_sweep_visits_only_summaries_holding_an_expired_start(self, monkeypatch):
        index = StreamingExactIndex(window=100)
        index.observe("a", "b", 1)
        index.observe("x", "y", 9)
        index.observe("y", "z", 10)
        visited = []
        evict = IRSSummary.evict_ends_after_into

        def spy(summary, threshold, counts):
            visited.append(dict(summary.items()))
            return evict(summary, threshold, counts)

        monkeypatch.setattr(IRSSummary, "evict_ends_after_into", spy)
        assert index.evict_started_before(5) == {"a": 1}
        assert visited == [{"a": -1}]  # σω_in(b); y and z hold starts >= 9
        visited.clear()
        # The sweep left every bound exact: nothing holds a start before 5.
        assert index.evict_started_before(5) == {}
        assert visited == []
        assert index.evict_started_before(10) == {"x": 2}
        assert len(visited) == 2  # σω_in(y) and σω_in(z)


class TestEviction:
    """Sliding-window decay: drop summary entries whose channel start aged out."""

    def test_evict_reports_per_influencer_counts(self):
        index = StreamingExactIndex(window=100)
        index.observe("a", "b", 1)
        index.observe("a", "c", 2)
        index.observe("x", "y", 9)
        evicted = index.evict_started_before(5)
        assert evicted == {"a": 2}
        assert index.influencers("b") == set()
        assert index.influencers("y") == {"x"}

    def test_evict_keeps_exactly_the_recent_suffix(self, tied_log):
        window = 120
        index = StreamingExactIndex.from_log(tied_log, window)
        reference = StreamingExactIndex.from_log(tied_log, window)
        cutoff = (index.last_time or 0) - 40
        index.evict_started_before(cutoff)
        for node in tied_log.nodes:
            assert index.influencers(node) == reference.influencers(
                node, since=cutoff
            ), node

    def test_sketch_evict_returns_dropped_pair_count(self):
        sketch = StreamingSketchIndex(window=100, precision=6)
        sketch.observe("a", "b", 1)
        sketch.observe("x", "y", 9)
        assert sketch.evict_started_before(5) == 1
        assert sketch.influencer_estimate("b") == 0.0
        assert sketch.influencer_estimate("y") > 0.0


class TestInfluencersOf:
    def test_one_shot_helper(self, paper_log):
        assert influencers_of(paper_log, "c", window=3) == offline_influencers(
            paper_log, "c", 3
        )

    def test_rejects_non_log(self):
        with pytest.raises(TypeError):
            influencers_of([("a", "b", 1)], "b", 3)
