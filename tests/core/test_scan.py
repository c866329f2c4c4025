"""Differential tie test: every reverse-scan index against the brute force.

The logs are small and acyclic (edges ``u < v``, so no channel returns to
its start and the sketches carry no self-count) with heavy ties (stamps
0–4).  Two tied interactions must never chain into one channel; an index
that lets a tied merge see its batch-mate's effect reaches nodes the
brute-force enumerator of :mod:`repro.core.channels` does not.
"""

from hypothesis import given, settings, strategies as st

from repro.core.approx import ApproxIRS
from repro.core.approx_bottomk import BottomKIRS
from repro.core.channels import all_reachability_summaries, fastest_channel_duration
from repro.core.interactions import InteractionLog
from repro.core.multiwindow import MultiWindowIRS
from repro.core.streaming import StreamingExactIndex, StreamingSketchIndex
from repro.sketch.vhll import VersionedHLL

PRECISION = 4

acyclic_tied_edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=4),
    )
    .filter(lambda edge: edge[0] != edge[1])
    .map(lambda edge: (min(edge[:2]), max(edge[:2]), edge[2])),
    min_size=1,
    max_size=20,
)


@given(edges=acyclic_tied_edges, window=st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_every_index_matches_brute_force_under_ties(edges, window):
    log = InteractionLog(edges)
    truth = all_reachability_summaries(log, window)

    approx = ApproxIRS.from_log(log, window, precision=PRECISION)
    bottomk = BottomKIRS.from_log(log, window, k=64)
    multi = MultiWindowIRS.from_log(log)
    for node, summary in truth.items():
        expected = VersionedHLL(PRECISION)
        for reached, end in summary.items():
            expected.add(reached, end)
        assert approx.registers(node) == expected.effective_registers(), node
        assert bottomk.irs_estimate(node) == len(summary), node
        assert multi.reachability_set(node, window) == set(summary), node
        for other in log.nodes:
            assert multi.fastest_duration(node, other) == fastest_channel_duration(
                log, node, other
            ), (node, other)

    live_exact = StreamingExactIndex(window)
    live_sketch = StreamingSketchIndex(window, precision=PRECISION)
    for record in log.forward():
        live_exact.observe(record.source, record.target, record.time)
        live_sketch.observe(record.source, record.target, record.time)
    batch_sketch = StreamingSketchIndex.from_log(log, window, precision=PRECISION)
    for node in log.nodes:
        influencers = {u for u, summary in truth.items() if node in summary}
        assert live_exact.influencers(node) == influencers, node
        assert live_sketch._dual.registers(node) == batch_sketch._dual.registers(
            node
        ), node
