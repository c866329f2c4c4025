"""Property test: LiveIndex against the batch and brute-force references.

Adversarial logs (tied stamps, stale events, self-loops, repeated edges)
are fed in random batch splits, in both modes, with and without decay, at sweep
periods that sweep after every event, now and then, or never.  After
every batch the live state must describe exactly the suffix log
``{t >= horizon}``:

* exact mode: ``influencers``, ``influence``, ``topk`` and ``spread``
  equal :class:`~repro.core.exact.ExactIRS` on the suffix, which equals
  the brute-force channel enumerator of :mod:`repro.core.channels`;
* sketch mode: every node's registers equal the plain
  :class:`~repro.sketch.hll.HyperLogLog` of its exact suffix set, bit for
  bit — cycles included, since the forward sketches are fed from the
  exact dual;
* in both modes a published oracle answers ``spread`` the same after a
  snapshot round trip.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.channels import all_reachability_sets
from repro.core.exact import ExactIRS
from repro.core.interactions import InteractionLog
from repro.ingest.live import LiveIndex
from repro.serve.snapshot import load_oracle, save_oracle
from repro.sketch.hll import HyperLogLog

NODES = "abcd"
PRECISION = 4
SALT = 3

#: ``(source, target, gap)``: the gap to the previous stamp is often 0
#: (a tie) and sometimes negative (a stale event, which is rejected),
#: source and target may coincide (a self-loop), and a four-node alphabet
#: repeats edges.
EVENTS = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.sampled_from([0, 0, 1, 1, 2, 3, -2]),
    ),
    min_size=3,
    max_size=24,
)


def _stamped(raw):
    events, time = [], 0
    for source, target, gap in raw:
        time += gap
        events.append((source, target, time))
    return events


def _fresh(batch, newest):
    """The events of ``batch`` the index applies: none older than the
    newest applied stamp."""
    kept = []
    for event in batch:
        if newest is None or event[2] >= newest:
            kept.append(event)
            newest = event[2]
    return kept


def _split(events, cuts):
    """Batches of ``events`` ending at the (sorted, distinct) cut points."""
    bounds = sorted({cut % (len(events) + 1) for cut in cuts} | {len(events)})
    batches, low = [], 0
    for high in bounds:
        if high > low:
            batches.append(events[low:high])
            low = high
    return batches


def _reference_sets(applied, horizon, window, brute_force=True):
    """σω(u) of every node over the suffix log ``{t >= horizon}``."""
    suffix = [event for event in applied if horizon is None or event[2] >= horizon]
    nodes = {node for event in applied for node in event[:2]}
    sets = {node: set() for node in nodes}
    if suffix:
        log = InteractionLog(suffix, allow_self_loops=True)
        index = ExactIRS.from_log(log, window)
        batch = {node: index.reachability_set(node) for node in log.nodes}
        if brute_force:
            assert batch == all_reachability_sets(log, window)
        sets.update(batch)
    return sets


def _check_influencers(live, sets):
    for node in sets:
        assert live.influencers(node) == {u for u, s in sets.items() if node in s}, node


def _check_exact(live, sets):
    for node, reached in sets.items():
        assert live.influence(node) == float(len(reached)), node
    ranked = sorted(
        ((node, float(len(reached))) for node, reached in sets.items() if reached),
        key=lambda entry: (-entry[1], repr(entry[0])),
    )
    assert live.topk(len(NODES)) == ranked
    assert live.topk(2) == ranked[:2]
    for seeds in (["a"], ["a", "c"], list(NODES)):
        covered = set().union(*(sets[seed] for seed in seeds if seed in sets))
        assert live.spread(seeds) == float(len(covered)), seeds


def _hll_registers(reached):
    hll = HyperLogLog(PRECISION, SALT)
    hll.update(reached)
    return hll.registers()


def _check_sketch(live, sets, applied, window):
    oracle = live.build_oracle()
    for node, reached in sets.items():
        assert oracle.registers(node) == _hll_registers(reached), node
    # Each sketch answers every later horizon too: its registers since any
    # stamp ``h`` are those of the exact sets over ``{t >= h}``.
    horizon = live.horizon()
    for since in sorted({t for _, _, t in applied if horizon is None or t > horizon}):
        later = _reference_sets(applied, since, window, brute_force=False)
        for node, reached in later.items():
            sketch = live._sketches.get(node)
            registers = [0] * (1 << PRECISION)
            for cell, value in (sketch.register_map(since) if sketch else {}).items():
                registers[cell] = value
            assert registers == _hll_registers(reached), (node, since)


def _check_round_trip(live):
    oracle = live.build_oracle()
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "live.snap")
        save_oracle(path, oracle)
        loaded = load_oracle(path)
    for seeds in (["a"], ["b", "d"], list(NODES)):
        assert loaded.spread(seeds) == oracle.spread(seeds) == live.spread(seeds), seeds


@pytest.mark.parametrize("mode", ["exact", "sketch"])
@given(
    raw=EVENTS,
    cuts=st.lists(st.integers(0, 24), max_size=4),
    window=st.integers(0, 6),
    decay=st.one_of(st.none(), st.integers(1, 8)),
    sweep_every=st.sampled_from([1, 3, 1024]),
)
@settings(max_examples=150, deadline=None)
def test_live_index_matches_the_suffix_log(mode, raw, cuts, window, decay, sweep_every):
    events = _stamped(raw)
    live = LiveIndex(
        window,
        mode=mode,
        decay_window=decay,
        precision=PRECISION,
        salt=SALT,
        sweep_every=sweep_every,
    )
    applied = []
    for batch in _split(events, cuts):
        fresh = _fresh(batch, applied[-1][2] if applied else None)
        result = live.apply_events(batch)
        assert (result.applied, result.rejected) == (len(fresh), len(batch) - len(fresh))
        applied.extend(fresh)
        sets = _reference_sets(applied, live.horizon(), window)
        _check_influencers(live, sets)
        if sweep_every == 1:
            # A sweep ran after the last event: what it kept is what counts.
            assert live.stats()["entries"] == sum(len(live.influencers(n)) for n in sets)
        if mode == "exact":
            _check_exact(live, sets)
        else:
            _check_sketch(live, sets, applied, window)
    _check_round_trip(live)
