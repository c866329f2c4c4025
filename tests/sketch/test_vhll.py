"""Unit + property tests for the versioned HyperLogLog (vHLL)."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.sketch.vhll import VersionedHLL


def cell_pairs(sketch: VersionedHLL) -> list:
    """All (cell, t, rho) triples via the public serialisation."""
    payload = sketch.to_dict()
    triples = []
    for cell_index, pairs in enumerate(payload["cells"]):
        for t, r in pairs:
            triples.append((cell_index, t, r))
    return triples


class TestConstruction:
    def test_default_beta_512(self):
        assert VersionedHLL().num_cells == 512

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            VersionedHLL(precision=1)

    def test_rejects_float_precision(self):
        with pytest.raises(TypeError):
            VersionedHLL(precision=6.5)

    def test_new_sketch_empty(self):
        sketch = VersionedHLL(precision=4)
        assert sketch.is_empty()
        assert sketch.entry_count() == 0
        assert sketch.cardinality() == pytest.approx(0.0)


class TestAddPairDominance:
    def test_single_pair_stored(self):
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(0, 3, 10)
        assert cell_pairs(sketch) == [(0, 10, 3)]

    def test_dominated_pair_ignored(self):
        """(r=5, t=5) dominates (r=3, t=10): earlier AND larger rho."""
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(0, 5, 5)
        sketch.add_pair(0, 3, 10)
        assert cell_pairs(sketch) == [(0, 5, 5)]

    def test_new_pair_removes_dominated(self):
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(0, 3, 10)
        sketch.add_pair(0, 5, 5)
        assert cell_pairs(sketch) == [(0, 5, 5)]

    def test_incomparable_pairs_coexist(self):
        """(r=2, t=5) and (r=6, t=10): later time but larger rho — keep both."""
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(0, 2, 5)
        sketch.add_pair(0, 6, 10)
        assert cell_pairs(sketch) == [(0, 5, 2), (0, 10, 6)]

    def test_same_time_larger_rho_wins(self):
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(0, 2, 5)
        sketch.add_pair(0, 4, 5)
        assert cell_pairs(sketch) == [(0, 5, 4)]

    def test_same_time_smaller_rho_ignored(self):
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(0, 4, 5)
        sketch.add_pair(0, 2, 5)
        assert cell_pairs(sketch) == [(0, 5, 4)]

    def test_equal_pair_ignored(self):
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(0, 4, 5)
        sketch.add_pair(0, 4, 5)
        assert sketch.entry_count() == 1

    def test_middle_insertion_prunes_run(self):
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(0, 1, 10)
        sketch.add_pair(0, 3, 20)
        sketch.add_pair(0, 7, 30)
        # (r=5, t=15) dominates (3, 20) but not (7, 30) or (1, 10).
        sketch.add_pair(0, 5, 15)
        assert cell_pairs(sketch) == [(0, 10, 1), (0, 15, 5), (0, 30, 7)]

    def test_rejects_bad_cell(self):
        sketch = VersionedHLL(precision=4)
        with pytest.raises(ValueError):
            sketch.add_pair(16, 1, 0)
        with pytest.raises(ValueError):
            sketch.add_pair(-1, 1, 0)

    def test_rejects_non_int_timestamp(self):
        sketch = VersionedHLL(precision=4)
        with pytest.raises(TypeError):
            sketch.add_pair(0, 1, 2.5)
        with pytest.raises(TypeError):
            sketch.add_pair(0, 1, True)

    def test_paper_example3_sequence(self):
        """Example 3 of the paper, reverse-order arrivals into 4 cells."""
        sketch = VersionedHLL(precision=2)
        iota = {"a": 1, "b": 3, "c": 3, "d": 2, "e": 2}
        rho = {"a": 3, "b": 1, "c": 2, "d": 2, "e": 1}
        arrivals = [("a", 6), ("b", 5), ("a", 4), ("c", 3), ("d", 2), ("e", 1)]
        for item, t in arrivals:
            sketch.add_pair(iota[item], rho[item], t)
        payload = sketch.to_dict()["cells"]
        assert payload[0] == []
        assert payload[1] == [[4, 3]]              # (3, t4)
        assert payload[2] == [[1, 1], [2, 2]]      # (1, t1), (2, t2)
        assert payload[3] == [[3, 2]]              # (2, t3)


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_cells_stay_pareto_frontiers(self, triples):
        sketch = VersionedHLL(precision=2)
        for cell, r, t in triples:
            sketch.add_pair(cell, r, t)
        payload = sketch.to_dict()["cells"]
        for pairs in payload:
            times = [t for t, _ in pairs]
            rhos = [r for _, r in pairs]
            assert times == sorted(times)
            assert len(set(times)) == len(times)
            assert rhos == sorted(rhos)
            assert len(set(rhos)) == len(rhos)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=60,
        ),
        st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=80, deadline=None)
    def test_effective_register_equals_filtered_max(self, pairs, deadline):
        """The Pareto list answers max-rho-before-deadline exactly as the
        full (unpruned) history would."""
        sketch = VersionedHLL(precision=2)
        for r, t in pairs:
            sketch.add_pair(0, r, t)
        expected = max((r for r, t in pairs if t <= deadline), default=0)
        assert sketch.effective_registers(max_time=deadline)[0] == expected


class TestEffectiveRegisters:
    def test_no_bounds_takes_overall_max(self):
        sketch = VersionedHLL(precision=2)
        sketch.add_pair(1, 2, 5)
        sketch.add_pair(1, 6, 10)
        assert sketch.effective_registers()[1] == 6

    def test_max_time_filters(self):
        sketch = VersionedHLL(precision=2)
        sketch.add_pair(1, 2, 5)
        sketch.add_pair(1, 6, 10)
        assert sketch.effective_registers(max_time=7)[1] == 2
        assert sketch.effective_registers(max_time=4)[1] == 0

    def test_min_time_filters(self):
        sketch = VersionedHLL(precision=2)
        sketch.add_pair(1, 2, 5)
        registers = sketch.effective_registers(min_time=6)
        assert registers[1] == 0

    def test_empty_cells_are_zero(self):
        sketch = VersionedHLL(precision=2)
        assert sketch.effective_registers() == [0, 0, 0, 0]

    def test_max_registers_into_validates_the_accumulator_length(self):
        sketch = VersionedHLL(precision=4)
        with pytest.raises(ValueError, match="registers has length"):
            sketch.max_registers_into([0] * 3)


class TestMerge:
    def test_merge_unions_pairs(self):
        a = VersionedHLL(precision=2)
        b = VersionedHLL(precision=2)
        a.add_pair(0, 2, 5)
        b.add_pair(0, 6, 10)
        a.merge(b)
        assert cell_pairs(a) == [(0, 5, 2), (0, 10, 6)]

    def test_merge_example4_from_paper(self):
        """Example 4: merging two sketches with dominance pruning."""
        a = VersionedHLL(precision=2)
        b = VersionedHLL(precision=2)
        # First sketch: {} (3,t4) (1,t1),(2,t2) (2,t3)
        a.add_pair(1, 3, 4)
        a.add_pair(2, 1, 1)
        a.add_pair(2, 2, 2)
        a.add_pair(3, 2, 3)
        # Second sketch: {(5,t1)} (3,t2) (4,t3) (1,t4)
        b.add_pair(0, 5, 1)
        b.add_pair(1, 3, 2)
        b.add_pair(2, 4, 3)
        b.add_pair(3, 1, 4)
        a.merge(b)
        payload = a.to_dict()["cells"]
        assert payload[0] == [[1, 5]]
        assert payload[1] == [[2, 3]]
        assert payload[2] == [[1, 1], [2, 2], [3, 4]]
        assert payload[3] == [[3, 2]]

    def test_merge_within_respects_window(self):
        a = VersionedHLL(precision=2)
        b = VersionedHLL(precision=2)
        b.add_pair(0, 2, 5)
        b.add_pair(1, 3, 14)
        a.merge_within(b, start_time=5, window=5)  # keep t < 10
        payload = a.to_dict()["cells"]
        assert payload[0] == [[5, 2]]
        assert payload[1] == []

    def test_merge_within_boundary_exclusive(self):
        """t − start < window: a pair exactly at start+window is excluded
        (its duration would be window + 1)."""
        a = VersionedHLL(precision=2)
        b = VersionedHLL(precision=2)
        b.add_pair(0, 2, 10)
        a.merge_within(b, start_time=5, window=5)
        assert a.is_empty()

    def test_merge_rejects_mismatch(self):
        with pytest.raises(ValueError):
            VersionedHLL(precision=2).merge(VersionedHLL(precision=3))
        with pytest.raises(ValueError, match="different precision/salt"):
            VersionedHLL(precision=2, salt=0).merge(VersionedHLL(precision=2, salt=1))
        for other in (VersionedHLL(precision=3), VersionedHLL(precision=2, salt=1)):
            with pytest.raises(ValueError, match="different precision/salt"):
                VersionedHLL(precision=2).merge_within(other, 0, 5)
        with pytest.raises(TypeError):
            VersionedHLL(precision=2).merge(object())

    def test_merge_within_rejects_negative_window(self):
        with pytest.raises(ValueError):
            VersionedHLL(precision=2).merge_within(VersionedHLL(precision=2), 0, -1)

    def test_merge_commutative_on_pair_sets(self):
        pairs_a = [(0, 2, 5), (1, 4, 8), (2, 1, 3)]
        pairs_b = [(0, 6, 2), (1, 2, 4), (3, 3, 9)]
        left = VersionedHLL(precision=2)
        right = VersionedHLL(precision=2)
        for cell, r, t in pairs_a:
            left.add_pair(cell, r, t)
        for cell, r, t in pairs_b:
            right.add_pair(cell, r, t)
        mirror_left = VersionedHLL(precision=2)
        mirror_right = VersionedHLL(precision=2)
        for cell, r, t in pairs_b:
            mirror_left.add_pair(cell, r, t)
        for cell, r, t in pairs_a:
            mirror_right.add_pair(cell, r, t)
        left.merge(right)
        mirror_left.merge(mirror_right)
        assert left.to_dict() == mirror_left.to_dict()


#: Few cells, times and ρ values, so equal times and equal pairs are common.
SKETCH_PAIRS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-3, max_value=12),
    ),
    max_size=30,
)
PAIR_COUNTERS = ("vhll.pairs_inserted", "vhll.pairs_dominated", "vhll.pairs_pruned")


def sketch_of(triples) -> VersionedHLL:
    sketch = VersionedHLL(precision=2)
    for cell, r, t in triples:
        sketch.add_pair(cell, r, t)
    return sketch


def counted(action) -> tuple:
    """Run ``action`` with obs on; return its pair-counter deltas."""
    was_enabled = obs.enabled()
    obs.enable()
    try:
        before = [obs.counter(name).value for name in PAIR_COUNTERS]
        action()
        return tuple(
            obs.counter(name).value - start for name, start in zip(PAIR_COUNTERS, before)
        )
    finally:
        if not was_enabled:
            obs.disable()


def insert_each_pair(receiver: VersionedHLL, donor: VersionedHLL, deadline=None) -> None:
    """The per-pair reference: one ``add_pair`` per donor pair below the deadline."""
    for cell, pairs in donor.filled_cells():
        for t, r in pairs:
            if deadline is None or t < deadline:
                receiver.add_pair(cell, r, t)


class TestMergeKernel:
    """``merge`` and ``merge_within`` against one ``add_pair`` per donor pair."""

    # Deadlines reach below and above every pair time of SKETCH_PAIRS.
    @given(SKETCH_PAIRS, SKETCH_PAIRS, st.integers(-6, 14), st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_merge_within_equals_per_pair_inserts(self, mine, theirs, start, window):
        receiver, donor = sketch_of(mine), sketch_of(theirs)
        merged, reference = receiver.copy(), receiver.copy()
        kernel_counts = counted(lambda: merged.merge_within(donor, start, window))
        reference_counts = counted(
            lambda: insert_each_pair(reference, donor, start + window)
        )
        assert merged.filled_cells() == reference.filled_cells()
        assert kernel_counts == reference_counts

    @given(SKETCH_PAIRS, SKETCH_PAIRS)
    @settings(max_examples=300, deadline=None)
    def test_merge_equals_per_pair_inserts(self, mine, theirs):
        receiver, donor = sketch_of(mine), sketch_of(theirs)
        merged, reference = receiver.copy(), receiver.copy()
        kernel_counts = counted(lambda: merged.merge(donor))
        reference_counts = counted(lambda: insert_each_pair(reference, donor))
        assert merged.filled_cells() == reference.filled_cells()
        assert kernel_counts == reference_counts

    @given(SKETCH_PAIRS)
    @settings(max_examples=100, deadline=None)
    def test_merging_an_equal_sketch_changes_nothing(self, triples):
        sketch = sketch_of(triples)
        before = sketch.filled_cells()
        counts = counted(lambda: sketch.merge(sketch.copy()))
        assert sketch.filled_cells() == before
        assert counts == (0, sketch.entry_count(), 0)

    def test_copied_cells_do_not_alias_the_donor(self):
        donor = sketch_of([(0, 2, 3), (0, 4, 7)])
        receiver = VersionedHLL(precision=2)
        receiver.merge(donor)
        donor.add_pair(0, 6, 1)  # dominates both stored pairs
        assert receiver.filled_cells() == [[0, [[3, 2], [7, 4]]]]


class TestAddItems:
    def test_add_uses_item_hash(self):
        sketch = VersionedHLL(precision=4)
        sketch.add("x", 10)
        sketch.add("x", 10)
        assert sketch.entry_count() == 1

    def test_earlier_timestamp_replaces(self):
        sketch = VersionedHLL(precision=4)
        sketch.add("x", 10)
        sketch.add("x", 4)
        triples = cell_pairs(sketch)
        assert len(triples) == 1
        assert triples[0][1] == 4

    def test_rejects_non_int_timestamp(self):
        with pytest.raises(TypeError):
            VersionedHLL(precision=4).add("x", 1.5)

    def test_cardinality_tracks_distinct_items(self):
        sketch = VersionedHLL(precision=8)
        for i in range(800):
            sketch.add(i, i)
        estimate = sketch.cardinality()
        assert 0.7 * 800 < estimate < 1.3 * 800

    def test_cardinality_within_window(self):
        sketch = VersionedHLL(precision=8)
        for i in range(1_000):
            sketch.add(i, i)
        windowed = sketch.cardinality_within(max_time=99)
        assert windowed < 250  # only ~100 items end before t=100


class TestSerialization:
    def test_round_trip(self):
        sketch = VersionedHLL(precision=4, salt=2)
        for i in range(50):
            sketch.add(i, 100 - i)
        restored = VersionedHLL.from_dict(sketch.to_dict())
        assert restored.to_dict() == sketch.to_dict()

    def test_rejects_wrong_cell_count(self):
        payload = VersionedHLL(precision=4).to_dict()
        payload["cells"] = payload["cells"][:3]
        with pytest.raises(ValueError, match="length"):
            VersionedHLL.from_dict(payload)

    def test_rejects_invariant_violation(self):
        payload = VersionedHLL(precision=4).to_dict()
        payload["cells"][0] = [[5, 3], [4, 2]]  # times decreasing
        with pytest.raises(ValueError, match="Pareto"):
            VersionedHLL.from_dict(payload)

    def test_filled_cells_lists_only_filled_cells_in_order(self):
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(9, 1, 4)
        sketch.add_pair(2, 3, 8)
        sketch.add_pair(2, 6, 9)
        assert sketch.filled_cells() == [[2, [[8, 3], [9, 6]]], [9, [[4, 1]]]]
        assert VersionedHLL(precision=4).filled_cells() == []

    def test_from_filled_cells_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="outside"):
            VersionedHLL.from_filled_cells(4, 0, [[16, [[1, 1]]]])
        with pytest.raises(ValueError, match="outside"):
            VersionedHLL.from_filled_cells(4, 0, [[-1, [[1, 1]]]])
        with pytest.raises(ValueError, match="listed twice"):
            VersionedHLL.from_filled_cells(4, 0, [[3, [[1, 1]]], [3, [[2, 2]]]])
        with pytest.raises(ValueError, match="without pairs"):
            VersionedHLL.from_filled_cells(4, 0, [[3, []]])

    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=1, max_value=10**6),
            ),
            max_size=80,
        ),
        precision=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_filled_cells_round_trip_equals_to_dict(self, items, precision):
        sketch = VersionedHLL(precision=precision, salt=1)
        for item, timestamp in items:
            sketch.add(item, timestamp)
        restored = VersionedHLL.from_filled_cells(precision, 1, sketch.filled_cells())
        assert restored.to_dict() == sketch.to_dict()
        assert restored.register_map() == sketch.register_map()
        dense = sketch.effective_registers()
        assert {cell: value for cell, value in enumerate(dense) if value} == (
            sketch.register_map()
        )

    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=1, max_value=10**6),
            ),
            max_size=80,
        ),
        precision=st.integers(min_value=2, max_value=6),
        salt=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_lossless(self, items, precision, salt):
        """Property: to_dict → from_dict reproduces the sketch exactly —
        same payload, same cardinality at every deadline seen."""
        sketch = VersionedHLL(precision=precision, salt=salt)
        for item, timestamp in items:
            sketch.add(item, timestamp)
        payload = sketch.to_dict()
        restored = VersionedHLL.from_dict(payload)
        assert restored.to_dict() == payload
        assert restored.precision == sketch.precision
        assert restored.salt == sketch.salt
        assert restored.cardinality() == sketch.cardinality()
        for _, timestamp in items[:10]:
            assert restored.cardinality_within(timestamp) == (
                sketch.cardinality_within(timestamp)
            )


class TestCellLengths:
    def test_lengths_reported_per_cell(self):
        sketch = VersionedHLL(precision=2)
        sketch.add_pair(0, 1, 10)
        sketch.add_pair(0, 2, 20)
        sketch.add_pair(3, 1, 5)
        assert sketch.cell_lengths() == [2, 0, 0, 1]

    def test_expected_logarithmic_growth(self):
        """Lemma 4: E[list length] is O(log of items per cell) — feeding n
        random items into one cell keeps the Pareto list near H(n)."""
        import math
        import random

        generator = random.Random(5)
        lengths = []
        for _ in range(30):
            sketch = VersionedHLL(precision=2)
            n = 256
            for t in range(n, 0, -1):  # reverse chronological like the scan
                r = 1
                while generator.random() < 0.5 and r < 30:
                    r += 1
                sketch.add_pair(0, r, t)
            lengths.append(sketch.cell_lengths()[0])
        mean_length = sum(lengths) / len(lengths)
        harmonic = math.log(256)
        assert mean_length < 3 * harmonic


class TestPruneNewerThan:
    def test_drops_exactly_the_high_t_suffix(self):
        sketch = VersionedHLL(precision=4)
        for t in range(100, 0, -1):  # reverse chronological like the scan
            sketch.add(t, t)
        evicted = sketch.prune_newer_than(60)
        assert evicted > 0
        # Everything at or below the cutoff is still countable...
        assert sketch.cardinality_within(None, 60) == pytest.approx(60, rel=0.4)
        # ... and nothing above it survives.
        assert sketch.cardinality_within(61, None) == 0.0

    def test_matches_rebuild_from_surviving_items(self):
        sketch = VersionedHLL(precision=4, salt=9)
        rebuilt = VersionedHLL(precision=4, salt=9)
        for t in range(80, 0, -1):
            sketch.add(t * 31, t)
            if t <= 40:
                rebuilt.add(t * 31, t)
        sketch.prune_newer_than(40)
        assert sketch.effective_registers() == rebuilt.effective_registers()

    def test_prune_to_empty_and_validation(self):
        sketch = VersionedHLL(precision=3)
        sketch.add("a", 5)
        assert sketch.prune_newer_than(4) >= 1
        assert sketch.cardinality() == 0.0
        assert sketch.prune_newer_than(4) == 0  # idempotent once empty
        with pytest.raises(TypeError):
            sketch.prune_newer_than("soon")
