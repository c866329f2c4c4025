"""Unit + property tests for the sliding-window HyperLogLog (extension)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.hashing import split_hash
from repro.sketch.sliding_hll import SlidingWindowHLL


class TestConstruction:
    def test_defaults(self):
        sketch = SlidingWindowHLL()
        assert sketch.num_cells == 512
        assert sketch.last_time is None
        assert sketch.entry_count() == 0

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            SlidingWindowHLL(precision=1)
        with pytest.raises(TypeError):
            SlidingWindowHLL(precision="9")


class TestAdd:
    def test_requires_time_order(self):
        sketch = SlidingWindowHLL(precision=4)
        sketch.add("a", 5)
        with pytest.raises(ValueError, match="time order"):
            sketch.add("b", 4)

    def test_equal_times_allowed(self):
        sketch = SlidingWindowHLL(precision=4)
        sketch.add("a", 5)
        sketch.add("b", 5)

    def test_rejects_non_int_time(self):
        sketch = SlidingWindowHLL(precision=4)
        with pytest.raises(TypeError):
            sketch.add("a", 1.5)

    def test_frontier_invariant(self):
        """Each cell keeps timestamps increasing, rho strictly decreasing."""
        sketch = SlidingWindowHLL(precision=3)
        for t in range(500):
            sketch.add(t * 7919 % 1000, t)
        for pairs in sketch._cells.values():
            assert pairs  # empty cells are absent keys, never empty lists
            times = [t for t, _ in pairs]
            rhos = [r for _, r in pairs]
            assert times == sorted(times)
            assert rhos == sorted(rhos, reverse=True)
            assert len(set(rhos)) == len(rhos)


class TestEstimation:
    def test_whole_stream_estimate(self):
        sketch = SlidingWindowHLL(precision=9)
        for i in range(2_000):
            sketch.add(i, i)
        assert 0.8 * 2_000 < sketch.cardinality() < 1.2 * 2_000
        assert len(sketch) == round(sketch.cardinality())

    def test_window_estimate_tracks_truth(self):
        sketch = SlidingWindowHLL(precision=9)
        for t in range(3_000):
            sketch.add(f"item-{t}", t)
        # Last 500 ticks hold exactly 500 distinct items.
        estimate = sketch.cardinality_since(2_500)
        assert 400 < estimate < 600

    def test_duplicates_not_double_counted(self):
        sketch = SlidingWindowHLL(precision=8)
        for t in range(1_000):
            sketch.add(t % 100, t)
        estimate = sketch.cardinality_since(0)
        assert 75 < estimate < 130

    def test_window_estimates_monotone_in_start(self):
        sketch = SlidingWindowHLL(precision=8)
        for t in range(1_000):
            sketch.add(t, t)
        estimates = [sketch.cardinality_since(s) for s in (0, 250, 500, 750)]
        assert estimates == sorted(estimates, reverse=True)

    def test_future_window_is_empty(self):
        sketch = SlidingWindowHLL(precision=6)
        sketch.add("a", 10)
        assert sketch.cardinality_since(11) == pytest.approx(0.0)

    @given(
        items=st.lists(st.integers(min_value=0, max_value=50), max_size=60),
        start_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_register_equals_replay(self, items, start_fraction):
        """For any window start, the sliding sketch's registers equal those
        of a plain HLL fed only the in-window arrivals."""
        from repro.sketch.hll import HyperLogLog

        sketch = SlidingWindowHLL(precision=4)
        for t, item in enumerate(items):
            sketch.add(item, t)
        start = int(len(items) * start_fraction)
        replay = HyperLogLog(precision=4)
        for item in items[start:]:
            replay.add(item)
        assert sketch.registers_since(start) == replay.registers()


class TestPrune:
    def test_prune_drops_old_entries(self):
        sketch = SlidingWindowHLL(precision=6)
        for t in range(1_000):
            sketch.add(t, t)
        before = sketch.entry_count()
        sketch.prune(900)
        assert sketch.entry_count() <= before
        # Windows starting at or after the prune point are unaffected.
        assert sketch.cardinality_since(950) > 20

    def test_prune_rejects_bad_argument(self):
        with pytest.raises(TypeError):
            SlidingWindowHLL(precision=4).prune("old")

    def test_prune_to_empty(self):
        sketch = SlidingWindowHLL(precision=4)
        sketch.add("a", 1)
        sketch.prune(100)
        assert sketch.entry_count() == 0


class TestAddAt:
    """General-position inserts must converge to the sorted-replay state."""

    def test_fast_path_delegates_to_add(self):
        sorted_sketch = SlidingWindowHLL(precision=6)
        mixed = SlidingWindowHLL(precision=6)
        for t in range(100):
            sorted_sketch.add(t, t)
            mixed.add_at(t, t)
        assert mixed.registers() == sorted_sketch.registers()
        assert mixed.last_time == sorted_sketch.last_time

    def test_shuffled_inserts_match_sorted_adds(self):
        import random

        generator = random.Random(31)
        stamped = [(item, generator.randrange(500)) for item in range(400)]
        sorted_sketch = SlidingWindowHLL(precision=6)
        for item, t in sorted(stamped, key=lambda pair: pair[1]):
            sorted_sketch.add(item, t)
        shuffled = list(stamped)
        generator.shuffle(shuffled)
        mixed = SlidingWindowHLL(precision=6)
        for item, t in shuffled:
            mixed.add_at(item, t)
        for start in (None, 0, 100, 250, 499):
            if start is None:
                assert mixed.cardinality() == sorted_sketch.cardinality()
            else:
                assert mixed.registers_since(start) == sorted_sketch.registers_since(
                    start
                ), start

    @given(
        stamped=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=60,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_order_independence(self, stamped, seed):
        import random

        sorted_sketch = SlidingWindowHLL(precision=4)
        for item, t in sorted(stamped, key=lambda pair: pair[1]):
            sorted_sketch.add(item, t)
        shuffled = list(stamped)
        random.Random(seed).shuffle(shuffled)
        mixed = SlidingWindowHLL(precision=4)
        for item, t in shuffled:
            mixed.add_at(item, t)
        assert mixed.registers() == sorted_sketch.registers()
        for start in (0, 10, 25, 50):
            assert mixed.registers_since(start) == sorted_sketch.registers_since(start)

    def test_rejects_non_int_time(self):
        with pytest.raises(TypeError):
            SlidingWindowHLL(precision=4).add_at("a", 1.5)


OUT_OF_ORDER = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 60)), max_size=80
)


class TestAddPair:
    """The hash-free kernel: ``add_pair(*split_hash(item), t)`` is ``add_at``."""

    @given(stamped=OUT_OF_ORDER, precision=st.integers(2, 6))
    @settings(max_examples=80, deadline=None)
    def test_same_frontier_as_add_at(self, stamped, precision):
        hashed = SlidingWindowHLL(precision, salt=9)
        reference = SlidingWindowHLL(precision, salt=9)
        for item, t in stamped:
            cell, r = split_hash(item, precision, 9)
            hashed.add_pair(cell, r, t)
            reference.add_at(item, t)
        assert hashed._cells == reference._cells
        assert hashed.last_time == reference.last_time

    def test_rejects_bad_arguments(self):
        sketch = SlidingWindowHLL(precision=4)
        with pytest.raises(TypeError):
            sketch.add_pair(3, 2, 1.5)
        with pytest.raises(ValueError, match="cell"):
            sketch.add_pair(16, 2, 1)
        assert sketch.entry_count() == 0


class TestOldestBound:
    """``prune`` skips a sketch with nothing older than its cutoff."""

    def test_prune_with_nothing_older_is_a_no_op(self):
        sketch = SlidingWindowHLL(precision=4)
        for t in range(10, 60):
            sketch.add_at(t * 7919, t)
        cells = {cell: list(pairs) for cell, pairs in sketch._cells.items()}
        first = min(pairs[0][0] for pairs in cells.values())
        # Dominated arrivals leave the bound below the oldest stored pair.
        assert sketch._oldest <= first
        sketch.prune(sketch._oldest)
        assert sketch._cells == cells
        sketch.prune(first)
        assert sketch._cells == cells and sketch._oldest == first
        sketch.prune(first + 1)
        assert sketch._cells != cells and sketch._oldest > first

    def test_empty_sketch_prunes_to_nothing(self):
        sketch = SlidingWindowHLL(precision=4)
        sketch.prune(5)
        assert sketch._oldest is None and sketch.entry_count() == 0
        sketch.add("a", 3)
        sketch.prune(10)
        assert sketch._oldest is None and sketch.entry_count() == 0

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("add_at"), st.integers(0, 300), st.integers(0, 60)),
                st.tuples(st.just("prune"), st.integers(0, 60)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_oldest_stays_a_lower_bound(self, ops):
        sketch = SlidingWindowHLL(precision=3)
        for op in ops:
            if op[0] == "add_at":
                sketch.add_at(op[1], op[2])
            else:
                sketch.prune(op[1])
            firsts = [pairs[0][0] for pairs in sketch._cells.values()]
            if not firsts:
                continue
            assert sketch._oldest is not None and sketch._oldest <= min(firsts)
            if op[0] == "prune":
                # A sweep that cut something leaves the bound exact.
                assert sketch._oldest == min(firsts) or sketch._oldest >= op[1]


class TestRegisters:
    def test_empty_sketch_is_all_zero(self):
        sketch = SlidingWindowHLL(precision=4)
        assert sketch.registers() == [0] * sketch.num_cells

    def test_registers_are_the_unwindowed_view(self):
        sketch = SlidingWindowHLL(precision=5)
        for t in range(300):
            sketch.add(t, t)
        plain = sketch.registers()
        # Every cell's register is its newest (largest-rho) frontier entry,
        # which equals the window "since the beginning of time".
        assert plain == sketch.registers_since(0)
        assert any(register > 0 for register in plain)
