"""Both time-versioned sketches against a brute-force Pareto reference.

The reference keeps *every* pair ever inserted per cell and recomputes
the cell's frontier from scratch on each check.  The sketches are only
compared through public results (``to_dict``, registers, counts), so
these tests hold for any cell layout.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sketch.hashing import split_hash
from repro.sketch.sliding_hll import SlidingWindowHLL
from repro.sketch.vhll import VersionedHLL

PRECISIONS = st.sampled_from([2, 4])
ITEMS = st.integers(min_value=0, max_value=40)
TIMES = st.integers(min_value=-5, max_value=30)
RHOS = st.integers(min_value=1, max_value=12)


def vhll_frontier(pairs: set) -> list:
    """Pairs no other pair dominates (earlier-or-equal t, larger-or-equal ρ)."""
    return sorted(
        (t, r)
        for t, r in pairs
        if not any(t2 <= t and r2 >= r and (t2, r2) != (t, r) for t2, r2 in pairs)
    )


def sliding_frontier(pairs: set) -> list:
    """Pairs no other pair dominates (later-or-equal t, larger-or-equal ρ)."""
    return sorted(
        (t, r)
        for t, r in pairs
        if not any(t2 >= t and r2 >= r and (t2, r2) != (t, r) for t2, r2 in pairs)
    )


# ----------------------------------------------------------------------
# VersionedHLL
# ----------------------------------------------------------------------


class VHLLReference:
    """Per-cell history of inserted pairs; the frontier is derived."""

    def __init__(self, precision: int) -> None:
        self.precision = precision
        self.history: dict[int, set] = {}

    def frontiers(self) -> list:
        return [
            vhll_frontier(self.history.get(cell, set()))
            for cell in range(1 << self.precision)
        ]

    def add_pair(self, cell: int, r: int, t: int) -> None:
        self.history.setdefault(cell, set()).add((t, r))

    def merge_within(self, other: "VHLLReference", deadline=None) -> None:
        for cell, pairs in enumerate(other.frontiers()):
            for t, r in pairs:
                if deadline is None or t < deadline:
                    self.add_pair(cell, r, t)

    def prune_newer_than(self, max_time: int) -> int:
        before = sum(map(len, self.frontiers()))
        self.history = {
            cell: {(t, r) for t, r in pairs if t <= max_time}
            for cell, pairs in self.history.items()
        }
        return before - sum(map(len, self.frontiers()))

    def copy(self) -> "VHLLReference":
        clone = VHLLReference(self.precision)
        clone.history = {cell: set(pairs) for cell, pairs in self.history.items()}
        return clone


VHLL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add_pair"), st.integers(0, 1), st.integers(0, 15), RHOS, TIMES),
        st.tuples(st.just("add"), st.integers(0, 1), ITEMS, TIMES),
        st.tuples(st.just("merge"), st.integers(0, 1)),
        st.tuples(st.just("merge_within"), st.integers(0, 1), TIMES, st.integers(0, 12)),
        st.tuples(st.just("prune"), st.integers(0, 1), TIMES),
        st.tuples(st.just("copy"), st.integers(0, 1)),
        st.tuples(st.just("roundtrip"), st.integers(0, 1)),
    ),
    max_size=40,
)


def check_vhll(sketch: VersionedHLL, ref: VHLLReference, bounds: tuple) -> None:
    frontiers = ref.frontiers()
    assert sketch.to_dict()["cells"] == [[list(p) for p in cell] for cell in frontiers]
    assert sketch.cell_lengths() == [len(cell) for cell in frontiers]
    assert sketch.entry_count() == sum(map(len, frontiers))
    assert sketch.is_empty() == (not any(frontiers))
    min_time, max_time = bounds
    expected = [
        max(
            (r for t, r in cell
             if (min_time is None or t >= min_time) and (max_time is None or t <= max_time)),
            default=0,
        )
        for cell in frontiers
    ]
    assert sketch.effective_registers(min_time, max_time) == expected
    accumulator = [0] * sketch.num_cells
    sketch.max_registers_into(accumulator, min_time, max_time)
    assert accumulator == expected


@given(
    PRECISIONS,
    VHLL_OPS,
    st.tuples(st.none() | TIMES, st.none() | TIMES),
)
@settings(max_examples=150, deadline=None)
def test_vhll_matches_reference(precision, ops, bounds):
    sketches = [VersionedHLL(precision, salt=3), VersionedHLL(precision, salt=3)]
    refs = [VHLLReference(precision), VHLLReference(precision)]
    cells = 1 << precision
    for op in ops:
        kind, which = op[0], op[1]
        sketch, ref = sketches[which], refs[which]
        other, other_ref = sketches[1 - which], refs[1 - which]
        if kind == "add_pair":
            _, _, cell, r, t = op
            sketch.add_pair(cell % cells, r, t)
            ref.add_pair(cell % cells, r, t)
        elif kind == "add":
            _, _, item, t = op
            sketch.add(item, t)
            cell, r = split_hash(item, precision, 3)
            ref.add_pair(cell, r, t)
        elif kind == "merge":
            sketch.merge(other)
            ref.merge_within(other_ref)
        elif kind == "merge_within":
            _, _, start, window = op
            sketch.merge_within(other, start, window)
            ref.merge_within(other_ref, start + window)
        elif kind == "prune":
            assert sketch.prune_newer_than(op[2]) == ref.prune_newer_than(op[2])
        elif kind == "copy":
            # The copy replaces the other sketch; later updates to either
            # must not leak into the other.
            sketches[1 - which] = sketch.copy()
            refs[1 - which] = ref.copy()
        else:
            sketches[which] = VersionedHLL.from_dict(sketch.to_dict())
        for each, each_ref in zip(sketches, refs):
            check_vhll(each, each_ref, bounds)


# ----------------------------------------------------------------------
# SlidingWindowHLL
# ----------------------------------------------------------------------


SLIDING_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ITEMS, st.integers(0, 4)),
        st.tuples(st.just("add_at"), ITEMS, TIMES),
        st.tuples(st.just("prune"), TIMES),
    ),
    max_size=50,
)


@given(PRECISIONS, SLIDING_OPS)
@settings(max_examples=150, deadline=None)
def test_sliding_hll_matches_reference(precision, ops):
    sketch = SlidingWindowHLL(precision, salt=5)
    cells = 1 << precision
    history: dict[int, set] = {}
    last_time = None
    for op in ops:
        if op[0] == "prune":
            sketch.prune(op[1])
            history = {
                cell: {(t, r) for t, r in pairs if t >= op[1]}
                for cell, pairs in history.items()
            }
        else:
            if op[0] == "add":
                # Forward feed: non-decreasing stamps, ``op[2]`` ticks apart.
                t = (last_time if last_time is not None else 0) + op[2]
                sketch.add(op[1], t)
            else:
                t = op[2]
                sketch.add_at(op[1], t)
            last_time = t if last_time is None else max(last_time, t)
            cell, r = split_hash(op[1], precision, 5)
            history.setdefault(cell, set()).add((t, r))

        frontiers = [sliding_frontier(history.get(c, set())) for c in range(cells)]
        assert sketch.last_time == last_time
        assert sketch.entry_count() == sum(map(len, frontiers))
        assert sketch.registers() == [max((r for _, r in f), default=0) for f in frontiers]
        # The register step functions over every start pin each frontier.
        for start in range(-7, 33):
            assert sketch.registers_since(start) == [
                max((r for t, r in f if t >= start), default=0) for f in frontiers
            ]
