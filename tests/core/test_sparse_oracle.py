"""The sparse sketch oracle against a dense β-wide reference.

:class:`~repro.core.oracle.ApproxInfluenceOracle` keeps only each node's
filled cells and prices a CELF gain as a delta over them.  The reference
below is the straightforward dense oracle: β-long register arrays, unions
by cell-wise max over all β cells, and gains as the difference of two full
estimates.  Both must answer bit for bit alike on ``spread``, ``gain``,
``influence`` and the CELF / greedy picks.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approx import ApproxIRS
from repro.core.maximization import celf_top_k, greedy_top_k
from repro.core.oracle import ApproxInfluenceOracle, InfluenceOracle
from repro.datasets import load_dataset
from repro.sketch.hll import estimate_from_registers


class DenseReferenceOracle(InfluenceOracle):
    """Dense register arrays, β-wide unions, two full estimates per gain."""

    def __init__(self, registers: Dict[object, List[int]], m: int) -> None:
        self._registers = {node: list(array) for node, array in registers.items()}
        self._m = m

    def nodes(self):
        return self._registers.keys()

    def influence(self, node):
        return estimate_from_registers(self._registers.get(node, [0] * self._m), self._m)

    def spread(self, seeds):
        state = self.new_accumulator()
        for seed in seeds:
            self.accumulate(state, seed)
        return self.value(state)

    def new_accumulator(self):
        return [0] * self._m

    def accumulate(self, state, node):
        for i, value in enumerate(self._registers.get(node, [0] * self._m)):
            state[i] = max(state[i], value)

    def value(self, state):
        return estimate_from_registers(state, self._m)

    def gain(self, state, node):
        merged = [max(a, b) for a, b in zip(state, self._registers.get(node, state))]
        return self.value(merged) - self.value(state)

    def copy_accumulator(self, state):
        return list(state)


@st.composite
def register_maps(draw):
    m = draw(st.sampled_from([16, 64]))
    top = 64 - (m.bit_length() - 1)
    count = draw(st.integers(1, 12))
    table = {}
    for node in range(count):
        registers = [0] * m
        for cell in draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True)):
            registers[cell] = draw(st.one_of(st.integers(1, 5), st.integers(40, top)))
        table[node] = registers
    return table, m


def _assert_agree(sparse, dense, nodes, rng, sets=40):
    for node in nodes:
        assert sparse.influence(node) == dense.influence(node)
        assert sparse.registers(node) == dense._registers[node]
    for _ in range(sets):
        seeds = rng.sample(nodes, rng.randint(0, len(nodes)))
        assert sparse.spread(seeds) == dense.spread(seeds)
        state, reference = sparse.new_accumulator(), dense.new_accumulator()
        for seed in seeds:
            sparse.accumulate(state, seed)
            dense.accumulate(reference, seed)
        assert list(state) == reference
        assert sparse.value(state) == dense.value(reference)
        for node in rng.sample(nodes, min(len(nodes), 5)) + ["unknown"]:
            assert sparse.gain(state, node) == dense.gain(reference, node)


@given(register_maps(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_sparse_oracle_matches_the_dense_reference(table_and_m, seed):
    table, m = table_and_m
    sparse = ApproxInfluenceOracle(table, m)
    dense = DenseReferenceOracle(table, m)
    _assert_agree(sparse, dense, list(table), random.Random(seed))
    k = min(4, len(table))
    assert celf_top_k(sparse, k) == celf_top_k(dense, k)
    assert greedy_top_k(sparse, k) == greedy_top_k(dense, k)


def test_from_cells_equals_the_dense_constructor():
    dense = {"a": [0, 3, 0, 1], "b": [0, 0, 0, 0], "c": [7, 0, 0, 0]}
    sparse = {"a": {1: 3, 3: 1}, "b": {}, "c": {0: 7}}
    left = ApproxInfluenceOracle(dense, 4)
    right = ApproxInfluenceOracle.from_cells(sparse, 4)
    for node in dense:
        assert left.registers(node) == right.registers(node) == dense[node]
        assert left.filled_cells(node) == right.filled_cells(node)
    assert left.spread(["a", "c"]) == right.spread(["a", "c"])


@pytest.mark.parametrize(
    "cells, match",
    [
        ({"a": {4: 1}}, "outside \\[0, 4\\)"),
        ({"a": {-1: 1}}, "outside \\[0, 4\\)"),
        ({"a": {0: 0}}, "outside \\[1, 64\\]"),
        ({"a": {0: 65}}, "outside \\[1, 64\\]"),
    ],
)
def test_from_cells_rejects_bad_cells(cells, match):
    with pytest.raises(ValueError, match=match):
        ApproxInfluenceOracle.from_cells(cells, 4)


def test_dense_constructor_rejects_registers_above_64():
    with pytest.raises(ValueError, match="outside \\[1, 64\\]"):
        ApproxInfluenceOracle({"a": [0, 65, 0, 0]}, 4)


@pytest.fixture(scope="module")
def enron_oracles():
    log = load_dataset("enron-sim", rng=2)
    index = ApproxIRS.from_log(log, log.time_span // 10, 9)
    sparse = ApproxInfluenceOracle.from_index(index)
    dense = DenseReferenceOracle({node: index.registers(node) for node in index.nodes}, 512)
    return index, sparse, dense


def test_catalog_build_agrees_with_the_dense_reference(enron_oracles):
    index, sparse, dense = enron_oracles
    nodes = sorted(index.nodes, key=repr)
    rng = random.Random(7)
    for _ in range(60):
        seeds = rng.sample(nodes, rng.randint(1, 16))
        assert sparse.spread(seeds) == dense.spread(seeds) == index.spread(seeds)
    for node in nodes:
        assert sparse.influence(node) == dense.influence(node)


def test_catalog_celf_picks_match_the_dense_reference(enron_oracles):
    _, sparse, dense = enron_oracles
    assert celf_top_k(sparse, 10) == celf_top_k(dense, 10)
