"""Runtime contract layer: corrupted structures raise, clean runs don't,
and with the flag unset the decorator is a zero-cost identity."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.summary import IRSSummary
from repro.sketch.vhll import VersionedHLL
from repro.utils.contracts import (
    CONTRACTS_ENV,
    ContractViolation,
    check_lambda_map,
    check_summary_merge_bound,
    check_time_sorted,
    check_vhll_dominance,
    contracts_enabled,
    invariant,
)

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def run_with_contracts(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter with contracts enabled."""
    env = dict(os.environ)
    env[CONTRACTS_ENV] = "1"
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
    )


# ----------------------------------------------------------------------
# Checkers raise on deliberately corrupted structures
# ----------------------------------------------------------------------


def test_corrupted_lambda_map_raises():
    summary = IRSSummary({"a": 5, "b": 9})
    check_lambda_map(summary)  # clean map passes
    summary._entries["c"] = "not-a-time"
    with pytest.raises(ContractViolation, match="expected int"):
        check_lambda_map(summary)


def test_lambda_map_below_scan_frontier_raises():
    summary = IRSSummary({"a": 5})
    check_lambda_map(summary, min_time=4)
    with pytest.raises(ContractViolation, match="monotonicity"):
        check_lambda_map(summary, min_time=6)


def test_non_minimal_merge_result_raises():
    merged = IRSSummary({"a": 5})
    other = IRSSummary({"a": 3})  # offered a smaller λ than what was kept
    with pytest.raises(ContractViolation, match="minimality"):
        check_summary_merge_bound(merged, other, start_time=1, window=10)


def test_dropped_in_budget_channel_raises():
    merged = IRSSummary({})
    other = IRSSummary({"a": 3})
    with pytest.raises(ContractViolation, match="dropped"):
        check_summary_merge_bound(merged, other, start_time=1, window=10)


def test_corrupted_vhll_cell_list_raises():
    sketch = VersionedHLL(precision=4)
    sketch.add_pair(0, 3, 10)
    check_vhll_dominance(sketch)  # clean sketch passes
    # A dominated pair: later time, smaller rho — pruning should have
    # removed it, so its presence is a corruption.
    sketch._cells[0].append((12, 2))
    with pytest.raises(ContractViolation, match="dominated pair"):
        check_vhll_dominance(sketch)


def test_unsorted_vhll_cell_list_raises():
    sketch = VersionedHLL(precision=4)
    sketch._cells[1] = [(10, 3), (8, 5)]
    with pytest.raises(ContractViolation, match="not time-sorted"):
        check_vhll_dominance(sketch)


def test_stored_empty_vhll_cell_raises():
    sketch = VersionedHLL(precision=4)
    sketch.add_pair(2, 3, 10)
    check_vhll_dominance(sketch)
    # Empty cells are absent keys; a stored empty list is corruption.
    sketch._cells[5] = []
    with pytest.raises(ContractViolation, match="empty list"):
        check_vhll_dominance(sketch)


@pytest.mark.parametrize("key", [-1, 16, "0"])
def test_vhll_cell_key_out_of_range_raises(key):
    sketch = VersionedHLL(precision=4)
    sketch._cells[key] = [(10, 3)]
    with pytest.raises(ContractViolation, match="outside"):
        check_vhll_dominance(sketch)


def test_check_time_sorted():
    check_time_sorted([1, 2, 2, 5])
    check_time_sorted([1, 2, 5], strict=True)
    with pytest.raises(ContractViolation, match="non-decreasing"):
        check_time_sorted([1, 3, 2])
    with pytest.raises(ContractViolation, match="strictly increasing"):
        check_time_sorted([1, 2, 2], strict=True)


# ----------------------------------------------------------------------
# Wired update paths self-check when REPRO_DEBUG_CONTRACTS=1
# ----------------------------------------------------------------------


def test_enabled_contracts_catch_injected_lambda_violation():
    result = run_with_contracts(
        """
        from repro.core.exact import ExactIRS

        index = ExactIRS(window=10)
        index.process("b", "c", 9)
        # Corrupt ϕ(b): a channel that ends before the scan frontier of
        # the next interaction violates λ-map monotonicity.
        index._summaries["b"]._entries["x"] = 2
        index.process("a", "b", 5)
        """
    )
    assert result.returncode != 0
    assert "ContractViolation" in result.stderr
    assert "monotonicity" in result.stderr


def test_enabled_contracts_catch_injected_vhll_dominance_violation():
    result = run_with_contracts(
        """
        from repro.sketch.vhll import VersionedHLL

        sketch = VersionedHLL(precision=4)
        sketch.add_pair(0, 4, 10)
        sketch._cells[0].append((12, 2))  # dominated pair survives "pruning"
        sketch.add_pair(1, 1, 5)          # next update self-checks the sketch
        """
    )
    assert result.returncode != 0
    assert "ContractViolation" in result.stderr
    assert "dominated pair" in result.stderr


def test_enabled_contracts_accept_clean_pipeline():
    result = run_with_contracts(
        """
        from repro.core.exact import ExactIRS
        from repro.core.approx import ApproxIRS
        from repro.core.interactions import InteractionLog
        from repro.core.streaming import StreamingExactIndex

        log = InteractionLog([("a", "b", 1), ("b", "c", 3), ("c", "d", 4), ("a", "c", 6)])
        exact = ExactIRS.from_log(log, window=4)
        approx = ApproxIRS.from_log(log, window=4, precision=4)
        streaming = StreamingExactIndex.from_log(log, window=4)
        print(sorted(exact.reachability_set("a")), streaming.influencer_count("d"))
        """
    )
    assert result.returncode == 0, result.stderr
    assert "['b', 'c', 'd']" in result.stdout


# ----------------------------------------------------------------------
# Identity fast-path with the flag unset
# ----------------------------------------------------------------------


needs_disabled = pytest.mark.skipif(
    contracts_enabled(), reason="suite is running with REPRO_DEBUG_CONTRACTS=1"
)


@needs_disabled
def test_invariant_is_identity_when_disabled():
    def probe(self, x):
        return x

    decorated = invariant(lambda *a: None)(probe)
    assert decorated is probe  # no wrapper object at all


@needs_disabled
def test_wired_methods_are_undecorated_when_disabled():
    from repro.core.exact import ExactIRS

    assert not hasattr(IRSSummary.add, "__wrapped__")
    assert not hasattr(IRSSummary.merge_within, "__wrapped__")
    assert not hasattr(VersionedHLL.add_pair, "__wrapped__")
    assert not hasattr(ExactIRS._apply, "__wrapped__")
