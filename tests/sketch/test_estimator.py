"""The one HLL estimator: an exact, order-free indicator.

Every sketch and the sketch oracle estimate through
:func:`repro.sketch.hll.estimate_from_indicator`.  The indicator
``Σ 2^-M_j`` is summed as an integer scaled by ``2**shift`` and becomes a
float once, so a dense β-wide scan and a sparse walk over filled cells —
which add the same terms in different orders — must answer bit for bit
alike even where a float sum would not (ρ ≳ 45 beside hundreds of zeros).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from repro.core.oracle import ApproxInfluenceOracle
from repro.sketch.hll import (
    alpha,
    estimate_from_cells,
    estimate_from_indicator,
    estimate_from_registers,
    scaled_indicator,
)

#: Registers 0 and up beside 48- and 50-valued ones: a float sum of the
#: same terms gives 365.0 in list order and 365.00000000000017 reversed.
ORDER_SENSITIVE = [0] * 300 + [1] * 100 + [2] * 60 + [48] * 40 + [50] * 11


def _naive_float_indicator(registers):
    total = 0.0
    for value in registers:
        total += 2.0 ** (-value)
    return total


def _reference_estimate(registers, m):
    """Flajolet et al.'s estimator over the exact indicator, via Fraction."""
    indicator = float(sum(Fraction(1, 2**value) for value in registers))
    raw = alpha(m) * m * m / indicator
    zeros = registers.count(0)
    if raw <= 2.5 * m and zeros > 0:
        return m * math.log(m / zeros)
    two_to_32 = 2.0**32
    if two_to_32 / 30.0 < raw < two_to_32:
        return -two_to_32 * math.log(1.0 - raw / two_to_32)
    return raw


@st.composite
def register_arrays(draw):
    """β ∈ {16, 512}; ρ from 0 to 64−p; at least one filled cell.

    Values mix small ρ with ρ ≥ 40 so that hundreds of zero cells sit
    beside registers whose terms lie more than 53 bits below them.
    """
    m = draw(st.sampled_from([16, 512]))
    top = 64 - (m.bit_length() - 1)
    positions = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    values = draw(
        st.lists(
            st.one_of(st.integers(1, 6), st.integers(40, top)),
            min_size=len(positions),
            max_size=len(positions),
        )
    )
    registers = [0] * m
    for position, value in zip(positions, values):
        registers[position] = value
    return registers


@given(register_arrays())
@example([0] * 511 + [55])
@example([0] * 400 + [45] * 56 + [1] * 56)
@example(ORDER_SENSITIVE + [0] * (512 - len(ORDER_SENSITIVE)))
@settings(max_examples=150, deadline=None)
def test_indicator_is_exact_and_entry_points_agree(registers):
    m = len(registers)
    total, shift, zeros, count = scaled_indicator(registers)
    assert Fraction(total, 2**shift) == sum(Fraction(1, 2**value) for value in registers)
    assert zeros == registers.count(0)
    assert count == m

    dense = estimate_from_registers(registers, m)
    assert dense == _reference_estimate(registers, m)
    assert estimate_from_registers(registers[::-1], m) == dense

    filled = [value for value in registers if value]
    random.Random(len(filled)).shuffle(filled)
    assert estimate_from_cells(filled, m) == dense
    assert estimate_from_cells(filled[::-1], m) == dense

    oracle = ApproxInfluenceOracle({"u": registers}, m)
    assert oracle.influence("u") == dense
    assert oracle.spread(["u"]) == dense
    state = oracle.new_accumulator()
    assert oracle.gain(state, "u") == dense - estimate_from_registers([0] * m, m)


def test_order_sensitive_float_sum_is_real_and_the_estimator_ignores_it():
    """The trap the integer indicator avoids: two summation orders, two floats."""
    registers = ORDER_SENSITIVE + [0] * (512 - len(ORDER_SENSITIVE))
    assert _naive_float_indicator(registers) != _naive_float_indicator(registers[::-1])
    total, shift, _, _ = scaled_indicator(registers)
    exact = Fraction(total, 2**shift)
    assert total / 2**shift == float(exact)
    assert estimate_from_registers(registers, 512) == estimate_from_registers(
        registers[::-1], 512
    )


def test_scaled_indicator_widens_the_shift_for_large_values():
    """Values above 64 (not produced by a 64-bit hash) stay exact too."""
    total, shift, zeros, count = scaled_indicator([0, 70, 3])
    assert shift == 70
    assert Fraction(total, 2**shift) == 1 + Fraction(1, 2**70) + Fraction(1, 8)
    assert (zeros, count) == (1, 3)


def test_estimate_from_indicator_is_shift_invariant():
    """Scaling the same exact indicator differently gives the same float."""
    registers = [0, 0, 3, 17, 44, 60, 1, 2]
    total, shift, zeros, _ = scaled_indicator(registers)
    for extra in (0, 1, 17, 200):
        assert estimate_from_indicator(total << extra, zeros, 8, shift + extra) == (
            estimate_from_indicator(total, zeros, 8, shift)
        )


def test_estimate_from_cells_counts_unlisted_cells_as_zero():
    assert estimate_from_cells([], 16) == estimate_from_registers([0] * 16, 16) == 0.0
    assert estimate_from_cells([2], 16) == estimate_from_registers([2] + [0] * 15, 16)
