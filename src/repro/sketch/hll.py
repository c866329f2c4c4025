"""HyperLogLog cardinality sketch, implemented from scratch.

This follows Flajolet, Fusy, Gandouet & Meunier, *HyperLogLog: the analysis
of a near-optimal cardinality estimation algorithm* (AofA 2007), which the
paper's approximate algorithm builds on (§3.2.1):

* the sketch is an array of ``m = 2**precision`` registers;
* an item is hashed; the low ``precision`` bits select a register and ρ of
  the remaining bits (position of the least significant 1-bit) is recorded if
  it exceeds the register's current value;
* the cardinality estimate is the bias-corrected harmonic mean
  ``α_m · m² / Σ 2^{-M_j}`` with the standard small-range (linear counting)
  and large-range (hash-space saturation) corrections.

The relative standard error is ≈ ``1.04 / sqrt(m)``.

Two sketches over the same ``(precision, salt)`` merge by taking the
register-wise maximum; merging is the basis of the influence oracle's
seed-set union (§4.1 of the paper).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator

from repro.sketch.hashing import split_hash
from repro.utils.validation import require_in_range, require_int, require_type

__all__ = [
    "HyperLogLog",
    "INDICATOR_SHIFT",
    "alpha",
    "estimate_from_cells",
    "estimate_from_indicator",
    "estimate_from_registers",
    "scaled_indicator",
]


def alpha(m: int) -> float:
    """Bias-correction constant α_m from Flajolet et al. (Figure 3 therein)."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    if m >= 128:
        return 0.7213 / (1.0 + 1.079 / m)
    # Below 16 registers the asymptotic constant is a poor fit; fall back to
    # the m = 16 value, which keeps tiny test sketches sane.
    return 0.673


#: The HLL indicator ``Σ_j 2^-M_j`` is carried as an integer scaled by
#: ``2**INDICATOR_SHIFT``: every term with ``0 ≤ M_j ≤ 64`` (all a 64-bit
#: hash can produce) is then an exact integer, so the sum is exact and
#: independent of the order its terms are added in.
INDICATOR_SHIFT = 64


def estimate_from_indicator(
    indicator: int, zeros: int, m: int, shift: int = INDICATOR_SHIFT
) -> float:
    """The one HLL estimator every sketch and oracle in the repo goes through.

    ``indicator / 2**shift`` is the exact indicator ``Σ_j 2^-M_j`` over all
    ``m`` registers and ``zeros`` counts the registers equal to 0.  The
    indicator becomes a float once, by a correctly rounded division, so two
    callers that sum the same registers in any order and at any shift get
    the same float — a sparse union over filled cells and a dense β-wide
    scan answer bit for bit alike.
    """
    raw = alpha(m) * m * m / (indicator / (1 << shift))
    if raw <= 2.5 * m and zeros > 0:
        # Small-range correction: linear counting on empty registers.
        return m * math.log(m / zeros)
    two_to_32 = 2.0**32
    if two_to_32 / 30.0 < raw < two_to_32:
        # Large-range correction (32-bit hash-space saturation), kept for
        # fidelity to Flajolet et al.  Our hashes are 64-bit, so a raw
        # estimate at or beyond 2^32 is a legitimate huge cardinality, not
        # saturation — it is returned unchanged (the log correction would
        # be undefined there).
        return -two_to_32 * math.log(1.0 - raw / two_to_32)
    return raw


def scaled_indicator(values: Iterable[int]) -> tuple[int, int, int, int]:
    """The exact indicator of ``values`` as ``(total, shift, zeros, count)``.

    ``total / 2**shift == Σ 2^-v`` exactly, with ``shift`` the larger of
    :data:`INDICATOR_SHIFT` and the largest value; ``zeros`` counts the
    zero values and ``count`` all of them.
    """
    histogram: dict[int, int] = {}
    for value in values:
        histogram[value] = histogram.get(value, 0) + 1
    shift = max(INDICATOR_SHIFT, max(histogram, default=0))
    total = 0
    count = 0
    for value, times in histogram.items():
        total += times << (shift - value)
        count += times
    return total, shift, histogram.get(0, 0), count


def estimate_from_registers(registers: Iterable[int], m: int) -> float:
    """Cardinality estimate from a dense array of all ``m`` register values.

    Shared by :class:`HyperLogLog` and the versioned sketch in
    :mod:`repro.sketch.vhll`, which materialises an effective register array
    for a time window and estimates through this same formula.
    """
    total, shift, zeros, _ = scaled_indicator(registers)
    return estimate_from_indicator(total, zeros, m, shift)


def estimate_from_cells(values: Iterable[int], m: int) -> float:
    """Cardinality estimate from the filled registers of an ``m``-cell sketch.

    ``values`` are the registers of the filled cells only, in any order;
    the cells not listed are zero.  Equals :func:`estimate_from_registers`
    on the dense array bit for bit, at O(filled cells) instead of O(m).
    """
    total, shift, zeros, count = scaled_indicator(values)
    missing = m - count
    return estimate_from_indicator(total + (missing << shift), zeros + missing, m, shift)


class HyperLogLog:
    """A HyperLogLog sketch with ``2**precision`` registers.

    Parameters
    ----------
    precision:
        Number of index bits ``k``; the sketch has ``β = 2**k`` registers.
        The paper calls this ``β`` and uses β = 512 (k = 9) as its default.
    salt:
        Selects an independent hash function; sketches can only be merged
        when built with identical ``(precision, salt)``.

    Example
    -------
    >>> sk = HyperLogLog(precision=9)
    >>> for i in range(1000):
    ...     sk.add(i)
    >>> 900 < sk.cardinality() < 1100
    True
    """

    __slots__ = ("_precision", "_m", "_salt", "_registers")

    def __init__(self, precision: int = 9, salt: int = 0) -> None:
        require_int(precision, "precision")
        require_in_range(precision, "precision", 2, 20)
        require_type(salt, "salt", int)
        self._precision = precision
        self._m = 1 << precision
        self._salt = salt
        self._registers = [0] * self._m

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def precision(self) -> int:
        """Number of index bits ``k``."""
        return self._precision

    @property
    def num_registers(self) -> int:
        """Number of registers ``β = 2**precision``."""
        return self._m

    @property
    def salt(self) -> int:
        """Hash-function salt this sketch was built with."""
        return self._salt

    def registers(self) -> list[int]:
        """A copy of the raw register array."""
        return list(self._registers)

    def standard_error(self) -> float:
        """The analytic relative standard error ``1.04 / sqrt(β)``."""
        return 1.04 / math.sqrt(self._m)

    def is_empty(self) -> bool:
        """True if no item has ever been added."""
        return all(value == 0 for value in self._registers)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, item: Hashable) -> None:
        """Add ``item`` to the sketch (idempotent per distinct item)."""
        cell, r = split_hash(item, self._precision, self._salt)
        if r > self._registers[cell]:
            self._registers[cell] = r

    def update(self, items: Iterable[Hashable]) -> None:
        """Add every element of ``items``."""
        for item in items:
            self.add(item)

    def merge(self, other: "HyperLogLog") -> None:
        """In-place union with ``other`` (register-wise maximum)."""
        self._check_compatible(other)
        mine = self._registers
        theirs = other._registers
        for i in range(self._m):
            if theirs[i] > mine[i]:
                mine[i] = theirs[i]

    def union(self, other: "HyperLogLog") -> "HyperLogLog":
        """A new sketch equal to the union of ``self`` and ``other``."""
        self._check_compatible(other)
        result = HyperLogLog(self._precision, self._salt)
        result._registers = [max(a, b) for a, b in zip(self._registers, other._registers)]
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cardinality(self) -> float:
        """Bias-corrected estimate of the number of distinct items added."""
        return estimate_from_registers(self._registers, self._m)

    def __len__(self) -> int:
        """The cardinality estimate rounded to the nearest integer."""
        return round(self.cardinality())

    # ------------------------------------------------------------------
    # Serialisation (tests round-trip through this)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable representation."""
        return {
            "precision": self._precision,
            "salt": self._salt,
            "registers": list(self._registers),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HyperLogLog":
        """Inverse of :meth:`to_dict`."""
        sketch = cls(payload["precision"], payload["salt"])
        registers = payload["registers"]
        if len(registers) != sketch._m:
            raise ValueError(
                f"register array has length {len(registers)}, expected {sketch._m}"
            )
        if any(r < 0 for r in registers):
            raise ValueError("registers must be non-negative")
        sketch._registers = list(registers)
        return sketch

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "HyperLogLog") -> None:
        require_type(other, "other", HyperLogLog)
        if other._precision != self._precision or other._salt != self._salt:
            raise ValueError(
                "cannot combine sketches with different precision/salt: "
                f"({self._precision}, {self._salt}) vs ({other._precision}, {other._salt})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HyperLogLog(precision={self._precision}, salt={self._salt}, "
            f"estimate={self.cardinality():.1f})"
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self._registers)
