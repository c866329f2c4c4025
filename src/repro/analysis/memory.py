"""Deterministic memory accounting for IRS indexes (paper Table 4).

The paper reports operating-system megabytes of its C++ process.  A Python
RSS number would mostly measure the interpreter, so we account for the data
structures directly, in two complementary ways:

* **entry accounting** — the number of stored entries times a fixed
  per-entry footprint (the C++-like cost model: an exact entry is a
  ``(node id, timestamp)`` record, a sketch entry is a ``(ρ, timestamp)``
  pair), matching the quantity Lemmas 3–6 bound;
* **deep size** — a recursive :func:`sys.getsizeof` walk over the live
  Python objects, for users who want actual interpreter bytes.

Both grow the same way — with n and (slightly) with ω — which is the shape
Table 4 demonstrates.
"""

from __future__ import annotations

import sys
from typing import Set

from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS

__all__ = [
    "EXACT_ENTRY_BYTES",
    "SKETCH_ENTRY_BYTES",
    "accounted_bytes",
    "deep_size",
    "megabytes",
]

EXACT_ENTRY_BYTES = 16
"""Cost model for one exact summary entry: 64-bit node id + 64-bit λ."""

SKETCH_ENTRY_BYTES = 12
"""Cost model for one vHLL pair: 64-bit timestamp + 8-bit ρ, padded."""


def accounted_bytes(index) -> int:
    """Entry-accounted size in bytes of an :class:`ExactIRS` or
    :class:`ApproxIRS` index (see module docstring for the cost model)."""
    if isinstance(index, ExactIRS):
        return index.entry_count() * EXACT_ENTRY_BYTES
    if isinstance(index, ApproxIRS):
        return index.entry_count() * SKETCH_ENTRY_BYTES
    raise TypeError(
        f"index must be ExactIRS or ApproxIRS, got {type(index).__name__}"
    )


def deep_size(obj: object, _seen: Set[int] = None) -> int:  # type: ignore[assignment]
    """Recursive ``sys.getsizeof`` over containers and slotted objects."""
    if _seen is None:
        _seen = set()
    identity = id(obj)
    if identity in _seen:
        return 0
    _seen.add(identity)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(
            deep_size(key, _seen) + deep_size(value, _seen)
            for key, value in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_size(item, _seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += deep_size(vars(obj), _seen)
    if hasattr(obj, "__slots__"):
        for slot in obj.__slots__:  # type: ignore[attr-defined]
            if hasattr(obj, slot):
                size += deep_size(getattr(obj, slot), _seen)
    return size


def megabytes(num_bytes: int) -> float:
    """Bytes → MB (10^6, matching the paper's table units)."""
    return num_bytes / 1_000_000.0
