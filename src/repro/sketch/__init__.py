"""Cardinality sketches: HyperLogLog and the paper's versioned HLL."""

from repro.sketch.bottomk import BottomK, VersionedBottomK
from repro.sketch.hashing import hash64, rho, split_hash
from repro.sketch.hll import (
    HyperLogLog,
    alpha,
    estimate_from_cells,
    estimate_from_registers,
)
from repro.sketch.sliding_hll import SlidingWindowHLL
from repro.sketch.vhll import VersionedHLL

__all__ = [
    "hash64",
    "rho",
    "split_hash",
    "HyperLogLog",
    "alpha",
    "estimate_from_cells",
    "estimate_from_registers",
    "VersionedHLL",
    "SlidingWindowHLL",
    "BottomK",
    "VersionedBottomK",
]
