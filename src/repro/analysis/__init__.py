"""Experiment harness, metrics, and memory accounting for the paper's
tables and figures."""

from repro.analysis.experiments import ALL_METHODS, select_seeds
from repro.analysis.memory import (
    EXACT_ENTRY_BYTES,
    SKETCH_ENTRY_BYTES,
    accounted_bytes,
    deep_size,
    megabytes,
)
from repro.analysis.metrics import (
    average_relative_error,
    jaccard,
    relative_error,
    seed_overlap,
)

__all__ = [
    "ALL_METHODS",
    "select_seeds",
    "accounted_bytes",
    "deep_size",
    "megabytes",
    "EXACT_ENTRY_BYTES",
    "SKETCH_ENTRY_BYTES",
    "relative_error",
    "average_relative_error",
    "seed_overlap",
    "jaccard",
]
