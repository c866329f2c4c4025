"""Experiment harness, metrics, and memory accounting for the paper's
tables and figures."""

from repro.analysis.experiments import (
    ALL_METHODS,
    accuracy_experiment,
    dataset_characteristics,
    memory_experiment,
    oracle_query_experiment,
    runtime_experiment,
    seed_overlap_experiment,
    seed_time_experiment,
    select_seeds,
    spread_comparison,
)
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
    "dataset_characteristics",
    "accuracy_experiment",
    "memory_experiment",
    "runtime_experiment",
    "oracle_query_experiment",
    "spread_comparison",
    "seed_overlap_experiment",
    "seed_time_experiment",
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
