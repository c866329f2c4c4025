"""Experiment-matrix orchestration (``repro xp ...``).

The evaluation of the paper is a five-axis parameter space — dataset ×
window ω × sketch precision × method × seed — and every figure/table is
one slice of it.  This package turns that space into a declared,
resumable, comparable artefact instead of a pile of bespoke script
invocations:

* :mod:`repro.xp.spec`   — declarative matrix specs (JSON/TOML or the
  built-in ``paper``/``smoke`` matrices) with validation and
  deterministic cell expansion;
* :mod:`repro.xp.runner` — resumable execution: every cell is keyed by a
  content hash of its parameters, persisted on completion, and skipped
  on re-run while the code fingerprint still matches;
* :mod:`repro.xp.store`  — the versioned (``repro-xp/1``) per-cell
  result store with full machine/code provenance;
* :mod:`repro.xp.stats`  — significance testing over per-seed replicates
  (Mann-Whitney U, bootstrap CIs) and the one median-plus-disjoint-IQR
  verdict rule (:func:`~repro.xp.stats.compare_samples`);
* :mod:`repro.xp.report` — markdown/HTML evidence reports and cross-run
  trend deltas (``repro xp report`` / ``repro xp diff``).

See ``docs/experiments.md`` for the workflow walkthrough.
"""

from repro.xp.spec import MatrixSpec, load_spec, paper_spec, smoke_spec
from repro.xp.store import XP_SCHEMA, ResultStore
from repro.xp.runner import RunSummary, run_matrix

__all__ = [
    "MatrixSpec",
    "load_spec",
    "paper_spec",
    "smoke_spec",
    "XP_SCHEMA",
    "ResultStore",
    "RunSummary",
    "run_matrix",
]
