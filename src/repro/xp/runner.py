"""Resumable execution of an experiment matrix.

:func:`run_matrix` expands a spec into cells, skips every cell whose
result is already persisted *by the same code* (parameter-hash file
name + code-fingerprint check, see :mod:`repro.xp.store`), and executes
the rest — sequentially by default, or across a thread pool with
``jobs > 1``.  Each executed cell is persisted atomically the moment it
finishes, so a run killed at any point resumes with only the incomplete
cells recomputed.

Observability: with ``capture_obs`` (the default for sequential runs)
each cell executes under an enabled :mod:`repro.obs` registry that is
reset around the cell, so the cell document carries exactly the
counters/spans its own computation produced — the same numbers a
``REPRO_OBS=1`` run of the same computation would show.  Parallel
runs skip per-cell capture (the registry is process-global; concurrent
cells would bleed into each other) and record ``obs: null``.

Dataset generation is memoised per ``(name, rng, scale)`` so a matrix
sweeping windows/methods/seeds over the same dataset pays generation
once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.obs as obs
from repro.core.interactions import InteractionLog
from repro.datasets.catalog import load_dataset
from repro.utils.provenance import code_fingerprint
from repro.utils.timer import Timer
from repro.xp.spec import EXPERIMENTS, Cell, MatrixSpec
from repro.xp.store import ResultStore, cell_result_document

__all__ = ["RunSummary", "run_matrix", "execute_cell"]


# ---------------------------------------------------------------------------
# Dataset cache
# ---------------------------------------------------------------------------

_DATASET_CACHE: Dict[Tuple[str, int, float], InteractionLog] = {}
_DATASET_LOCK = threading.Lock()


def _dataset(cell: Cell) -> InteractionLog:
    cache_key = (cell.dataset, cell.dataset_rng, cell.scale)
    with _DATASET_LOCK:
        log = _DATASET_CACHE.get(cache_key)
        if log is None:
            log = load_dataset(cell.dataset, rng=cell.dataset_rng, scale=cell.scale)
            _DATASET_CACHE[cache_key] = log
    return log


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------

#: Serialises the obs-captured sections: the registry is process-global,
#: so only one cell may own an enabled+reset registry at a time.
_OBS_CAPTURE_LOCK = threading.Lock()


def _capture_obs(run: Callable[[], List[Dict[str, object]]]):
    """Run ``run()`` under a reset, enabled obs registry; return
    ``(rows, obs_payload)`` where the payload holds the cell's own
    non-zero counters and span count."""
    with _OBS_CAPTURE_LOCK:
        was_enabled = obs.enabled()
        obs.reset()
        obs.enable()
        try:
            rows = run()
            counters: Dict[str, float] = {}
            for sample in obs.snapshot(include_spans=False):
                if sample.get("type") != "counter" or not sample.get("value"):
                    continue
                labels = sample.get("labels", {})
                label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                name = sample["name"] + (f"{{{label_text}}}" if label_text else "")
                counters[name] = float(sample["value"])
            span_count = len(obs.span_records())
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()
    return rows, {"counters": counters, "span_count": span_count}


def execute_cell(cell: Cell, capture_obs: bool = True) -> Dict[str, object]:
    """Execute one cell and return its (unsaved) ``repro-xp/1`` document."""
    definition = EXPERIMENTS.get(cell.experiment)
    if definition is None:
        raise ValueError(f"unknown experiment {cell.experiment!r}")

    def run() -> List[Dict[str, object]]:
        return definition.run(_dataset(cell), cell)

    with Timer() as timer:
        if capture_obs:
            rows, obs_payload = _capture_obs(run)
        else:
            rows, obs_payload = run(), None
    return cell_result_document(
        key=cell.key(),
        experiment=cell.experiment,
        params=cell.params(),
        rows=rows,
        duration_s=timer.elapsed,
        obs=obs_payload,
    )


# ---------------------------------------------------------------------------
# Matrix runner
# ---------------------------------------------------------------------------

@dataclass
class RunSummary:
    """What one :func:`run_matrix` invocation did."""

    total: int = 0
    executed: int = 0
    skipped: int = 0
    deferred: int = 0
    interrupted: bool = False
    duration_s: float = 0.0
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted and self.deferred == 0

    def describe(self) -> str:
        parts = [
            f"{self.total} cells",
            f"{self.executed} executed",
            f"{self.skipped} skipped (cached)",
        ]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.deferred:
            parts.append(f"{self.deferred} deferred (--max-cells)")
        if self.interrupted:
            parts.append("interrupted")
        return ", ".join(parts) + f" in {self.duration_s:.1f}s"


def run_matrix(
    spec: MatrixSpec,
    store: ResultStore,
    jobs: int = 1,
    max_cells: Optional[int] = None,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> RunSummary:
    """Execute every incomplete cell of ``spec`` into ``store``.

    ``jobs`` > 1 runs cells across a thread pool (per-cell obs capture
    is disabled there — see the module docstring).  ``max_cells`` stops
    after executing that many cells, leaving the rest *deferred* — used
    by tests and CI to simulate an interrupted run.  ``force`` recomputes
    every cell even when a fresh persisted result exists.  Ctrl-C
    (``KeyboardInterrupt``) stops cleanly: finished cells stay persisted
    and the summary says so.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    emit = progress or (lambda line: None)
    cells = spec.cells()
    fingerprint = code_fingerprint()
    summary = RunSummary(total=len(cells))
    run_timer = Timer()
    run_timer.__enter__()

    pending: List[Cell] = []
    for cell in cells:
        if not force and store.fresh(cell.key(), fingerprint):
            summary.skipped += 1
            emit(f"[cached] {cell.label()}")
        else:
            pending.append(cell)
    if max_cells is not None and len(pending) > max_cells:
        summary.deferred = len(pending) - max_cells
        pending = pending[:max_cells]

    manifest = {
        "spec": spec.to_dict(),
        "spec_hash": spec.spec_hash(),
        "status": "running",
        "cells_total": len(cells),
    }
    store.write_manifest(manifest)

    def _execute(cell: Cell, capture: bool) -> Dict[str, object]:
        document = execute_cell(cell, capture_obs=capture)
        store.save(document)
        return document

    try:
        if jobs == 1:
            for index, cell in enumerate(pending, start=1):
                try:
                    document = _execute(cell, capture=True)
                except KeyboardInterrupt:
                    raise
                except Exception as error:  # noqa: BLE001 - cell isolation
                    summary.failures.append((cell.label(), f"{type(error).__name__}: {error}"))
                    emit(f"[{index}/{len(pending)}] FAIL {cell.label()}: {error}")
                    continue
                summary.executed += 1
                emit(
                    f"[{index}/{len(pending)}] ran {cell.label()} "
                    f"({document['duration_s']:.2f}s, {len(document['rows'])} rows)"  # type: ignore[arg-type]
                )
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(_execute, cell, False): cell for cell in pending
                }
                done = 0
                try:
                    for future in as_completed(futures):
                        cell = futures[future]
                        done += 1
                        try:
                            document = future.result()
                        except Exception as error:  # noqa: BLE001
                            summary.failures.append(
                                (cell.label(), f"{type(error).__name__}: {error}")
                            )
                            emit(f"[{done}/{len(pending)}] FAIL {cell.label()}: {error}")
                            continue
                        summary.executed += 1
                        emit(
                            f"[{done}/{len(pending)}] ran {cell.label()} "
                            f"({document['duration_s']:.2f}s)"  # type: ignore[arg-type]
                        )
                except KeyboardInterrupt:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
    except KeyboardInterrupt:
        summary.interrupted = True

    run_timer.__exit__(None, None, None)
    summary.duration_s = run_timer.elapsed
    if summary.interrupted:
        status = "interrupted"
    elif summary.deferred:
        status = "partial"
    else:
        status = "complete"
    manifest.update(
        {
            "status": status,
            "executed": summary.executed,
            "skipped": summary.skipped,
            "deferred": summary.deferred,
            "failures": [{"cell": label, "error": err} for label, err in summary.failures],
            "duration_s": summary.duration_s,
        }
    )
    store.write_manifest(manifest)
    return summary
