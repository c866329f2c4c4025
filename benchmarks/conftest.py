"""Shared infrastructure for the reproduction benchmarks.

Each ``bench_*.py`` regenerates one table or figure of the paper.  The
computed rows are (a) written to ``benchmarks/results/<name>.txt`` and
(b) echoed into the terminal summary after the pytest-benchmark timing
table, so that ``pytest benchmarks/ --benchmark-only`` shows the
reproduction output without extra flags.

Datasets are generated once per session and shared across benchmarks via
the ``catalog_logs`` fixture.

When observability is on (``REPRO_OBS=1``) the session additionally writes
``benchmarks/results/metrics.jsonl`` — the full metric snapshot of the run
— and prints the human-readable report after the reproduction tables.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

import repro.obs as obs
from repro.analysis.metrics import format_table
from repro.core.interactions import InteractionLog
from repro.datasets.catalog import dataset_names, load_dataset

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_TABLES: List[str] = []


def register_table(name: str, rows: List[Dict[str, object]], note: str = "") -> None:
    """Persist and queue one reproduction table for the terminal summary."""
    rendered = format_table(rows, title=name)
    if note:
        rendered += f"\n  paper shape: {note}"
    register_text(name, rendered)


def register_text(name: str, rendered: str) -> None:
    """Persist and queue arbitrary pre-rendered output (tables, charts)."""
    _TABLES.append(rendered)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    safe = name.split(" ")[0].lower().replace("/", "-")
    with open(os.path.join(RESULTS_DIR, f"{safe}.txt"), "w", encoding="utf-8") as out:
        out.write(rendered + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _TABLES:
        terminalreporter.section("paper reproduction tables")
        for table in _TABLES:
            terminalreporter.write_line("")
            for line in table.splitlines():
                terminalreporter.write_line(line)
    if obs.enabled():
        os.makedirs(RESULTS_DIR, exist_ok=True)
        snapshot_path = os.path.join(RESULTS_DIR, "metrics.jsonl")
        obs.write_snapshot(snapshot_path)
        terminalreporter.section("observability snapshot (REPRO_OBS)")
        terminalreporter.write_line(f"wrote {snapshot_path}")
        terminalreporter.write_line("")
        for line in obs.render_report(obs.snapshot()).splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def catalog_logs() -> Dict[str, InteractionLog]:
    """All six catalog datasets at full catalog scale, seed 1."""
    return {name: load_dataset(name, rng=1) for name in dataset_names()}


@pytest.fixture(scope="session")
def small_catalog_logs(catalog_logs) -> Dict[str, InteractionLog]:
    """The four datasets small enough for exact-index experiments."""
    keep = ("enron-sim", "lkml-sim", "facebook-sim", "slashdot-sim")
    return {name: catalog_logs[name] for name in keep}
