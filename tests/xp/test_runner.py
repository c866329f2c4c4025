"""Tests for the resumable matrix runner.

The acceptance-critical behaviour lives here: a run interrupted
mid-matrix must resume recomputing *only* the incomplete cells, which
the resume tests assert by counting actual cell executions.
"""

from dataclasses import replace

import pytest

import repro.xp.runner as runner
from repro.xp.runner import RunSummary, execute_cell, run_matrix
from repro.xp.spec import EXPERIMENTS, spec_from_dict
from repro.xp.store import ResultStore, validate_cell_result


def _spec(seeds=(1, 2), windows=(1,)):
    return spec_from_dict(
        {
            "name": "t",
            "scale": 0.05,
            "blocks": [
                {
                    "experiment": "runtime",
                    "datasets": ["enron-sim"],
                    "window_percents": list(windows),
                    "precisions": [6],
                    "seeds": list(seeds),
                }
            ],
        }
    )


@pytest.fixture
def counted_execute(monkeypatch):
    """Wrap execute_cell so tests can count real cell executions."""
    calls = []

    def counting(cell, capture_obs=True):
        calls.append(cell.label())
        return execute_cell(cell, capture_obs=capture_obs)

    monkeypatch.setattr(runner, "execute_cell", counting)
    return calls


class TestExecuteCell:
    def test_produces_valid_document(self):
        (cell, _) = _spec().cells()
        document = execute_cell(cell)
        validate_cell_result(document)
        assert document["experiment"] == "runtime"
        assert document["params"]["dataset"] == "enron-sim"
        assert document["rows"] and "seconds" in document["rows"][0]

    def test_obs_capture_payload(self):
        (cell, _) = _spec().cells()
        document = execute_cell(cell, capture_obs=True)
        assert isinstance(document["obs"], dict)
        assert "counters" in document["obs"] and "span_count" in document["obs"]

    def test_no_capture_records_null(self):
        (cell, _) = _spec().cells()
        assert execute_cell(cell, capture_obs=False)["obs"] is None

    def test_unknown_experiment_rejected(self):
        (cell, _) = _spec().cells()
        broken = type(cell)(**{**cell.__dict__, "experiment": "telepathy"})
        with pytest.raises(ValueError, match="unknown experiment 'telepathy'"):
            execute_cell(broken)


class TestRunMatrix:
    def test_full_run_executes_every_cell(self, tmp_path, counted_execute):
        spec = _spec()
        store = ResultStore(str(tmp_path / "run"), create=True)
        summary = run_matrix(spec, store)
        assert summary.ok
        assert (summary.total, summary.executed, summary.skipped) == (2, 2, 0)
        assert len(counted_execute) == 2
        assert len(store.keys()) == 2
        manifest = store.load_manifest()
        assert manifest["status"] == "complete"

    def test_resume_recomputes_only_incomplete_cells(self, tmp_path, counted_execute):
        spec = _spec(seeds=(1, 2), windows=(1, 5))  # 4 cells
        store = ResultStore(str(tmp_path / "run"), create=True)

        first = run_matrix(spec, store, max_cells=1)  # simulated interruption
        assert (first.executed, first.deferred) == (1, 3)
        assert not first.ok
        assert store.load_manifest()["status"] == "partial"
        assert counted_execute == [spec.cells()[0].label()]

        counted_execute.clear()
        second = run_matrix(spec, store)
        assert second.ok
        assert (second.executed, second.skipped) == (3, 1)
        # The resumed run executed exactly the three incomplete cells.
        assert counted_execute == [c.label() for c in spec.cells()[1:]]
        assert store.load_manifest()["status"] == "complete"

        counted_execute.clear()
        third = run_matrix(spec, store)
        assert (third.executed, third.skipped) == (0, 4)
        assert counted_execute == []

    def test_keyboard_interrupt_stops_cleanly(self, tmp_path, monkeypatch):
        spec = _spec(seeds=(1, 2), windows=(1, 5))  # 4 cells
        store = ResultStore(str(tmp_path / "run"), create=True)
        executed = []

        def interrupting(cell, capture_obs=True):
            if len(executed) == 2:
                raise KeyboardInterrupt
            executed.append(cell.label())
            return execute_cell(cell, capture_obs=capture_obs)

        monkeypatch.setattr(runner, "execute_cell", interrupting)
        summary = run_matrix(spec, store)
        assert summary.interrupted and not summary.ok
        assert summary.executed == 2
        assert len(store.keys()) == 2  # finished cells stayed persisted
        assert store.load_manifest()["status"] == "interrupted"

        monkeypatch.setattr(runner, "execute_cell", execute_cell)
        resumed = run_matrix(spec, store)
        assert resumed.ok
        assert (resumed.executed, resumed.skipped) == (2, 2)

    def test_stale_code_fingerprint_forces_recompute(self, tmp_path, monkeypatch):
        spec = _spec()
        store = ResultStore(str(tmp_path / "run"), create=True)
        assert run_matrix(spec, store).executed == 2
        # Pretend the repro sources changed since the cells were written.
        monkeypatch.setattr(runner, "code_fingerprint", lambda: "deadbeefdeadbeef")
        summary = run_matrix(spec, store)
        assert (summary.executed, summary.skipped) == (2, 0)

    def test_force_recomputes_fresh_cells(self, tmp_path):
        spec = _spec()
        store = ResultStore(str(tmp_path / "run"), create=True)
        run_matrix(spec, store)
        summary = run_matrix(spec, store, force=True)
        assert (summary.executed, summary.skipped) == (2, 0)

    def test_cell_failure_is_isolated(self, tmp_path, monkeypatch):
        spec = _spec(seeds=(1, 2))
        store = ResultStore(str(tmp_path / "run"), create=True)
        runtime = EXPERIMENTS["runtime"]

        def flaky(log, cell):
            if cell.seed == 2:
                raise RuntimeError("simulated cell crash")
            return runtime.run(log, cell)

        monkeypatch.setitem(EXPERIMENTS, "runtime", replace(runtime, run=flaky))
        summary = run_matrix(spec, store)
        assert summary.executed == 1
        assert summary.failed == 1
        assert "simulated cell crash" in summary.failures[0][1]
        assert not summary.ok
        # The good cell persisted; the failed one can be retried later.
        assert len(store.keys()) == 1

    def test_parallel_run_skips_obs_capture(self, tmp_path):
        spec = _spec(seeds=(1, 2), windows=(1, 5))
        store = ResultStore(str(tmp_path / "run"), create=True)
        summary = run_matrix(spec, store, jobs=2)
        assert summary.ok and summary.executed == 4
        assert all(doc["obs"] is None for doc in store.results())

    def test_sequential_run_captures_obs(self, tmp_path):
        spec = _spec()
        store = ResultStore(str(tmp_path / "run"), create=True)
        run_matrix(spec, store)
        assert all(isinstance(doc["obs"], dict) for doc in store.results())

    def test_progress_lines_emitted(self, tmp_path):
        spec = _spec()
        store = ResultStore(str(tmp_path / "run"), create=True)
        lines = []
        run_matrix(spec, store, progress=lines.append)
        assert len(lines) == 2 and all("ran runtime/enron-sim" in line for line in lines)
        lines.clear()
        run_matrix(spec, store, progress=lines.append)
        assert all(line.startswith("[cached]") for line in lines)

    def test_bad_jobs_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "run"), create=True)
        with pytest.raises(ValueError, match="jobs"):
            run_matrix(_spec(), store, jobs=0)


class TestRunSummary:
    def test_describe_mentions_everything(self):
        summary = RunSummary(
            total=10,
            executed=4,
            skipped=3,
            deferred=2,
            interrupted=True,
            duration_s=1.5,
            failures=[("cell", "boom")],
        )
        text = summary.describe()
        for needle in ("10 cells", "4 executed", "3 skipped", "1 failed", "2 deferred", "interrupted"):
            assert needle in text

    def test_ok_only_when_clean(self):
        assert RunSummary(total=1, executed=1).ok
        assert not RunSummary(total=1, deferred=1).ok
        assert not RunSummary(total=1, interrupted=True).ok
        assert not RunSummary(total=1, failures=[("c", "e")]).ok
