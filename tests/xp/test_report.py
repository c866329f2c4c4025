"""Tests for the evidence-report layer: aggregation, sections, diffs.

These fabricate cell documents with known values (via the real spec and
store machinery) rather than executing experiments, so the assertions
are exact.
"""

import json

import pytest

from repro.xp.report import (
    Group,
    Section,
    aggregate,
    build_sections,
    diff_runs,
    has_regressions,
    render_diff,
    render_html,
    render_markdown,
)
from repro.xp.spec import spec_from_dict
from repro.xp.store import ResultStore, cell_result_document


def _spread_spec(seeds=(1, 2, 3)):
    return spec_from_dict(
        {
            "name": "fab",
            "scale": 0.05,
            "blocks": [
                {
                    "experiment": "spread",
                    "datasets": ["enron-sim"],
                    "window_percents": [1],
                    "precisions": [7],
                    "methods": ["HD", "IRS-approx"],
                    "seeds": list(seeds),
                    "params": {"ks": [2], "probabilities": [1.0], "runs": 1},
                }
            ],
        }
    )


def _spread_value(method, seed, shift=0.0):
    base = {"HD": 10.0, "IRS-approx": 30.0}[method]
    return base + seed * 0.1 + shift


def _write_spread_store(path, spec, shift=0.0):
    """Persist fabricated spread cells: IRS-approx well above HD."""
    store = ResultStore(str(path), create=True)
    for cell in spec.cells():
        store.save(
            cell_result_document(
                key=cell.key(),
                experiment=cell.experiment,
                params=cell.params(),
                rows=[
                    {
                        "k": 2,
                        "probability": 1.0,
                        "spread": _spread_value(cell.method, cell.seed, shift),
                    }
                ],
                duration_s=0.01,
            )
        )
    store.write_manifest(
        {"spec": spec.to_dict(), "spec_hash": spec.spec_hash(), "status": "complete"}
    )
    return store


class TestAggregate:
    def test_seeds_pool_into_one_group(self, tmp_path):
        store = _write_spread_store(tmp_path / "run", _spread_spec())
        groups = aggregate(store)
        assert len(groups) == 2  # one per method; seeds pooled
        for (_experiment, identity), group in groups.items():
            assert isinstance(group, Group)
            assert ("seed", 1) not in identity
            assert len(group.metrics["spread"]) == 3
            assert group.label().startswith("spread ")

    def test_group_identity_includes_row_columns(self, tmp_path):
        store = _write_spread_store(tmp_path / "run", _spread_spec())
        for group in aggregate(store).values():
            identity = dict(group.identity)
            assert identity["k"] == 2 and identity["probability"] == 1.0

    def test_unknown_experiment_skipped(self, tmp_path):
        store = _write_spread_store(tmp_path / "run", _spread_spec())
        store.save(
            cell_result_document(
                key="f00df00df00df00d",
                experiment="from-the-future",
                params={"experiment": "from-the-future", "dataset": "enron-sim"},
                rows=[{"zorp": 1.0}],
                duration_s=0.0,
            )
        )
        assert len(aggregate(store)) == 2


class TestBuildSections:
    def test_method_panel_annotated_against_best(self, tmp_path):
        store = _write_spread_store(tmp_path / "run", _spread_spec())
        (section,) = build_sections(store)
        assert isinstance(section, Section)
        assert section.title == "Figure 5 — spread"
        assert "vs best" in section.headers
        by_method = {row[section.headers.index("method")]: row[-1] for row in section.rows}
        assert by_method["IRS-approx"] == "best"
        assert by_method["HD"].startswith("p=")

    def test_each_metric_ranks_its_own_panel(self, tmp_path):
        # HD wins on TCIC, IRS on TCLT: each metric gets its own mark.
        spec = spec_from_dict(
            {
                "name": "judges",
                "blocks": [
                    {
                        "experiment": "cross_judge",
                        "datasets": ["enron-sim"],
                        "window_percents": [1],
                        "precisions": [7],
                        "methods": ["HD", "IRS"],
                        "seeds": [1, 2, 3],
                    }
                ],
            }
        )
        store = ResultStore(str(tmp_path / "run"), create=True)
        for cell in spec.cells():
            tcic, tclt = (20.0, 5.0) if cell.method == "HD" else (10.0, 9.0)
            store.save(
                cell_result_document(
                    key=cell.key(),
                    experiment=cell.experiment,
                    params=cell.params(),
                    rows=[{"tcic_spread": tcic + cell.seed, "tclt_spread": tclt + cell.seed}],
                    duration_s=0.0,
                )
            )
        (section,) = build_sections(store)
        marks = [i for i, header in enumerate(section.headers) if header == "vs best"]
        assert len(marks) == 2
        by_method = {
            row[section.headers.index("method")]: [row[i] for i in marks]
            for row in section.rows
        }
        assert by_method["HD"][0] == "best" and by_method["HD"][1].startswith("p=")
        assert by_method["IRS"][1] == "best" and by_method["IRS"][0].startswith("p=")

    def test_replicate_statistics_rendered(self, tmp_path):
        store = _write_spread_store(tmp_path / "run", _spread_spec())
        (section,) = build_sections(store)
        n_index = section.headers.index("n")
        ci_index = section.headers.index("CI95")
        for row in section.rows:
            assert row[n_index] == "3"
            assert row[ci_index].startswith("[")
        assert "Mann-Whitney" in section.note

    def test_single_replicate_flagged(self, tmp_path):
        store = _write_spread_store(tmp_path / "run", _spread_spec(seeds=(1,)))
        (section,) = build_sections(store)
        assert "Single replicate" in section.note

    def test_informational_experiment(self, tmp_path):
        spec = spec_from_dict(
            {"name": "info", "blocks": [{"experiment": "datasets", "datasets": ["enron-sim"]}]}
        )
        store = ResultStore(str(tmp_path / "run"), create=True)
        (cell,) = spec.cells()
        store.save(
            cell_result_document(
                key=cell.key(),
                experiment="datasets",
                params=cell.params(),
                rows=[{"nodes": 50, "interactions": 400, "span_ticks": 900}],
                duration_s=0.0,
            )
        )
        (section,) = build_sections(store)
        assert section.title == "Table 2 — datasets"
        assert "nodes" in section.headers and "vs best" not in section.headers


class TestDiffRuns:
    def test_self_diff_is_clean(self, tmp_path):
        spec = _spread_spec()
        store = _write_spread_store(tmp_path / "a", spec)
        diff = diff_runs(store, store)
        assert diff["schema"] == "repro-xp-diff/1"
        assert len(diff["rows"]) == 2
        assert all(row["verdict"] == "ok" for row in diff["rows"])
        assert not has_regressions(diff)

    def test_spread_drop_is_a_regression(self, tmp_path):
        spec = _spread_spec()
        old = _write_spread_store(tmp_path / "old", spec)
        new = _write_spread_store(tmp_path / "new", spec, shift=-8.0)
        diff = diff_runs(old, new)
        verdicts = {row["name"]: row["verdict"] for row in diff["rows"]}
        assert "regression" in verdicts.values()
        assert has_regressions(diff)

    def test_added_and_removed_groups(self, tmp_path):
        old = _write_spread_store(tmp_path / "old", _spread_spec())
        new_spec = spec_from_dict(
            {
                "name": "fab",
                "scale": 0.05,
                "blocks": [
                    {
                        "experiment": "spread",
                        "datasets": ["enron-sim"],
                        "window_percents": [1],
                        "precisions": [7],
                        "methods": ["HD"],
                        "seeds": [1, 2, 3],
                        "params": {"ks": [2], "probabilities": [1.0], "runs": 1},
                    }
                ],
            }
        )
        new = _write_spread_store(tmp_path / "new", new_spec)
        diff = diff_runs(old, new)
        assert len(diff["rows"]) == 1  # only HD matches both runs
        assert diff["added"] == []
        assert len(diff["removed"]) == 1 and "IRS-approx" in diff["removed"][0]


class TestRendering:
    def test_render_diff_formats(self, tmp_path):
        store = _write_spread_store(tmp_path / "a", _spread_spec())
        diff = diff_runs(store, store)
        table = render_diff(diff, "table")
        assert "measurements compared" in table
        markdown = render_diff(diff, "markdown")
        assert markdown.startswith("| measurement |")
        parsed = json.loads(render_diff(diff, "json"))
        assert parsed["schema"] == "repro-xp-diff/1"
        with pytest.raises(ValueError, match="unknown diff format"):
            render_diff(diff, "carrier-pigeon")

    def test_markdown_report(self, tmp_path):
        store = _write_spread_store(tmp_path / "a", _spread_spec())
        text = render_markdown(store)
        assert text.startswith("# Experiment report — fab")
        assert "## Figure 5 — spread" in text
        assert "code fingerprint" in text
        assert "| dataset |" in text or "| method |" in text or "dataset" in text

    def test_markdown_report_with_baseline(self, tmp_path):
        spec = _spread_spec()
        old = _write_spread_store(tmp_path / "old", spec)
        new = _write_spread_store(tmp_path / "new", spec, shift=-8.0)
        text = render_markdown(new, baseline=old)
        assert "## Trend deltas vs" in text
        assert "regression" in text

    def test_html_report_is_self_contained_and_escaped(self, tmp_path):
        store = _write_spread_store(tmp_path / "a", _spread_spec())
        page = render_html(store)
        assert page.startswith("<!DOCTYPE html>")
        assert "<style>" in page and "</body></html>" in page
        assert "Figure 5 — spread" in page

    def test_html_report_marks_regressions(self, tmp_path):
        spec = _spread_spec()
        old = _write_spread_store(tmp_path / "old", spec)
        new = _write_spread_store(tmp_path / "new", spec, shift=-8.0)
        page = render_html(new, baseline=old)
        assert 'class="regression"' in page
