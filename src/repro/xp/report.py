"""Evidence reports and cross-run trend deltas over a result store.

The report engine renders every paper artefact present in a run
directory from the persisted cells — never by re-running anything — so
a reviewer can regenerate the exact tables from the store alone:

* :func:`aggregate` — pool per-seed replicates into *groups* (one
  logical measurement: experiment + dataset + axes + row identity) with
  a value list per metric;
* :func:`build_sections` — one section per paper artefact, each group
  summarised as ``median``/IQR/bootstrap-CI with Mann-Whitney
  significance annotations against the best method in its panel;
* :func:`diff_runs` / :func:`render_diff` — trend deltas versus a prior
  run directory under the three-part rule of
  :func:`repro.xp.stats.compare_samples` (median shift + disjoint IQRs
  + rank-test rejection); ``repro xp diff`` exits 1 on a regression;
* :func:`render_markdown` / :func:`render_html` — the same section
  model as GitHub-flavoured markdown or a self-contained HTML page
  (CI uploads the latter as the run artifact).
"""

from __future__ import annotations

import html
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.xp.spec import EXPERIMENTS
from repro.xp.stats import (
    DEFAULT_ALPHA,
    DEFAULT_THRESHOLD,
    bootstrap_ci,
    compare_samples,
    mann_whitney_u,
    quartiles,
    significance_marker,
)
from repro.xp.store import ResultStore

__all__ = [
    "Group",
    "aggregate",
    "Section",
    "build_sections",
    "render_markdown",
    "render_html",
    "diff_runs",
    "render_diff",
    "has_regressions",
]

#: Cell identity columns, in display order.
_IDENTITY_AXES = ("dataset", "window_pct", "precision", "method", "seed")


@dataclass
class Group:
    """One logical measurement pooled across seed replicates."""

    experiment: str
    identity: Tuple[Tuple[str, object], ...]  #: sorted (column, value) pairs, seed excluded
    metrics: Dict[str, List[float]] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)  #: non-metric payload (Table 2 rows)

    def label(self) -> str:
        parts = [self.experiment] + [
            f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in self.identity
        ]
        return " ".join(parts)


def aggregate(store: ResultStore) -> Dict[Tuple[str, Tuple[Tuple[str, object], ...]], Group]:
    """Pool every persisted cell into groups keyed by measurement identity.

    The ``seed`` axis is the replicate axis: cells differing only in
    seed pool their metric values into one group, which is what the
    significance layer tests over.  Unknown experiments (from a newer
    build's store) are skipped rather than fatal.
    """
    groups: Dict[Tuple[str, Tuple[Tuple[str, object], ...]], Group] = {}
    for document in store.results():
        experiment = str(document["experiment"])
        definition = EXPERIMENTS.get(experiment)
        if definition is None:
            continue
        params: Mapping[str, object] = document["params"]  # type: ignore[assignment]
        base_identity = {
            axis: params[axis]
            for axis in _IDENTITY_AXES
            if axis in params and axis != "seed"
        }
        for row in document["rows"]:  # type: ignore[union-attr]
            identity = dict(base_identity)
            for column in definition.group_columns:
                if column in row:
                    identity[column] = row[column]
            key = (experiment, tuple(sorted(identity.items(), key=lambda kv: kv[0])))
            group = groups.get(key)
            if group is None:
                group = Group(experiment=experiment, identity=key[1])
                groups[key] = group
            if definition.metrics:
                for metric, _direction in definition.metrics:
                    value = row.get(metric)
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        group.metrics.setdefault(metric, []).append(float(value))
            else:
                group.info.update(row)
    return groups


# ---------------------------------------------------------------------------
# Section building
# ---------------------------------------------------------------------------

@dataclass
class Section:
    """One rendered block of the report (a table with context)."""

    title: str
    intro: str
    headers: Tuple[str, ...]
    rows: List[Tuple[str, ...]]
    note: str = ""


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    if value is None:
        return "-"
    return str(value)


def _identity_columns(groups: Sequence[Group]) -> List[str]:
    columns: List[str] = []
    for group in groups:
        for key, _value in group.identity:
            if key not in columns:
                columns.append(key)
    ordered = [c for c in _IDENTITY_AXES if c in columns]
    ordered += [c for c in columns if c not in ordered]
    return ordered


def _panel_key(group: Group, metric: str) -> Tuple[object, ...]:
    """Identity minus the method axis: the set of rows a method competes in."""
    return (metric,) + tuple(
        (key, value) for key, value in group.identity if key != "method"
    )


def build_sections(
    store: ResultStore,
    alpha: float = DEFAULT_ALPHA,
) -> List[Section]:
    """One section per paper artefact present in the store."""
    groups_by_experiment: Dict[str, List[Group]] = {}
    for (experiment, _identity), group in sorted(
        aggregate(store).items(), key=lambda item: (item[0][0], repr(item[0][1]))
    ):
        groups_by_experiment.setdefault(experiment, []).append(group)

    sections: List[Section] = []
    for name, definition in EXPERIMENTS.items():
        groups = groups_by_experiment.get(name)
        if not groups:
            continue
        identity_columns = _identity_columns(groups)
        if not definition.metrics:
            info_columns: List[str] = []
            for group in groups:
                for column in group.info:
                    if column not in info_columns:
                        info_columns.append(column)
            headers = tuple(identity_columns + info_columns)
            rows = [
                tuple(
                    [_fmt(dict(group.identity).get(c)) for c in identity_columns]
                    + [_fmt(group.info.get(c)) for c in info_columns]
                )
                for group in groups
            ]
            sections.append(
                Section(
                    title=f"{definition.artifact} — {name}",
                    intro=f"{len(rows)} measurement(s), informational.",
                    headers=headers,
                    rows=rows,
                )
            )
            continue

        has_methods = any("method" in dict(group.identity) for group in groups)
        # Best-per-panel for the significance annotation: within one panel
        # (same identity minus method) the best method is the reference.
        best_values: Dict[Tuple[object, ...], Tuple[float, List[float]]] = {}
        if has_methods:
            for group in groups:
                for (metric, direction) in definition.metrics:
                    values = group.metrics.get(metric)
                    if not values:
                        continue
                    median = quartiles(values)["median"]
                    panel = _panel_key(group, metric)
                    current = best_values.get(panel)
                    better = (
                        current is None
                        or (direction == "lower" and median < current[0])
                        or (direction == "higher" and median > current[0])
                    )
                    if better:
                        best_values[panel] = (median, values)

        headers = tuple(
            identity_columns
            + [
                column
                for metric, _ in definition.metrics
                for column in (f"{metric} (median)", "IQR", "CI95", "n")
            ]
            + (["vs best"] if has_methods else [])
        )
        rows = []
        replicated = False
        for group in groups:
            cells: List[str] = [
                _fmt(dict(group.identity).get(c)) for c in identity_columns
            ]
            annotation = ""
            for (metric, direction) in definition.metrics:
                values = group.metrics.get(metric, [])
                if not values:
                    cells += ["-", "-", "-", "0"]
                    continue
                stats = quartiles(values)
                if len(values) > 1:
                    replicated = True
                    lo, hi = bootstrap_ci(values, resamples=500)
                    ci_text = f"[{lo:.4g}, {hi:.4g}]"
                else:
                    ci_text = "-"
                cells += [
                    _fmt(stats["median"]),
                    _fmt(stats["iqr"]),
                    ci_text,
                    str(len(values)),
                ]
                if has_methods:
                    panel = _panel_key(group, metric)
                    best = best_values.get(panel)
                    if best is not None:
                        if best[1] is values:
                            annotation = "best"
                        else:
                            test = mann_whitney_u(best[1], values)
                            marker = significance_marker(test.p_value)
                            annotation = f"p={test.p_value:.3f}{(' ' + marker) if marker else ''}"
            if has_methods:
                cells.append(annotation)
            rows.append(tuple(cells))
        note = (
            f"significance: Mann-Whitney U vs the best method per panel, "
            f"two-sided, alpha={alpha:g} (*, **, *** at 0.05/0.01/0.001); "
            f"CI95 is a seeded bootstrap over seed replicates."
            if has_methods
            else "CI95 is a seeded percentile bootstrap over seed replicates."
        )
        if not replicated:
            note += " Single replicate per group: add seeds to the matrix for significance."
        sections.append(
            Section(
                title=f"{definition.artifact} — {name}",
                intro=f"{len(rows)} measurement group(s).",
                headers=headers,
                rows=rows,
                note=note,
            )
        )
    return sections


# ---------------------------------------------------------------------------
# Cross-run trend deltas
# ---------------------------------------------------------------------------

def diff_runs(
    old: ResultStore,
    new: ResultStore,
    threshold: float = DEFAULT_THRESHOLD,
    alpha: float = DEFAULT_ALPHA,
) -> Dict[str, object]:
    """Compare two run directories group by group.

    Returns ``rows`` (shared groups × metrics, each with the
    :func:`~repro.xp.stats.compare_samples` verdict), plus ``added`` /
    ``removed`` group labels.  Groups match by measurement identity
    (parameter content), so baselines recorded by older code keep
    matching after refactors.
    """
    old_groups = aggregate(old)
    new_groups = aggregate(new)
    rows: List[Dict[str, object]] = []
    for key in sorted(set(old_groups) & set(new_groups), key=repr):
        before, after = old_groups[key], new_groups[key]
        definition = EXPERIMENTS[before.experiment]
        for (metric, direction) in definition.metrics:
            old_values = before.metrics.get(metric)
            new_values = after.metrics.get(metric)
            if not old_values or not new_values:
                continue
            comparison = compare_samples(
                old_values,
                new_values,
                direction=direction,
                threshold=threshold,
                alpha=alpha,
            )
            comparison["name"] = f"{before.label()} :{metric}"
            rows.append(comparison)
    return {
        "schema": "repro-xp-diff/1",
        "threshold": threshold,
        "alpha": alpha,
        "rows": rows,
        "added": [new_groups[k].label() for k in sorted(set(new_groups) - set(old_groups), key=repr)],
        "removed": [old_groups[k].label() for k in sorted(set(old_groups) - set(new_groups), key=repr)],
    }


def has_regressions(diff: Mapping[str, object]) -> bool:
    """True when any compared metric regressed under the three-part rule."""
    return any(row["verdict"] == "regression" for row in diff["rows"])  # type: ignore[index,union-attr]


def _diff_cells(diff: Mapping[str, object]) -> Tuple[Tuple[str, ...], List[Tuple[str, ...]], str]:
    rows: Sequence[Mapping[str, object]] = diff["rows"]  # type: ignore[assignment]
    headers = ("measurement", "old_median", "new_median", "delta", "p", "verdict")
    cells = []
    for row in rows:
        ratio = row.get("ratio")
        delta = (
            f"{(float(ratio) - 1.0) * 100.0:+.1f}%"
            if isinstance(ratio, float) and ratio != float("inf")
            else "-"
        )
        cells.append(
            (
                str(row["name"]),
                _fmt(row.get("old_median")),
                _fmt(row.get("new_median")),
                delta,
                f"{float(row['p_value']):.3f}",
                str(row["verdict"]),
            )
        )
    regressions = sum(1 for row in rows if row["verdict"] == "regression")
    improvements = sum(1 for row in rows if row["verdict"] == "improvement")
    summary = (
        f"{len(cells)} measurements compared, {regressions} regression(s), "
        f"{improvements} improvement(s) at threshold "
        f"+{float(diff.get('threshold', DEFAULT_THRESHOLD)) * 100.0:g}% with disjoint "
        f"IQRs and alpha={float(diff.get('alpha', DEFAULT_ALPHA)):g}"
    )
    extra = []
    if diff.get("added"):
        extra.append(f"{len(diff['added'])} group(s) only in the new run")  # type: ignore[arg-type]
    if diff.get("removed"):
        extra.append(f"{len(diff['removed'])} group(s) only in the baseline")  # type: ignore[arg-type]
    if extra:
        summary += "; " + ", ".join(extra)
    return headers, cells, summary


def render_diff(diff: Mapping[str, object], format: str = "table") -> str:
    """Render a :func:`diff_runs` report (``table``/``json``/``markdown``)."""
    if format == "json":
        return json.dumps(diff, indent=2, sort_keys=True) + "\n"
    headers, cells, summary = _diff_cells(diff)
    if format == "markdown":
        lines = ["| " + " | ".join(headers) + " |"]
        lines.append("|" + "|".join("---" for _ in headers) + "|")
        lines.extend("| " + " | ".join(row) + " |" for row in cells)
        lines.append("")
        lines.append(summary)
        return "\n".join(lines) + "\n"
    if format == "table":
        from repro.obs.export import _render_table

        if not cells:
            return "(no measurements to compare)\n" + summary + "\n"
        return "\n".join(_render_table(headers, [list(c) for c in cells]) + ["", summary]) + "\n"
    raise ValueError(f"unknown diff format {format!r}; use table, json or markdown")


# ---------------------------------------------------------------------------
# Whole-report rendering
# ---------------------------------------------------------------------------

def _provenance_lines(store: ResultStore) -> List[str]:
    manifest = store.load_manifest() or {}
    machine = manifest.get("machine", {})
    lines = [f"- run directory: `{store.root}`"]
    spec = manifest.get("spec")
    if isinstance(spec, dict):
        lines.append(
            f"- spec: `{spec.get('name', '?')}` (hash `{manifest.get('spec_hash', '?')}`), "
            f"scale {spec.get('scale', '?')}"
        )
    lines.append(f"- cells: {len(store.keys())} persisted")
    if isinstance(machine, dict) and machine:
        lines.append(
            f"- machine: {machine.get('implementation', '?')} "
            f"{machine.get('python', '?')} on {machine.get('platform', '?')} "
            f"({machine.get('cpu_count', '?')} CPUs)"
        )
    if manifest.get("code_fingerprint"):
        lines.append(f"- code fingerprint: `{manifest['code_fingerprint']}`")
    if manifest.get("status"):
        lines.append(f"- run status: {manifest['status']}")
    return lines


def render_markdown(
    store: ResultStore,
    baseline: Optional[ResultStore] = None,
    threshold: float = DEFAULT_THRESHOLD,
    alpha: float = DEFAULT_ALPHA,
) -> str:
    """The full evidence report as GitHub-flavoured markdown."""
    manifest = store.load_manifest() or {}
    spec = manifest.get("spec", {})
    name = spec.get("name", "experiment run") if isinstance(spec, dict) else "experiment run"
    lines = [f"# Experiment report — {name}", ""]
    lines += _provenance_lines(store)
    lines.append(f"- generated: {time.strftime('%Y-%m-%d %H:%M:%S')}")
    lines.append("")
    for section in build_sections(store, alpha=alpha):
        lines.append(f"## {section.title}")
        lines.append("")
        lines.append(section.intro)
        lines.append("")
        if section.rows:
            lines.append("| " + " | ".join(section.headers) + " |")
            lines.append("|" + "|".join("---" for _ in section.headers) + "|")
            lines.extend("| " + " | ".join(row) + " |" for row in section.rows)
        else:
            lines.append("(no rows)")
        if section.note:
            lines.append("")
            lines.append(f"_{section.note}_")
        lines.append("")
    if baseline is not None:
        lines.append(f"## Trend deltas vs `{baseline.root}`")
        lines.append("")
        diff = diff_runs(baseline, store, threshold=threshold, alpha=alpha)
        lines.append(render_diff(diff, "markdown"))
    return "\n".join(lines).rstrip() + "\n"


_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1f2328; }
h1 { border-bottom: 2px solid #d0d7de; padding-bottom: .3rem; }
h2 { margin-top: 2rem; border-bottom: 1px solid #d0d7de; padding-bottom: .2rem; }
table { border-collapse: collapse; margin: .75rem 0; font-size: .85rem; }
th, td { border: 1px solid #d0d7de; padding: .25rem .6rem; text-align: left; }
th { background: #f6f8fa; }
tr:nth-child(even) td { background: #fafbfc; }
td.regression { background: #ffebe9; font-weight: 600; }
td.improvement { background: #dafbe1; }
.note { color: #57606a; font-style: italic; font-size: .85rem; }
ul.provenance { color: #57606a; font-size: .9rem; }
code { background: #f6f8fa; padding: .1rem .3rem; border-radius: 4px; }
"""


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    out = ["<table>", "<tr>" + "".join(f"<th>{html.escape(h)}</th>" for h in headers) + "</tr>"]
    for row in rows:
        cells = []
        for value in row:
            css = ""
            if value in ("regression", "improvement"):
                css = f' class="{value}"'
            cells.append(f"<td{css}>{html.escape(str(value))}</td>")
        out.append("<tr>" + "".join(cells) + "</tr>")
    out.append("</table>")
    return out


def render_html(
    store: ResultStore,
    baseline: Optional[ResultStore] = None,
    threshold: float = DEFAULT_THRESHOLD,
    alpha: float = DEFAULT_ALPHA,
) -> str:
    """The evidence report as one self-contained HTML page."""
    manifest = store.load_manifest() or {}
    spec = manifest.get("spec", {})
    name = spec.get("name", "experiment run") if isinstance(spec, dict) else "experiment run"
    parts = [
        "<!DOCTYPE html>",
        "<html lang=\"en\"><head><meta charset=\"utf-8\">",
        f"<title>Experiment report — {html.escape(str(name))}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Experiment report — {html.escape(str(name))}</h1>",
        "<ul class=\"provenance\">",
    ]
    for line in _provenance_lines(store):
        parts.append(f"<li>{html.escape(line.lstrip('- '))}</li>")
    parts.append(f"<li>generated: {time.strftime('%Y-%m-%d %H:%M:%S')}</li>")
    parts.append("</ul>")
    for section in build_sections(store, alpha=alpha):
        parts.append(f"<h2>{html.escape(section.title)}</h2>")
        parts.append(f"<p>{html.escape(section.intro)}</p>")
        if section.rows:
            parts += _html_table(section.headers, section.rows)
        else:
            parts.append("<p>(no rows)</p>")
        if section.note:
            parts.append(f"<p class=\"note\">{html.escape(section.note)}</p>")
    if baseline is not None:
        parts.append(f"<h2>Trend deltas vs {html.escape(baseline.root)}</h2>")
        diff = diff_runs(baseline, store, threshold=threshold, alpha=alpha)
        headers, cells, summary = _diff_cells(diff)
        if cells:
            parts += _html_table(headers, cells)
        parts.append(f"<p class=\"note\">{html.escape(summary)}</p>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
