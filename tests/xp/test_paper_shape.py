"""The paper's qualitative shapes, asserted over one ``paper`` matrix run.

``paper_spec(scale=0.05)`` runs once into a temporary store; every check
reads the persisted cells, i.e. the rows ``repro xp report`` renders.
Medians pool the seed replicates.  Deterministic shapes are asserted
exactly; Figure 3's rise with the window is asserted on the build's
recorded vHLL insertion counter.  Wall-clock shapes are asserted only
where the gap is large (Figure 4, Table 6) or as a 2x sanity bound
(Figure 3).

Claims pinned elsewhere are not repeated here: CELF == greedy
(tests/core/test_maximization.py), the Lemma 4 list length
(tests/sketch/test_vhll.py), vHLL vs bottom-k accuracy
(tests/sketch/test_bottomk.py) and multi-window == exact reachability
(tests/core/test_multiwindow.py).
"""

import pytest

from repro.xp.report import aggregate, build_sections
from repro.xp.runner import run_matrix
from repro.xp.spec import EXPERIMENTS, paper_spec
from repro.xp.stats import quartiles
from repro.xp.store import ResultStore


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = ResultStore(str(tmp_path_factory.mktemp("paper")), create=True)
    summary = run_matrix(paper_spec(scale=0.05), store)
    assert summary.ok, summary.failures
    return store


@pytest.fixture(scope="module")
def groups(store):
    return aggregate(store)


def medians(groups, experiment, metric, *columns):
    """``{identity values at columns: median of metric}`` for one experiment."""
    out = {}
    for (name, identity), group in groups.items():
        if name == experiment:
            ident = dict(identity)
            key = tuple(ident[column] for column in columns)
            out[key if len(key) > 1 else key[0]] = quartiles(group.metrics[metric])["median"]
    return out


def test_report_has_a_section_per_experiment(store):
    titles = [section.title for section in build_sections(store)]
    assert titles == [
        f"{definition.artifact} — {name}" for name, definition in EXPERIMENTS.items()
    ]


def test_rows_hold_exactly_the_declared_columns(store):
    for document in store.results():
        definition = EXPERIMENTS[document["experiment"]]
        if not definition.metrics:
            continue  # Table 2 rows are informational
        columns = set(definition.group_columns) | {m for m, _ in definition.metrics}
        for row in document["rows"]:
            assert set(row) == columns, document["experiment"]


def test_table3_error_falls_with_beta(groups):
    error = medians(groups, "accuracy", "avg_rel_error", "dataset", "window_pct", "beta")
    panels = {(name, window) for name, window, _ in error}
    assert len(panels) == 6
    for name, window in panels:
        assert error[(name, window, 512)] <= error[(name, window, 16)] + 1e-9


def test_table4_memory_grows_with_window(groups):
    mb = medians(groups, "memory", "megabytes", "dataset", "window_pct")
    for name in {dataset for dataset, _ in mb}:
        assert mb[(name, 20)] >= mb[(name, 1)] - 1e-12


def test_table5_near_windows_share_more_seeds(groups):
    common = medians(groups, "overlap", "common", "dataset", "pair")
    near = sum(value for (_, pair), value in common.items() if pair == "10-20")
    far = sum(value for (_, pair), value in common.items() if pair == "1-10")
    assert near >= far


def test_figure3_build_work_grows_with_window(store):
    # The build's vHLL insertions are the deterministic trace of its
    # running time: a longer window keeps more (node, time) pairs.
    inserted = {}
    for document in store.results():
        if document["experiment"] == "runtime":
            params = document["params"]
            key = (params["dataset"], params["window_pct"])
            inserted[key] = document["obs"]["counters"].get("vhll.pairs_inserted", 0)
    for name in {dataset for dataset, _ in inserted}:
        series = [inserted[key] for key in sorted(inserted) if key[0] == name]
        assert series == sorted(series) and series[-1] > series[0], name


def test_figure3_long_windows_not_faster(groups):
    # Only a sanity bound: us2016-sim builds take ~25 ms at this scale
    # and t(100 %) / t(1 %) is ~1.2, so only a 2x inversion fails here.
    seconds = medians(groups, "runtime", "seconds", "dataset", "window_pct")
    assert seconds[("us2016-sim", 100)] >= seconds[("us2016-sim", 1)] * 0.5


def test_figure4_query_time_grows_with_seeds(groups):
    ms = medians(groups, "query", "milliseconds", "dataset", "num_seeds")
    for name in EXPERIMENTS["query"].default_datasets:
        assert ms[(name, 10_000)] >= ms[(name, 10)]


def test_figure5_irs_tops_static_rankings(groups):
    spread = medians(
        groups, "spread", "spread", "window_pct", "probability", "method", "dataset", "k"
    )

    def mean_spread(method):
        values = [
            value
            for (window, probability, name, _, _), value in spread.items()
            if (window, probability, name) == (1, 1.0, method)
        ]
        return sum(values) / len(values)

    assert mean_spread("IRS") >= mean_spread("PR") * 0.95
    assert mean_spread("IRS") >= mean_spread("HD") * 0.95


def test_table6_degree_beats_irs_approx(groups):
    seconds = medians(groups, "seed_time", "seconds", "dataset", "method")
    for name in EXPERIMENTS["seed_time"].default_datasets:
        assert seconds[(name, "HD")] <= seconds[(name, "IRS-approx")]


def test_a1_celf_cheaper_and_top_sigma_covers_less(groups):
    calls = medians(groups, "selectors", "gain_calls", "dataset", "selector")
    spread = medians(groups, "selectors", "oracle_spread", "dataset", "selector")
    for name in {dataset for dataset, _ in calls}:
        assert calls[(name, "celf")] <= calls[(name, "greedy")]
        assert spread[(name, "top-by-sigma")] <= spread[(name, "greedy")]


def test_a6_literal_judge_spreads_at_least_as_far(groups):
    literal = medians(groups, "tcic_judges", "literal_spread", "dataset")
    prose = medians(groups, "tcic_judges", "prose_spread", "dataset")
    for name in literal:
        assert literal[name] >= prose[name]


def test_cross_judge_irs_stays_near_the_top(groups):
    tclt = medians(groups, "cross_judge", "tclt_spread", "dataset", "method")
    for name in {dataset for dataset, _ in tclt}:
        panel = {method: value for (dataset, method), value in tclt.items() if dataset == name}
        assert panel["IRS"] >= 0.9 * max(panel.values())
