"""Tests for the ``python -m repro`` command-line interface."""

import io
import json

import pytest

import repro.obs as obs
from repro.cli import build_parser, main
from repro.core.interactions import InteractionLog
from repro.serve.snapshot import SNAPSHOT_MAGIC


@pytest.fixture
def log_file(tmp_path):
    path = str(tmp_path / "log.txt")
    InteractionLog(
        [("a", "b", 1), ("b", "c", 5), ("a", "c", 9), ("c", "d", 12)]
    ).write(path)
    return path


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["divine"])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--dataset", "lkml-sim"])


class TestGenerate:
    def test_writes_edge_list(self, tmp_path):
        output = str(tmp_path / "generated.txt")
        code, text = run_cli(
            [
                "generate",
                "--dataset",
                "slashdot-sim",
                "--scale",
                "0.05",
                "--seed",
                "3",
                "--output",
                output,
            ]
        )
        assert code == 0
        assert "wrote 70 interactions" in text
        restored = InteractionLog.read(output, int_nodes=True)
        assert restored.num_interactions == 70

    def test_deterministic(self, tmp_path):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        run_cli(["generate", "--dataset", "lkml-sim", "--scale", "0.02", "-o", a])
        run_cli(["generate", "--dataset", "lkml-sim", "--scale", "0.02", "-o", b])
        assert open(a).read() == open(b).read()


class TestStats:
    def test_reports_counts(self, log_file):
        code, text = run_cli(["stats", log_file])
        assert code == 0
        assert "nodes:         4" in text
        assert "interactions:  4" in text
        assert "time span:     12 ticks" in text
        assert "distinct times: yes" in text

    def test_missing_file_is_error(self):
        code, _ = run_cli(["stats", "/nonexistent/log.txt"])
        assert code == 1


class TestTopk:
    def test_irs_approx_default(self, log_file):
        code, text = run_cli(["topk", log_file, "--k", "2", "--window-percent", "100"])
        assert code == 0
        assert "top-2 seeds by IRS-approx" in text
        assert " 1. a" in text

    def test_exact_irs(self, log_file):
        code, text = run_cli(
            ["topk", log_file, "--k", "1", "--method", "irs", "--window-percent", "100"]
        )
        assert code == 0
        assert " 1. a" in text

    @pytest.mark.parametrize("method", ["pagerank", "hd", "shd", "skim", "cte"])
    def test_baseline_methods(self, log_file, method):
        code, text = run_cli(
            ["topk", log_file, "--k", "2", "--method", method]
        )
        assert code == 0
        assert "top-2 seeds" in text


class TestExplain:
    def test_witness_shown(self, log_file):
        code, text = run_cli(
            [
                "explain",
                log_file,
                "--source",
                "a",
                "--target",
                "c",
                "--window-percent",
                "100",
            ]
        )
        assert code == 0
        assert "could have influenced" in text
        assert "->" in text

    def test_unreachable_reported(self, log_file):
        code, text = run_cli(
            ["explain", log_file, "--source", "d", "--target", "a"]
        )
        assert code == 0
        assert "no information channel" in text


class TestObs:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.profile.disable()
        obs.memprof.disable()
        obs.disable()
        obs.reset()
        obs.profile.reset()
        obs.memprof.reset()
        yield
        obs.profile.disable()
        obs.memprof.disable()
        obs.disable()
        obs.reset()
        obs.profile.reset()
        obs.memprof.reset()

    def test_obs_flag_appends_report(self, log_file):
        code, text = run_cli(
            ["--obs", "topk", log_file, "--k", "1", "--window-percent", "100"]
        )
        assert code == 0
        assert "top-1 seeds" in text
        assert "counters" in text
        assert "exact.interactions" in text or "approx.interactions" in text

    def test_obs_output_writes_snapshot(self, log_file, tmp_path):
        snapshot = str(tmp_path / "metrics.jsonl")
        code, text = run_cli(
            ["--obs-output", snapshot, "stats", log_file]
        )
        assert code == 0
        assert "wrote metrics snapshot" in text
        samples = obs.from_jsonl(open(snapshot, encoding="utf-8").read())
        assert any(sample["type"] == "counter" for sample in samples)

    def test_obs_report_renders_all_formats(self, log_file, tmp_path):
        snapshot = str(tmp_path / "metrics.jsonl")
        run_cli(
            [
                "--obs-output",
                snapshot,
                "topk",
                log_file,
                "--k",
                "1",
                "--window-percent",
                "100",
            ]
        )
        code, table = run_cli(["obs", "report", "--input", snapshot])
        assert code == 0
        assert "counters" in table and "histograms" in table
        code, prom = run_cli(
            ["obs", "report", "-i", snapshot, "--format", "prometheus"]
        )
        assert code == 0
        assert "# TYPE" in prom
        code, jsonl = run_cli(
            ["obs", "report", "-i", snapshot, "--format", "jsonl"]
        )
        assert code == 0
        assert obs.from_jsonl(jsonl)

    def test_obs_report_missing_file_is_error(self, capsys):
        code, _ = run_cli(["obs", "report", "-i", "/nonexistent/metrics.jsonl"])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: /nonexistent/metrics.jsonl:")
        assert "\n" not in err and "Traceback" not in err

    def test_obs_report_empty_file_is_one_line_error(self, tmp_path, capsys):
        empty = tmp_path / "metrics.jsonl"
        empty.write_text("", encoding="utf-8")
        code, _ = run_cli(["obs", "report", "-i", str(empty)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err == f"error: {empty}: empty metrics snapshot (no samples)"

    def test_obs_report_truncated_file_is_one_line_error(self, tmp_path, capsys):
        truncated = tmp_path / "metrics.jsonl"
        truncated.write_text('{"name": "x", "type": "coun', encoding="utf-8")
        code, _ = run_cli(["obs", "report", "-i", str(truncated)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {truncated}:")
        assert "line 1" in err
        assert "\n" not in err and "Traceback" not in err

    def test_without_flags_nothing_is_recorded(self, log_file):
        code, text = run_cli(["stats", log_file])
        assert code == 0
        assert "counters" not in text
        assert not obs.enabled()
        assert not obs.profile.is_enabled()
        assert not obs.memprof.is_enabled()


class TestProfileFlags:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.profile.disable()
        obs.memprof.disable()
        obs.disable()
        obs.reset()
        obs.profile.reset()
        obs.memprof.reset()
        yield
        obs.profile.disable()
        obs.memprof.disable()
        obs.disable()
        obs.reset()
        obs.profile.reset()
        obs.memprof.reset()

    def test_profile_flag_prints_top_frames(self, log_file):
        code, text = run_cli(
            ["--profile", "topk", log_file, "--k", "1", "--window-percent", "100"]
        )
        assert code == 0
        assert "frames by self time" in text
        assert "repro." in text
        assert not obs.profile.is_enabled(), "profiler must be uninstalled after"

    def test_profile_output_writes_collapsed_stacks(self, log_file, tmp_path):
        collapsed = tmp_path / "profile.folded"
        code, text = run_cli(
            [
                "--profile-output",
                str(collapsed),
                "stats",
                log_file,
            ]
        )
        assert code == 0
        assert f"wrote collapsed-stack profile to {collapsed}" in text
        lines = collapsed.read_text(encoding="utf-8").strip().splitlines()
        assert lines
        for line in lines:
            stack, _space, micros = line.rpartition(" ")
            assert stack and int(micros) >= 0

    def test_memprof_flag_prints_attribution_table(self, log_file):
        code, text = run_cli(
            ["--memprof", "topk", log_file, "--k", "1", "--window-percent", "100"]
        )
        assert code == 0
        assert "span memory attribution (tracemalloc)" in text
        assert not obs.memprof.is_enabled()


class TestXpDiff:
    """Exit codes of ``repro xp diff`` over fabricated run directories."""

    def write_run(self, path, shift=0.0):
        from repro.xp.spec import spec_from_dict
        from repro.xp.store import ResultStore, cell_result_document

        spec = spec_from_dict(
            {
                "name": "cli-diff",
                "scale": 0.05,
                "blocks": [
                    {
                        "experiment": "spread",
                        "datasets": ["enron-sim"],
                        "window_percents": [1],
                        "precisions": [7],
                        "methods": ["IRS-approx"],
                        "seeds": [1, 2, 3],
                        "params": {"ks": [2], "probabilities": [1.0], "runs": 1},
                    }
                ],
            }
        )
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
                            "spread": 30.0 + cell.seed * 0.1 + shift,
                        }
                    ],
                    duration_s=0.01,
                )
            )
        return str(path)

    def test_self_diff_exits_zero(self, tmp_path):
        old = self.write_run(tmp_path / "old")
        code, text = run_cli(["xp", "diff", old, old])
        assert code == 0
        assert "0 regression(s)" in text

    def test_disjoint_iqr_regression_exits_nonzero(self, tmp_path):
        old = self.write_run(tmp_path / "old")
        new = self.write_run(tmp_path / "new", shift=-10.0)  # spread dropped
        code, text = run_cli(["xp", "diff", old, new])
        assert code == 1
        assert "1 regression(s)" in text

    def test_warn_only_reports_but_exits_zero(self, tmp_path):
        old = self.write_run(tmp_path / "old")
        new = self.write_run(tmp_path / "new", shift=-10.0)
        code, text = run_cli(["xp", "diff", old, new, "--warn-only"])
        assert code == 0
        assert "regression" in text

    def test_json_format_carries_the_verdict(self, tmp_path):
        old = self.write_run(tmp_path / "old")
        new = self.write_run(tmp_path / "new", shift=-10.0)
        code, as_json = run_cli(["xp", "diff", old, new, "--format", "json"])
        assert code == 1
        assert [row["verdict"] for row in json.loads(as_json)["rows"]] == [
            "regression"
        ]

    def test_missing_run_directory_is_one_line_error(self, tmp_path, capsys):
        old = self.write_run(tmp_path / "old")
        code, _ = run_cli(["xp", "diff", old, str(tmp_path / "gone")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {tmp_path / 'gone'}:")
        assert "\n" not in err and "Traceback" not in err


class TestSpread:
    def test_reports_estimate(self, log_file):
        code, text = run_cli(
            [
                "spread",
                log_file,
                "--seeds",
                "a",
                "--window-percent",
                "100",
                "--probability",
                "1.0",
            ]
        )
        assert code == 0
        assert "expected spread of 1 seeds" in text
        assert "4.0" in text  # a reaches b, c, d plus itself

    def test_unknown_seed_warns_but_runs(self, log_file, capsys):
        code, text = run_cli(
            ["spread", log_file, "--seeds", "ghost", "--probability", "1.0"]
        )
        assert code == 0
        assert "0.0" in text
        assert "ghost" in capsys.readouterr().err

    def test_bad_probability_is_error(self, log_file):
        code, _ = run_cli(
            ["spread", log_file, "--seeds", "a", "--probability", "2.0"]
        )
        assert code == 1


class TestSnapshotCommand:
    def test_save_and_load_approx(self, log_file, tmp_path):
        snap = str(tmp_path / "oracle.snap")
        code, output = run_cli(
            ["snapshot", "save", log_file, "--kind", "approx",
             "--precision", "5", "-o", snap]
        )
        assert code == 0
        assert "wrote approx snapshot" in output
        code, output = run_cli(["snapshot", "load", snap])
        assert code == 0
        assert "kind:      approx" in output
        assert "all CRCs verified" in output

    def test_save_and_load_exact(self, log_file, tmp_path):
        snap = str(tmp_path / "oracle.snap")
        code, output = run_cli(
            ["snapshot", "save", log_file, "--kind", "exact", "-o", snap]
        )
        assert code == 0
        assert "wrote exact snapshot" in output
        code, output = run_cli(["snapshot", "load", snap])
        assert code == 0
        assert "kind:      exact" in output

    def test_saved_snapshot_is_loadable_by_the_library(self, log_file, tmp_path):
        from repro.serve.snapshot import load_oracle

        snap = str(tmp_path / "oracle.snap")
        run_cli(["snapshot", "save", log_file, "--kind", "exact", "-o", snap])
        oracle = load_oracle(snap)
        assert set(oracle.nodes()) == {"a", "b", "c", "d"}

    def test_load_missing_file_is_one_line_error(self, tmp_path, capsys):
        code, _ = run_cli(["snapshot", "load", str(tmp_path / "absent.snap")])
        assert code == 1
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert error.count("\n") == 1

    def test_load_corrupt_file_is_error(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.snap")
        with open(bad, "wb") as handle:
            handle.write(SNAPSHOT_MAGIC + b"\x00" * 3)
        code, _ = run_cli(["snapshot", "load", bad])
        assert code == 1
        assert "truncated" in capsys.readouterr().err

    def test_save_requires_output(self, log_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot", "save", log_file])


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "oracle.snap"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8750
        assert args.cache_size == 1024
        assert args.max_request_bytes is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["serve", "oracle.snap", "--host", "0.0.0.0", "--port", "0",
             "--cache-size", "0", "--max-request-bytes", "2048"]
        )
        assert args.port == 0
        assert args.cache_size == 0
        assert args.max_request_bytes == 2048

    def test_missing_snapshot_is_error(self, tmp_path, capsys):
        code, _ = run_cli(["serve", str(tmp_path / "absent.snap")])
        assert code == 1
        assert "cannot read snapshot" in capsys.readouterr().err


class TestServeObservabilityFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "oracle.snap"])
        assert args.access_log == ""
        assert args.slo == ""

    def test_overrides(self):
        args = build_parser().parse_args(
            ["serve", "oracle.snap", "--access-log", "/tmp/a.log", "--slo", "slo.json"]
        )
        assert args.access_log == "/tmp/a.log"
        assert args.slo == "slo.json"

    def test_bad_slo_spec_is_error(self, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text("[]", encoding="utf-8")
        code, _ = run_cli(
            ["serve", str(tmp_path / "absent.snap"), "--slo", str(spec)]
        )
        assert code == 1
        assert "non-empty JSON array" in capsys.readouterr().err


class TestObsSlo:
    def write_metrics(self, tmp_path, errors=0):
        from repro.obs.export import to_jsonl

        samples = [
            {
                "type": "counter",
                "name": "serve.http_requests",
                "labels": {"route": "/v1/spread", "code": "200"},
                "value": 100.0,
            }
        ]
        if errors:
            samples.append(
                {
                    "type": "counter",
                    "name": "serve.http_requests",
                    "labels": {"route": "/v1/spread", "code": "500"},
                    "value": float(errors),
                }
            )
        path = tmp_path / "metrics.jsonl"
        path.write_text(to_jsonl(samples), encoding="utf-8")
        return str(path)

    def test_clean_traffic_passes_check(self, tmp_path):
        metrics = self.write_metrics(tmp_path)
        code, text = run_cli(["obs", "slo", "-i", metrics, "--check"])
        assert code == 0
        assert "0 breached" in text

    def test_breach_fails_check(self, tmp_path):
        metrics = self.write_metrics(tmp_path, errors=50)
        code, text = run_cli(["obs", "slo", "-i", metrics, "--check"])
        assert code == 1
        assert "BREACH" in text

    def test_breach_without_check_exits_zero(self, tmp_path):
        metrics = self.write_metrics(tmp_path, errors=50)
        code, text = run_cli(["obs", "slo", "-i", metrics])
        assert code == 0
        assert "BREACH" in text

    def test_custom_spec_file(self, tmp_path):
        metrics = self.write_metrics(tmp_path, errors=50)
        spec = tmp_path / "slo.json"
        spec.write_text(
            json.dumps([{"route": "/v1/spread", "p99_ms": 500, "error_budget": 0.5}]),
            encoding="utf-8",
        )
        code, text = run_cli(
            ["obs", "slo", "-i", metrics, "--spec", str(spec), "--check"]
        )
        assert code == 0
        assert "1 route SLO(s) evaluated" in text

    def test_json_format(self, tmp_path):
        metrics = self.write_metrics(tmp_path)
        code, text = run_cli(["obs", "slo", "-i", metrics, "--format", "json"])
        assert code == 0
        parsed = json.loads(text)
        assert any(entry["route"] == "/v1/spread" for entry in parsed)

    def test_missing_input_is_one_line_error(self, tmp_path, capsys):
        code, _ = run_cli(["obs", "slo", "-i", str(tmp_path / "absent.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot read metrics snapshot" in err
