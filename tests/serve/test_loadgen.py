"""Load generator: workload determinism, report math, the acceptance run."""

from __future__ import annotations

import json
import threading
import urllib.error

import pytest

import repro.obs as obs
from repro.ingest.live import LiveIndex
from repro.serve.http import OracleRequestHandler, build_server, serve_until_shutdown
from repro.serve.loadgen import (
    HttpClient,
    LoadgenReport,
    ServiceClient,
    main,
    run_loadgen,
    synth_workload,
)
from repro.serve.service import OracleService
from repro.serve.snapshot import save_oracle


class TestSynthWorkload:
    def test_deterministic(self, exact_oracle):
        nodes = sorted(exact_oracle.nodes())
        assert synth_workload(nodes, 50, rng=3) == synth_workload(nodes, 50, rng=3)
        assert synth_workload(nodes, 50, rng=3) != synth_workload(nodes, 50, rng=4)

    def test_mix_and_shapes(self, exact_oracle):
        nodes = sorted(exact_oracle.nodes())
        workload = synth_workload(nodes, 400, rng=1)
        assert len(workload) == 400
        endpoints = {op["endpoint"] for op in workload}
        assert endpoints == {"spread", "influence", "topk"}
        spreads = [op for op in workload if op["endpoint"] == "spread"]
        assert len(spreads) > 200  # ~70% of the mix
        distinct_sets = {frozenset(op["seeds"]) for op in spreads}
        assert len(distinct_sets) <= 32  # drawn from the recurring pool

    def test_rejects_empty_nodes(self):
        with pytest.raises(ValueError, match="non-empty"):
            synth_workload([], 10)

    def test_rejects_bad_count(self, exact_oracle):
        with pytest.raises(ValueError):
            synth_workload(sorted(exact_oracle.nodes()), 0)


class TestClientsAndReport:
    def test_service_client_dispatch(self, exact_oracle):
        client = ServiceClient(OracleService(exact_oracle))
        node = sorted(exact_oracle.nodes())[0]
        assert client.request({"endpoint": "influence", "node": node}) == (
            exact_oracle.influence(node)
        )
        assert client.request({"endpoint": "spread", "seeds": [node]}) == (
            exact_oracle.spread([node])
        )
        assert len(client.request({"endpoint": "topk", "k": 2})) == 2
        with pytest.raises(ValueError, match="unknown workload endpoint"):
            client.request({"endpoint": "bogus"})

    def test_report_to_dict_and_table(self):
        report = LoadgenReport(
            requests=10,
            errors=0,
            threads=2,
            elapsed_seconds=0.5,
            p50_ms=1.0,
            p95_ms=2.0,
            p99_ms=3.0,
            mean_ms=1.2,
            max_ms=4.0,
            per_endpoint={"spread": 7, "topk": 3},
        )
        assert report.throughput_rps == 20.0
        payload = report.to_dict()
        assert payload["latency_ms"]["p95"] == 2.0
        assert payload["per_endpoint"] == {"spread": 7, "topk": 3}
        table = report.table()
        assert "latency_p99_ms  3.000" in table
        assert "endpoint spread" in table

    def test_errors_are_captured_not_raised(self, exact_oracle):
        client = ServiceClient(OracleService(exact_oracle))
        workload = [
            {"endpoint": "spread", "seeds": []},
            {"endpoint": "bogus"},
            {"endpoint": "topk", "k": 1},
        ]
        report = run_loadgen(client, workload, threads=2)
        assert report.requests == 2
        assert report.errors == 1
        assert any("bogus" in message for message in report.error_messages)


class TestAcceptanceRun:
    def test_four_threads_thousand_requests_no_errors(self, exact_oracle):
        """Acceptance: 4 threads × ≥1k requests, 0 errors, hit-rate > 0,
        per-endpoint latency histograms in the obs report."""
        obs.enable()
        service = OracleService(exact_oracle, cache_size=256)
        nodes = sorted(exact_oracle.nodes())
        workload = synth_workload(nodes, 1000, rng=9)
        report = run_loadgen(ServiceClient(service), workload, threads=4)
        assert report.errors == 0
        assert report.requests == 1000
        assert report.threads == 4
        assert report.p50_ms <= report.p95_ms <= report.p99_ms <= report.max_ms
        assert report.p99_ms > 0
        assert sum(report.per_endpoint.values()) == 1000

        stats = service.stats()
        assert stats["cache"]["hit_rate"] > 0

        by_endpoint = {
            sample["labels"]["endpoint"]: sample["count"]
            for sample in obs.snapshot()
            if sample["name"] == "serve.request_seconds"
            and sample["labels"].get("status") == "ok"
        }
        assert by_endpoint.get("spread", 0) > 0
        assert by_endpoint.get("influence", 0) > 0
        assert by_endpoint.get("topk", 0) > 0
        rendered = obs.render_report(obs.snapshot())
        assert "serve.request_seconds" in rendered
        assert "serve.cache_hits" in rendered


    def test_reads_beside_ingest_batches(self, exact_oracle):
        """A fifth of the requests are write batches to a live index
        sharing the worker pool: every write lands and no read fails."""
        live = LiveIndex(window=10_000, decay_window=50_000)
        client = ServiceClient(OracleService(exact_oracle, cache_size=256), live=live)
        nodes = sorted(exact_oracle.nodes())
        workload = synth_workload(nodes, 400, rng=29, ingest_fraction=0.2)
        report = run_loadgen(client, workload, threads=4)
        assert report.errors == 0
        assert report.requests == 400
        assert report.per_endpoint.get("ingest", 0) > 0
        assert live.stats()["events_applied"] > 0


class TestHttpModeAndMain:
    def test_http_client_against_live_server(self, exact_oracle):
        service = OracleService(exact_oracle, cache_size=64)
        server = build_server(service, port=0)
        thread = threading.Thread(target=serve_until_shutdown, args=(server,))
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = HttpClient(f"http://{host}:{port}")
            nodes = sorted(exact_oracle.nodes())
            workload = synth_workload(nodes, 40, rng=2)
            report = run_loadgen(client, workload, threads=2)
            assert report.errors == 0
            assert report.requests == 40
            client.close()
        finally:
            server.shutdown()
            thread.join(timeout=10)

    def test_sequential_requests_share_one_connection(self, exact_oracle, monkeypatch):
        # A generous idle timeout, so a scheduling stall on a busy host
        # cannot close the connection between two requests.
        monkeypatch.setattr(OracleRequestHandler, "idle_timeout", 10.0)
        server = build_server(OracleService(exact_oracle, cache_size=64), port=0)
        accepted = []
        accept = server.get_request

        def counting_accept():
            accepted.append(1)
            return accept()

        server.get_request = counting_accept
        thread = threading.Thread(target=serve_until_shutdown, args=(server,))
        thread.start()
        host, port = server.server_address[:2]
        client = HttpClient(f"http://{host}:{port}")
        try:
            nodes = sorted(exact_oracle.nodes())
            for op in synth_workload(nodes, 50, rng=5):
                client.request(op)
            assert len(accepted) == 1
        finally:
            client.close()  # the server sees EOF; its handler exits at once
            server.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_error_answer_raises_and_the_client_recovers(self, exact_oracle):
        server = build_server(OracleService(exact_oracle), port=0)
        thread = threading.Thread(target=serve_until_shutdown, args=(server,))
        thread.start()
        host, port = server.server_address[:2]
        client = HttpClient(f"http://{host}:{port}")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.request({"endpoint": "influence", "node": "missing-node"})
            assert excinfo.value.code == 404
            envelope = json.loads(excinfo.value.read())
            assert envelope["error"]["status"] == 404
            assert "unknown node" in envelope["error"]["message"]
            node = sorted(exact_oracle.nodes())[0]
            answer = client.request({"endpoint": "influence", "node": node})
            assert answer["influence"] == exact_oracle.influence(node)
        finally:
            client.close()
            server.shutdown()
            thread.join(timeout=10)

    def test_main_snapshot_mode(self, exact_oracle, tmp_path, capsys):
        path = str(tmp_path / "o.snap")
        save_oracle(path, exact_oracle)
        output = str(tmp_path / "report.json")
        code = main(
            [
                "--snapshot", path,
                "--requests", "200",
                "--threads", "2",
                "--format", "json",
                "--output", output,
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "cache hit-rate:" in captured
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["errors"] == 0
        assert written["requests"] == 200

    def test_main_requires_a_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["--requests", "10"])
