"""OracleService: cache behaviour, batched endpoints, concurrent hot swap."""

from __future__ import annotations

import threading

import pytest

import repro.obs as obs
from repro.core.maximization import celf_top_k, greedy_top_k, top_k_by_influence
from repro.core.oracle import ExactInfluenceOracle
from repro.serve.service import OracleService, ReadWriteLock, SpreadCache
from repro.serve.snapshot import save_oracle


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        with lock.read(), lock.read():
            pass  # two nested readers must not deadlock

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        ready = threading.Event()
        entered = threading.Event()

        def writer():
            ready.set()
            with lock.write():
                entered.set()
                order.append("write")

        with lock.read():
            thread = threading.Thread(target=writer)
            thread.start()
            ready.wait(timeout=5)
            assert not entered.wait(timeout=0.05)  # blocked behind the reader
            order.append("read-done")
        thread.join(timeout=5)
        assert order == ["read-done", "write"]

    def test_waiting_writer_blocks_new_readers(self):
        """Writer priority: a queued writer goes before late readers."""
        lock = ReadWriteLock()
        release_reader = threading.Event()
        writer_done = threading.Event()
        late_reader_done = threading.Event()

        def first_reader():
            with lock.read():
                release_reader.wait(timeout=5)

        def writer():
            with lock.write():
                writer_done.set()

        def late_reader():
            with lock.read():
                late_reader_done.set()

        holder = threading.Thread(target=first_reader)
        holder.start()
        import time

        while lock._readers == 0:
            time.sleep(0.001)
        wthread = threading.Thread(target=writer)
        wthread.start()
        while lock._writers_waiting == 0:
            time.sleep(0.001)
        rthread = threading.Thread(target=late_reader)
        rthread.start()
        assert not late_reader_done.wait(timeout=0.05)
        release_reader.set()
        assert writer_done.wait(timeout=5)
        assert late_reader_done.wait(timeout=5)
        for thread in (holder, wthread, rthread):
            thread.join(timeout=5)


class TestSpreadCache:
    def test_miss_then_hit(self):
        cache = SpreadCache(4)
        key = frozenset({"a"})
        missed = cache.get(key)
        assert missed is not None and not isinstance(missed, float)
        cache.put(key, 3.5)
        assert cache.get(key) == 3.5
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_zero_spread_is_cacheable(self):
        cache = SpreadCache(4)
        key = frozenset()
        cache.put(key, 0.0)
        assert cache.get(key) == 0.0
        assert cache.stats()["hits"] == 1

    def test_lru_eviction_order(self):
        cache = SpreadCache(2)
        a, b, c = frozenset({"a"}), frozenset({"b"}), frozenset({"c"})
        cache.put(a, 1.0)
        cache.put(b, 2.0)
        assert cache.get(a) == 1.0  # refresh a; b becomes LRU
        cache.put(c, 3.0)
        assert len(cache) == 2
        assert not isinstance(cache.get(b), float)  # evicted
        assert cache.get(a) == 1.0
        assert cache.get(c) == 3.0

    def test_capacity_zero_disables(self):
        cache = SpreadCache(0)
        cache.put(frozenset({"a"}), 1.0)
        assert len(cache) == 0
        assert not isinstance(cache.get(frozenset({"a"})), float)

    def test_clear_keeps_totals(self):
        cache = SpreadCache(4)
        cache.put(frozenset({"a"}), 1.0)
        cache.get(frozenset({"a"}))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpreadCache(-1)


class TestOracleServiceQueries:
    def test_spread_matches_oracle(self, exact_oracle):
        service = OracleService(exact_oracle, cache_size=8)
        seeds = sorted(exact_oracle.nodes())[:4]
        assert service.spread(seeds) == exact_oracle.spread(seeds)

    def test_cache_hit_counters(self, exact_oracle):
        service = OracleService(exact_oracle, cache_size=8)
        seeds = sorted(exact_oracle.nodes())[:3]
        service.spread(seeds)
        service.spread(list(reversed(seeds)))  # same frozenset → hit
        stats = service.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["requests"]["spread"] == 2

    def test_cache_metrics_flow_to_obs(self, exact_oracle):
        obs.enable()
        service = OracleService(exact_oracle, cache_size=8)
        seeds = sorted(exact_oracle.nodes())[:3]
        service.spread(seeds)
        service.spread(seeds)
        samples = {
            sample["name"]: sample
            for sample in obs.snapshot()
            if not sample["labels"]
        }
        assert samples["serve.cache_hits"]["value"] == 1
        assert samples["serve.cache_misses"]["value"] == 1
        histogram_counts = [
            sample["count"]
            for sample in obs.snapshot()
            if sample["name"] == "serve.request_seconds"
            and sample["labels"].get("endpoint") == "spread"
        ]
        assert histogram_counts == [2]  # latency histogram recorded per request

    def test_spread_many(self, exact_oracle):
        service = OracleService(exact_oracle, cache_size=8)
        nodes = sorted(exact_oracle.nodes())
        seed_sets = [nodes[:2], nodes[2:5], nodes[:2]]
        spreads = service.spread_many(seed_sets)
        assert spreads == [exact_oracle.spread(seeds) for seeds in seed_sets]
        assert service.stats()["cache"]["hits"] == 1  # third set repeats the first

    def test_influence_and_contains(self, exact_oracle):
        service = OracleService(exact_oracle)
        node = sorted(exact_oracle.nodes())[0]
        assert service.contains(node)
        assert not service.contains("definitely-missing")
        assert not service.contains(["unhashable"])
        assert service.influence(node) == exact_oracle.influence(node)

    def test_influence_topk_matches_bruteforce(self, exact_oracle):
        service = OracleService(exact_oracle)
        ranked = service.influence_topk(5)
        assert len(ranked) == 5
        brute = sorted(
            ((exact_oracle.influence(node), repr(node)) for node in exact_oracle.nodes()),
            key=lambda pair: (-pair[0], pair[1]),
        )[:5]
        assert [(inf, repr(node)) for node, inf in ranked] == [
            (inf, rep) for inf, rep in brute
        ]

    def test_topk_k_larger_than_population(self, exact_oracle):
        service = OracleService(exact_oracle)
        ranked = service.influence_topk(10_000)
        assert len(ranked) == len(list(exact_oracle.nodes()))

    def test_greedy_seeds_match_selectors(self, exact_oracle):
        service = OracleService(exact_oracle)
        assert service.greedy_seeds(3, method="greedy") == greedy_top_k(exact_oracle, 3)
        assert service.greedy_seeds(3, method="celf") == celf_top_k(exact_oracle, 3)
        assert service.top_influencers(3) == top_k_by_influence(exact_oracle, 3)

    def test_greedy_rejects_unknown_method(self, exact_oracle):
        service = OracleService(exact_oracle)
        with pytest.raises(ValueError, match="unknown seed-selection method"):
            service.greedy_seeds(3, method="magic")

    def test_error_counted(self, exact_oracle):
        service = OracleService(exact_oracle)
        with pytest.raises(ValueError):
            service.influence_topk(0)
        assert service.stats()["errors"]["topk"] == 1

    def test_info(self, exact_oracle):
        service = OracleService(exact_oracle, source="unit-test")
        info = service.info()
        assert info["kind"] == "ExactInfluenceOracle"
        assert info["nodes"] == service.node_count()
        assert info["source"] == "unit-test"
        assert info["generation"] == 1


class TestHotSwap:
    def test_from_snapshot_and_reload(self, exact_oracle, tmp_path):
        first = str(tmp_path / "first.snap")
        save_oracle(first, exact_oracle)
        service = OracleService.from_snapshot(first, cache_size=8)
        assert service.info()["source"] == first

        replacement = ExactInfluenceOracle({"solo": {"solo"}})
        second = str(tmp_path / "second.snap")
        save_oracle(second, replacement)
        seeds = sorted(exact_oracle.nodes())[:2]
        service.spread(seeds)  # warm the cache against generation 1
        result = service.reload(second)
        assert result["generation"] == 2
        assert result["nodes"] == 1
        assert service.contains("solo")
        assert service.stats()["cache"]["size"] == 0  # flushed on swap

    def test_swap_oracle_in_memory(self, exact_oracle):
        service = OracleService(exact_oracle)
        generation = service.swap_oracle(ExactInfluenceOracle({"x": set()}), "mem")
        assert generation == 2
        assert service.node_count() == 1

    def test_reload_missing_file_keeps_old_oracle(self, exact_oracle, tmp_path):
        service = OracleService(exact_oracle)
        with pytest.raises(ValueError):
            service.reload(str(tmp_path / "missing.snap"))
        assert service.node_count() == len(list(exact_oracle.nodes()))
        assert service.info()["generation"] == 1

    def test_reload_under_concurrent_queries(self, exact_oracle, tmp_path):
        """Acceptance: hot swap never drops or corrupts in-flight queries."""
        other = ExactInfluenceOracle(
            {node: exact_oracle.reachability_set(node) for node in exact_oracle.nodes()}
        )
        path_a = str(tmp_path / "a.snap")
        path_b = str(tmp_path / "b.snap")
        save_oracle(path_a, exact_oracle)
        save_oracle(path_b, other)
        service = OracleService.from_snapshot(path_a, cache_size=64)
        nodes = sorted(exact_oracle.nodes())
        expected = {node: exact_oracle.influence(node) for node in nodes}
        stop = threading.Event()
        failures: list = []

        def querier(offset: int) -> None:
            index = offset
            while not stop.is_set():
                node = nodes[index % len(nodes)]
                try:
                    got = service.influence(node)
                    spread = service.spread([node, nodes[(index + 1) % len(nodes)]])
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(repr(exc))
                    return
                if got != expected[node] or spread <= 0:
                    failures.append(f"wrong answer for {node!r}")
                    return
                index += 1

        threads = [threading.Thread(target=querier, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for i in range(10):
            service.reload(path_b if i % 2 == 0 else path_a)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert failures == []
        assert service.info()["generation"] == 11
