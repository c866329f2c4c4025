"""repro-snap/2 snapshot store: round trips, laziness, corruption handling."""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.serve as serve
from repro.core.approx import ApproxIRS
from repro.core.exact import ExactIRS
from repro.core.oracle import ApproxInfluenceOracle, ExactInfluenceOracle
from repro.datasets.generators import (
    cascade_network,
    email_network,
    forum_network,
    uniform_network,
)
from repro.serve.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotReader,
    load_oracle,
    load_sketches,
    save_oracle,
    save_sketches,
    snapshot_info,
)
from repro.sketch.vhll import VersionedHLL

GENERATORS = [email_network, cascade_network, forum_network, uniform_network]


def _sample_seed_sets(nodes):
    ordered = sorted(nodes, key=repr)
    return [
        ordered[:1],
        ordered[:5],
        ordered[::3],
        ordered,
    ]


class TestOracleRoundTrip:
    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_exact_round_trip_lossless(self, generator, tmp_path):
        """Acceptance: reloaded exact oracles answer identically."""
        log = generator(25, 250, 500, rng=5)
        oracle = ExactInfluenceOracle.from_index(ExactIRS.from_log(log, 10**9))
        path = str(tmp_path / "exact.snap")
        info = save_oracle(path, oracle)
        assert info["kind"] == "exact"
        loaded = load_oracle(path)
        assert isinstance(loaded, ExactInfluenceOracle)
        assert set(loaded.nodes()) == set(oracle.nodes())
        for node in oracle.nodes():
            assert loaded.reachability_set(node) == oracle.reachability_set(node)
        for seeds in _sample_seed_sets(oracle.nodes()):
            assert loaded.spread(seeds) == oracle.spread(seeds)

    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_approx_round_trip_bit_identical(self, generator, tmp_path):
        """Acceptance: reloaded sketch registers are bit-identical."""
        log = generator(25, 250, 500, rng=5)
        oracle = ApproxInfluenceOracle.from_index(
            ApproxIRS.from_log(log, 10**9, precision=5)
        )
        path = str(tmp_path / "approx.snap")
        info = save_oracle(path, oracle)
        assert info["kind"] == "approx"
        loaded = load_oracle(path)
        assert isinstance(loaded, ApproxInfluenceOracle)
        assert loaded.num_cells == oracle.num_cells
        assert set(loaded.nodes()) == set(oracle.nodes())
        for node in oracle.nodes():
            assert loaded.registers(node) == oracle.registers(node)
        for seeds in _sample_seed_sets(oracle.nodes()):
            assert loaded.spread(seeds) == oracle.spread(seeds)

    def test_empty_oracle(self, tmp_path):
        path = str(tmp_path / "empty.snap")
        save_oracle(path, ExactInfluenceOracle({}))
        loaded = load_oracle(path)
        assert list(loaded.nodes()) == []
        assert loaded.spread([]) == 0.0

    def test_single_node(self, tmp_path):
        path = str(tmp_path / "one.snap")
        save_oracle(path, ExactInfluenceOracle({"only": {"only", "other"}}))
        loaded = load_oracle(path)
        assert loaded.reachability_set("only") == frozenset({"only", "other"})

    def test_unicode_labels(self, tmp_path):
        sets = {"séed-Ω": {"ターゲット", "séed-Ω"}, "ターゲット": set()}
        path = str(tmp_path / "uni.snap")
        save_oracle(path, ExactInfluenceOracle(sets))
        loaded = load_oracle(path)
        assert loaded.reachability_set("séed-Ω") == frozenset({"ターゲット", "séed-Ω"})

    def test_mixed_label_types_survive(self, tmp_path):
        sets = {0: {1, "x"}, 1: set(), "x": {0}}
        path = str(tmp_path / "mixed.snap")
        save_oracle(path, ExactInfluenceOracle(sets))
        loaded = load_oracle(path)
        assert set(loaded.nodes()) == {0, 1, "x"}
        assert loaded.reachability_set(0) == frozenset({1, "x"})

    def test_chunked_snapshot_round_trips(self, tmp_path):
        """chunk smaller than the node count exercises multi-section paths."""
        sets = {f"n{i}": {f"n{j}" for j in range(i)} for i in range(10)}
        oracle = ExactInfluenceOracle(sets)
        path = str(tmp_path / "chunky.snap")
        save_oracle(path, oracle, chunk=3)
        loaded = load_oracle(path)
        for node in sets:
            assert loaded.reachability_set(node) == oracle.reachability_set(node)

    def test_rejects_unhashable_oracle_kind(self, tmp_path):
        with pytest.raises(TypeError):
            save_oracle(str(tmp_path / "x.snap"), object())  # type: ignore[arg-type]

    def test_rejects_non_json_label(self, tmp_path):
        oracle = ExactInfluenceOracle({("tuple", "label"): set()})
        with pytest.raises(ValueError, match="unsupported node label"):
            save_oracle(str(tmp_path / "x.snap"), oracle)
        assert not (tmp_path / "x.snap.tmp").exists()


class TestSketchRoundTrip:
    def test_vhll_snapshot_round_trips(self, tmp_path):
        sketches = {}
        for index in range(5):
            sketch = VersionedHLL(precision=4, salt=3)
            for item in range(index * 7):
                sketch.add(f"item-{item}", timestamp=item + 1)
            sketches[f"node-{index}"] = sketch
        path = str(tmp_path / "sketches.snap")
        info = save_sketches(path, sketches)
        assert info["kind"] == "vhll"
        loaded = load_sketches(path)
        assert set(loaded) == set(sketches)
        for node, sketch in sketches.items():
            assert loaded[node].to_dict() == sketch.to_dict()

    def test_mixed_configs_rejected(self, tmp_path):
        sketches = {"a": VersionedHLL(precision=4), "b": VersionedHLL(precision=5)}
        with pytest.raises(ValueError, match="mixed configs"):
            save_sketches(str(tmp_path / "x.snap"), sketches)

    def test_load_oracle_refuses_vhll_kind(self, tmp_path):
        path = str(tmp_path / "v.snap")
        save_sketches(path, {"a": VersionedHLL(precision=4)})
        with pytest.raises(ValueError, match="use load_sketches"):
            load_oracle(path)

    def test_load_sketches_refuses_oracle_kind(self, tmp_path):
        path = str(tmp_path / "e.snap")
        save_oracle(path, ExactInfluenceOracle({}))
        with pytest.raises(ValueError, match="use load_oracle"):
            load_sketches(path)


class TestCorruption:
    def _write_valid(self, tmp_path):
        path = str(tmp_path / "ok.snap")
        save_oracle(path, ExactInfluenceOracle({"a": {"b"}, "b": set()}))
        return path

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.snap")
        with open(path, "wb") as handle:
            handle.write(b"not-a-snapshot\n" + b"x" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_oracle(path)

    def test_foreign_version(self, tmp_path):
        path = str(tmp_path / "v9.snap")
        with open(path, "wb") as handle:
            handle.write(b"repro-snap/9\n")
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            load_oracle(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read snapshot"):
            load_oracle(str(tmp_path / "absent.snap"))

    def test_truncated_file(self, tmp_path):
        path = self._write_valid(tmp_path)
        data = Path(path).read_bytes()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) - 7])
        with pytest.raises(ValueError, match="truncated snapshot"):
            load_oracle(path)

    def test_truncation_at_every_prefix_is_detected(self, tmp_path):
        """No prefix of a valid snapshot may load as a (wrong) oracle."""
        path = self._write_valid(tmp_path)
        data = Path(path).read_bytes()
        for cut in range(len(data) - 1, 0, -4):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            with pytest.raises(ValueError):
                load_oracle(path)

    def test_crc_mismatch(self, tmp_path):
        path = self._write_valid(tmp_path)
        data = bytearray(Path(path).read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte in the last section
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(ValueError, match="CRC mismatch"):
            load_oracle(path)

    def test_missing_declared_section(self, tmp_path):
        """A header declaring sections the file lacks must not load."""
        path = str(tmp_path / "short.snap")
        header = json.dumps(
            {"kind": "exact", "meta": {"node_count": 1, "label_count": 1},
             "sections": ["labels/0", "sets/0"]}
        ).encode()
        with open(path, "wb") as handle:
            handle.write(SNAPSHOT_MAGIC)
            name = b"header"
            handle.write(struct.pack(">H", len(name)) + name)
            handle.write(struct.pack(">QI", len(header), zlib.crc32(header)))
            handle.write(header)
        with pytest.raises(ValueError, match="missing from the file"):
            load_oracle(path)

    def test_error_messages_name_the_file(self, tmp_path):
        path = str(tmp_path / "named.snap")
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        with pytest.raises(ValueError) as excinfo:
            load_oracle(path)
        message = str(excinfo.value)
        assert path in message
        assert "\n" not in message


class TestReaderAndInfo:
    def test_reader_is_lazy_and_verifies_on_demand(self, tmp_path):
        path = str(tmp_path / "lazy.snap")
        save_oracle(path, ExactInfluenceOracle({"a": {"b"}, "b": set()}))
        with SnapshotReader(path) as reader:
            assert reader.kind == "exact"
            assert reader.path == path
            assert reader.verify() == len(reader.section_names)
            labels = reader.read_json("labels/0")
            assert isinstance(labels, list)
            raw = reader.read_section("labels/0")
            assert json.loads(raw) == labels
        with pytest.raises(ValueError, match="closed"):
            reader.read_section("labels/0")

    def test_snapshot_info_reads_header_only(self, tmp_path):
        path = str(tmp_path / "i.snap")
        save_oracle(path, ExactInfluenceOracle({"a": set()}))
        info = snapshot_info(path)
        assert info["kind"] == "exact"
        assert info["meta"]["node_count"] == 1
        assert info["bytes"] > len(SNAPSHOT_MAGIC)
        assert "labels/0" in info["sections"]

    def test_package_reexports(self):
        assert serve.SNAPSHOT_MAGIC == SNAPSHOT_MAGIC
        assert serve.save_oracle is save_oracle
        assert serve.load_oracle is load_oracle
        assert serve.save_sketches is save_sketches
        assert serve.load_sketches is load_sketches
        assert serve.snapshot_info is snapshot_info
        assert serve.SnapshotReader is SnapshotReader

    def test_atomic_write_leaves_no_tmp_file(self, tmp_path):
        path = str(tmp_path / "atomic.snap")
        save_oracle(path, ExactInfluenceOracle({"a": set()}))
        assert not (tmp_path / "atomic.snap.tmp").exists()


label_strategy = st.one_of(
    st.text(max_size=8),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.booleans(),
    st.none(),
)


class TestPropertyRoundTrips:
    @given(
        sets=st.dictionaries(
            label_strategy,
            st.frozensets(label_strategy, max_size=6),
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_snapshot_round_trips(self, sets, tmp_path_factory):
        oracle = ExactInfluenceOracle(dict(sets))
        path = str(tmp_path_factory.mktemp("snap") / "p.snap")
        save_oracle(path, oracle, chunk=3)
        loaded = load_oracle(path)
        assert set(loaded.nodes()) == set(oracle.nodes())
        for node in oracle.nodes():
            assert loaded.reachability_set(node) == oracle.reachability_set(node)

    @given(
        arrays=st.dictionaries(
            st.text(max_size=6),
            st.lists(st.integers(min_value=0, max_value=40), min_size=8, max_size=8),
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_approx_snapshot_round_trips(self, arrays, tmp_path_factory):
        oracle = ApproxInfluenceOracle(dict(arrays), num_cells=8)
        path = str(tmp_path_factory.mktemp("snap") / "p.snap")
        save_oracle(path, oracle, chunk=2)
        loaded = load_oracle(path)
        assert set(loaded.nodes()) == set(oracle.nodes())
        for node in oracle.nodes():
            assert loaded.registers(node) == oracle.registers(node)


def _write_snapshot(path, kind, meta, sections, magic=SNAPSHOT_MAGIC):
    """Frame ``sections`` (name, payload) behind a header, CRCs intact."""
    header = json.dumps(
        {"kind": kind, "meta": meta, "sections": [name for name, _ in sections]}
    ).encode()
    with open(path, "wb") as handle:
        handle.write(magic)
        for name, payload in [("header", header)] + sections:
            encoded = name.encode("ascii")
            handle.write(struct.pack(">H", len(encoded)) + encoded)
            handle.write(struct.pack(">QI", len(payload), zlib.crc32(payload)))
            handle.write(payload)


def _node_cells(pairs, count=None):
    """One node of an approx ``cells`` section: u16 count, (u16, u8) pairs."""
    body = b"".join(struct.pack(">HB", cell, value) for cell, value in pairs)
    return struct.pack(">H", len(pairs) if count is None else count) + body


def _approx_snapshot(path, cells_payload, labels=("a",), num_cells=8, chunk=4096):
    meta = {"node_count": len(labels), "num_cells": num_cells, "chunk": chunk}
    _write_snapshot(
        path,
        "approx",
        meta,
        [("labels/0", json.dumps(list(labels)).encode()), ("cells/0", cells_payload)],
    )


def _one_line_error(path):
    with pytest.raises(ValueError) as excinfo:
        load_oracle(path)
    message = str(excinfo.value)
    assert message.startswith(path + ": ")
    assert "\n" not in message
    return message


class TestSparseApproxLayout:
    """The ``approx`` payload stores filled cells only: a u16 count per
    node, then (u16 cell, u8 ρ) pairs in increasing cell order."""

    def test_saved_bytes_follow_the_layout(self, tmp_path):
        oracle = ApproxInfluenceOracle({"a": [0, 3, 0, 0, 0, 0, 0, 1], "b": [0] * 8}, 8)
        path = str(tmp_path / "layout.snap")
        save_oracle(path, oracle)
        with SnapshotReader(path) as reader:
            assert reader.section_names == ["labels/0", "cells/0"]
            payload = reader.read_section("cells/0")
        assert payload == _node_cells([(1, 3), (7, 1)]) + _node_cells([])

    def test_hand_built_payload_loads(self, tmp_path):
        path = str(tmp_path / "hand.snap")
        _approx_snapshot(
            path, _node_cells([(0, 2), (5, 9)]) + _node_cells([]), labels=("a", "b")
        )
        loaded = load_oracle(path)
        assert loaded.registers("a") == [2, 0, 0, 0, 0, 9, 0, 0]
        assert loaded.registers("b") == [0] * 8

    def test_chunked_sections_round_trip(self, tmp_path):
        arrays = {f"n{i}": [(i * j) % 5 for j in range(16)] for i in range(7)}
        oracle = ApproxInfluenceOracle(arrays, 16)
        path = str(tmp_path / "chunks.snap")
        save_oracle(path, oracle, chunk=3)
        assert snapshot_info(path)["sections"][-3:] == ["cells/0", "cells/1", "cells/2"]
        loaded = load_oracle(path)
        for node, registers in arrays.items():
            assert loaded.registers(node) == registers

    def test_snapshot_is_smaller_than_one_byte_per_register(self, tmp_path):
        log = email_network(25, 250, 500, rng=5)
        oracle = ApproxInfluenceOracle.from_index(ApproxIRS.from_log(log, 50, precision=9))
        path = str(tmp_path / "small.snap")
        info = save_oracle(path, oracle)
        nodes = len(list(oracle.nodes()))
        assert info["bytes"] < nodes * oracle.num_cells // 4

    def test_cell_beyond_beta(self, tmp_path):
        path = str(tmp_path / "cell.snap")
        _approx_snapshot(path, _node_cells([(8, 3)]))
        assert "cell 8, outside [0, 8)" in _one_line_error(path)

    def test_zero_rho(self, tmp_path):
        path = str(tmp_path / "zero.snap")
        _approx_snapshot(path, _node_cells([(2, 0)]))
        assert "register 0 in cell 2, outside [1, 64]" in _one_line_error(path)

    def test_duplicated_cell(self, tmp_path):
        path = str(tmp_path / "dup.snap")
        _approx_snapshot(path, _node_cells([(2, 3), (2, 4)]))
        assert "more than once" in _one_line_error(path)

    def test_count_overruns_its_section(self, tmp_path):
        path = str(tmp_path / "overrun.snap")
        _approx_snapshot(path, _node_cells([(2, 3)], count=5))
        assert "claims 5 cells, which overrun section 'cells/0'" in _one_line_error(path)

    def test_count_cut_short(self, tmp_path):
        path = str(tmp_path / "cut.snap")
        _approx_snapshot(path, _node_cells([(1, 1)]) + b"\x00", labels=("a", "b"))
        assert "ends inside the cell count of node 1" in _one_line_error(path)

    def test_leftover_bytes(self, tmp_path):
        path = str(tmp_path / "leftover.snap")
        _approx_snapshot(path, _node_cells([(2, 3)]) + b"\x07")
        assert "1 leftover bytes" in _one_line_error(path)

    def test_version_1_file_is_refused(self, tmp_path):
        path = str(tmp_path / "v1.snap")
        meta = {"node_count": 1, "num_cells": 8, "chunk": 4096}
        _write_snapshot(
            path,
            "approx",
            meta,
            [("labels/0", b'["a"]'), ("registers/0", bytes([0, 3, 0, 0, 0, 0, 0, 1]))],
            magic=b"repro-snap/1\n",
        )
        message = _one_line_error(path)
        assert "unsupported snapshot version 'repro-snap/1'" in message
        assert "'repro-snap/2'" in message


class TestSparseSketchLayout:
    def test_vhll_payload_lists_filled_cells_only(self, tmp_path):
        sketch = VersionedHLL(precision=4)
        sketch.add_pair(3, 2, 10)
        sketch.add_pair(3, 5, 20)
        sketch.add_pair(11, 1, 7)
        path = str(tmp_path / "filled.snap")
        save_sketches(path, {"a": sketch, "b": VersionedHLL(precision=4)})
        with SnapshotReader(path) as reader:
            block = reader.read_json("sketches/0")
        assert block == [[[3, [[10, 2], [20, 5]]], [11, [[7, 1]]]], []]
        assert load_sketches(path)["a"].to_dict() == sketch.to_dict()

    @pytest.mark.parametrize(
        "cells, match",
        [
            ([[16, [[1, 1]]]], "cell index 16 outside \\[0, 16\\)"),
            ([[2, [[1, 1]]], [2, [[3, 2]]]], "cell 2 is listed twice"),
            ([[2, []]], "cell 2 is listed without pairs"),
            ([[2, [[5, 3], [4, 4]]]], "Pareto-frontier"),
        ],
    )
    def test_bad_vhll_payload_is_a_one_line_error(self, tmp_path, cells, match):
        path = str(tmp_path / "bad.snap")
        meta = {"node_count": 1, "precision": 4, "salt": 0, "chunk": 4096}
        _write_snapshot(
            path,
            "vhll",
            meta,
            [("labels/0", b'["a"]'), ("sketches/0", json.dumps([cells]).encode())],
        )
        with pytest.raises(ValueError, match=match) as excinfo:
            load_sketches(path)
        message = str(excinfo.value)
        assert message.startswith(path + ": ")
        assert "\n" not in message
