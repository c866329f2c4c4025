"""The ``repro-snap/2`` snapshot store: persist oracles, reload them fast.

Snapshot-then-query is the standard deployment shape for sketch-backed
influence oracles (ContinEst persists its sampled sketch sets the same
way): one process pays the reverse-scan build, writes the summaries to
disk, and any number of serving processes answer ``Inf(S)`` queries from
the file.  This module defines the on-disk format and the (de)serialisers
for the three payload kinds the repo produces:

``exact``
    :class:`~repro.core.oracle.ExactInfluenceOracle` — the interned label
    table plus each node's reachability set as sorted label indices.
``approx``
    :class:`~repro.core.oracle.ApproxInfluenceOracle` — each node's filled
    HLL cells only: a u16 count, then that many ``(u16 cell, u8 ρ)``
    pairs in increasing cell order, all big endian.  Empty cells cost
    nothing, so a node that fills 8 of its 512 cells takes 26 bytes.
``vhll``
    A ``node → VersionedHLL`` sketch map (the filled cells' versioned pair
    lists via :meth:`~repro.sketch.vhll.VersionedHLL.filled_cells` /
    :meth:`~repro.sketch.vhll.VersionedHLL.from_filled_cells`), for
    workloads that still need per-deadline queries after reload.

File layout
-----------
::

    magic line:  b"repro-snap/2\\n"
    section*:    u16 name length (big endian)
                 name (ascii)
                 u64 payload length (big endian)
                 u32 CRC32 of the payload (big endian)
                 payload bytes

The first section is always ``header`` — a JSON object with the payload
``kind``, free-form ``meta`` and the declared list of data-section names.
Readers scan only the fixed-size section frames up front (seeking past
payloads), so opening a snapshot costs O(#sections) regardless of size;
payload bytes are read and CRC-verified lazily, section by section, when
first accessed.  Every failure mode — bad magic, foreign version,
truncated file, CRC mismatch, missing section — surfaces as a one-line
``ValueError`` naming the file.

Writes go to ``<path>.tmp`` and are atomically renamed into place, so a
serving process hot-reloading the path never observes a half-written
snapshot.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, Union

import repro.obs as obs
from repro.core.oracle import (
    ApproxInfluenceOracle,
    ExactInfluenceOracle,
    InfluenceOracle,
)
from repro.sketch.vhll import VersionedHLL
from repro.utils.validation import require_int, require_positive, require_type

__all__ = [
    "SNAPSHOT_MAGIC",
    "SnapshotReader",
    "save_oracle",
    "load_oracle",
    "save_sketches",
    "load_sketches",
    "snapshot_info",
]

Node = Hashable

#: Version-bearing magic line; bump the suffix on breaking layout changes.
SNAPSHOT_MAGIC = b"repro-snap/2\n"
_MAGIC_PREFIX = b"repro-snap/"

#: Section frame: name length (u16), then name, then payload length (u64)
#: and payload CRC32 (u32), all big endian.
_NAME_LEN = struct.Struct(">H")
_PAYLOAD_HEAD = struct.Struct(">QI")

#: One filled cell of an ``approx`` payload: u16 cell index, u8 ρ.  Each
#: node's pairs follow a u16 count of them.
_CELL = struct.Struct(">HB")
_COUNT = struct.Struct(">H")
_MAX_CELLS = 1 << 16

#: Nodes per data section.  Chunking keeps single reads bounded and lets
#: a reader materialise a snapshot incrementally.
DEFAULT_CHUNK = 4096

#: Payload kinds this build writes and reads.
KINDS = ("exact", "approx", "vhll")

_SNAPSHOT_BYTES = obs.gauge(
    "serve.snapshot_bytes", "Size of the last snapshot written or loaded."
)


def _check_label(label: object) -> object:
    """Node labels must survive a JSON round trip unchanged."""
    if isinstance(label, bool) or label is None:
        return label
    if isinstance(label, (str, int, float)):
        return label
    raise ValueError(
        f"unsupported node label {label!r} of type {type(label).__name__}; "
        "snapshot labels must be str, int, float, bool or None"
    )


def _dumps(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _write_sections(
    path: str,
    kind: str,
    meta: Dict[str, object],
    section_names: List[str],
    sections: Iterable[Tuple[str, bytes]],
) -> int:
    """Write a complete snapshot atomically; returns the byte size."""
    header = _dumps({"kind": kind, "meta": meta, "sections": section_names})
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(SNAPSHOT_MAGIC)
            _write_one(handle, "header", header)
            emitted = []
            for name, payload in sections:
                _write_one(handle, name, payload)
                emitted.append(name)
            if emitted != section_names:
                raise ValueError(
                    f"{path}: internal error: declared sections {section_names} "
                    f"!= emitted sections {emitted}"
                )
            size = handle.tell()
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    _SNAPSHOT_BYTES.set(size)
    return size


def _write_one(handle: io.BufferedWriter, name: str, payload: bytes) -> None:
    encoded = name.encode("ascii")
    handle.write(_NAME_LEN.pack(len(encoded)))
    handle.write(encoded)
    handle.write(_PAYLOAD_HEAD.pack(len(payload), zlib.crc32(payload)))
    handle.write(payload)


def _chunk_names(prefix: str, total: int, chunk: int) -> List[str]:
    count = (total + chunk - 1) // chunk
    return [f"{prefix}/{index}" for index in range(count)]


def _exact_sections(
    oracle: ExactInfluenceOracle, chunk: int
) -> Tuple[Dict[str, object], List[str], Iterator[Tuple[str, bytes]]]:
    keys = list(oracle.nodes())
    labels: List[object] = []
    index_of: Dict[object, int] = {}
    for key in keys:
        index_of[key] = len(labels)
        labels.append(_check_label(key))
    sets_as_indices: List[List[int]] = []
    for key in keys:  # O(Σ|σ(u)|)
        members = []
        for member in oracle.reachability_set(key):
            slot = index_of.get(member)
            if slot is None:
                slot = len(labels)
                index_of[member] = slot
                labels.append(_check_label(member))
            members.append(slot)
        members.sort()
        sets_as_indices.append(members)
    meta: Dict[str, object] = {
        "node_count": len(keys),
        "label_count": len(labels),
        "chunk": chunk,
    }
    names = _chunk_names("labels", len(labels), chunk) + _chunk_names(
        "sets", len(keys), chunk
    )

    def emit() -> Iterator[Tuple[str, bytes]]:
        for start in range(0, len(labels), chunk):
            yield (f"labels/{start // chunk}", _dumps(labels[start : start + chunk]))
        for start in range(0, len(keys), chunk):
            yield (f"sets/{start // chunk}", _dumps(sets_as_indices[start : start + chunk]))

    return meta, names, emit()


def _approx_sections(
    oracle: ApproxInfluenceOracle, chunk: int
) -> Tuple[Dict[str, object], List[str], Iterator[Tuple[str, bytes]]]:
    keys = list(oracle.nodes())
    num_cells = oracle.num_cells
    if num_cells > _MAX_CELLS:
        raise ValueError(
            f"num_cells={num_cells} does not fit the u16 cell index of the "
            f"approx layout (at most {_MAX_CELLS})"
        )
    meta: Dict[str, object] = {
        "node_count": len(keys),
        "num_cells": num_cells,
        "chunk": chunk,
    }
    names = _chunk_names("labels", len(keys), chunk) + _chunk_names(
        "cells", len(keys), chunk
    )

    def emit() -> Iterator[Tuple[str, bytes]]:
        for start in range(0, len(keys), chunk):
            yield (
                f"labels/{start // chunk}",
                _dumps([_check_label(key) for key in keys[start : start + chunk]]),
            )
        pack_count, pack_cell = _COUNT.pack, _CELL.pack
        for start in range(0, len(keys), chunk):  # O(Σ filled cells)
            block = bytearray()
            for key in keys[start : start + chunk]:
                filled = oracle.filled_cells(key)
                if len(filled) >= 1 << 16:
                    raise ValueError(
                        f"node {key!r} fills {len(filled)} cells; the approx "
                        "layout counts at most 65535 per node"
                    )
                block += pack_count(len(filled))
                for cell, value in filled:  # ρ ≤ 64: the oracle enforces it
                    block += pack_cell(cell, value)
            yield (f"cells/{start // chunk}", bytes(block))

    return meta, names, emit()


def save_oracle(
    path: str, oracle: InfluenceOracle, chunk: int = DEFAULT_CHUNK
) -> Dict[str, object]:
    """Write ``oracle`` to ``path`` as a ``repro-snap/2`` snapshot.

    Returns a small info dict (``kind``, ``nodes``, ``bytes``).  The write
    is atomic: the data goes to ``<path>.tmp`` first and is renamed into
    place, so concurrent readers of ``path`` see either the old or the
    new snapshot, never a torn one.
    """
    require_type(path, "path", str)
    require_int(chunk, "chunk")
    require_positive(chunk, "chunk")
    if isinstance(oracle, ExactInfluenceOracle):
        kind = "exact"
        meta, names, sections = _exact_sections(oracle, chunk)
    elif isinstance(oracle, ApproxInfluenceOracle):
        kind = "approx"
        meta, names, sections = _approx_sections(oracle, chunk)
    else:
        require_type(oracle, "oracle", InfluenceOracle)
        raise ValueError(
            f"cannot snapshot oracle of type {type(oracle).__name__}; "
            "supported: ExactInfluenceOracle, ApproxInfluenceOracle"
        )
    with obs.span("serve.snapshot_save", kind=kind):
        size = _write_sections(path, kind, meta, names, sections)
    return {"kind": kind, "nodes": meta["node_count"], "bytes": size}


def save_sketches(
    path: str,
    sketches: Dict[Node, VersionedHLL],
    chunk: int = DEFAULT_CHUNK,
) -> Dict[str, object]:
    """Write a ``node → VersionedHLL`` map as a ``vhll`` snapshot.

    All sketches must share one ``(precision, salt)`` configuration —
    the same precondition their merge operations enforce.
    """
    require_type(path, "path", str)
    require_type(sketches, "sketches", dict)
    require_int(chunk, "chunk")
    require_positive(chunk, "chunk")
    keys = list(sketches)
    precision: Optional[int] = None
    salt: Optional[int] = None
    for key in keys:
        sketch = sketches[key]
        require_type(sketch, f"sketches[{key!r}]", VersionedHLL)
        if precision is None:
            precision, salt = sketch.precision, sketch.salt
        elif (sketch.precision, sketch.salt) != (precision, salt):
            raise ValueError(
                "cannot snapshot sketches with mixed configs: "
                f"({precision}, {salt}) vs ({sketch.precision}, {sketch.salt})"
            )
    meta: Dict[str, object] = {
        "node_count": len(keys),
        "precision": precision,
        "salt": salt,
        "chunk": chunk,
    }
    names = _chunk_names("labels", len(keys), chunk) + _chunk_names(
        "sketches", len(keys), chunk
    )

    def emit() -> Iterator[Tuple[str, bytes]]:
        for start in range(0, len(keys), chunk):
            yield (
                f"labels/{start // chunk}",
                _dumps([_check_label(key) for key in keys[start : start + chunk]]),
            )
        for start in range(0, len(keys), chunk):
            cells = [sketches[key].filled_cells() for key in keys[start : start + chunk]]
            yield (f"sketches/{start // chunk}", _dumps(cells))

    with obs.span("serve.snapshot_save", kind="vhll"):
        size = _write_sections(path, "vhll", meta, names, emit())
    return {"kind": "vhll", "nodes": len(keys), "bytes": size}


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class SnapshotReader:
    """Lazy section access over one ``repro-snap/2`` file.

    Opening the reader validates the magic line, scans the section frames
    (seeking past payload bytes) and parses the ``header`` section; data
    payloads are read — and CRC-verified — only when :meth:`read_section`
    asks for them.  Use as a context manager to close the file handle.
    """

    def __init__(self, path: str) -> None:
        require_type(path, "path", str)
        self._path = path
        try:
            self._handle: Optional[io.BufferedReader] = open(path, "rb")
        except OSError as exc:
            raise ValueError(
                f"{path}: cannot read snapshot: {exc.strerror or exc}"
            ) from exc
        try:
            self._toc = self._scan()
            header = json.loads(self._read_payload("header").decode("utf-8"))
        except ValueError:
            self.close()
            raise
        except (KeyError, UnicodeDecodeError) as exc:
            self.close()
            raise ValueError(f"{path}: corrupt snapshot header: {exc}") from exc
        if not isinstance(header, dict) or "kind" not in header:
            self.close()
            raise ValueError(f"{path}: snapshot header is not an object with a 'kind'")
        self.kind: str = str(header["kind"])
        self.meta: Dict[str, object] = dict(header.get("meta", {}))
        declared = header.get("sections")
        if not isinstance(declared, list):
            self.close()
            raise ValueError(f"{path}: snapshot header lacks the section list")
        self.section_names: List[str] = [str(name) for name in declared]
        missing = [name for name in self.section_names if name not in self._toc]
        if missing:
            self.close()
            raise ValueError(
                f"{path}: truncated snapshot: declared section(s) "
                f"{', '.join(missing)} missing from the file"
            )

    @property
    def path(self) -> str:
        """The file this reader serves sections from."""
        return self._path

    def _scan(self) -> Dict[str, Tuple[int, int, int]]:
        """Build ``name → (payload offset, length, crc)`` without reading payloads."""
        handle = self._handle
        assert handle is not None
        magic = handle.read(len(SNAPSHOT_MAGIC))
        if not magic.startswith(_MAGIC_PREFIX):
            raise ValueError(f"{self._path}: not a repro-snap snapshot (bad magic)")
        if magic != SNAPSHOT_MAGIC:
            head = magic.split(b"\n", 1)[0].decode("ascii", "replace")
            raise ValueError(
                f"{self._path}: unsupported snapshot version {head!r}; "
                f"this build reads {SNAPSHOT_MAGIC[:-1].decode('ascii')!r}"
            )
        toc: Dict[str, Tuple[int, int, int]] = {}
        file_size = os.fstat(handle.fileno()).st_size
        while True:
            frame = handle.read(_NAME_LEN.size)
            if not frame:
                break
            if len(frame) < _NAME_LEN.size:
                raise ValueError(f"{self._path}: truncated snapshot (partial frame)")
            (name_length,) = _NAME_LEN.unpack(frame)
            name_bytes = handle.read(name_length)
            head = handle.read(_PAYLOAD_HEAD.size)
            if len(name_bytes) < name_length or len(head) < _PAYLOAD_HEAD.size:
                raise ValueError(f"{self._path}: truncated snapshot (partial frame)")
            length, crc = _PAYLOAD_HEAD.unpack(head)
            offset = handle.tell()
            if offset + length > file_size:
                raise ValueError(
                    f"{self._path}: truncated snapshot (section "
                    f"{name_bytes.decode('ascii', 'replace')!r} cut short)"
                )
            toc[name_bytes.decode("ascii")] = (offset, length, crc)
            handle.seek(offset + length)
        if "header" not in toc:
            raise ValueError(f"{self._path}: truncated snapshot (no header section)")
        return toc

    def _read_payload(self, name: str) -> bytes:
        entry = self._toc.get(name)
        if entry is None:
            raise ValueError(f"{self._path}: snapshot has no section {name!r}")
        handle = self._handle
        if handle is None:
            raise ValueError(f"{self._path}: snapshot reader is closed")
        offset, length, crc = entry
        handle.seek(offset)
        payload = handle.read(length)
        if len(payload) < length:
            raise ValueError(f"{self._path}: truncated snapshot (section {name!r} cut short)")
        if zlib.crc32(payload) != crc:
            raise ValueError(
                f"{self._path}: CRC mismatch in section {name!r} (file corrupted)"
            )
        return payload

    def read_section(self, name: str) -> bytes:
        """The raw payload of ``name``, CRC-verified on this read."""
        return self._read_payload(name)

    def read_json(self, name: str) -> object:
        """A JSON section, decoded."""
        payload = self._read_payload(name)
        try:
            return json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{self._path}: section {name!r} is not valid JSON: {exc}") from exc

    def chunks(self, prefix: str) -> Iterator[object]:
        """Decoded JSON payloads of ``prefix/0``, ``prefix/1``, … in order."""
        for name in self.section_names:
            if name.startswith(prefix + "/"):
                yield self.read_json(name)

    def verify(self) -> int:
        """CRC-check every declared section; returns the section count."""
        for name in self.section_names:
            self._read_payload(name)
        return len(self.section_names)

    def size_bytes(self) -> int:
        """Total snapshot size on disk."""
        return os.path.getsize(self._path)

    def close(self) -> None:
        """Release the underlying file handle."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _meta_int(reader: SnapshotReader, field: str) -> int:
    value = reader.meta.get(field)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(
            f"{reader.path}: snapshot meta field {field!r} must be a "
            f"non-negative integer, got {value!r}"
        )
    return value


def _load_labels(reader: SnapshotReader, expected: int) -> List[object]:
    labels: List[object] = []
    for block in reader.chunks("labels"):
        if not isinstance(block, list):
            raise ValueError(f"{reader.path}: labels section is not a JSON list")
        labels.extend(block)
    if len(labels) != expected:
        raise ValueError(
            f"{reader.path}: expected {expected} labels, found {len(labels)}"
        )
    return labels


def _load_exact(reader: SnapshotReader) -> ExactInfluenceOracle:
    node_count = _meta_int(reader, "node_count")
    label_count = _meta_int(reader, "label_count")
    labels = _load_labels(reader, label_count)
    sets: Dict[Node, frozenset] = {}
    cursor = 0
    for block in reader.chunks("sets"):  # O(Σ|σ(u)|)
        if not isinstance(block, list):
            raise ValueError(f"{reader.path}: sets section is not a JSON list")
        for members in block:
            if cursor >= node_count:
                raise ValueError(f"{reader.path}: more reachability sets than nodes")
            try:
                sets[labels[cursor]] = frozenset(labels[index] for index in members)
            except (IndexError, TypeError) as exc:
                raise ValueError(
                    f"{reader.path}: reachability set {cursor} references an "
                    f"unknown label: {exc}"
                ) from exc
            cursor += 1
    if cursor != node_count:
        raise ValueError(
            f"{reader.path}: expected {node_count} reachability sets, found {cursor}"
        )
    return ExactInfluenceOracle(sets)


def _load_approx(reader: SnapshotReader) -> ApproxInfluenceOracle:
    node_count = _meta_int(reader, "node_count")
    num_cells = _meta_int(reader, "num_cells")
    chunk = _meta_int(reader, "chunk")
    if num_cells <= 0:
        raise ValueError(f"{reader.path}: snapshot meta field 'num_cells' must be > 0")
    if chunk <= 0:
        raise ValueError(f"{reader.path}: snapshot meta field 'chunk' must be > 0")
    labels = _load_labels(reader, node_count)
    cells: Dict[Node, Dict[int, int]] = {}
    cursor = 0
    iter_cells = _CELL.iter_unpack
    unpack_count = _COUNT.unpack_from
    for name in reader.section_names:  # O(Σ filled cells)
        if not name.startswith("cells/"):
            continue
        block = reader.read_section(name)
        size = len(block)
        wanted = min(chunk, node_count - cursor)
        pos = 0
        for _ in range(wanted):
            if pos + _COUNT.size > size:
                raise ValueError(
                    f"{reader.path}: section {name!r} ends inside the cell count "
                    f"of node {cursor}"
                )
            (count,) = unpack_count(block, pos)
            pos += _COUNT.size
            end = pos + count * _CELL.size
            if end > size:
                raise ValueError(
                    f"{reader.path}: node {cursor} claims {count} cells, which "
                    f"overrun section {name!r} ({size} bytes)"
                )
            filled = dict(iter_cells(block[pos:end]))
            if len(filled) != count:
                raise ValueError(
                    f"{reader.path}: node {cursor} in section {name!r} lists a "
                    "cell more than once"
                )
            cells[labels[cursor]] = filled
            cursor += 1
            pos = end
        if pos != size:
            raise ValueError(
                f"{reader.path}: section {name!r} has {size - pos} leftover bytes "
                "after its last node"
            )
    if cursor != node_count:
        raise ValueError(
            f"{reader.path}: expected {node_count} cell maps, found {cursor}"
        )
    try:
        return ApproxInfluenceOracle.from_cells(cells, num_cells)
    except ValueError as exc:
        raise ValueError(f"{reader.path}: {exc}") from exc


def load_oracle(path: str) -> Union[ExactInfluenceOracle, ApproxInfluenceOracle]:
    """Reconstruct the oracle stored at ``path``.

    Sections are read chunk by chunk (the reader never buffers the whole
    file), and each section is CRC-verified as it streams in.
    """
    with SnapshotReader(path) as reader, obs.span("serve.snapshot_load", kind=reader.kind):
        if reader.kind == "exact":
            oracle: Union[ExactInfluenceOracle, ApproxInfluenceOracle] = _load_exact(reader)
        elif reader.kind == "approx":
            oracle = _load_approx(reader)
        else:
            raise ValueError(
                f"{path}: snapshot holds {reader.kind!r} data, not an oracle "
                "(use load_sketches for 'vhll' snapshots)"
            )
        _SNAPSHOT_BYTES.set(reader.size_bytes())
        return oracle


def load_sketches(path: str) -> Dict[Node, VersionedHLL]:
    """Reconstruct a ``vhll`` snapshot into a ``node → VersionedHLL`` map."""
    with SnapshotReader(path) as reader, obs.span("serve.snapshot_load", kind=reader.kind):
        if reader.kind != "vhll":
            raise ValueError(
                f"{path}: snapshot holds {reader.kind!r} data, not sketches "
                "(use load_oracle for oracle snapshots)"
            )
        node_count = _meta_int(reader, "node_count")
        precision = _meta_int(reader, "precision")
        salt = reader.meta.get("salt")
        if isinstance(salt, bool) or not isinstance(salt, int):
            raise ValueError(f"{path}: snapshot meta field 'salt' must be an integer")
        labels = _load_labels(reader, node_count)
        sketches: Dict[Node, VersionedHLL] = {}
        cursor = 0
        # O(n·cells) — one from_dict per stored sketch.
        for block in reader.chunks("sketches"):
            if not isinstance(block, list):
                raise ValueError(f"{path}: sketches section is not a JSON list")
            for cells in block:
                if cursor >= node_count:
                    raise ValueError(f"{path}: more sketches than nodes")
                try:
                    sketches[labels[cursor]] = VersionedHLL.from_filled_cells(
                        precision, salt, cells
                    )
                except (ValueError, TypeError) as exc:
                    raise ValueError(
                        f"{path}: sketch {cursor} is not a valid VersionedHLL "
                        f"payload: {exc}"
                    ) from exc
                cursor += 1
        if cursor != node_count:
            raise ValueError(f"{path}: expected {node_count} sketches, found {cursor}")
        return sketches


def snapshot_info(path: str) -> Dict[str, object]:
    """Header-only metadata of a snapshot (no data sections are read)."""
    with SnapshotReader(path) as reader:
        return {
            "path": path,
            "kind": reader.kind,
            "meta": dict(reader.meta),
            "sections": list(reader.section_names),
            "bytes": reader.size_bytes(),
        }
