"""The versioned (``repro-xp/1``) per-cell experiment result store.

A *run directory* holds one JSON document per executed cell plus a run
manifest::

    <run-dir>/
      run.json            # manifest: spec, totals, provenance
      cells/<key>.json    # one repro-xp/1 document per cell

Cell file names are the cell's parameter hash (:meth:`repro.xp.spec.Cell.key`),
which is what makes runs resumable (an existing file with a matching
code fingerprint is a finished cell) *and* cross-run comparable (the
same parameters hash to the same key in a prior run directory, so trend
deltas match cells without any name bookkeeping).

Every document carries full provenance — the machine fingerprint and
the code fingerprint of the ``repro`` sources that produced it
(:mod:`repro.utils.provenance`).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Mapping, Optional

from repro.utils.provenance import code_fingerprint, machine_fingerprint
from repro.utils.timer import wall_clock_unix

__all__ = [
    "XP_SCHEMA",
    "XP_SCHEMA_PREFIX",
    "ResultStore",
    "validate_cell_result",
    "cell_result_document",
]

#: Version marker of every persisted cell result.  Bump on breaking
#: field changes; readers refuse foreign versions with a one-line error.
XP_SCHEMA = "repro-xp/1"
XP_SCHEMA_PREFIX = "repro-xp/"

_REQUIRED_FIELDS = ("schema", "key", "experiment", "params", "rows", "duration_s")


def cell_result_document(
    key: str,
    experiment: str,
    params: Mapping[str, object],
    rows: List[Dict[str, object]],
    duration_s: float,
    obs: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble a ``repro-xp/1`` document for one executed cell."""
    return {
        "schema": XP_SCHEMA,
        "key": key,
        "experiment": experiment,
        "params": dict(params),
        "rows": [dict(row) for row in rows],
        "duration_s": float(duration_s),
        "obs": dict(obs) if obs is not None else None,
        "created_unix": wall_clock_unix(),
        "machine": machine_fingerprint(),
        "code_fingerprint": code_fingerprint(),
    }


def validate_cell_result(document: object) -> None:
    """Raise a one-line ``ValueError`` when ``document`` is malformed."""
    if not isinstance(document, dict):
        raise ValueError("cell result must be a JSON object")
    schema = document.get("schema")
    if not isinstance(schema, str) or not schema.startswith(XP_SCHEMA_PREFIX):
        raise ValueError(
            f"not an experiment cell result: missing/foreign schema marker "
            f"{schema!r} (expected {XP_SCHEMA!r})"
        )
    if schema != XP_SCHEMA:
        raise ValueError(
            f"unsupported cell schema {schema!r}; this build reads {XP_SCHEMA!r}"
        )
    for field in _REQUIRED_FIELDS:
        if field not in document:
            raise ValueError(f"cell result missing required field {field!r}")
    if not isinstance(document["params"], dict):
        raise ValueError("cell result field 'params' must be an object")
    if not isinstance(document["rows"], list) or not all(
        isinstance(row, dict) for row in document["rows"]
    ):
        raise ValueError("cell result field 'rows' must be a list of objects")
    duration = document["duration_s"]
    if isinstance(duration, bool) or not isinstance(duration, (int, float)) or duration < 0:
        raise ValueError(
            f"cell result field 'duration_s' must be a non-negative number, "
            f"got {duration!r}"
        )
    key = document["key"]
    if not isinstance(key, str) or not key:
        raise ValueError(f"cell result field 'key' must be a non-empty string, got {key!r}")


class ResultStore:
    """Filesystem-backed store of one run directory.

    Writes are atomic (temp file + rename), so a run killed mid-write
    never leaves a truncated cell behind — the resume pass either sees a
    complete document or nothing.
    """

    def __init__(self, root: str, create: bool = False) -> None:
        self.root = root
        self._cells_dir = os.path.join(root, "cells")
        if create:
            os.makedirs(self._cells_dir, exist_ok=True)
        elif not os.path.isdir(self._cells_dir):
            raise ValueError(
                f"{root}: not an experiment run directory (no cells/ inside; "
                f"create one with 'repro xp run --out {root} ...')"
            )

    # -- cells --------------------------------------------------------

    def _cell_path(self, key: str) -> str:
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"invalid cell key {key!r}")
        return os.path.join(self._cells_dir, f"{key}.json")

    def has(self, key: str) -> bool:
        """True when a completed result for ``key`` is persisted."""
        return os.path.isfile(self._cell_path(key))

    def fresh(self, key: str, fingerprint: Optional[str] = None) -> bool:
        """True when ``key`` is persisted *and* was produced by the same
        code (``fingerprint`` defaults to the current one).  A stale cell
        (parameters match, code changed) must be recomputed."""
        path = self._cell_path(key)
        if not os.path.isfile(path):
            return False
        try:
            document = self.load(key)
        except ValueError:
            return False  # unreadable/truncated: treat as missing
        expected = fingerprint if fingerprint is not None else code_fingerprint()
        return document.get("code_fingerprint") == expected

    def load(self, key: str) -> Dict[str, object]:
        """Read + validate one cell document (one-line ``ValueError`` naming
        the file for missing, truncated or foreign-schema documents)."""
        path = self._cell_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(
                f"{path}: cannot read cell result: {exc.strerror or exc}"
            ) from exc
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: truncated or invalid JSON: {exc}") from exc
        try:
            validate_cell_result(document)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        return document

    def save(self, document: Mapping[str, object]) -> str:
        """Validate and atomically persist one cell document."""
        validate_cell_result(document)
        key = str(document["key"])
        path = self._cell_path(key)
        temporary = f"{path}.tmp.{os.getpid()}"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temporary, path)
        return path

    def keys(self) -> List[str]:
        """Persisted cell keys, sorted."""
        try:
            names = os.listdir(self._cells_dir)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")] for name in names if name.endswith(".json")
        )

    def results(self) -> Iterator[Dict[str, object]]:
        """All persisted cell documents, in sorted key order."""
        for key in self.keys():
            yield self.load(key)

    # -- manifest -----------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "run.json")

    def write_manifest(self, manifest: Mapping[str, object]) -> None:
        document = dict(manifest)
        document.setdefault("schema", XP_SCHEMA)
        document.setdefault("machine", machine_fingerprint())
        document.setdefault("code_fingerprint", code_fingerprint())
        document["updated_unix"] = wall_clock_unix()
        temporary = f"{self.manifest_path}.tmp.{os.getpid()}"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temporary, self.manifest_path)

    def load_manifest(self) -> Optional[Dict[str, object]]:
        """The run manifest, or ``None`` for a store that has no (or a
        corrupt) one — cells remain readable either way."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return document if isinstance(document, dict) else None
