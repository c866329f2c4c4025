"""Pinned digests of a catalog-scale ``ApproxIRS`` build.

The values were computed before the vHLL cells became a sparse map; they
pin the registers (and the full versioned cell lists the ``vhll``
snapshot kind serialises) bit for bit across any change to the sketch
layout or the scan driver.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.approx import ApproxIRS
from repro.datasets import load_dataset

REGISTERS_SHA256 = "0c82fdf014368bd1b11d5077b380eae48ed451a27947ac1f0ade2d561bda7cfb"
CELLS_SHA256 = "a29dbac9da144f3568fa6eb646fc90dd8e2143044f8910dd85a3db8cd0d154ac"


@pytest.fixture(scope="module")
def enron_index() -> ApproxIRS:
    log = load_dataset("enron-sim", rng=1)
    return ApproxIRS.from_log(log, log.time_span // 10, 9)


def test_enron_registers_digest(enron_index):
    digest = hashlib.sha256()
    for node in sorted(enron_index.nodes, key=repr):
        registers = ",".join(map(str, enron_index.registers(node)))
        digest.update(f"{node!r}:{registers}\n".encode())
    assert digest.hexdigest() == REGISTERS_SHA256


def test_enron_versioned_cells_digest(enron_index):
    digest = hashlib.sha256()
    for node in sorted(enron_index.nodes, key=repr):
        cells = json.dumps(enron_index.sketch(node).to_dict()["cells"])
        digest.update(f"{node!r}:{cells}\n".encode())
    assert digest.hexdigest() == CELLS_SHA256
