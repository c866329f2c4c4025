"""repro — a full reproduction of *Information Propagation in Interaction
Networks* (Rohit Kumar & Toon Calders, EDBT 2017).

The library studies potential information flow in **interaction networks**
(timestamped directed edges) through **information channels** — time-
respecting paths of bounded duration ω.  It provides:

* :mod:`repro.core` — the exact and sketch-based one-pass algorithms that
  compute every node's influence reachability set, the influence oracle,
  and greedy/CELF influence maximization;
* :mod:`repro.sketch` — HyperLogLog and the paper's versioned HyperLogLog;
* :mod:`repro.simulation` — the Time-Constrained Information Cascade model
  used to evaluate seed sets;
* :mod:`repro.baselines` — SKIM, ConTinEst, PageRank and degree heuristics;
* :mod:`repro.datasets` — synthetic analogues of the paper's six datasets;
* :mod:`repro.analysis` — the experiment harness behind every table and
  figure of the paper (see DESIGN.md / EXPERIMENTS.md).

Quickstart::

    from repro import InteractionLog, ExactIRS, greedy_top_k
    from repro.core.oracle import ExactInfluenceOracle

    log = InteractionLog([("a", "b", 1), ("b", "c", 2), ("a", "c", 5)])
    index = ExactIRS.from_log(log, window=3)
    print(index.reachability_set("a"))            # {'b', 'c'}
    oracle = ExactInfluenceOracle.from_index(index)
    print(greedy_top_k(oracle, k=1))              # ['a']
"""

from __future__ import annotations

import importlib

#: Each public name and the subpackage it lives in.  Resolved on first
#: access (PEP 562) so that importing a subpackage (``repro.lint``,
#: ``repro.serve``, ...) loads only what it needs, not the whole
#: algorithm layer.
_EXPORTS = {
    "Interaction": "repro.core",
    "InteractionLog": "repro.core",
    "ExactIRS": "repro.core",
    "ApproxIRS": "repro.core",
    "ExactInfluenceOracle": "repro.core",
    "ApproxInfluenceOracle": "repro.core",
    "greedy_top_k": "repro.core",
    "celf_top_k": "repro.core",
    "top_k_by_influence": "repro.core",
    "run_tcic": "repro.simulation",
    "estimate_spread": "repro.simulation",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> object:
    """Import a public name from its subpackage on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
