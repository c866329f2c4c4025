"""Repro-specific static analysis and runtime contracts.

Two complementary layers guard the invariants the paper's correctness
rests on but the Python type system never sees:

* a custom AST linter (``python -m repro.lint``) with repro-specific
  rules — see :mod:`repro.lint.rules` for the rule catalogue and
  ``docs/static_analysis.md`` for the rationale behind each rule;
* a runtime contract layer (:mod:`repro.lint.contracts`) whose
  ``@invariant`` decorator self-checks the λ-map and vHLL dominance
  invariants on every update when ``REPRO_DEBUG_CONTRACTS=1`` and is a
  zero-cost identity otherwise;
* a runtime lock sanitizer (:mod:`repro.lint.locktrace`) that traces
  lock acquisition order and hold times when ``REPRO_DEBUG_LOCKS=1`` —
  the dynamic counterpart of the static concurrency rules R201–R205 in
  :mod:`repro.lint.concurrency` — and patches nothing otherwise;
* a runtime allocation sanitizer (:mod:`repro.lint.alloctrace`) that
  measures per-call and per-site allocations in hot regions when
  ``REPRO_DEBUG_ALLOC=1`` — the dynamic counterpart of the hot-path
  performance rules R301–R305 in :mod:`repro.lint.hotpath` — and whose
  ``@hotpath``/``@coldpath`` decorators double as the static pass's
  hot-region seed and boundary marks.

This package deliberately depends on nothing outside the standard
library so that the algorithm modules can import the contract decorators
without creating import cycles.  Importing it loads only the runtime
layers; the static linter lives in its submodules (``repro.lint.engine``,
``.rules``, ``.project``, ``.baseline``, ``.sarif``, ``.reporting``) and
is imported from there, so ``import repro.core`` never pays for it.
"""

from __future__ import annotations

# NOTE: the @hotpath/@coldpath decorators are imported from
# repro.lint.alloctrace directly (like @invariant from .contracts) —
# re-exporting them here would shadow the repro.lint.hotpath submodule.
from repro.lint.alloctrace import ALLOC_ENV, allocs_enabled
from repro.lint.contracts import (
    CONTRACTS_ENV,
    ContractViolation,
    contracts_enabled,
    invariant,
)
from repro.lint.locktrace import LOCKS_ENV, locks_enabled

__all__ = [
    "ALLOC_ENV",
    "CONTRACTS_ENV",
    "ContractViolation",
    "LOCKS_ENV",
    "allocs_enabled",
    "contracts_enabled",
    "invariant",
    "locks_enabled",
]
