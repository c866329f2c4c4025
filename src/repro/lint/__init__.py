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
without creating import cycles.  Importing the package loads nothing:
every layer is imported from its submodule (``repro.lint.contracts``,
``.alloctrace``, ``.locktrace``, ``.engine``, ``.rules``, ...), so
``import repro.core`` never pays for the static linter and
``python -m repro.lint.alloctrace`` runs its module exactly once.
"""
