"""Repro-specific static analysis: ``python -m repro.lint [paths]``.

A custom AST linter guards invariants the paper's correctness rests on
but the Python type system never sees.  It runs per-file rules
(R001, R003, R004, R006), whole-program rules over a cross-module index
(R101, R104, R106, :mod:`repro.lint.rules_project`) and lock-discipline
rules over a per-class lock model (R201, R204, R205,
:mod:`repro.lint.concurrency`).  See
:mod:`repro.lint.rules` for the rule registry and
``docs/static_analysis.md`` for the rationale behind each rule.

The runtime layers live beside the code they guard: the ``@invariant``
contracts in :mod:`repro.utils.contracts` and the lock sanitizer in
:mod:`repro.obs.locktrace`.  Nothing under ``repro.core`` or
``repro.sketch`` imports this package, and importing the package loads
nothing: every part is imported from its submodule (``.engine``,
``.rules``, ``.cli``, ...).
"""
