"""The lint engine: file walking, suppression parsing, rule dispatch.

The engine is deliberately small: it parses each file once with
:mod:`ast`, determines which ``repro`` sub-package the file belongs to
(rules restrict themselves to sub-packages via their ``scopes``
attribute), collects violations from every selected rule, and filters
them through the suppression comments.

Two rule kinds are dispatched:

* **file rules** (``project_scope = False``) see one
  :class:`FileContext` at a time;
* **project rules** (``project_scope = True``, R101/R104/R106) run once
  per invocation over a :class:`~repro.lint.project.ProjectIndex` built
  from every parsed file, after the per-file wave.  Their violations
  still honour the suppression comments of the file they anchor to.

Suppression syntax
------------------
``# repro-lint: disable=R001`` (comma-separated rule ids, or ``all``):

* on a line of its own → suppresses the listed rules for the whole file;
* trailing a statement → suppresses the listed rules on that line only.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.lint import concurrency  # noqa: F401 — registers R201, R204, R205
from repro.lint import rules_project  # noqa: F401 — registers R101, R104, R106
from repro.lint.project import ProjectIndex, collect_reference_identifiers
from repro.lint.rules import Rule, all_rules

__all__ = [
    "Violation",
    "FileContext",
    "LintEngine",
    "lint_paths",
    "lint_source",
    "lint_project_sources",
]

#: Sub-packages of ``repro`` that rule scopes refer to.
KNOWN_SUBPACKAGES = frozenset(
    {
        "core",
        "sketch",
        "simulation",
        "baselines",
        "datasets",
        "analysis",
        "utils",
        "lint",
        "obs",
        "serve",
    }
)

#: Directories next to ``src`` whose identifiers count as external
#: references for liveness rules (R104).
REFERENCE_ROOT_NAMES = ("tests", "examples")

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9,\s]+)")


@dataclass(frozen=True)
class Violation:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of the text report."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed file."""

    path: str
    source: str
    tree: ast.Module
    #: ``repro`` sub-package the file lives in (``"core"``, ``"sketch"``, …)
    #: or ``None`` when the file is outside the package — rules then apply
    #: unconditionally, which is what lint fixtures in tests rely on.
    subpackage: Optional[str] = None
    file_suppressions: set = field(default_factory=set)
    line_suppressions: dict = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, source: str, path: str = "<string>", subpackage: Optional[str] = None
    ) -> "FileContext":
        """Parse ``source`` and collect its suppression comments."""
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, source=source, tree=tree, subpackage=subpackage)
        ctx._collect_suppressions()
        return ctx

    def _collect_suppressions(self) -> None:
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if not match:
                continue
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if line.lstrip().startswith("#"):
                self.file_suppressions |= ids
            else:
                self.line_suppressions.setdefault(lineno, set()).update(ids)

    def is_suppressed(self, violation: Violation) -> bool:
        """True when a suppression comment silences ``violation``."""
        if "all" in self.file_suppressions or violation.rule_id in self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(violation.line)
        return bool(on_line) and ("all" in on_line or violation.rule_id in on_line)


def _infer_subpackage(path: Path) -> Optional[str]:
    """The ``repro`` sub-package ``path`` belongs to, if any.

    ``.../src/repro/core/exact.py`` → ``"core"``; a file directly under
    ``repro/`` maps to ``""`` (top level, matches no scoped rule); files
    outside any ``repro`` package map to ``None``.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            remainder = parts[i + 1 : -1]
            if remainder and remainder[0] in KNOWN_SUBPACKAGES:
                return remainder[0]
            return ""
    return None


class LintEngine:
    """Run a set of rules over files or in-memory source.

    Parameters
    ----------
    rules:
        The rules to dispatch (default: the full registry).
    reference_roots:
        Directories whose identifiers count as external references for
        liveness rules.  ``None`` (default) auto-detects ``tests``/
        ``examples`` next to the linted tree's ``src``;
        pass an explicit (possibly empty) sequence to override.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        reference_roots: Optional[Sequence] = None,
    ) -> None:
        self._rules: tuple = tuple(rules) if rules is not None else tuple(all_rules())
        self._reference_roots = reference_roots

    @property
    def rules(self) -> tuple:
        """The rules this engine dispatches to."""
        return self._rules

    @property
    def file_rules(self) -> tuple:
        return tuple(rule for rule in self._rules if not rule.project_scope)

    @property
    def project_rules(self) -> tuple:
        return tuple(rule for rule in self._rules if rule.project_scope)

    def lint_context(self, ctx: FileContext) -> list:
        """All unsuppressed file-rule violations for one parsed file."""
        violations: list = []
        for rule in self.file_rules:
            if ctx.subpackage is not None and rule.scopes is not None:
                if ctx.subpackage not in rule.scopes:
                    continue
            violations.extend(rule.check(ctx))
        return sorted(
            (v for v in violations if not ctx.is_suppressed(v)),
            key=lambda v: (v.line, v.col, v.rule_id),
        )

    @staticmethod
    def _parse_file(path: Path) -> FileContext:
        source = path.read_text(encoding="utf-8")
        return FileContext.from_source(
            source, path=str(path), subpackage=_infer_subpackage(path)
        )

    def lint_paths(self, paths: Iterable) -> tuple:
        """Lint files and directory trees; returns ``(violations, files_checked)``."""
        targets: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                targets.extend(sorted(path.rglob("*.py")))
            elif path.exists():
                targets.append(path)
            else:
                raise FileNotFoundError(f"no such file or directory: {path}")

        violations: list = []
        contexts: Dict[str, FileContext] = {}
        for target in targets:
            ctx = self._parse_file(target)
            contexts[ctx.path] = ctx
            violations.extend(self.lint_context(ctx))

        if self.project_rules and contexts:
            violations.extend(self._run_project_rules(contexts, targets))
        return violations, len(targets)

    def _run_project_rules(
        self, contexts: Mapping[str, FileContext], targets: Sequence[Path]
    ) -> list:
        reference_roots = self._resolve_reference_roots(targets)
        external = collect_reference_identifiers(reference_roots)
        index = ProjectIndex.from_contexts(contexts.values(), external)
        violations: list = []
        for rule in self.project_rules:
            for violation in rule.check_project(index):
                ctx = contexts.get(violation.path)
                if ctx is not None and ctx.is_suppressed(violation):
                    continue
                violations.append(violation)
        return violations

    def _resolve_reference_roots(self, targets: Sequence[Path]) -> List[Path]:
        if self._reference_roots is not None:
            return [Path(root) for root in self._reference_roots]
        roots: Set[Path] = set()
        for target in targets:
            for ancestor in target.resolve().parents:
                if ancestor.name == "src":
                    for name in REFERENCE_ROOT_NAMES:
                        candidate = ancestor.parent / name
                        if candidate.is_dir():
                            roots.add(candidate)
                    break
        return sorted(roots)


def lint_source(
    source: str,
    path: str = "<string>",
    subpackage: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> list:
    """Lint an in-memory snippet — the unit-test entry point.

    ``subpackage=None`` applies every selected rule unconditionally;
    pass e.g. ``subpackage="analysis"`` to exercise scope filtering.
    Project rules are exercised through :func:`lint_project_sources`.
    """
    engine = LintEngine(rules)
    ctx = FileContext.from_source(source, path=path, subpackage=subpackage)
    return engine.lint_context(ctx)


def lint_project_sources(
    sources: Mapping[str, str],
    rules: Optional[Sequence[Rule]] = None,
    external_identifiers: Iterable[str] = (),
) -> list:
    """Lint an in-memory multi-file project — the project-rule test entry.

    ``sources`` maps relative paths (``"pkg/a.py"``; a ``src/repro/...``
    prefix opts into sub-package scoping) to source text.  File rules run
    per module, then project rules over the combined index;
    ``external_identifiers`` plays the role of tests/examples
    references for R104.
    """
    engine = LintEngine(rules)
    contexts: Dict[str, FileContext] = {}
    violations: list = []
    for path, source in sources.items():
        ctx = FileContext.from_source(
            source, path=path, subpackage=_infer_subpackage(Path(path))
        )
        contexts[path] = ctx
        violations.extend(engine.lint_context(ctx))
    index = ProjectIndex.from_contexts(contexts.values(), set(external_identifiers))
    for rule in engine.project_rules:
        for violation in rule.check_project(index):
            ctx = contexts.get(violation.path)
            if ctx is not None and ctx.is_suppressed(violation):
                continue
            violations.append(violation)
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule_id))


def lint_paths(paths: Iterable, rules: Optional[Sequence[Rule]] = None) -> tuple:
    """Module-level convenience mirroring :meth:`LintEngine.lint_paths`."""
    return LintEngine(rules).lint_paths(paths)
