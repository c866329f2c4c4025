"""Cross-module rules R101, R104 and R106 over the :class:`ProjectIndex`.

These rules see the whole program, not one file (see
``docs/static_analysis.md`` for the paper-side rationale of each):

* **R101** — interprocedural parameter validation: a monitored
  parameter (window/precision/probability/…) of a *public* entry point
  must be validated through :mod:`repro.utils.validation` on every path
  to its use, following forwards across modules.
* **R104** — dead exports: a name in ``__all__`` that no other module,
  test or example references.
* **R106** — timing-API imports outside the instrumented layer:
  ``from time import perf_counter`` (possibly aliased) and
  ``import time as t`` rebind the clock under names R006's literal
  call matching cannot see; only ``repro/utils/timer.py`` and
  ``repro/obs/`` may bind the timing API.

All three set ``project_scope`` and are dispatched by the engine once
per run with the full index.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.project import FunctionInfo, ModuleInfo, ProjectIndex, bind_arguments
from repro.lint.rules import ALGORITHM_SCOPES, TIMING_ATTRS, Rule, register, timing_exempt

__all__ = [
    "ProjectRule",
    "InterproceduralParameterValidation",
    "DeadExports",
    "TimingImportsOutsideTimer",
]


class ProjectRule(Rule):
    """A rule that inspects the whole :class:`ProjectIndex` at once."""

    project_scope = True

    def check(self, ctx) -> list:
        """Project rules contribute nothing at the single-file stage."""
        return []

    def check_project(self, index: ProjectIndex) -> list:
        raise NotImplementedError

    def module_in_scope(self, module: ModuleInfo) -> bool:
        if self.scopes is None or module.subpackage is None:
            return True
        return module.subpackage in self.scopes

    def violation_at(self, module: ModuleInfo, node: ast.AST, message: str):
        from repro.lint.engine import Violation

        return Violation(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


def _call_dotted_name(call: ast.Call) -> Optional[str]:
    parts: List[str] = []
    node: ast.AST = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _entry_points(module: ModuleInfo) -> Iterable[FunctionInfo]:
    yield from module.functions.values()
    for cls_info in module.classes.values():
        yield from cls_info.methods.values()


# ----------------------------------------------------------------------
# R101 — interprocedural parameter validation
# ----------------------------------------------------------------------

#: Validation "facets": what a monitored parameter must be proven to be
#: before the algorithms may consume it.  Splitting validation into
#: facets is what makes the rule sensitive to *partial* validation —
#: ``require_int(window)`` alone leaves the range facet open, so
#: deleting the companion ``require_non_negative`` is caught.
_FULL_COVERAGE: FrozenSet[str] = frozenset({"int", "range", "domain", "istype"})

_INT_RANGE_PARAMS = frozenset({"window", "omega", "precision", "num_registers", "k"})
_INT_ONLY_PARAMS = frozenset({"time", "timestamp", "start_time", "end_time"})
_ISTYPE_PARAMS = frozenset({"log", "graph"})

_VALIDATOR_FACETS: Dict[str, FrozenSet[str]] = {
    "require_int": frozenset({"int"}),
    "require_power_of_two": frozenset({"int", "range"}),
    "require_positive": frozenset({"range"}),
    "require_non_negative": frozenset({"range"}),
    "require_at_least": frozenset({"range"}),
    "require_in_range": frozenset({"range", "domain"}),
    "require_probability": frozenset({"domain"}),
    "require_type": frozenset({"istype"}),
}

_FACET_HINTS = {
    "int": "an integer-type check (require_int / require_power_of_two)",
    "range": (
        "a range check (require_non_negative / require_positive / "
        "require_in_range / require_at_least)"
    ),
    "domain": "a domain check (require_probability / require_in_range)",
    "istype": "an instance check (require_type)",
}


def _needed_facets(param: str) -> Optional[FrozenSet[str]]:
    if param in _INT_RANGE_PARAMS:
        return frozenset({"int", "range"})
    if param in _INT_ONLY_PARAMS:
        return frozenset({"int"})
    if param == "probability" or param.endswith("_probability"):
        return frozenset({"domain"})
    if param in _ISTYPE_PARAMS:
        return frozenset({"istype"})
    return None


class _ValidationAnalysis:
    """Transitive validation-facet coverage of ``(function, parameter)``.

    ``coverage(fn, p)`` is the union of the facets established by direct
    ``require_*`` calls on ``p`` inside ``fn`` and the coverage of every
    parameter ``p`` is forwarded to in a *resolved* project callee.  An
    unresolvable forward is treated optimistically (full coverage) —
    builtin and external-library calls never count as forwards.
    Recursion is cut off pessimistically (a cycle contributes nothing).
    """

    def __init__(self, index: ProjectIndex) -> None:
        self._index = index
        self._memo: Dict[Tuple[str, str], Optional[FrozenSet[str]]] = {}

    def coverage(self, fn: FunctionInfo, param: str) -> FrozenSet[str]:
        key = (fn.qualname, param)
        if key in self._memo:
            cached = self._memo[key]
            return frozenset() if cached is None else cached
        self._memo[key] = None  # in-progress marker for cycles
        covered: Set[str] = set()
        unknown_forward = False
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_dotted_name(node)
            short = dotted.rsplit(".", 1)[-1] if dotted else None
            if short in _VALIDATOR_FACETS:
                first = node.args[0] if node.args else None
                if isinstance(first, ast.Name) and first.id == param:
                    covered |= _VALIDATOR_FACETS[short]
                continue
            bound_positions = [
                index
                for index, arg in enumerate(node.args)
                if isinstance(arg, ast.Name) and arg.id == param
            ]
            bound_keywords = [
                keyword
                for keyword in node.keywords
                if keyword.arg is not None
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == param
            ]
            if not bound_positions and not bound_keywords:
                continue
            if dotted is None:
                unknown_forward = True
                continue
            resolved = self._index.resolve_call(fn.module, dotted, fn.owner)
            if resolved is None:
                unknown_forward = True
                continue
            kind, target = resolved
            if kind in ("builtin", "external"):
                continue
            if kind == "class":
                target = target.init
                if target is None:
                    unknown_forward = True
                    continue
            binding = bind_arguments(target, node)
            if binding is None:
                unknown_forward = True
                continue
            for callee_param, expr in binding.items():
                if isinstance(expr, ast.Name) and expr.id == param:
                    covered |= self.coverage(target, callee_param)
        result = _FULL_COVERAGE if unknown_forward else frozenset(covered)
        self._memo[key] = result
        return result


@register
class InterproceduralParameterValidation(ProjectRule):
    """Monitored parameters validated on every path from public entry."""

    rule_id = "R101"
    name = "interprocedural-parameter-validation"
    description = (
        "Monitored algorithm parameters (window/omega, precision/"
        "num_registers, k, probability, time stamps, log/graph) of public "
        "entry points must be fully validated via repro.utils.validation — "
        "locally or in a resolved callee they are forwarded to; partial "
        "validation (e.g. a type check without the range check) is flagged."
    )
    scopes = ALGORITHM_SCOPES

    def check_project(self, index: ProjectIndex) -> list:
        analysis = _ValidationAnalysis(index)
        violations = []
        for module in sorted(index.modules.values(), key=lambda m: m.name):
            if not self.module_in_scope(module):
                continue
            for fn in _entry_points(module):
                if not fn.is_public:
                    continue
                display = fn.qualname[len(module.name) + 1 :] or fn.name
                for param in fn.params:
                    needed = _needed_facets(param)
                    if needed is None:
                        continue
                    missing = needed - analysis.coverage(fn, param)
                    if not missing:
                        continue
                    hints = " and ".join(_FACET_HINTS[f] for f in sorted(missing))
                    violations.append(
                        self.violation_at(
                            module,
                            fn.node,
                            f"parameter {param!r} of {display}() reaches its uses "
                            f"without {hints} on some call path; validate via "
                            "repro.utils.validation or forward to a project callee "
                            "that does",
                        )
                    )
        return violations


# ----------------------------------------------------------------------
# R104 — dead exports
# ----------------------------------------------------------------------


@register
class DeadExports(ProjectRule):
    """Public ``__all__`` names nothing else references."""

    rule_id = "R104"
    name = "dead-exports"
    description = (
        "A name listed in __all__ that no other module, test, benchmark or "
        "example references is a dead export: either dead code or missing "
        "coverage — remove it or reference it."
    )
    scopes = None

    def check_project(self, index: ProjectIndex) -> list:
        dead: List[Tuple[ModuleInfo, str, ast.AST]] = []
        for module in sorted(index.modules.values(), key=lambda m: m.name):
            for name, node in module.exports:
                if not self._is_live(index, module, name):
                    dead.append((module, name, node))
        by_name: Dict[str, List[Tuple[ModuleInfo, ast.AST]]] = {}
        for module, name, node in dead:
            by_name.setdefault(name, []).append((module, node))
        violations = []
        for name in sorted(by_name):
            sites = by_name[name]
            defining = [site for site in sites if self._defines(site[0], name)]
            for module, node in defining or sites:
                violations.append(
                    self.violation_at(
                        module,
                        node,
                        f"public export {name!r} is never referenced outside its "
                        "defining module (src, tests and examples "
                        "checked); drop it from __all__ or add a caller/test",
                    )
                )
        return violations

    @staticmethod
    def _defines(module: ModuleInfo, name: str) -> bool:
        if name in module.functions or name in module.classes:
            return True
        for stmt in module.tree.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return True
        return False

    @staticmethod
    def _is_live(index: ProjectIndex, module: ModuleInfo, name: str) -> bool:
        if name in index.external_identifiers:
            return True
        for other in index.modules.values():
            if other is module:
                continue
            if name in other.identifiers:
                return True
            # A re-export in a package __init__ keeps nothing alive by
            # itself; an import in a regular module is a real use.
            if not other.is_package_init and name in other.import_bindings:
                return True
        return False


# ----------------------------------------------------------------------
# R106 — timing-API imports outside the instrumented layer
# ----------------------------------------------------------------------


@register
class TimingImportsOutsideTimer(ProjectRule):
    """Flag bindings of the ``time`` measurement API outside timer/obs.

    R006 catches literal ``time.perf_counter()`` call sites; this rule
    closes the two evasions a per-file literal match cannot see —
    ``from time import perf_counter as tick`` and ``import time as t``
    — by inspecting every module's import bindings.
    """

    rule_id = "R106"
    name = "no-timing-imports-outside-timer"
    description = (
        "Binding the time-module measurement API (from time import "
        "perf_counter/…, import time as alias) outside repro/utils/timer.py "
        "and repro/obs/ lets clock reads evade R006; route timing through "
        "the instrumented layer instead."
    )
    scopes = None

    def check_project(self, index: ProjectIndex) -> list:
        violations = []
        for module in index.modules.values():
            if timing_exempt(module.path, module.subpackage):
                continue
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "time"
                    and node.level == 0
                ):
                    for alias in node.names:
                        if alias.name not in TIMING_ATTRS:
                            continue
                        bound = alias.asname or alias.name
                        violations.append(
                            self.violation_at(
                                module,
                                node,
                                f"'from time import {alias.name}' binds the timing "
                                f"API as {bound!r} outside the instrumented layer; "
                                "use repro.utils.timer or repro.obs instead",
                            )
                        )
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "time" and alias.asname is not None:
                            violations.append(
                                self.violation_at(
                                    module,
                                    node,
                                    f"'import time as {alias.asname}' hides clock "
                                    "reads from R006's literal matching; import "
                                    "repro.utils.timer or repro.obs instead",
                                )
                            )
        return violations
