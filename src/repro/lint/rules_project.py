"""Cross-module rules R101–R105 over the :class:`ProjectIndex`.

These rules see the whole program, not one file (see
``docs/static_analysis.md`` for the paper-side rationale of each):

* **R101** — interprocedural parameter validation: a monitored
  parameter (window/precision/probability/…) of a *public* entry point
  must be validated through :mod:`repro.utils.validation` on every path
  to its use, following forwards across modules.  Generalises R002,
  which trusts any same-file forward.
* **R102** — temporal-order misuse: values originating from ``set()``,
  dict-view iteration or set comprehensions must not flow into the time
  argument of ``.process(...)`` — Algorithm 2 is only correct on
  strictly time-ordered input.
* **R103** — complexity budget: nested ``for`` loops in ``core``/
  ``sketch`` hot paths need an explicit ``# repro-lint: budget=O(…)``
  annotation acknowledging the cost (Lemma 3 territory).
* **R104** — dead exports: a name in ``__all__`` that no other module,
  test, benchmark or example references.
* **R105** — sketch merge compatibility: ``merge``/``merge_within``
  call sites where the receiver and argument sketches cannot be proven
  to share constructor configuration (precision/salt/seed/k — Lemma 2,
  §3.2 requires identical parameters for vHLL unions).
* **R106** — timing-API imports outside the instrumented layer:
  ``from time import perf_counter`` (possibly aliased) and
  ``import time as t`` rebind the clock under names R006's literal
  call matching cannot see; only ``repro/utils/timer.py`` and
  ``repro/obs/`` may bind the timing API.

R102 and R103 are per-file rules that live here because they belong to
the same analysis wave; R101/R104/R105 set ``project_scope`` and are
dispatched by the engine once per run with the full index.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    annotation_class_name,
    bind_arguments,
    mapping_value_class,
)
from repro.lint.rules import (
    ALGORITHM_SCOPES,
    TIMING_ATTRS,
    TYPED_SCOPES,
    Rule,
    _walk_functions,
    register,
    timing_exempt,
)

__all__ = [
    "ProjectRule",
    "InterproceduralParameterValidation",
    "TemporalOrderMisuse",
    "ComplexityBudget",
    "DeadExports",
    "SketchMergeCompatibility",
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
    unresolvable forward is treated optimistically (full coverage), the
    same stance R002 takes — builtin and external-library calls never
    count as forwards.  Recursion is cut off pessimistically (a cycle
    contributes nothing).
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
# R102 — temporal-order misuse
# ----------------------------------------------------------------------


@register
class TemporalOrderMisuse(Rule):
    """Unordered collections must not feed time-sorted APIs."""

    rule_id = "R102"
    name = "temporal-order-misuse"
    description = (
        "Values originating from set()/frozenset(), set literals or "
        "comprehensions, or dict .keys()/.values()/.items() iteration must "
        "not flow into the time argument of .process(...): the one-pass "
        "algorithms require strictly time-ordered input and silently compute "
        "garbage otherwise — sort explicitly first."
    )
    scopes = ALGORITHM_SCOPES

    #: Method names documented as requiring time-ordered feeding; the
    #: time stamp is the third positional argument or ``time=`` keyword.
    SINKS = frozenset({"process"})
    TIME_POSITION = 2

    UNORDERED_CALLS = frozenset({"set", "frozenset"})
    UNORDERED_VIEWS = frozenset({"keys", "values", "items"})

    def check(self, ctx) -> list:
        violations: list = []
        self._scan_body(ctx, ctx.tree.body, {}, violations)
        return violations

    # -- producers ------------------------------------------------------
    def _producer_of(self, expr: ast.AST, tainted: Dict[str, str]) -> Optional[str]:
        """Human-readable origin when ``expr`` yields unordered values."""
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension"
        if isinstance(expr, ast.Name):
            return tainted.get(expr.id)
        if isinstance(expr, ast.Call):
            dotted = _call_dotted_name(expr)
            short = dotted.rsplit(".", 1)[-1] if dotted else None
            if short in self.UNORDERED_CALLS:
                return f"{short}(...)"
            if short in self.UNORDERED_VIEWS:
                return f"dict .{short}() iteration"
        return None

    @staticmethod
    def _is_cleansing(expr: ast.AST) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        dotted = _call_dotted_name(expr)
        short = dotted.rsplit(".", 1)[-1] if dotted else None
        return short in ("sorted", "sort")

    # -- statement-ordered scan ----------------------------------------
    def _scan_body(self, ctx, body, tainted: Dict[str, str], violations: list) -> None:
        for stmt in body:
            self._scan_stmt(ctx, stmt, tainted, violations)

    def _scan_stmt(self, ctx, stmt, tainted: Dict[str, str], violations: list) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = dict(tainted)
            for arg in stmt.args.args + stmt.args.posonlyargs + stmt.args.kwonlyargs:
                inner.pop(arg.arg, None)
            self._scan_body(ctx, stmt.body, inner, violations)
            return
        if isinstance(stmt, ast.ClassDef):
            self._scan_body(ctx, stmt.body, dict(tainted), violations)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            if value is not None:
                self._check_expr(ctx, value, tainted, violations)
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                producer = None if self._is_cleansing(value) else self._producer_of(value, tainted)
                for target in targets:
                    self._retaint(target, producer, tainted)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr(ctx, stmt.iter, tainted, violations)
            producer = None if self._is_cleansing(stmt.iter) else self._producer_of(
                stmt.iter, tainted
            )
            self._retaint(stmt.target, producer, tainted)
            self._scan_body(ctx, stmt.body, tainted, violations)
            self._scan_body(ctx, stmt.orelse, tainted, violations)
            return
        for expr_field in ("value", "test"):
            value = getattr(stmt, expr_field, None)
            if isinstance(value, ast.expr):
                self._check_expr(ctx, value, tainted, violations)
        for body_field in ("body", "orelse", "finalbody"):
            nested = getattr(stmt, body_field, None)
            if isinstance(nested, list):
                self._scan_body(ctx, nested, tainted, violations)
        for handler in getattr(stmt, "handlers", []) or []:
            self._scan_body(ctx, handler.body, tainted, violations)
        for item in getattr(stmt, "items", []) or []:
            self._check_expr(ctx, item.context_expr, tainted, violations)

    def _retaint(
        self, target: ast.AST, producer: Optional[str], tainted: Dict[str, str]
    ) -> None:
        if isinstance(target, ast.Name):
            if producer is not None:
                tainted[target.id] = producer
            else:
                tainted.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._retaint(element, producer, tainted)

    # -- sinks ----------------------------------------------------------
    def _check_expr(self, ctx, expr: ast.AST, tainted: Dict[str, str], violations: list) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                inner = dict(tainted)
                for generator in node.generators:
                    producer = self._producer_of(generator.iter, inner)
                    if not self._is_cleansing(generator.iter):
                        self._retaint(generator.target, producer, inner)
                    else:
                        self._retaint(generator.target, None, inner)
                elements = (
                    [node.key, node.value]
                    if isinstance(node, ast.DictComp)
                    else [node.elt]
                )
                for element in elements:
                    self._sink_check(ctx, element, inner, violations)
                continue
            if isinstance(node, ast.Call):
                self._sink_call(ctx, node, tainted, violations)

    def _sink_check(self, ctx, expr: ast.AST, tainted: Dict[str, str], violations: list) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._sink_call(ctx, node, tainted, violations)

    def _sink_call(self, ctx, call: ast.Call, tainted: Dict[str, str], violations: list) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in self.SINKS):
            return
        time_expr: Optional[ast.AST] = None
        if len(call.args) > self.TIME_POSITION:
            time_expr = call.args[self.TIME_POSITION]
        for keyword in call.keywords:
            if keyword.arg == "time":
                time_expr = keyword.value
        if time_expr is None:
            return
        for node in ast.walk(time_expr):
            if isinstance(node, ast.Name) and node.id in tainted:
                violations.append(
                    self.violation(
                        ctx,
                        call,
                        f"time argument of .{func.attr}() uses {node.id!r}, which "
                        f"originates from {tainted[node.id]}: the one-pass scan "
                        "requires strictly time-ordered input — sort explicitly "
                        "(e.g. sorted(..., key=...)) before processing",
                    )
                )
                return


# ----------------------------------------------------------------------
# R103 — complexity budget
# ----------------------------------------------------------------------


@register
class ComplexityBudget(Rule):
    """Nested loops in hot paths need an explicit budget annotation."""

    rule_id = "R103"
    name = "complexity-budget"
    description = (
        "Nested for-loops in repro.core / repro.sketch (the per-interaction "
        "hot paths of Algorithms 2–3) must carry a '# repro-lint: "
        "budget=O(...)' annotation on (or right above) the outer loop, "
        "acknowledging the reviewed asymptotic cost."
    )
    scopes = TYPED_SCOPES

    BUDGET_RE = re.compile(r"#\s*repro-lint:\s*budget=(\S+)")

    def check(self, ctx) -> list:
        annotated = {
            lineno
            for lineno, line in enumerate(ctx.source.splitlines(), start=1)
            if self.BUDGET_RE.search(line)
        }
        violations: list = []
        for func in _walk_functions(ctx.tree):
            for loop in self._direct_loops(func.body):
                self._check_loop(ctx, loop, annotated, violations)
        return violations

    @classmethod
    def _direct_loops(cls, body) -> Iterable[ast.AST]:
        """Top-level loops of a body, not descending into nested defs."""
        for stmt in body:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield stmt
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field, None)
                if isinstance(nested, list):
                    yield from cls._direct_loops(nested)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from cls._direct_loops(handler.body)

    def _check_loop(self, ctx, loop, annotated: set, violations: list) -> None:
        inner = list(self._direct_loops(loop.body)) + list(
            self._direct_loops(loop.orelse)
        )
        if not inner:
            return
        if loop.lineno in annotated or (loop.lineno - 1) in annotated:
            return  # the budget covers the whole nest
        violations.append(
            self.violation(
                ctx,
                loop,
                "nested loops in a hot path without a declared complexity "
                "budget; annotate the outer loop with "
                "'# repro-lint: budget=O(...)' after reviewing the cost, or "
                "restructure the scan",
            )
        )


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
# R105 — sketch merge compatibility
# ----------------------------------------------------------------------


@register
class SketchMergeCompatibility(ProjectRule):
    """merge()/merge_within() receiver and argument must share config."""

    rule_id = "R105"
    name = "sketch-merge-compatibility"
    description = (
        "At every sketch merge/merge_within call site the receiver and "
        "argument must be provably built with identical constructor "
        "configuration (precision/salt/seed/k): Lemma 2 unions are only "
        "defined over sketches with equal parameters.  Provable means "
        "identical traced constructor arguments, or all constructions of "
        "that sketch class inside the enclosing class normalise to one "
        "configuration."
    )
    scopes = ALGORITHM_SCOPES

    CONFIG_PARAMS = ("precision", "salt", "seed", "k")
    MERGE_METHODS = frozenset({"merge", "merge_within"})

    def check_project(self, index: ProjectIndex) -> list:
        sketch_classes = self._sketch_classes(index)
        if not sketch_classes:
            return []
        violations = []
        pool_cache: Dict[Tuple[str, str], bool] = {}
        for module in sorted(index.modules.values(), key=lambda m: m.name):
            if not self.module_in_scope(module):
                continue
            for fn in _entry_points(module):
                for call in ast.walk(fn.node):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if not (
                        isinstance(func, ast.Attribute)
                        and func.attr in self.MERGE_METHODS
                        and call.args
                    ):
                        continue
                    self._check_site(
                        index, module, fn, call, sketch_classes, pool_cache, violations
                    )
        return violations

    def _sketch_classes(self, index: ProjectIndex) -> Dict[str, ClassInfo]:
        found: Dict[str, ClassInfo] = {}
        for module in index.modules.values():
            for cls_info in module.classes.values():
                init = cls_info.init
                if init is None:
                    continue
                if not self.MERGE_METHODS & set(cls_info.methods):
                    continue
                if any(p in self.CONFIG_PARAMS for p in init.params):
                    found[cls_info.name] = cls_info
        return found

    def _check_site(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        fn: FunctionInfo,
        call: ast.Call,
        sketch_classes: Dict[str, ClassInfo],
        pool_cache: Dict[Tuple[str, str], bool],
        violations: list,
    ) -> None:
        receiver = call.func.value
        argument = call.args[0]
        receiver_type = self._infer_type(index, module, fn, receiver)
        argument_type = self._infer_type(index, module, fn, argument)
        sketch_name = (
            receiver_type
            if receiver_type in sketch_classes
            else argument_type
            if argument_type in sketch_classes
            else None
        )
        if sketch_name is None:
            return
        sketch_cls = sketch_classes[sketch_name]
        method = call.func.attr
        receiver_cfg = self._config(index, module, fn, receiver, sketch_cls)
        argument_cfg = self._config(index, module, fn, argument, sketch_cls)
        config_names = "/".join(
            p for p in sketch_cls.init.params if p in self.CONFIG_PARAMS
        )
        if receiver_cfg is not None and argument_cfg is not None:
            if receiver_cfg == argument_cfg:
                return
            violations.append(
                self.violation_at(
                    module,
                    call,
                    f"{sketch_name}.{method}() joins sketches built with "
                    f"differing constructor configuration ({config_names}): "
                    f"{self._fmt(receiver_cfg)} vs {self._fmt(argument_cfg)} — "
                    "Lemma 2 unions require identical parameters",
                )
            )
            return
        if (
            fn.owner is not None
            and receiver_type == sketch_name
            and argument_type == sketch_name
        ):
            key = (fn.owner.qualname, sketch_cls.qualname)
            if key not in pool_cache:
                pool_cache[key] = self._class_pool_consistent(
                    index, fn.owner, sketch_cls
                )
            if pool_cache[key]:
                return
        violations.append(
            self.violation_at(
                module,
                call,
                f"{sketch_name}.{method}() call site cannot prove the receiver "
                f"and argument share constructor configuration ({config_names}); "
                "trace both to one construction site or gate on explicit "
                "compatibility (Lemma 2 requires identical parameters)",
            )
        )

    @staticmethod
    def _fmt(config: Dict[str, str]) -> str:
        return "(" + ", ".join(f"{k}={v}" for k, v in sorted(config.items())) + ")"

    # -- type inference -------------------------------------------------
    def _infer_type(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        fn: FunctionInfo,
        expr: ast.AST,
        depth: int = 0,
    ) -> Optional[str]:
        if depth > 6 or expr is None:
            return None
        if isinstance(expr, ast.Name):
            ann = self._param_annotation(fn, expr.id)
            if ann is not None:
                return annotation_class_name(ann)
            assigned = self._last_assignment(fn, expr.id)
            if assigned is not None:
                return self._infer_type(index, module, fn, assigned, depth + 1)
            return None
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and fn.owner is not None
            ):
                return annotation_class_name(fn.owner.attr_annotations.get(expr.attr))
            return None
        if isinstance(expr, ast.Subscript):
            return self._mapping_value_type(fn, expr.value)
        if isinstance(expr, ast.Call):
            dotted = _call_dotted_name(expr)
            if dotted is not None:
                resolved = index.resolve_call(module, dotted, fn.owner)
                if resolved is not None:
                    kind, target = resolved
                    if kind == "class":
                        return target.name
                    if kind == "function":
                        return annotation_class_name(target.node.returns)
            if isinstance(expr.func, ast.Attribute):
                attr = expr.func.attr
                if attr == "copy":
                    return self._infer_type(index, module, fn, expr.func.value, depth + 1)
                if attr in ("get", "setdefault", "pop"):
                    return self._mapping_value_type(fn, expr.func.value)
            return None
        return None

    @staticmethod
    def _param_annotation(fn: FunctionInfo, name: str) -> Optional[ast.AST]:
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg == name:
                return arg.annotation
        return None

    @staticmethod
    def _last_assignment(fn: FunctionInfo, name: str) -> Optional[ast.AST]:
        found: Optional[ast.AST] = None
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id == name:
                    found = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name) and node.target.id == name:
                    found = node.value
        return found

    def _mapping_value_type(self, fn: FunctionInfo, container: ast.AST) -> Optional[str]:
        if (
            isinstance(container, ast.Attribute)
            and isinstance(container.value, ast.Name)
            and container.value.id == "self"
            and fn.owner is not None
        ):
            return mapping_value_class(fn.owner.attr_annotations.get(container.attr))
        if isinstance(container, ast.Name):
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == container.id
                ):
                    return mapping_value_class(node.annotation)
        return None

    # -- configuration tracing ------------------------------------------
    def _config(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        fn: FunctionInfo,
        expr: ast.AST,
        sketch_cls: ClassInfo,
        depth: int = 0,
    ) -> Optional[Dict[str, str]]:
        if depth > 4 or expr is None:
            return None
        if isinstance(expr, ast.Call):
            dotted = _call_dotted_name(expr)
            if dotted is not None:
                resolved = index.resolve_call(module, dotted, fn.owner)
                if (
                    resolved is not None
                    and resolved[0] == "class"
                    and resolved[1] is sketch_cls
                ):
                    return self._normalize_construction(fn, expr, sketch_cls)
            if isinstance(expr.func, ast.Attribute) and expr.func.attr == "copy":
                return self._config(
                    index, module, fn, expr.func.value, sketch_cls, depth + 1
                )
            return None
        if isinstance(expr, ast.Name):
            assigned = self._last_assignment(fn, expr.id)
            if assigned is not None:
                return self._config(index, module, fn, assigned, sketch_cls, depth + 1)
        return None

    def _normalize_construction(
        self, fn: FunctionInfo, call: ast.Call, sketch_cls: ClassInfo
    ) -> Optional[Dict[str, str]]:
        init = sketch_cls.init
        binding = bind_arguments(init, call)
        if binding is None:
            return None
        defaults = init.param_defaults()
        config: Dict[str, str] = {}
        for param in init.params:
            if param not in self.CONFIG_PARAMS:
                continue
            expr = binding.get(param, defaults.get(param))
            if expr is None:
                return None
            token = self._token(expr, fn.owner)
            if token is None:
                return None
            config[param] = token
        return config

    @staticmethod
    def _token(expr: ast.AST, owner: Optional[ClassInfo]) -> Optional[str]:
        if isinstance(expr, ast.Constant):
            return f"const:{expr.value!r}"
        if isinstance(expr, ast.Name):
            return f"name:{expr.id}"
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            alias = owner.init_aliases.get(expr.attr) if owner is not None else None
            if alias is not None:
                return f"name:{alias}"
            return f"attr:self.{expr.attr}"
        if isinstance(expr, ast.Subscript):
            try:
                return "expr:" + ast.dump(expr)
            except Exception:  # pragma: no cover - dump never fails on ast
                return None
        return None

    def _class_pool_consistent(
        self, index: ProjectIndex, owner: ClassInfo, sketch_cls: ClassInfo
    ) -> bool:
        configs: List[Dict[str, str]] = []
        for method in owner.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _call_dotted_name(node)
                if dotted is None:
                    continue
                resolved = index.resolve_call(method.module, dotted, owner)
                if (
                    resolved is None
                    or resolved[0] != "class"
                    or resolved[1] is not sketch_cls
                ):
                    continue
                config = self._normalize_construction(method, node, sketch_cls)
                if config is None:
                    return False
                configs.append(config)
        if not configs:
            return False
        first = configs[0]
        return all(config == first for config in configs[1:])


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
