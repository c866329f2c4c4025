"""The rule catalogue of the repro linter.

Each rule guards an invariant of the reproduction that ordinary Python
tooling cannot see (see ``docs/static_analysis.md`` for the paper-side
rationale):

* **R001** — no wall-clock time or unseeded randomness inside the
  algorithm packages (``core``, ``sketch``, ``simulation``,
  ``baselines``).  Experiments must be bit-for-bit reproducible from a
  seed; stochastic components go through :mod:`repro.utils.rng`.
* **R003** — no in-place mutation of a sequence bound from a sort or
  loader result.  The one-pass algorithms assume time-sorted input;
  mutating a sorted sequence silently breaks Definition 2.
* **R004** — public functions in ``core`` and ``sketch`` carry complete
  type annotations, keeping the mypy gate meaningful.
* **R006** — no direct timing calls (``time.perf_counter()``,
  ``time.time()``, …) outside ``repro/utils/timer.py`` and
  ``repro/obs/``; all measurement flows through the instrumented layer
  so observability sees every clock read.

Rules are plain classes registered in :data:`REGISTRY`; adding a rule is
subclassing :class:`Rule` and decorating with :func:`register`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "select_rules",
    "expand_rule_selectors",
    "NoWallClockOrUnseededRandom",
    "NoMutationAfterSort",
    "PublicApiFullyAnnotated",
    "NoDirectTimingCalls",
]

ALGORITHM_SCOPES = frozenset(
    {"core", "sketch", "simulation", "baselines", "serve", "ingest"}
)
TYPED_SCOPES = frozenset({"core", "sketch", "serve", "ingest"})


class Rule:
    """Base class for lint rules.

    Attributes
    ----------
    rule_id:
        Stable identifier (``R001`` …) used in reports and suppressions.
    scopes:
        ``repro`` sub-packages the rule applies to, or ``None`` for all.
    """

    rule_id: str = "R000"
    name: str = "abstract-rule"
    description: str = ""
    scopes: Optional[frozenset] = None
    #: Project-scope rules run once per lint invocation over the whole
    #: :class:`~repro.lint.project.ProjectIndex` instead of per file; the
    #: engine dispatches them through ``check_project(index)``.
    project_scope: bool = False

    def check(self, ctx) -> list:
        """Return the rule's violations for one :class:`FileContext`."""
        raise NotImplementedError

    def violation(self, ctx, node: ast.AST, message: str):
        """Build a :class:`Violation` anchored at ``node``."""
        from repro.lint.engine import Violation

        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


REGISTRY: Dict[str, Rule] = {}


def register(cls):
    """Class decorator adding a rule (as a singleton instance) to the registry."""
    instance = cls()
    if instance.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {instance.rule_id}")
    REGISTRY[instance.rule_id] = instance
    return cls


def all_rules() -> list:
    """Every registered rule, ordered by id."""
    return [REGISTRY[key] for key in sorted(REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule; raises ``KeyError`` with the known ids on miss."""
    try:
        return REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known rules: {', '.join(sorted(REGISTRY))}"
        ) from None


def select_rules(ids) -> list:
    """The subset of the registry named by ``ids`` (ordered, validated)."""
    return [get_rule(rule_id) for rule_id in sorted(set(ids))]


def expand_rule_selectors(selectors) -> List[str]:
    """Rule ids matching a list of exact-id or prefix selectors.

    ``R201`` matches only itself; ``R2`` matches every registered rule
    whose id starts with ``R2``.  A selector matching nothing raises
    ``KeyError`` (the CLI maps that to a usage error), so typos never
    silently lint with an empty rule set.
    """
    matched: set = set()
    for selector in selectors:
        selector = selector.strip()
        if not selector:
            continue
        if selector in REGISTRY:
            matched.add(selector)
            continue
        prefixed = [rule_id for rule_id in REGISTRY if rule_id.startswith(selector)]
        if not prefixed:
            raise KeyError(
                f"selector {selector!r} matches no rule; known rules: "
                f"{', '.join(sorted(REGISTRY))}"
            )
        matched.update(prefixed)
    return sorted(matched)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _callee_name(call: ast.Call) -> Optional[str]:
    """Dotted name of a call's target, else ``None`` for dynamic calls."""
    return _dotted_name(call.func)


def _walk_functions(tree: ast.Module) -> Iterator:
    """Yield every (sync or async) function definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_public_entry_point(func) -> bool:
    """Public API functions plus ``__init__`` (the main constructor gate)."""
    name = func.name
    if name == "__init__":
        return True
    return not name.startswith("_")


# ----------------------------------------------------------------------
# R001 — determinism
# ----------------------------------------------------------------------


@register
class NoWallClockOrUnseededRandom(Rule):
    """Forbid wall-clock reads and unseeded module-level randomness."""

    rule_id = "R001"
    name = "no-wall-clock-or-unseeded-random"
    description = (
        "Algorithm code must not read the wall clock (time.time, datetime.now) "
        "or draw from unseeded module-level RNGs (random.*, argless "
        "np.random.*); use repro.utils.rng helpers so runs are reproducible."
    )
    scopes = ALGORITHM_SCOPES

    #: Calls that read the wall clock — non-deterministic across runs.
    WALL_CLOCK = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, ctx) -> list:
        violations = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node)
            if name is None:
                continue
            if name in self.WALL_CLOCK:
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"wall-clock call {name}() is non-deterministic; "
                        "pass times in explicitly or use utils.timer for benchmarks",
                    )
                )
            elif self._is_unseeded_random(name, node):
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"unseeded randomness {name}(...) breaks reproducibility; "
                        "use repro.utils.rng.resolve_rng / spawn_rng instead",
                    )
                )
        return violations

    @staticmethod
    def _is_unseeded_random(name: str, call: ast.Call) -> bool:
        has_args = bool(call.args or call.keywords)
        if name.startswith("random."):
            # random.Random(seed) constructs a seeded local generator and
            # is fine; everything else on the module draws from (or
            # reseeds) the hidden global state.
            return not (name == "random.Random" and has_args)
        if name.startswith(("np.random.", "numpy.random.")):
            # Seeded construction (np.random.default_rng(seed),
            # np.random.Generator(...), np.random.RandomState(seed)) is
            # deterministic; everything else on the module — and argless
            # constructors — draws from the unseeded global generator.
            short = name.rsplit(".", 1)[-1]
            if short in ("default_rng", "Generator", "RandomState"):
                return not has_args
            return True
        return False


# ----------------------------------------------------------------------
# R003 — sorted sequences stay immutable
# ----------------------------------------------------------------------


@register
class NoMutationAfterSort(Rule):
    """Flag in-place mutation of names bound from sort/loader results."""

    rule_id = "R003"
    name = "no-mutation-after-sort"
    description = (
        "A sequence bound from sorted(...) or a loader must not be mutated "
        "in place (.sort/.append/…, item assignment); the one-pass scans "
        "assume the time order fixed at construction."
    )
    scopes = None  # everywhere under src/repro

    MUTATORS = frozenset(
        {"sort", "append", "extend", "insert", "remove", "pop", "clear", "reverse"}
    )

    #: A call binds a "sorted sequence" when its callee matches one of
    #: these: the builtin sort, any loader (`load_*`), or the log's
    #: order-materialising helpers.
    PRODUCER_NAMES = frozenset({"sorted"})
    PRODUCER_PREFIXES = ("load_",)
    PRODUCER_ATTRS = frozenset({"reverse_time_order", "forward"})

    def check(self, ctx) -> list:
        violations = []
        module_tracked: Dict[str, int] = {}
        self._scan_body(ctx, ctx.tree.body, module_tracked, violations)
        return violations

    # -- producers ------------------------------------------------------
    def _is_producer(self, value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        name = _callee_name(value)
        if name is None:
            return False
        short = name.rsplit(".", 1)[-1]
        return (
            short in self.PRODUCER_NAMES
            or short in self.PRODUCER_ATTRS
            or any(short.startswith(prefix) for prefix in self.PRODUCER_PREFIXES)
        )

    # -- statement-ordered scan ----------------------------------------
    def _scan_body(self, ctx, body, tracked: Dict[str, int], violations: list) -> None:
        for stmt in body:
            self._scan_stmt(ctx, stmt, tracked, violations)

    def _scan_stmt(self, ctx, stmt, tracked: Dict[str, int], violations: list) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Fresh scope: parameters shadow, module bindings are visible.
            inner = dict(tracked)
            for arg in stmt.args.args + stmt.args.posonlyargs + stmt.args.kwonlyargs:
                inner.pop(arg.arg, None)
            self._scan_body(ctx, stmt.body, inner, violations)
            return
        if isinstance(stmt, ast.ClassDef):
            self._scan_body(ctx, stmt.body, dict(tracked), violations)
            return
        if isinstance(stmt, ast.Assign):
            self._check_expr(ctx, stmt.value, tracked, violations)
            for target in stmt.targets:
                self._rebind(target, stmt.value, tracked)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._check_expr(ctx, stmt.value, tracked, violations)
            self._rebind(stmt.target, stmt.value, tracked)
            return
        if isinstance(stmt, ast.AugAssign):
            # `log += [...]` mutates/rebinds; treat as a violation for
            # tracked names, then drop tracking.
            if isinstance(stmt.target, ast.Name) and stmt.target.id in tracked:
                violations.append(
                    self.violation(
                        ctx,
                        stmt,
                        f"augmented assignment mutates {stmt.target.id!r}, which was "
                        "bound from a sort/loader result",
                    )
                )
                tracked.pop(stmt.target.id, None)
            self._check_expr(ctx, stmt.value, tracked, violations)
            return
        # Generic statements: check contained expressions, recurse into
        # compound-statement bodies preserving statement order.
        for expr_field in ("value", "test", "iter"):
            value = getattr(stmt, expr_field, None)
            if isinstance(value, ast.expr):
                self._check_expr(ctx, value, tracked, violations)
        for body_field in ("body", "orelse", "finalbody"):
            body = getattr(stmt, body_field, None)
            if isinstance(body, list):
                self._scan_body(ctx, body, tracked, violations)
        for handler in getattr(stmt, "handlers", []) or []:
            self._scan_body(ctx, handler.body, tracked, violations)
        for item in getattr(stmt, "items", []) or []:  # with-statements
            self._check_expr(ctx, item.context_expr, tracked, violations)

    def _rebind(self, target: ast.AST, value: ast.AST, tracked: Dict[str, int]) -> None:
        if isinstance(target, ast.Name):
            if self._is_producer(value):
                tracked[target.id] = getattr(value, "lineno", 0)
            else:
                tracked.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._rebind(element, ast.Constant(value=None), tracked)

    def _check_expr(self, ctx, expr: ast.AST, tracked: Dict[str, int], violations: list) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in tracked
            ):
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"{func.value.id}.{func.attr}(...) mutates a sequence bound "
                        f"from a sort/loader result on line "
                        f"{tracked[func.value.id]}; build a new sequence instead",
                    )
                )


# ----------------------------------------------------------------------
# R006 — timing goes through utils.timer / obs
# ----------------------------------------------------------------------


#: ``time``-module attributes that read a clock for measurement.
TIMING_ATTRS = frozenset(
    {
        "perf_counter",
        "perf_counter_ns",
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Files outside ``repro.obs`` allowed to read the clock directly: the
#: timer the instrumented layer is built on.  Matched against normalised
#: path suffixes.
TIMING_EXEMPT_SUFFIXES = (
    "repro/utils/timer.py",
    "utils/timer.py",
)


def timing_exempt(path: str, subpackage: Optional[str]) -> bool:
    """True for files that *are* the instrumented timing layer."""
    if subpackage == "obs":
        return True
    normalized = path.replace("\\", "/")
    return normalized.endswith(TIMING_EXEMPT_SUFFIXES)


@register
class NoDirectTimingCalls(Rule):
    """Forbid direct clock reads outside utils.timer and repro.obs."""

    rule_id = "R006"
    name = "no-direct-timing-calls"
    description = (
        "Direct timing calls (time.perf_counter(), time.time(), …) outside "
        "repro/utils/timer.py and repro/obs/ bypass the instrumented layer; "
        "use utils.timer.Timer / time_call or an obs span or histogram."
    )
    scopes = None  # everywhere under src/repro

    def check(self, ctx) -> list:
        if timing_exempt(ctx.path, ctx.subpackage):
            return []
        # Local names bound from `from time import perf_counter [as p]`
        # so bare calls are caught too.
        local_timing: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and node.level == 0
            ):
                for alias in node.names:
                    if alias.name in TIMING_ATTRS:
                        local_timing[alias.asname or alias.name] = f"time.{alias.name}"
        violations = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node)
            if name is None:
                continue
            original = None
            if name.startswith("time.") and name[len("time."):] in TIMING_ATTRS:
                original = name
            elif name in local_timing:
                original = local_timing[name]
            if original is not None:
                violations.append(
                    self.violation(
                        ctx,
                        node,
                        f"direct timing call {original}() bypasses the instrumented "
                        "layer; use repro.utils.timer (Timer/time_call) or a "
                        "repro.obs span/histogram instead",
                    )
                )
        return violations


# ----------------------------------------------------------------------
# R004 — complete annotations on the public surface
# ----------------------------------------------------------------------


@register
class PublicApiFullyAnnotated(Rule):
    """Public functions in core/ and sketch/ must be fully annotated."""

    rule_id = "R004"
    name = "public-api-fully-annotated"
    description = (
        "Every public function (and __init__) in repro.core, repro.sketch, "
        "repro.serve and repro.ingest must annotate all parameters and its "
        "return type so the mypy gate covers the whole algorithmic surface."
    )
    scopes = TYPED_SCOPES

    def check(self, ctx) -> list:
        violations = []
        for func in _walk_functions(ctx.tree):
            if not _is_public_entry_point(func):
                continue
            missing = self._missing_annotations(func)
            if missing:
                violations.append(
                    self.violation(
                        ctx,
                        func,
                        f"{func.name}() is missing annotations for: "
                        f"{', '.join(missing)}",
                    )
                )
        return violations

    @staticmethod
    def _missing_annotations(func) -> list:
        args = func.args
        ordered = args.posonlyargs + args.args
        missing = [
            arg.arg
            for index, arg in enumerate(ordered)
            if arg.annotation is None
            and not (index == 0 and arg.arg in ("self", "cls"))
        ]
        missing.extend(
            arg.arg for arg in args.kwonlyargs if arg.annotation is None
        )
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append(f"*{star.arg}")
        if func.returns is None:
            missing.append("return")
        return missing
