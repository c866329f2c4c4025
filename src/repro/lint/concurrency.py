"""Concurrency lock model and rules R201, R204 and R205.

The serving layer made the reproduction genuinely concurrent — a
``ReadWriteLock``-guarded hot snapshot swap, a mutex-guarded LRU cache,
``ThreadingHTTPServer`` handler threads and per-family metric locks —
and none of the value-oriented rules (R0xx/R1xx) can see a data race.
This module adds the lock-discipline layer as file rules:

* a **lock model** shared by the three rules: which ``self``-attributes
  of a class are locks (``threading.Lock``/``RLock``/``Condition`` or
  the serving layer's ``ReadWriteLock``), which ``with`` statements
  acquire them (``with self._lock:``, ``with self._rw.read():`` /
  ``.write()``), which locks are *held* at every attribute access —
  including accesses in private helpers whose callers all hold a lock —
  and explicit ``# repro-lint: guarded-by=<lock_attr>`` field
  annotations on assignments in ``__init__`` or class-body annotations;
* **R201** guarded-field discipline, **R204** non-atomic
  read-modify-write, **R205** escaping lock-guarded mutable state.

Lock-order cycles and long lock holds are checked at run time instead,
by :mod:`repro.obs.locktrace` (``REPRO_DEBUG_LOCKS=1``); CI's
``lock-stress`` job fails on either.

Heuristics and escape hatches
-----------------------------
The model is conservative in both directions where it must be:

* fields that are never written outside ``__init__`` are treated as
  immutable-after-construction and exempt from guard inference;
* a field initialised from a same-module class that owns locks of its
  own (``self._cache = SpreadCache(...)``) delegates its thread safety
  to that class and is exempt (the delegate's methods are analysed on
  their own);
* bodies of functions nested inside methods are skipped — a closure
  runs at an unknown time under unknown locks;
* deliberate lock-free fast paths (double-checked locking, copy-on-
  write reads) are silenced per line with ``# repro-lint:
  disable=R201`` next to a comment explaining why they are safe.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import Rule, register

__all__ = [
    "LOCK_CONSTRUCTORS",
    "ClassLockModel",
    "build_class_models",
    "GuardedFieldDiscipline",
    "NonAtomicSharedUpdate",
    "EscapingGuardedState",
]

#: Constructor short names that create a lock object.  ``ReadWriteLock``
#: is the serving layer's reader/writer lock; its ``.read()`` /
#: ``.write()`` context managers acquire the same logical lock.
LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Condition", "ReadWriteLock"})

_GUARDED_BY_RE = re.compile(r"#\s*repro-lint:\s*guarded-by=([A-Za-z_][A-Za-z0-9_]*)")

#: Method calls that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Literal nodes whose value is a fresh mutable container.
_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)

#: Constructor short names that build a mutable container.
_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)


# ----------------------------------------------------------------------
# The lock model
# ----------------------------------------------------------------------


@dataclass
class FieldAccess:
    """One ``self.<attr>`` access with the locks held at that point."""

    attr: str
    method: str
    node: ast.AST
    held: FrozenSet[str]
    is_write: bool


@dataclass
class RmwEvent:
    """A read-modify-write of shared state (``self.x += 1``, check-then-act)."""

    attr: str
    method: str
    node: ast.AST
    held: FrozenSet[str]
    description: str


@dataclass
class EscapeEvent:
    """A bare ``return self.<attr>`` / ``yield self.<attr>``."""

    attr: str
    method: str
    node: ast.AST
    kind: str  # "return" | "yield"


@dataclass
class ClassLockModel:
    """Everything the concurrency rules need to know about one class."""

    node: ast.ClassDef
    lock_attrs: Set[str] = field(default_factory=set)
    #: Explicit ``guarded-by`` declarations: field → (lock attr, anchor).
    guarded_by: Dict[str, Tuple[str, ast.AST]] = field(default_factory=dict)
    accesses: List[FieldAccess] = field(default_factory=list)
    rmw_events: List[RmwEvent] = field(default_factory=list)
    escapes: List[EscapeEvent] = field(default_factory=list)
    #: Fields written (assigned, aug-assigned, item-stored or mutated via
    #: a mutator method) outside ``__init__``.
    written_fields: Set[str] = field(default_factory=set)
    #: Fields initialised to a fresh mutable container in ``__init__``.
    mutable_fields: Set[str] = field(default_factory=set)
    #: Fields holding an instance of a same-module class that owns locks
    #: — thread safety is delegated to that class.
    delegate_fields: Set[str] = field(default_factory=set)
    #: Locks guaranteed held on entry to each private helper method
    #: (the intersection over its intra-class call sites).
    entry_held: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def effective_held(self, access_method: str, held: FrozenSet[str]) -> FrozenSet[str]:
        """Locks held at an access: lexical ``with`` regions plus the
        locks every caller of the enclosing private helper holds."""
        return held | self.entry_held.get(access_method, frozenset())


def _attr_of_self(node: ast.AST) -> Optional[str]:
    """``X`` for a ``self.X`` attribute expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_expr_attr(expr: ast.AST, lock_attrs: Set[str]) -> Optional[str]:
    """The lock attribute a ``with``-item acquires, if any.

    Recognises ``self._lock`` and ``self._rw.read()`` / ``.write()``
    (both sides of a :class:`ReadWriteLock` map to the same lock).
    """
    target = expr
    if (
        isinstance(target, ast.Call)
        and isinstance(target.func, ast.Attribute)
        and target.func.attr in ("read", "write")
    ):
        target = target.func.value
    attr = _attr_of_self(target)
    if attr is not None and attr in lock_attrs:
        return attr
    return None


def _call_dotted(call: ast.Call) -> Optional[str]:
    parts: List[str] = []
    node: ast.AST = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_lock_constructor(value: ast.AST) -> bool:
    # ``lock if lock is not None else threading.Lock()`` (the shared
    # family-lock idiom) and ``lock or threading.Lock()`` count too.
    if isinstance(value, ast.IfExp):
        return _is_lock_constructor(value.body) or _is_lock_constructor(value.orelse)
    if isinstance(value, ast.BoolOp):
        return any(_is_lock_constructor(operand) for operand in value.values)
    if not isinstance(value, ast.Call):
        return False
    dotted = _call_dotted(value)
    if dotted is None:
        return False
    return dotted.rsplit(".", 1)[-1] in LOCK_CONSTRUCTORS


def _is_mutable_value(value: Optional[ast.AST]) -> bool:
    if value is None:
        return False
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        dotted = _call_dotted(value)
        if dotted is not None and dotted.rsplit(".", 1)[-1] in _MUTABLE_CALLS:
            return True
    return False


def _method_defs(cls_node: ast.ClassDef) -> List[ast.AST]:
    return [
        stmt
        for stmt in cls_node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _find_lock_attrs(cls_node: ast.ClassDef) -> Set[str]:
    """Self-attributes assigned from a lock constructor in any method."""
    locks: Set[str] = set()
    for method in _method_defs(cls_node):
        for node in ast.walk(method):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_lock_constructor(value):
                continue
            for target in targets:
                attr = _attr_of_self(target)
                if attr is not None:
                    locks.add(attr)
    return locks


class _MethodWalker:
    """Walks one method body tracking the set of locks lexically held."""

    def __init__(self, model: ClassLockModel, method_name: str) -> None:
        self.model = model
        self.method = method_name
        #: ``self.method(...)`` call sites: (callee, held-at-call).
        self.self_calls: List[Tuple[str, FrozenSet[str]]] = []

    def walk(self, method_node: ast.AST) -> None:
        for stmt in method_node.body:
            self._visit(stmt, frozenset())

    # -- dispatch -------------------------------------------------------
    def _visit(self, node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                attr = _lock_expr_attr(item.context_expr, self.model.lock_attrs)
                if attr is not None:
                    inner = inner | {attr}
                else:
                    self._visit(item.context_expr, held)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # a nested function runs later, under unknown locks
        if isinstance(node, ast.Attribute):
            self._record_attribute(node, held)
        elif isinstance(node, ast.Call):
            self._record_call(node, held)
        elif isinstance(node, ast.AugAssign):
            self._record_augassign(node, held)
        elif isinstance(node, ast.Assign):
            self._record_assign(node, held)
        elif isinstance(node, ast.If):
            self._record_check_then_act(node, held)
        elif isinstance(node, ast.Return):
            self._record_escape(node, node.value, "return", held)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            self._record_escape(node, node.value, "yield", held)
        elif isinstance(node, ast.Subscript):
            self._record_subscript(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    # -- recorders ------------------------------------------------------
    def _access(self, attr: str, node: ast.AST, held: FrozenSet[str], is_write: bool) -> None:
        self.model.accesses.append(
            FieldAccess(attr=attr, method=self.method, node=node, held=held, is_write=is_write)
        )
        if is_write and self.method != "__init__":
            self.model.written_fields.add(attr)

    def _record_attribute(self, node: ast.Attribute, held: FrozenSet[str]) -> None:
        attr = _attr_of_self(node)
        if attr is None or attr in self.model.lock_attrs:
            return
        self._access(attr, node, held, isinstance(node.ctx, (ast.Store, ast.Del)))

    def _record_subscript(self, node: ast.Subscript, held: FrozenSet[str]) -> None:
        if not isinstance(node.ctx, (ast.Store, ast.Del)):
            return
        attr = _attr_of_self(node.value)
        if attr is not None and self.method != "__init__":
            self.model.written_fields.add(attr)

    def _record_call(self, node: ast.Call, held: FrozenSet[str]) -> None:
        dotted = _call_dotted(node)
        if dotted is None:
            return
        parts = dotted.split(".")
        if parts[0] != "self" or len(parts) < 2:
            return
        if len(parts) == 2:
            self.self_calls.append((parts[1], held))
        # A mutator method on a field (``self._entries.clear()``) writes it.
        if (
            len(parts) == 3
            and parts[2] in MUTATOR_METHODS
            and parts[1] not in self.model.lock_attrs
            and self.method != "__init__"
        ):
            self.model.written_fields.add(parts[1])

    def _rmw(self, attr: str, node: ast.AST, held: FrozenSet[str], description: str) -> None:
        if self.method == "__init__" or attr in self.model.lock_attrs:
            return
        self.model.rmw_events.append(
            RmwEvent(attr=attr, method=self.method, node=node, held=held, description=description)
        )

    def _record_augassign(self, node: ast.AugAssign, held: FrozenSet[str]) -> None:
        target = node.target
        attr = _attr_of_self(target)
        if attr is None and isinstance(target, ast.Subscript):
            attr = _attr_of_self(target.value)
            if attr is not None:
                self._rmw(attr, node, held, f"augmented item assignment on self.{attr}")
                return
        if attr is not None:
            self._rmw(attr, node, held, f"self.{attr} {_op_symbol(node.op)}= ...")

    def _record_assign(self, node: ast.Assign, held: FrozenSet[str]) -> None:
        for target in node.targets:
            attr = _attr_of_self(target)
            if attr is None and isinstance(target, ast.Subscript):
                attr = _attr_of_self(target.value)
            if attr is None:
                continue
            if self._reads_field(node.value, attr):
                self._rmw(
                    attr, node, held, f"self.{attr} is read and written back in one statement"
                )

    def _record_check_then_act(self, node: ast.If, held: FrozenSet[str]) -> None:
        tested = {
            attr
            for sub in ast.walk(node.test)
            for attr in [_attr_of_self(sub)]
            if attr is not None and attr not in self.model.lock_attrs
        }
        if not tested:
            return
        for stmt in node.body:
            if not isinstance(stmt, (ast.Assign, ast.AugAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                attr = _attr_of_self(target)
                if attr is None and isinstance(target, ast.Subscript):
                    attr = _attr_of_self(target.value)
                if attr in tested:
                    self._rmw(
                        attr,
                        stmt,
                        held,
                        f"check-then-act: the test reads self.{attr} and the body "
                        "writes it",
                    )

    @staticmethod
    def _reads_field(expr: ast.AST, attr: str) -> bool:
        return any(
            _attr_of_self(sub) == attr and isinstance(sub.ctx, ast.Load)
            for sub in ast.walk(expr)
            if isinstance(sub, ast.Attribute)
        )

    def _record_escape(
        self, node: ast.AST, value: Optional[ast.AST], kind: str, held: FrozenSet[str]
    ) -> None:
        attr = _attr_of_self(value) if value is not None else None
        if attr is not None and attr not in self.model.lock_attrs:
            self.model.escapes.append(
                EscapeEvent(attr=attr, method=self.method, node=node, kind=kind)
            )


def _op_symbol(op: ast.AST) -> str:
    return {
        ast.Add: "+",
        ast.Sub: "-",
        ast.Mult: "*",
        ast.Div: "/",
        ast.FloorDiv: "//",
        ast.Mod: "%",
        ast.BitOr: "|",
        ast.BitAnd: "&",
        ast.BitXor: "^",
    }.get(type(op), "?")


def _collect_guarded_by(
    model: ClassLockModel, cls_node: ast.ClassDef, source_lines: Sequence[str]
) -> None:
    """``# repro-lint: guarded-by=<lock>`` on ``__init__`` assignments to
    ``self.<field>`` or on class-body ``field: T`` annotations."""

    def note(attr: str, anchor: ast.AST) -> None:
        lineno = getattr(anchor, "lineno", 0)
        if not 1 <= lineno <= len(source_lines):
            return
        match = _GUARDED_BY_RE.search(source_lines[lineno - 1])
        if match:
            model.guarded_by[attr] = (match.group(1), anchor)

    for stmt in cls_node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            note(stmt.target.id, stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                targets: List[ast.AST] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                for target in targets:
                    attr = _attr_of_self(target)
                    if attr is not None:
                        note(attr, node)


def _collect_init_fields(
    model: ClassLockModel, cls_node: ast.ClassDef, lock_owner_names: Set[str]
) -> None:
    """Mutable-container and delegated-lock fields from ``__init__``."""
    for method in _method_defs(cls_node):
        if method.name != "__init__":
            continue
        for node in ast.walk(method):
            targets = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            for target in targets:
                attr = _attr_of_self(target)
                if attr is None:
                    continue
                if _is_mutable_value(value):
                    model.mutable_fields.add(attr)
                if isinstance(value, ast.Call):
                    dotted = _call_dotted(value)
                    if dotted is not None and dotted.rsplit(".", 1)[-1] in lock_owner_names:
                        model.delegate_fields.add(attr)


def _compute_entry_held(model: ClassLockModel, call_sites: Dict[str, List[Tuple[str, FrozenSet[str]]]]) -> None:
    """Fixpoint: a private helper is entered holding the intersection of
    the locks held at every intra-class call site (callers' entry locks
    included, so chains of helpers resolve)."""
    private = {
        name
        for name in call_sites
        if name.startswith("_") and not name.startswith("__")
    }
    top = frozenset(model.lock_attrs)
    entry: Dict[str, FrozenSet[str]] = {name: top for name in private}
    for _ in range(len(private) + 1):
        changed = False
        for name in private:
            held_sets = [
                held | entry.get(caller, frozenset())
                for caller, held in call_sites[name]
            ]
            combined: FrozenSet[str] = held_sets[0]
            for held in held_sets[1:]:
                combined = combined & held
            if combined != entry[name]:
                entry[name] = combined
                changed = True
        if not changed:
            break
    model.entry_held = entry


def _base_names(cls_node: ast.ClassDef) -> List[str]:
    names: List[str] = []
    for base in cls_node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _inherited_lock_attrs(
    cls_node: ast.ClassDef, by_name: Dict[str, ast.ClassDef]
) -> Set[str]:
    """Own plus (transitively, same-module) base-class lock attributes.

    ``Counter.inc`` guards with the ``self._lock`` its ``Metric`` base
    creates; without walking bases the subclass would not look like a
    lock-owning class at all.
    """
    locks: Set[str] = set()
    stack = [cls_node]
    seen: Set[str] = set()
    while stack:
        current = stack.pop()
        if current.name in seen:
            continue
        seen.add(current.name)
        locks |= _find_lock_attrs(current)
        for base in _base_names(current):
            if base in by_name:
                stack.append(by_name[base])
    return locks


def build_class_models(
    tree: ast.Module, source: str
) -> List[ClassLockModel]:
    """Lock models for every lock-owning class in a parsed module."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    by_name = {cls.name: cls for cls in classes}
    lock_owner_names = {
        cls.name for cls in classes if _inherited_lock_attrs(cls, by_name)
    }
    source_lines = source.splitlines()
    models: List[ClassLockModel] = []
    for cls_node in classes:
        lock_attrs = _inherited_lock_attrs(cls_node, by_name)
        if not lock_attrs:
            continue
        model = ClassLockModel(node=cls_node, lock_attrs=lock_attrs)
        _collect_guarded_by(model, cls_node, source_lines)
        _collect_init_fields(model, cls_node, lock_owner_names)
        call_sites: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
        for method in _method_defs(cls_node):
            walker = _MethodWalker(model, method.name)
            walker.walk(method)
            for callee, held in walker.self_calls:
                call_sites.setdefault(callee, []).append((method.name, held))
        _compute_entry_held(model, call_sites)
        models.append(model)
    return models


# ----------------------------------------------------------------------
# R201 — guarded-field discipline (file rule)
# ----------------------------------------------------------------------


@register
class GuardedFieldDiscipline(Rule):
    """Fields guarded by a lock in one method must not go bare in another."""

    rule_id = "R201"
    name = "guarded-field-discipline"
    description = (
        "In a class that owns locks, a field accessed under a lock in one "
        "method and bare in another (or contradicting its explicit "
        "# repro-lint: guarded-by=<lock_attr> annotation) is a data race; "
        "hold the lock on every access or annotate the intended discipline."
    )
    scopes = None  # everywhere under src/repro

    def check(self, ctx) -> list:
        violations: list = []
        for model in build_class_models(ctx.tree, ctx.source):
            self._check_annotations(ctx, model, violations)
            self._check_inferred(ctx, model, violations)
        return violations

    # -- explicit guarded-by declarations -------------------------------
    def _check_annotations(self, ctx, model: ClassLockModel, violations: list) -> None:
        for attr, (lock, anchor) in sorted(model.guarded_by.items()):
            if lock not in model.lock_attrs:
                violations.append(
                    self.violation(
                        ctx,
                        anchor,
                        f"field {attr!r} declares guarded-by={lock} but "
                        f"{model.node.name} has no lock attribute self.{lock}",
                    )
                )
                continue
            for access in model.accesses:
                if access.attr != attr or access.method == "__init__":
                    continue
                held = model.effective_held(access.method, access.held)
                if lock not in held:
                    violations.append(
                        self.violation(
                            ctx,
                            access.node,
                            f"field {attr!r} is declared guarded-by={lock} but "
                            f"{access.method}() accesses it without holding "
                            f"self.{lock}",
                        )
                    )

    # -- inferred discipline --------------------------------------------
    def _check_inferred(self, ctx, model: ClassLockModel, violations: list) -> None:
        by_field: Dict[str, List[FieldAccess]] = {}
        for access in model.accesses:
            if access.method == "__init__":
                continue
            if access.attr in model.guarded_by or access.attr in model.delegate_fields:
                continue
            by_field.setdefault(access.attr, []).append(access)
        for attr, accesses in sorted(by_field.items()):
            if attr not in model.written_fields:
                continue  # immutable after __init__: publication-safe
            guarded = [
                a for a in accesses if model.effective_held(a.method, a.held)
            ]
            if not guarded:
                continue
            lock = self._dominant_lock(model, guarded)
            flagged: Set[Tuple[str, str]] = set()
            for access in accesses:
                if model.effective_held(access.method, access.held):
                    continue
                witness = next(
                    (g for g in guarded if g.method != access.method), None
                )
                if witness is None:
                    continue
                key = (attr, access.method)
                if key in flagged:
                    continue
                flagged.add(key)
                violations.append(
                    self.violation(
                        ctx,
                        access.node,
                        f"field {attr!r} is accessed under self.{lock} in "
                        f"{witness.method}() but without any lock in "
                        f"{access.method}(); guard it or annotate the field "
                        "with # repro-lint: guarded-by=<lock_attr>",
                    )
                )

    @staticmethod
    def _dominant_lock(model: ClassLockModel, guarded: List[FieldAccess]) -> str:
        counts: Dict[str, int] = {}
        for access in guarded:
            for lock in model.effective_held(access.method, access.held):
                counts[lock] = counts.get(lock, 0) + 1
        return max(sorted(counts), key=lambda lock: counts[lock])


# ----------------------------------------------------------------------
# R204 — non-atomic read-modify-write (file rule)
# ----------------------------------------------------------------------


@register
class NonAtomicSharedUpdate(Rule):
    """Read-modify-write on shared attributes must happen under a lock."""

    rule_id = "R204"
    name = "non-atomic-shared-update"
    description = (
        "In a class that owns locks, self.x += 1, self.x = f(self.x) and "
        "check-then-act updates of shared dicts outside any lock region "
        "lose updates under concurrency; perform the whole read-modify-"
        "write while holding the lock."
    )
    scopes = None  # everywhere under src/repro

    def check(self, ctx) -> list:
        violations: list = []
        for model in build_class_models(ctx.tree, ctx.source):
            for event in model.rmw_events:
                if event.attr in model.delegate_fields:
                    continue
                if model.effective_held(event.method, event.held):
                    continue
                violations.append(
                    self.violation(
                        ctx,
                        event.node,
                        f"non-atomic read-modify-write ({event.description}) in "
                        f"{event.method}() without holding any of the class's "
                        f"locks ({', '.join(sorted(model.lock_attrs))})",
                    )
                )
        return violations


# ----------------------------------------------------------------------
# R205 — escaping lock-guarded mutable state (file rule)
# ----------------------------------------------------------------------


@register
class EscapingGuardedState(Rule):
    """Lock-guarded mutable containers must not escape by reference."""

    rule_id = "R205"
    name = "escaping-guarded-state"
    description = (
        "Returning or yielding a reference to a lock-guarded mutable "
        "container hands callers unsynchronised access after the lock is "
        "released; return a copy or an immutable snapshot instead."
    )
    scopes = None  # everywhere under src/repro

    def check(self, ctx) -> list:
        violations: list = []
        for model in build_class_models(ctx.tree, ctx.source):
            guarded_mutable = self._guarded_mutable_fields(model)
            for escape in model.escapes:
                if escape.attr not in guarded_mutable:
                    continue
                violations.append(
                    self.violation(
                        ctx,
                        escape.node,
                        f"{escape.kind} of self.{escape.attr} leaks a reference "
                        f"to lock-guarded mutable state out of "
                        f"{escape.method}(); return a copy (dict(...), "
                        "list(...)) or an immutable snapshot",
                    )
                )
        return violations

    @staticmethod
    def _guarded_mutable_fields(model: ClassLockModel) -> Set[str]:
        guarded: Set[str] = {
            attr
            for attr, (lock, _anchor) in model.guarded_by.items()
            if lock in model.lock_attrs
        }
        for access in model.accesses:
            if access.method == "__init__":
                continue
            if model.effective_held(access.method, access.held):
                if access.attr in model.written_fields:
                    guarded.add(access.attr)
        return {
            attr
            for attr in guarded
            if attr in model.mutable_fields and attr not in model.delegate_fields
        }
