"""Concurrency lock model and rules R201–R205.

The serving layer made the reproduction genuinely concurrent — a
``ReadWriteLock``-guarded hot snapshot swap, a mutex-guarded LRU cache,
``ThreadingHTTPServer`` handler threads and per-family metric locks —
and none of the value-oriented rules (R0xx/R1xx) can see a data race.
This module adds the lock-discipline layer, in the engine's existing
two-tier shape:

* a **lock model** shared by all five rules: which ``self``-attributes
  of a class are locks (``threading.Lock``/``RLock``/``Condition`` or
  the serving layer's ``ReadWriteLock``), which ``with`` statements
  acquire them (``with self._lock:``, ``with self._rw.read():`` /
  ``.write()``), which locks are *held* at every attribute access —
  including accesses in private helpers whose callers all hold a lock —
  and explicit ``# repro-lint: guarded-by=<lock_attr>`` field
  annotations on assignments in ``__init__`` or class-body annotations;
* **file rules** (run per file, parallel-safe): **R201** guarded-field
  discipline, **R204** non-atomic read-modify-write, **R205** escaping
  lock-guarded mutable state;
* **project rules** (run once over the :class:`ProjectIndex`): **R202**
  lock-order inversion across the call graph (ABBA cycles), **R203**
  blocking calls — I/O, ``time.sleep``, ``Thread.join``, snapshot
  load/save — made (transitively) while a lock is held.

Heuristics and escape hatches
-----------------------------
The model is conservative in both directions where it must be:

* fields that are never written outside ``__init__`` are treated as
  immutable-after-construction and exempt from guard inference;
* a field initialised from a same-module class that owns locks of its
  own (``self._cache = SpreadCache(...)``) delegates its thread safety
  to that class and is exempt (the delegate's methods are analysed on
  their own, and cross-object calls still feed R202/R203);
* bodies of functions nested inside methods are skipped — a closure
  runs at an unknown time under unknown locks;
* deliberate lock-free fast paths (double-checked locking, copy-on-
  write reads) are silenced per line with ``# repro-lint:
  disable=R201`` next to a comment explaining why they are safe.

The runtime counterpart of this static pass is
:mod:`repro.obs.locktrace` (``REPRO_DEBUG_LOCKS=1``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

from repro.lint.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    annotation_class_name,
)
from repro.lint.rules import Rule, register

__all__ = [
    "LOCK_CONSTRUCTORS",
    "ClassLockModel",
    "build_class_models",
    "GuardedFieldDiscipline",
    "LockOrderInversion",
    "BlockingCallUnderLock",
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


def _expr_dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_dotted(call: ast.Call) -> Optional[str]:
    return _expr_dotted(call.func)


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


# ----------------------------------------------------------------------
# Project-wide lock analysis (shared by R202 / R203)
# ----------------------------------------------------------------------


#: Dotted-name suffixes (after the last ``.``) of calls that block:
#: sleeps, file/socket I/O, snapshot (de)serialisation, HTTP dispatch.
BLOCKING_CALL_NAMES = frozenset(
    {
        "sleep",
        "urlopen",
        "open",
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "load_oracle",
        "save_oracle",
        "serve_forever",
        "handle_request",
        "check_call",
        "check_output",
        "communicate",
    }
)


@dataclass
class _Acquire:
    key: str
    held: FrozenSet[str]
    node: ast.AST


@dataclass
class _CallSite:
    dotted: str
    held: FrozenSet[str]
    node: ast.AST


@dataclass
class _BlockingOp:
    description: str
    held: FrozenSet[str]
    node: ast.AST


@dataclass
class _FunctionFacts:
    fn: FunctionInfo
    acquires: List[_Acquire] = field(default_factory=list)
    calls: List[_CallSite] = field(default_factory=list)
    blocking: List[_BlockingOp] = field(default_factory=list)


class _ProjectLockWalker:
    """Per-function walker resolving lock keys project-wide.

    Lock identity keys: ``Class.qualname + "." + attr`` for self-attribute
    locks (every instance of the class shares one key — the standard
    over-approximation for ordering discipline), ``fn.qualname + "." +
    name`` for function-local locks, ``module.name + "." + name`` for
    module-level locks.
    """

    def __init__(self, analysis: "_ProjectLockAnalysis", fn: FunctionInfo) -> None:
        self.analysis = analysis
        self.fn = fn
        self.facts = _FunctionFacts(fn)
        self.local_locks: Dict[str, str] = {}
        self.thread_names: Set[str] = set()
        self.thread_collections: Set[str] = set()
        self._prescan(fn.node)

    # -- lock/thread name discovery -------------------------------------
    def _prescan(self, fn_node: ast.AST) -> None:
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if _is_lock_constructor(value):
                    self.local_locks[target.id] = f"{self.fn.qualname}.{target.id}"
                elif self._is_thread_ctor(value):
                    self.thread_names.add(target.id)
                elif self._contains_thread_ctor(value):
                    self.thread_collections.add(target.id)
        # ``for t in pool:`` over a collection of threads taints ``t``.
        for node in ast.walk(fn_node):
            if (
                isinstance(node, (ast.For, ast.AsyncFor))
                and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Name)
                and node.iter.id in self.thread_collections
            ):
                self.thread_names.add(node.target.id)

    @staticmethod
    def _is_thread_ctor(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        dotted = _call_dotted(value)
        return dotted is not None and dotted.rsplit(".", 1)[-1] == "Thread"

    @classmethod
    def _contains_thread_ctor(cls, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Tuple)):
            return any(cls._is_thread_ctor(e) for e in value.elts)
        if isinstance(value, ast.ListComp):
            return cls._is_thread_ctor(value.elt)
        return False

    # -- lock-key resolution --------------------------------------------
    def _lock_key(self, expr: ast.AST) -> Optional[str]:
        target = expr
        if (
            isinstance(target, ast.Call)
            and isinstance(target.func, ast.Attribute)
            and target.func.attr in ("read", "write")
        ):
            target = target.func.value
        attr = _attr_of_self(target)
        if attr is not None:
            owner = self.fn.owner
            if owner is not None:
                return self.analysis.class_locks.get(owner.qualname, {}).get(attr)
            return None
        if isinstance(target, ast.Name):
            if target.id in self.local_locks:
                return self.local_locks[target.id]
            module_key = f"{self.fn.module.name}.{target.id}"
            if module_key in self.analysis.module_locks:
                return module_key
        return None

    # -- walk -----------------------------------------------------------
    def walk(self) -> _FunctionFacts:
        for stmt in self.fn.node.body:
            self._visit(stmt, frozenset())
        return self.facts

    def _visit(self, node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                key = self._lock_key(item.context_expr)
                if key is not None:
                    self.facts.acquires.append(
                        _Acquire(key=key, held=inner, node=item.context_expr)
                    )
                    inner = inner | {key}
                else:
                    self._visit(item.context_expr, held)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # closures run later, under unknown locks
        if isinstance(node, ast.Call):
            self._record_call(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _record_call(self, call: ast.Call, held: FrozenSet[str]) -> None:
        dotted = _call_dotted(call)
        if dotted is None:
            return
        description = self._blocking_description(call, dotted, held)
        if description is not None:
            self.facts.blocking.append(
                _BlockingOp(description=description, held=held, node=call)
            )
            return
        self.facts.calls.append(_CallSite(dotted=dotted, held=held, node=call))

    def _blocking_description(
        self, call: ast.Call, dotted: str, held: FrozenSet[str]
    ) -> Optional[str]:
        parts = dotted.split(".")
        short = parts[-1]
        if short == "sleep":
            if dotted == "time.sleep" or self.fn.module.imports.get("sleep") == "time.sleep":
                return "time.sleep()"
            return None
        if short == "join":
            receiver = parts[0] if len(parts) == 2 else None
            if receiver is not None and receiver in self.thread_names:
                return f"{receiver}.join() (Thread.join)"
            return None
        if short == "wait":
            # ``cond.wait()`` on the very lock being held releases it
            # while waiting — the one legitimate blocking-under-lock.
            if isinstance(call.func, ast.Attribute):
                key = self._lock_key(call.func.value)
                if key is not None and key in held:
                    return None
            if len(parts) >= 2:
                return f"{dotted}()"
            return None
        if short in BLOCKING_CALL_NAMES:
            if short == "open" and dotted != "open":
                return None  # only the builtin, not arbitrary ``x.open``
            return f"{dotted}()"
        return None


class _ProjectLockAnalysis:
    """Acquisition graph, transitive lock/blocking summaries, edge sites."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: class qualname → {lock attr → canonical lock key}; inherited
        #: locks key on the *defining* class, so ``Counter._lock`` and
        #: ``Gauge._lock`` both canonicalise to ``Metric._lock``.
        self.class_locks: Dict[str, Dict[str, str]] = {}
        self.attr_classes: Dict[str, Dict[str, ClassInfo]] = {}
        self.module_locks: Set[str] = set()
        self.facts: Dict[str, _FunctionFacts] = {}
        self._collect_classes()
        self._collect_module_locks()
        for fn in index.all_functions():
            self.facts[fn.qualname] = _ProjectLockWalker(self, fn).walk()
        self.acquired_within = self._fixpoint_acquired()
        self.blocking_within = self._fixpoint_blocking()

    # -- collection -----------------------------------------------------
    def _collect_classes(self) -> None:
        for module in self.index.modules.values():
            for cls_info in module.classes.values():
                lock_keys = self._lock_keys_of(cls_info)
                if lock_keys:
                    self.class_locks[cls_info.qualname] = lock_keys
                self.attr_classes[cls_info.qualname] = self._attr_classes_of(
                    module, cls_info
                )

    def _lock_keys_of(self, cls_info: ClassInfo) -> Dict[str, str]:
        """Lock attrs visible on ``cls_info``, keyed by defining class."""
        keys: Dict[str, str] = {}
        stack = [cls_info]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            for attr in _find_lock_attrs(current.node):
                # Nearest definition in the walk order wins; an attr
                # re-created by a subclass keys on the subclass.
                keys.setdefault(attr, f"{current.qualname}.{attr}")
            for base in current.node.bases:
                dotted = _expr_dotted(base)
                if dotted is None:
                    continue
                resolved = self.index.resolve_call(current.module, dotted, None)
                if resolved is not None and resolved[0] == "class":
                    stack.append(resolved[1])  # type: ignore[arg-type]
        return keys

    def _attr_classes_of(
        self, module: ModuleInfo, cls_info: ClassInfo
    ) -> Dict[str, ClassInfo]:
        """``self.<attr>`` → the class of the object it holds, where the
        ``__init__`` assignment or annotation names a resolvable class."""
        mapping: Dict[str, ClassInfo] = {}
        init = cls_info.init
        if init is not None:
            for node in ast.walk(init.node):
                targets: List[ast.AST] = []
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                if not isinstance(value, ast.Call):
                    continue
                dotted = _call_dotted(value)
                if dotted is None:
                    continue
                resolved = self.index.resolve_call(module, dotted, cls_info)
                if resolved is None or resolved[0] != "class":
                    continue
                for target in targets:
                    attr = _attr_of_self(target)
                    if attr is not None:
                        mapping[attr] = resolved[1]  # type: ignore[assignment]
        for attr, annotation in cls_info.attr_annotations.items():
            if attr in mapping:
                continue
            class_name = annotation_class_name(annotation)
            if class_name is None:
                continue
            resolved = self.index.resolve_call(module, class_name, None)
            if resolved is not None and resolved[0] == "class":
                mapping[attr] = resolved[1]  # type: ignore[assignment]
        return mapping

    def _collect_module_locks(self) -> None:
        for module in self.index.modules.values():
            for stmt in module.tree.body:
                if isinstance(stmt, ast.Assign) and _is_lock_constructor(stmt.value):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.module_locks.add(f"{module.name}.{target.id}")

    # -- call resolution ------------------------------------------------
    def resolve_callee(self, fn: FunctionInfo, dotted: str) -> Optional[FunctionInfo]:
        parts = dotted.split(".")
        if parts[0] == "self" and len(parts) == 3 and fn.owner is not None:
            attr_cls = self.attr_classes.get(fn.owner.qualname, {}).get(parts[1])
            if attr_cls is not None:
                return attr_cls.methods.get(parts[2])
            return None
        resolved = self.index.resolve_call(fn.module, dotted, fn.owner)
        if resolved is None:
            return None
        kind, target = resolved
        if kind == "function":
            return target  # type: ignore[return-value]
        if kind == "class":
            return target.init  # type: ignore[union-attr]
        return None

    # -- fixpoints ------------------------------------------------------
    def _fixpoint_acquired(self) -> Dict[str, FrozenSet[str]]:
        acquired = {
            qualname: frozenset(acquire.key for acquire in facts.acquires)
            for qualname, facts in self.facts.items()
        }
        return self._propagate(acquired)

    def _fixpoint_blocking(self) -> Dict[str, FrozenSet[str]]:
        blocking = {
            qualname: frozenset(op.description for op in facts.blocking)
            for qualname, facts in self.facts.items()
        }
        return self._propagate(blocking)

    def _propagate(self, summary: Dict[str, FrozenSet[str]]) -> Dict[str, FrozenSet[str]]:
        for _ in range(len(self.facts) + 1):
            changed = False
            for qualname, facts in self.facts.items():
                combined = summary[qualname]
                for site in facts.calls:
                    callee = self.resolve_callee(facts.fn, site.dotted)
                    if callee is None:
                        continue
                    combined = combined | summary.get(callee.qualname, frozenset())
                if combined != summary[qualname]:
                    summary[qualname] = combined
                    changed = True
            if not changed:
                break
        return summary

    # -- the acquisition-order graph ------------------------------------
    def order_edges(self) -> Dict[Tuple[str, str], Tuple[FunctionInfo, ast.AST]]:
        """``(held, acquired)`` → first witnessing (function, site)."""
        edges: Dict[Tuple[str, str], Tuple[FunctionInfo, ast.AST]] = {}
        for facts in self.facts.values():
            for acquire in facts.acquires:
                for held in acquire.held:
                    if held != acquire.key:
                        edges.setdefault((held, acquire.key), (facts.fn, acquire.node))
            for site in facts.calls:
                if not site.held:
                    continue
                callee = self.resolve_callee(facts.fn, site.dotted)
                if callee is None:
                    continue
                for acquired in self.acquired_within.get(callee.qualname, frozenset()):
                    for held in site.held:
                        if held != acquired:
                            edges.setdefault(
                                (held, acquired), (facts.fn, site.node)
                            )
        return edges


_ANALYSIS_CACHE: "WeakKeyDictionary[ProjectIndex, _ProjectLockAnalysis]" = (
    WeakKeyDictionary()
)


def _analysis_for(index: ProjectIndex) -> _ProjectLockAnalysis:
    analysis = _ANALYSIS_CACHE.get(index)
    if analysis is None:
        analysis = _ProjectLockAnalysis(index)
        _ANALYSIS_CACHE[index] = analysis
    return analysis


def _short_lock(key: str) -> str:
    """``OracleService._swap_lock`` from a fully qualified lock key."""
    parts = key.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else key


# ----------------------------------------------------------------------
# R202 — lock-order inversion (project rule)
# ----------------------------------------------------------------------


@register
class LockOrderInversion(Rule):
    """Flag acquisition-order cycles (potential ABBA deadlocks)."""

    rule_id = "R202"
    name = "lock-order-inversion"
    description = (
        "Two locks acquired in opposite orders on different code paths "
        "(directly or through resolved calls) can deadlock: the project-"
        "wide acquisition graph must stay acyclic."
    )
    scopes = None
    project_scope = True

    def check(self, ctx) -> list:
        return []

    def check_project(self, index: ProjectIndex) -> list:
        analysis = _analysis_for(index)
        edges = analysis.order_edges()
        adjacency: Dict[str, Set[str]] = {}
        for before, after in edges:
            adjacency.setdefault(before, set()).add(after)
        violations: list = []
        for (before, after), (fn, node) in sorted(
            edges.items(), key=lambda item: (item[1][0].module.path, item[1][1].lineno)
        ):
            if not self._reachable(adjacency, after, before):
                continue
            reverse = edges.get((after, before))
            where = ""
            if reverse is not None:
                rev_fn, rev_node = reverse
                where = (
                    f" (reverse order at {rev_fn.module.path}:{rev_node.lineno} "
                    f"in {rev_fn.name}())"
                )
            violations.append(
                self._violation_at(
                    fn.module,
                    node,
                    f"lock-order inversion: {_short_lock(after)} is acquired "
                    f"while holding {_short_lock(before)} here, but another "
                    f"path acquires them in the opposite order{where} — "
                    "potential ABBA deadlock",
                )
            )
        return violations

    @staticmethod
    def _reachable(adjacency: Dict[str, Set[str]], start: str, goal: str) -> bool:
        stack = [start]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(adjacency.get(current, ()))
        return False

    def _violation_at(self, module: ModuleInfo, node: ast.AST, message: str):
        from repro.lint.engine import Violation

        return Violation(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


# ----------------------------------------------------------------------
# R203 — blocking call while holding a lock (project rule)
# ----------------------------------------------------------------------


@register
class BlockingCallUnderLock(Rule):
    """No I/O, sleeps or joins inside a lock region, even transitively."""

    rule_id = "R203"
    name = "blocking-call-under-lock"
    description = (
        "Blocking operations (file/socket I/O, time.sleep, Thread.join, "
        "snapshot load/save, HTTP serving) inside a with-lock region stall "
        "every other thread contending for the lock; move the slow work "
        "outside the critical section (the reload() pattern)."
    )
    scopes = None
    project_scope = True

    def check(self, ctx) -> list:
        return []

    def check_project(self, index: ProjectIndex) -> list:
        analysis = _analysis_for(index)
        violations: list = []
        for qualname in sorted(analysis.facts):
            facts = analysis.facts[qualname]
            for op in facts.blocking:
                if not op.held:
                    continue
                violations.append(
                    self._violation_at(
                        facts.fn.module,
                        op.node,
                        f"blocking call {op.description} while holding "
                        f"{self._held_text(op.held)}",
                    )
                )
            for site in facts.calls:
                if not site.held:
                    continue
                callee = analysis.resolve_callee(facts.fn, site.dotted)
                if callee is None:
                    continue
                reached = analysis.blocking_within.get(callee.qualname, frozenset())
                if not reached:
                    continue
                sample = sorted(reached)[0]
                violations.append(
                    self._violation_at(
                        facts.fn.module,
                        site.node,
                        f"call to {callee.name}() while holding "
                        f"{self._held_text(site.held)} reaches blocking "
                        f"{sample}",
                    )
                )
        return violations

    @staticmethod
    def _held_text(held: Iterable[str]) -> str:
        return ", ".join(_short_lock(key) for key in sorted(held))

    def _violation_at(self, module: ModuleInfo, node: ast.AST, message: str):
        from repro.lint.engine import Violation

        return Violation(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )
