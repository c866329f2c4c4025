"""Whole-program index for the cross-module lint rules.

The per-file rules (R001–R004) see one ``ast.Module`` at a time; the
paper's correctness, however, rests on *cross-module* invariants —
window/precision parameters flowing validated through every call path,
vHLL sketches merged only with identical ``(precision, salt)`` (Lemma
2, §3.2), reverse-chronological input feeding Algorithm 2.  This module
builds the shared substrate those rules (R101–R106 in
:mod:`repro.lint.rules_project`) query:

* per-module **symbol tables** (top-level functions, classes, methods);
* the **import graph** (local alias → dotted target);
* conservative **call resolution** via :meth:`ProjectIndex.resolve_call`,
  resolving ``name(...)``, ``module.name(...)``, ``self.method(...)``
  and ``cls(...)`` call forms to indexed functions;
* lightweight per-class dataflow facts: ``self._attr = param`` aliases
  recorded in ``__init__`` and ``self._attr: T`` annotations, which let
  R105 normalise constructor configurations and type sketch-valued
  attributes.

Resolution is *conservative*: a callee that cannot be resolved inside
the project is reported as unresolved, and the rules decide whether to
be optimistic (R101 treats unknown forwards as potentially validating,
like R002) or pessimistic (R105 refuses to equate unprovable configs).

The index is path-layout tolerant: module dotted names are derived from
the path components after the last ``src`` segment, and
:meth:`ProjectIndex.resolve_module` falls back to unique-suffix
matching, so fixture trees under ``/tmp`` resolve the same way the real
``src/repro`` tree does.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "BUILTIN_NAMES",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "Resolution",
    "module_name_for_path",
    "annotation_class_name",
    "mapping_value_class",
    "bind_arguments",
    "collect_reference_identifiers",
]

#: Names that resolve to Python builtins — calls to these never validate
#: or launder an algorithm parameter.
BUILTIN_NAMES = frozenset(dir(builtins))

_MAPPING_BASES = frozenset(
    {"Dict", "dict", "Mapping", "MutableMapping", "DefaultDict", "defaultdict"}
)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file path.

    Components after the last ``src`` segment form the name
    (``.../src/repro/core/exact.py`` → ``repro.core.exact``); without a
    ``src`` segment every component is kept, which still resolves via
    the suffix matching in :meth:`ProjectIndex.resolve_module`.
    ``__init__.py`` maps to its package.
    """
    parts = [part for part in Path(path).parts if part not in ("/", "\\", "..", ".")]
    if parts and parts[-1].endswith(".py"):
        stem = parts[-1][: -len(".py")]
        parts = parts[:-1] + ([stem] if stem != "__init__" else [])
    if "src" in parts:
        last_src = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last_src + 1 :]
    return ".".join(parts) if parts else "<module>"


def annotation_class_name(ann: Optional[ast.AST]) -> Optional[str]:
    """The class name an annotation expression denotes, if recoverable.

    Handles ``Name``, ``mod.Attr``, string annotations, ``Optional[X]``
    and ``X | None``; containers and unions of two real types yield
    ``None`` (unknown).
    """
    if ann is None:
        return None
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Constant):
        if ann.value is None:
            return "None"
        if isinstance(ann.value, str):
            try:
                return annotation_class_name(ast.parse(ann.value, mode="eval").body)
            except SyntaxError:
                return None
        return None
    if isinstance(ann, ast.Subscript):
        base = annotation_class_name(ann.value)
        if base == "Optional":
            return annotation_class_name(ann.slice)
        return None
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        left = annotation_class_name(ann.left)
        right = annotation_class_name(ann.right)
        if left == "None":
            return right
        if right == "None":
            return left
        return None
    return None


def mapping_value_class(ann: Optional[ast.AST]) -> Optional[str]:
    """Value-type class of a ``Dict[K, V]``-style annotation, if any."""
    if not isinstance(ann, ast.Subscript):
        return None
    base = annotation_class_name(ann.value)
    if base not in _MAPPING_BASES:
        return None
    index = ann.slice
    if isinstance(index, ast.Tuple) and len(index.elts) == 2:
        return annotation_class_name(index.elts[1])
    return None


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    name: str
    qualname: str
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    owner: Optional["ClassInfo"] = None

    @property
    def decorators(self) -> Set[str]:
        names = set()
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            parts: List[str] = []
            while isinstance(target, ast.Attribute):
                parts.append(target.attr)
                target = target.value
            if isinstance(target, ast.Name):
                parts.append(target.id)
            if parts:
                names.add(parts[0])  # the attr closest to the function
        return names

    @property
    def is_staticmethod(self) -> bool:
        return "staticmethod" in self.decorators

    @property
    def is_classmethod(self) -> bool:
        return "classmethod" in self.decorators

    @property
    def params(self) -> List[str]:
        """Bindable parameter names, ``self``/``cls`` receiver stripped."""
        args = self.node.args
        ordered = [arg.arg for arg in args.posonlyargs + args.args]
        if self.owner is not None and not self.is_staticmethod and ordered:
            ordered = ordered[1:]
        return ordered + [arg.arg for arg in args.kwonlyargs]

    @property
    def positional_params(self) -> List[str]:
        args = self.node.args
        ordered = [arg.arg for arg in args.posonlyargs + args.args]
        if self.owner is not None and not self.is_staticmethod and ordered:
            ordered = ordered[1:]
        return ordered

    def param_defaults(self) -> Dict[str, ast.AST]:
        """Parameter name → default-value expression, where one exists."""
        args = self.node.args
        ordered = args.posonlyargs + args.args
        defaults: Dict[str, ast.AST] = {}
        for arg, default in zip(reversed(ordered), reversed(args.defaults)):
            defaults[arg.arg] = default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaults[arg.arg] = default
        return defaults

    @property
    def is_public(self) -> bool:
        return self.name == "__init__" or not self.name.startswith("_")


@dataclass
class ClassInfo:
    """One indexed class with its direct methods and dataflow facts."""

    name: str
    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self._attr: T`` (in ``__init__``) and class-body ``attr: T``.
    attr_annotations: Dict[str, ast.AST] = field(default_factory=dict)
    #: ``self._attr = param`` recorded in ``__init__`` — lets R105 treat
    #: ``self._precision`` as an alias of the constructor's ``precision``.
    init_aliases: Dict[str, str] = field(default_factory=dict)

    @property
    def init(self) -> Optional[FunctionInfo]:
        return self.methods.get("__init__")


@dataclass
class ModuleInfo:
    """Symbol table and import map for one parsed module."""

    name: str
    path: str
    tree: ast.Module
    subpackage: Optional[str]
    is_package_init: bool = False
    imports: Dict[str, str] = field(default_factory=dict)
    import_bindings: Set[str] = field(default_factory=set)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    exports: List[Tuple[str, ast.AST]] = field(default_factory=list)
    identifiers: Set[str] = field(default_factory=set)

    @property
    def package(self) -> str:
        if self.is_package_init:
            return self.name
        return self.name.rpartition(".")[0]


#: A resolved call target: ``("function", FunctionInfo)``,
#: ``("class", ClassInfo)``, ``("builtin", name)``,
#: ``("external", dotted)`` for imports pointing outside the project, or
#: ``None`` when nothing could be determined.
Resolution = Optional[Tuple[str, object]]


class ProjectIndex:
    """Cross-module symbol tables, import graph and call resolution."""

    def __init__(self, external_identifiers: Optional[Set[str]] = None) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Identifiers referenced outside ``src`` (tests, benchmarks,
        #: examples) — external liveness roots for R104.
        self.external_identifiers: Set[str] = set(external_identifiers or ())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_contexts(
        cls,
        contexts: Iterable,
        external_identifiers: Optional[Set[str]] = None,
    ) -> "ProjectIndex":
        """Build an index from parsed :class:`~repro.lint.engine.FileContext`s."""
        index = cls(external_identifiers)
        for ctx in contexts:
            index.add_module(ctx.path, ctx.tree, ctx.subpackage)
        return index

    def add_module(
        self,
        path: str,
        tree: ast.Module,
        subpackage: Optional[str],
    ) -> ModuleInfo:
        name = module_name_for_path(path)
        info = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            subpackage=subpackage,
            is_package_init=Path(path).name == "__init__.py",
        )
        self._collect_imports(info)
        self._collect_symbols(info)
        self._collect_exports(info)
        self._collect_identifiers(info)
        self.modules[name] = info
        return info

    def _collect_imports(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        info.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        info.imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(info, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = f"{base}.{alias.name}" if base else alias.name
                    info.import_bindings.add(local)

    @staticmethod
    def _import_base(info: ModuleInfo, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        package_parts = info.package.split(".") if info.package else []
        ups = node.level - 1
        if ups:
            package_parts = package_parts[:-ups] if ups <= len(package_parts) else []
        if node.module:
            package_parts = package_parts + node.module.split(".")
        return ".".join(package_parts)

    def _collect_symbols(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[stmt.name] = FunctionInfo(
                    name=stmt.name,
                    qualname=f"{info.name}.{stmt.name}",
                    module=info,
                    node=stmt,
                )
            elif isinstance(stmt, ast.ClassDef):
                info.classes[stmt.name] = self._index_class(info, stmt)

    def _index_class(self, info: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
        cls_info = ClassInfo(
            name=node.name,
            qualname=f"{info.name}.{node.name}",
            module=info,
            node=node,
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    name=stmt.name,
                    qualname=f"{cls_info.qualname}.{stmt.name}",
                    module=info,
                    node=stmt,
                    owner=cls_info,
                )
                cls_info.methods[stmt.name] = fn
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                cls_info.attr_annotations[stmt.target.id] = stmt.annotation
        init = cls_info.methods.get("__init__")
        if init is not None:
            init_params = set(init.params)
            for stmt in ast.walk(init.node):
                if isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls_info.attr_annotations[target.attr] = stmt.annotation
                        if isinstance(stmt.value, ast.Name) and stmt.value.id in init_params:
                            cls_info.init_aliases[target.attr] = stmt.value.id
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and isinstance(stmt.value, ast.Name)
                        and stmt.value.id in init_params
                    ):
                        cls_info.init_aliases[target.attr] = stmt.value.id
        return cls_info

    def _collect_exports(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
            if isinstance(value, (ast.List, ast.Tuple)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        info.exports.append((element.value, element))

    @staticmethod
    def _collect_identifiers_from(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        return names

    def _collect_identifiers(self, info: ModuleInfo) -> None:
        info.identifiers = self._collect_identifiers_from(info.tree)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        """Exact dotted lookup, falling back to a unique-suffix match."""
        found = self.modules.get(dotted)
        if found is not None:
            return found
        suffix = "." + dotted
        matches = [m for name, m in self.modules.items() if name.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        dotted: str,
        enclosing_class: Optional[ClassInfo] = None,
    ) -> Resolution:
        """Resolve a dotted callee name seen inside ``module``."""
        parts = dotted.split(".")
        head = parts[0]
        if head in ("self", "cls") and enclosing_class is not None:
            if len(parts) == 1:
                # ``cls(...)`` in a classmethod constructs the class.
                return ("class", enclosing_class) if head == "cls" else None
            if len(parts) == 2:
                method = enclosing_class.methods.get(parts[1])
                if method is not None:
                    return ("function", method)
            return None
        if len(parts) == 1:
            if head in module.functions:
                return ("function", module.functions[head])
            if head in module.classes:
                return ("class", module.classes[head])
            target = module.imports.get(head)
            if target is not None:
                return self._resolve_qualified(target, fallback_external=target)
            if head in BUILTIN_NAMES:
                return ("builtin", head)
            return None
        target = module.imports.get(head)
        if target is not None:
            qualified = ".".join([target] + parts[1:])
            return self._resolve_qualified(qualified, fallback_external=qualified)
        return self._resolve_qualified(dotted, fallback_external=None)

    def _resolve_qualified(
        self, dotted: str, fallback_external: Optional[str]
    ) -> Resolution:
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            mod = self.resolve_module(".".join(parts[:split]))
            if mod is None:
                continue
            rest = parts[split:]
            symbol = rest[0]
            if symbol in mod.functions and len(rest) == 1:
                return ("function", mod.functions[symbol])
            if symbol in mod.classes:
                if len(rest) == 1:
                    return ("class", mod.classes[symbol])
                if len(rest) == 2:
                    method = mod.classes[symbol].methods.get(rest[1])
                    if method is not None:
                        return ("function", method)
                return None
            # The module resolved but the symbol is not indexed there —
            # possibly re-exported; follow one import hop.
            onward = mod.imports.get(symbol)
            if onward is not None and len(rest) <= 2:
                tail = rest[1:]
                return self._resolve_qualified(
                    ".".join([onward] + tail), fallback_external=None
                )
            return None
        mod = self.resolve_module(dotted)
        if mod is not None:
            return None  # a bare module object is not callable
        if fallback_external is not None:
            head = fallback_external.split(".")[0]
            if head not in {name.split(".")[0] for name in self.modules}:
                return ("external", fallback_external)
        return None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def all_functions(self) -> Iterable[FunctionInfo]:
        for module in self.modules.values():
            yield from module.functions.values()
            for cls_info in module.classes.values():
                yield from cls_info.methods.values()


def bind_arguments(fn: FunctionInfo, call: ast.Call) -> Optional[Dict[str, ast.AST]]:
    """Map a call's argument expressions onto ``fn``'s parameter names.

    Returns ``None`` when the binding cannot be determined statically
    (``*args`` / ``**kwargs`` in the call, or arity overflow without a
    vararg on the callee).
    """
    binding: Dict[str, ast.AST] = {}
    positional = fn.positional_params
    has_vararg = fn.node.args.vararg is not None
    has_kwarg = fn.node.args.kwarg is not None
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return None
        if index < len(positional):
            binding[positional[index]] = arg
        elif not has_vararg:
            return None
    valid_keywords = set(fn.params)
    for keyword in call.keywords:
        if keyword.arg is None:  # **kwargs expansion at the call site
            return None
        if keyword.arg in valid_keywords:
            binding[keyword.arg] = keyword.value
        elif not has_kwarg:
            return None
    return binding


def collect_reference_identifiers(roots: Iterable[Path]) -> Set[str]:
    """Identifiers used anywhere under external reference roots.

    Feeds R104's liveness: a public export referenced from ``tests/``,
    ``benchmarks/`` or ``examples/`` is alive even when no ``src`` module
    imports it.  Unparsable files are skipped — reference roots must
    never turn a lint run into a hard failure.
    """
    names: Set[str] = set()
    for root in roots:
        root = Path(root)
        if not root.exists():
            continue
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for file in files:
            try:
                tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
            except (SyntaxError, UnicodeDecodeError, OSError):
                continue
            names |= ProjectIndex._collect_identifiers_from(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        # ``import X as Y`` references export X and binds Y.
                        names.add(alias.name)
                        if alias.asname:
                            names.add(alias.asname)
    return names
