"""Unit tests for the whole-program index (symbol tables, call resolution)."""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext
from repro.lint.project import (
    BUILTIN_NAMES,
    ProjectIndex,
    Resolution,
    bind_arguments,
    collect_reference_identifiers,
    module_name_for_path,
)

SYNTHETIC = {
    "src/pkg/__init__.py": "from pkg.algo import run\n",
    "src/pkg/util.py": (
        "def helper(x):\n"
        "    return x + 1\n"
        "\n"
        "def _private(x):\n"
        "    return x\n"
    ),
    "src/pkg/algo.py": (
        "import math\n"
        "from pkg.util import helper\n"
        "\n"
        "def run(x):\n"
        "    return helper(x) + math.floor(x)\n"
        "\n"
        "class Runner:\n"
        "    def __init__(self, k):\n"
        "        self._k = k\n"
        "\n"
        "    def go(self):\n"
        "        return self.step()\n"
        "\n"
        "    def step(self):\n"
        "        return run(self._k)\n"
        "\n"
        "    @classmethod\n"
        "    def default(cls):\n"
        "        return cls(3)\n"
    ),
}


def build_index(sources=SYNTHETIC, external=()):
    contexts = [
        FileContext.from_source(source, path=path) for path, source in sources.items()
    ]
    return ProjectIndex.from_contexts(contexts, set(external))


class TestModuleNames:
    def test_components_after_last_src(self):
        assert module_name_for_path("src/repro/core/exact.py") == "repro.core.exact"
        assert module_name_for_path("/tmp/x/src/pkg/a.py") == "pkg.a"

    def test_init_maps_to_package(self):
        assert module_name_for_path("src/repro/core/__init__.py") == "repro.core"

    def test_without_src_segment_keeps_all_parts(self):
        assert module_name_for_path("fixtures/mod.py") == "fixtures.mod"


class TestResolution:
    def test_local_and_imported_functions(self):
        index = build_index()
        algo = index.resolve_module("pkg.algo")
        resolved: Resolution = index.resolve_call(algo, "run")
        assert resolved is not None and resolved[0] == "function"
        assert resolved[1].qualname == "pkg.algo.run"
        via_import: Resolution = index.resolve_call(algo, "helper")
        assert via_import is not None and via_import[0] == "function"
        assert via_import[1].qualname == "pkg.util.helper"

    def test_builtin_and_external(self):
        index = build_index()
        algo = index.resolve_module("pkg.algo")
        assert "len" in BUILTIN_NAMES
        assert index.resolve_call(algo, "len") == ("builtin", "len")
        kind, dotted = index.resolve_call(algo, "math.floor")
        assert kind == "external" and dotted == "math.floor"

    def test_self_method_and_cls_constructor(self):
        index = build_index()
        algo = index.resolve_module("pkg.algo")
        runner = algo.classes["Runner"]
        kind, target = index.resolve_call(algo, "self.step", runner)
        assert kind == "function" and target.qualname == "pkg.algo.Runner.step"
        kind, target = index.resolve_call(algo, "cls", runner)
        assert kind == "class" and target.qualname == "pkg.algo.Runner"

    def test_unknown_name_is_unresolved(self):
        index = build_index()
        algo = index.resolve_module("pkg.algo")
        assert index.resolve_call(algo, "mystery") is None

    def test_unique_suffix_module_lookup(self):
        index = build_index()
        assert index.resolve_module("pkg.util") is index.resolve_module("util")


class TestBindArguments:
    def _fn(self, source, name="f"):
        index = build_index({"src/pkg/m.py": source})
        return index.resolve_module("pkg.m").functions[name]

    def _call(self, source):
        return ast.parse(source, mode="eval").body

    def test_positional_and_keyword_binding(self):
        fn = self._fn("def f(a, b, c=3):\n    return a\n")
        binding = bind_arguments(fn, self._call("f(1, c=9)"))
        assert set(binding) == {"a", "c"}
        assert binding["a"].value == 1 and binding["c"].value == 9

    def test_star_args_defeat_binding(self):
        fn = self._fn("def f(a, b):\n    return a\n")
        assert bind_arguments(fn, self._call("f(*xs)")) is None
        assert bind_arguments(fn, self._call("f(**kw)")) is None

    def test_arity_overflow_without_vararg(self):
        fn = self._fn("def f(a):\n    return a\n")
        assert bind_arguments(fn, self._call("f(1, 2)")) is None


class TestReferenceIdentifiers:
    def test_collects_names_attributes_and_import_aliases(self, tmp_path):
        (tmp_path / "t.py").write_text(
            "from repro.core import ExactIRS as Exact\n"
            "value = Exact().spread\n",
            encoding="utf-8",
        )
        names = collect_reference_identifiers([tmp_path])
        assert {"Exact", "ExactIRS", "spread", "value"} <= names

    def test_unparsable_files_are_skipped(self, tmp_path):
        (tmp_path / "broken.py").write_text("def ]](:\n", encoding="utf-8")
        (tmp_path / "ok.py").write_text("alive = 1\n", encoding="utf-8")
        assert "alive" in collect_reference_identifiers([tmp_path])

    def test_missing_root_is_ignored(self, tmp_path):
        assert collect_reference_identifiers([tmp_path / "nope"]) == set()
