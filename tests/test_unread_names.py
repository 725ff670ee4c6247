"""Every definition in ``src/`` has a reader that is not a test.

A function, class or method defined under ``src/`` must be read by
name somewhere else in ``src/``, ``benchmarks/`` or ``examples/``.  A
reader under ``tests/`` does not count: API that only its own tests
call is code nothing runs.  The match is by name (an AST scan, nothing
is imported), so a method counts as read when any ``x.name`` load,
``getattr(x, "name")`` or import of that name exists outside its own
body.  That is lenient on purpose (a common method name is read by
every ``x.name``), and it still catches the definition whose name no
running code writes.  An import in a package's ``__init__.py`` under
``src/`` is not a reader: a re-export only passes the name on, so a
definition that nothing but its package's re-export reads is caught.

Exempt: dunders, the members of a ``Protocol`` class, the stdlib hooks
of :data:`HOOKS` and the names on :data:`ALLOWED`, each with its
reason.

The same scan fails on a module-level import in ``src/`` that its
module never reads and whose ``__all__`` does not list (pyflakes'
F401), so a deletion cannot leave a dangling import behind where the
linter is not at hand.  Imports under a module-level
``if TYPE_CHECKING:`` count too; a name in a string annotation
(``-> "World"``) reads them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from test_docs_names import ROOT, _Index

READER_DIRS = ("src", "benchmarks", "examples")

#: Methods the standard library calls by name on a subclass.
HOOKS = {
    "do_GET": "http.server.BaseHTTPRequestHandler dispatches GET to it",
    "log_message": "BaseHTTPRequestHandler's per-request log line",
}

#: Dotted names kept although no running code reads them.
ALLOWED: dict[str, str] = {}


class Code:
    """The AST of every reader directory under ``root``."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.trees: dict[Path, ast.Module] = {}
        self.index = _Index()
        #: name -> [(path, line)] of every read of that name.
        self.reads: dict[str, list[tuple[Path, int]]] = {}
        for top in READER_DIRS:
            for path in sorted((root / top).rglob("*.py")):
                tree = self.trees[path] = ast.parse(
                    path.read_text(), filename=str(path)
                )
                self._scan_reads(path, tree)
                if top == "src":
                    self.index.scan(path, None)

    def _scan_reads(self, path: Path, tree: ast.Module) -> None:
        def add(name: str, line: int) -> None:
            self.reads.setdefault(name, []).append((path, line))

        reexports = path.name == "__init__.py" and self.root / "src" in path.parents

        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                add(node.id, node.lineno)
            elif isinstance(node, ast.Attribute) and not isinstance(
                node.ctx, ast.Store
            ):
                add(node.attr, node.lineno)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                for alias in node.names:
                    add(alias.name.split(".")[-1], node.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                add(node.args[1].value, node.lineno)

    def sources(self):
        """``(path, dotted module, tree)`` of every file under ``src/``."""
        src = self.root / "src"
        for path, tree in self.trees.items():
            if src in path.parents:
                parts = path.relative_to(src).with_suffix("").parts
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                yield path, ".".join(parts), tree

    def read_outside(self, name: str, path: Path, node: ast.stmt) -> bool:
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return any(
            where != path or not first <= line <= node.end_lineno
            for where, line in self.reads.get(name, ())
        )


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module, index: _Index):
    """``(qualname, node)``: module-level defs and each class's methods."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef) and "Protocol" not in index.bases.get(
            node.name, ()
        ):
            for item in node.body:
                if isinstance(item, _DEFS):
                    yield f"{node.name}.{item.name}", item


def unread(code: Code, allowed=ALLOWED) -> list[str]:
    """``path::qualname`` of each definition in ``src/`` nothing reads."""
    stale = []
    for path, module, tree in code.sources():
        for qualname, node in _definitions(tree, code.index):
            name = node.name
            if (
                (name.startswith("__") and name.endswith("__"))
                or name in HOOKS
                or f"{module}.{qualname}" in allowed
                or code.read_outside(name, path, node)
            ):
                continue
            stale.append(f"{path.relative_to(code.root)}::{qualname}")
    return stale


def _module_imports(tree: ast.Module):
    """Module-level imports, those under ``if TYPE_CHECKING:`` included."""
    for node in tree.body:
        if isinstance(node, ast.If) and (
            (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING")
            or (
                isinstance(node.test, ast.Attribute)
                and node.test.attr == "TYPE_CHECKING"
            )
        ):
            yield from (n for n in node.body if isinstance(n, (ast.Import, ast.ImportFrom)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def _string_annotation_reads(tree: ast.Module) -> set[str]:
    """Names read inside string annotations (``x: "World"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(
                    n.id
                    for n in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name)
                )
    return names


def unused_imports(code: Code) -> list[str]:
    """Module-level imports in ``src/`` never read nor in ``__all__``."""
    stale = []
    for path, _, tree in code.sources():
        bound: dict[str, int] = {}
        for node in _module_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = _dunder_all(tree) | _string_annotation_reads(tree) | {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        stale.extend(
            f"{path.relative_to(code.root)}:{line}: {name}"
            for name, line in sorted(bound.items())
            if name not in used
        )
    return stale


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {
                item.value
                for item in node.value.elts
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            }
    return set()


@pytest.fixture(scope="module")
def repo() -> Code:
    return Code(ROOT)


def test_every_definition_has_a_reader(repo):
    stale = unread(repo)
    assert not stale, f"defined in src/ but read by no code outside tests: {stale}"


def test_every_import_is_read(repo):
    stale = unused_imports(repo)
    assert not stale, f"imported but never read: {stale}"


def test_every_allowed_name_is_defined(repo):
    defined = {
        f"{module}.{qualname}"
        for _, module, tree in repo.sources()
        for qualname, _ in _definitions(tree, repo.index)
    }
    assert not set(ALLOWED) - defined


# ----------------------------------------------------------------------
# The guard itself, on a planted tree
# ----------------------------------------------------------------------
PLANTED = {
    "src/repro/__init__.py": (
        "from repro.planted import reexported_function\n"
        "__all__ = [\"reexported_function\"]\n"
    ),
    "src/repro/planted.py": '''
import json
import os
import re
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction

__all__ = ["os"]


def unread_function():
    return json.dumps({})


def read_function() -> "list[Decimal]":
    return 1


def allowed_function():
    return 2


def reexported_function():
    return 3


def recursive_function(n):
    return recursive_function(n - 1) if n else 0


class Widget:
    def __repr__(self):
        return "Widget()"

    def do_GET(self):
        return None

    def method_only_a_test_reads(self):
        return 1

    def method_src_reads(self):
        return read_function()


class Shape(Protocol):
    def area(self) -> float: ...
''',
    "examples/use.py": (
        "from repro.planted import Shape, Widget\n"
        "Widget().method_src_reads()\n"
    ),
    "tests/test_use.py": (
        "from repro.planted import Widget, recursive_function\n"
        "Widget().method_only_a_test_reads()\n"
        "recursive_function(3)\n"
    ),
}


@pytest.fixture
def planted(tmp_path) -> Code:
    for name, text in PLANTED.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return Code(tmp_path)


@pytest.mark.parametrize(
    "name",
    [
        "unread_function",
        "recursive_function",
        "Widget.method_only_a_test_reads",
        "allowed_function",
        "reexported_function",
    ],
)
def test_a_stale_name_is_caught(name, planted):
    assert f"src/repro/planted.py::{name}" in unread(planted, allowed={})


def test_an_unused_import_is_caught(planted):
    # ``Decimal`` is read by a string annotation; ``Fraction`` by nothing.
    assert unused_imports(planted) == [
        "src/repro/planted.py:9: Fraction",
        "src/repro/planted.py:4: re",
    ]


def test_an_allowlisted_name_passes(planted):
    allowed = {"repro.planted.allowed_function": "planted"}
    assert sorted(unread(planted, allowed)) == [
        "src/repro/planted.py::Widget.method_only_a_test_reads",
        "src/repro/planted.py::recursive_function",
        "src/repro/planted.py::reexported_function",
        "src/repro/planted.py::unread_function",
    ]
