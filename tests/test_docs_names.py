"""The documents name only what the code defines.

``docs/architecture.md`` and ``README.md`` name modules, classes and
attributes in backticks.  Each such name must be defined by some
Python file under ``src/``, ``tests/``, ``benchmarks/`` or
``examples/`` (an AST scan, nothing is imported), so a document cannot
keep describing a deleted runtime, knob or error class.  Three shapes
are checked:

* a ``repro/…py`` path: the file exists under ``src/``;
* a dotted ``repro.`` name: the longest prefix is a module or package,
  the next part is defined or imported at its top level, and any part
  after that is a member of that class;
* a capitalised name such as ``KeplerParams``, ``Kepler.process`` or
  ``Kepler.snapshot()``: a class (or a module-level alias) of that name
  is defined, and the attribute, if any, is a member of the class or of
  an in-repo base class.  A file name such as ``BENCH_x.json`` is not a
  name.

Builtins (``ValueError``, ``None``) pass; the few other names defined
outside the repo are on :data:`EXTERNAL`, each with its reason, and
each must still be named by some document.
"""

from __future__ import annotations

import ast
import builtins
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("docs/architecture.md", "README.md")
CODE_DIRS = ("src", "tests", "benchmarks", "examples")

#: Capitalised names the documents use that the standard library
#: defines; their attributes are not checked.
EXTERNAL = {
    "Process": "multiprocessing.Process, a forked worker's handle",
}

SPAN = re.compile(r"`([^`\n]+)`")
PATH = re.compile(r"(?<![\w/])(?:src/)?(repro/[\w/]+\.py)\b")
DOTTED = re.compile(r"^repro(?:\.\w+)+$")
CLASS = re.compile(r"^([A-Z]\w*)(?:\.(\w+))?(?:\(\))?$")
FILE = re.compile(r"\.(?:json|md|py|txt|yml|toml)$")


class _Index:
    """Classes, their members and each module's top-level names."""

    def __init__(self) -> None:
        #: class name -> member names (methods, fields, ``self.x``).
        self.members: dict[str, set[str]] = defaultdict(set)
        #: class name -> base class names as written.
        self.bases: dict[str, set[str]] = defaultdict(set)
        #: dotted module name -> names bound at its top level.
        self.modules: dict[str, set[str]] = {}

    def scan(self, path: Path, module: str | None) -> None:
        tree = ast.parse(path.read_text(), filename=str(path))
        top: set[str] = set()
        for node in tree.body:
            top.update(_bound(node))
        if module is not None:
            self.modules[module] = top
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self._scan_class(node)

    def _scan_class(self, node: ast.ClassDef) -> None:
        members = self.members[node.name]
        for base in node.bases:
            if isinstance(base, ast.Name):
                self.bases[node.name].add(base.id)
            elif isinstance(base, ast.Attribute):
                self.bases[node.name].add(base.attr)
        for item in node.body:
            members.update(_bound(item))
        for item in ast.walk(node):
            if (
                isinstance(item, ast.Attribute)
                and isinstance(item.ctx, ast.Store)
                and isinstance(item.value, ast.Name)
                and item.value.id == "self"
            ):
                members.add(item.attr)

    def has_member(self, cls: str, attr: str, seen: frozenset = frozenset()) -> bool:
        if attr in self.members.get(cls, ()):
            return True
        for base in self.bases.get(cls, ()):
            if base in seen:
                continue
            if base not in self.members:
                # A base defined outside the repo (an Enum, an
                # exception): check it when it is a builtin.
                if hasattr(getattr(builtins, base, None), attr):
                    return True
                continue
            if self.has_member(base, attr, seen | {cls}):
                return True
        return False


def _bound(node: ast.stmt) -> set[str]:
    """Names one statement binds in its scope (defs, assigns, imports)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).split(".")[0] for a in node.names}
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    names: set[str] = set()
    for target in targets:
        for item in ast.walk(target):
            if isinstance(item, ast.Name):
                names.add(item.id)
    if isinstance(node, (ast.If, ast.Try)):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                names |= _bound(child)
    return names


@pytest.fixture(scope="module")
def index() -> _Index:
    found = _Index()
    for top in CODE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            module = None
            if top == "src":
                parts = path.relative_to(ROOT / "src").with_suffix("").parts
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                module = ".".join(parts)
            found.scan(path, module)
    return found


def spans(doc: str) -> list[str]:
    return SPAN.findall((ROOT / doc).read_text())


def undefined(span: str, index: _Index) -> str | None:
    """Why ``span`` names nothing the code defines (``None`` if it does)."""
    for path in PATH.findall(span):
        if not (ROOT / "src" / path).is_file():
            return f"no file src/{path}"
    if DOTTED.match(span):
        parts = span.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module in index.modules:
                break
        else:
            return "no such module"
        rest = parts[cut:]
        if rest and rest[0] not in index.modules[module]:
            return f"{module} defines no {rest[0]!r}"
        for owner, attr in zip(rest, rest[1:]):
            if not index.has_member(owner, attr):
                return f"{owner} has no member {attr!r}"
        return None
    match = CLASS.match(span)
    if (
        match is None
        or FILE.search(span)
        or not any(ch.islower() for ch in match.group(1))
    ):
        return None
    name, attr = match.groups()
    if name in EXTERNAL or hasattr(builtins, name):
        return None
    if name not in index.members:
        if attr is None and any(name in top for top in index.modules.values()):
            return None  # a module-level alias, e.g. a type
        return f"no class {name}"
    if attr is not None and not index.has_member(name, attr):
        return f"{name} has no member {attr!r}"
    return None


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_thing_is_defined(doc, index):
    stale = {
        span: why
        for span in spans(doc)
        if (why := undefined(span, index)) is not None
    }
    assert not stale, f"{doc} names what nothing defines: {stale}"


def test_every_external_name_is_still_named():
    named = {
        match.group(1)
        for doc in DOCS
        for span in spans(doc)
        if (match := CLASS.match(span)) is not None
    }
    assert not set(EXTERNAL) - named


@pytest.mark.parametrize(
    "span",
    [
        "repro/pipeline/no_such_module.py",
        "repro.pipeline.no_such_name",
        "NoSuchClass",
        "Kepler.no_such_method()",
    ],
)
def test_a_stale_name_is_caught(span, index):
    assert undefined(span, index) is not None
