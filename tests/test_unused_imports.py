"""Every imported name in the package, the tests and the demos is used, and so is every local and private definition in the package.

The package imports only the standard library and numpy, its one runtime dependency.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "krsfree").glob("*.py"))
# __init__.py re-exports what it imports.
MODULES = sorted(
    p
    for d in (ROOT / "src" / "krsfree", ROOT / "tests", ROOT / "demos")
    for p in d.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a".
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unused_locals(source: str) -> list[str]:
    """Names assigned in a function and read nowhere in it; names starting with _ are exempt."""
    unused = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
        unused.update((line, name) for name, line in stored.items() if name not in read and name[0] != "_")
    return [f"{name} (line {line})" for line, name in sorted(unused)]


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level defs and classes named _x that no module names outside the definition itself.

    sources maps module names to their text. A name counts as used when it is
    read as a name, as an attribute or in an import.
    """
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)  # recursion is not a use
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append((module, stmt.lineno, stmt.name))
            used |= names
    return [f"{module}.{name} (line {line})" for module, line, name in sorted(defined) if name not in used]


# scipy and networkx serve the tests alone; CI installs them, so only this check keeps them out.
RUNTIME = sys.stdlib_module_names | {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """Absolute imports, at any depth, whose top-level package is neither the standard library nor numpy."""
    foreign = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        foreign += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] not in RUNTIME]
    return foreign


def test_the_check_sees_an_unused_name():
    source = "import os\nimport numpy as np\nfrom x import a, b\nprint(np.pi, a)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]


def test_the_check_sees_an_unused_local():
    source = (
        "def f(a):\n"
        "    used, dead = a\n"
        "    _exempt = 1\n"
        "    for i, x in enumerate(a):\n"
        "        total = x\n"
        "    def g():\n"
        "        return used\n"
        "    return g\n"
    )
    assert unused_locals(source) == ["dead (line 2)", "i (line 4)", "total (line 5)"]


def test_the_check_sees_an_unused_private_definition():
    sources = {
        "a": (
            "def _dead(n):\n"
            "    return _dead(n - 1)\n"
            "def _called():\n"
            "    pass\n"
            "class _Read:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    return _called()\n"
        ),
        "b": "from a import _imported\nimport a\nprint(a._Read)\n",
        "c": "def _imported():\n    pass\nclass _Unread:\n    pass\n",
    }
    assert unused_private_definitions(sources) == ["a._dead (line 1)", "c._Unread (line 3)"]


def test_the_check_sees_a_foreign_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "import scipy.sparse\n"
        "from . import patterns\n"
        "from .hypergraph import Edge\n"
        "def f():\n"
        "    from networkx import Graph\n"
        "    from numpy.linalg import norm\n"
    )
    assert foreign_imports(source) == ["scipy.sparse (line 3)", "networkx (line 7)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Tests unpack tuples into names they do not read, so only the package is held to this.
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def test_no_unused_private_definitions():
    assert unused_private_definitions({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []
