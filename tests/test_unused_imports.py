"""No module of the package imports a name it does not use, and no
private helper outlives its last reader.

A deletion tends to leave its imports behind (a typing helper, a function
the deleted code called). Each src/spindles/*.py is parsed with ast; every
name it imports must be read somewhere in the module or re-exported
through __all__. Every module-level _name (a function, class or
assignment) must be read somewhere in src/spindles: as a name, as an
attribute or through an import.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spindles"


def unused_imports(source: str) -> list:
    """Names imported by source that it neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read | exported]


def orphaned_helpers(sources: dict) -> list:
    """"module._name" for each module-level _name defined in sources (module
    name -> source text) that none of them reads."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{module}.{name}" for module, name in defined if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Iterable, Union\n"
        "from .spindle import integer_frequencies, slice_dimension\n"
        "__all__ = ['slice_dimension']\n"
        "def f(x: Union[int, str]) -> int:\n"
        "    return np.size(x)\n"
    )
    assert unused_imports(source) == ["os", "Iterable", "integer_frequencies"]


def test_no_orphaned_private_helper():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert orphaned_helpers(sources) == []


def test_helper_guard_finds_leftovers():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_SCALE = 2\n"
            "_table = {}\n"
            "def _helper(x):\n"
            "    _local = x\n"
            "    return _local + _LIMIT\n"
            "class _Orphan:\n"
            "    pass\n"
        ),
        "b": (
            "from .a import _helper\n"
            "import a\n"
            "_count: int = 0\n"
            "def public():\n"
            "    return _helper(1) * a._SCALE\n"
        ),
    }
    assert orphaned_helpers(sources) == ["a._table", "a._Orphan", "b._count"]
