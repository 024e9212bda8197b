"""No module of the package imports a name it does not use.

A deletion tends to leave its imports behind (a typing helper, a function
the deleted code called). Each src/spindles/*.py is parsed with ast; every
name it imports must be read somewhere in the module or re-exported
through __all__.
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
