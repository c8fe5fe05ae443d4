"""Checks on the package's source text itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "infdiag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names a module's imports bind that no expression of it reads;
    ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    assert unread_imports(
        "from __future__ import annotations\n"
        "import os.path, re as regex\n"
        "from json import dumps, loads as parse\n"
        "regex.compile(''); x: dumps = 0\n") == ["os", "parse"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    # The package has no linter; an import left behind by deleted code
    # fails here.
    assert unread_imports(path.read_text()) == []
