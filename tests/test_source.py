"""Checks on the package source itself."""

import ast
from pathlib import Path

import dlbound


def unused_imports(text: str) -> list:
    """Names a module imports but never references."""
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_finds_an_unused_name():
    text = "from itertools import chain, product\nx = product\n"
    assert unused_imports(text) == [(1, "chain")]


def test_no_unused_imports():
    src = Path(dlbound.__file__).parent
    found = {path.name: unused
             for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"
             and (unused := unused_imports(path.read_text()))}
    assert not found
