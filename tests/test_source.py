"""Checks on the package source itself."""

import ast
from collections import Counter
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


def references(node) -> Counter:
    """How often each name is read below node, as a name or attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unused_private_definitions(texts: dict) -> list:
    """(module, name) of each module-level `_name` function or class
    that no code outside its own definition refers to."""
    trees = {module: ast.parse(text) for module, text in texts.items()}
    used = sum(map(references, trees.values()), Counter())
    return sorted(
        (module, node.name) for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and used[node.name] == references(node)[node.name])


def test_unused_private_definitions_finds_a_leftover():
    texts = {"a.py": "def _kept():\n    pass\n\n"
                     "def _left(n):\n    return _left(n - 1)\n",
             "b.py": "from a import _kept\nx = _kept()\n"}
    assert unused_private_definitions(texts) == [("a.py", "_left")]


def test_no_unused_private_definitions():
    src = Path(dlbound.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert not unused_private_definitions(texts)
