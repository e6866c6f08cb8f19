"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
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


def imported_modules(text: str) -> set:
    """The top-level names of the modules a module imports, relative
    imports left out."""
    tree = ast.parse(text)
    return {alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names} | {
        node.module.split(".")[0] for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and not node.level}


def test_imported_modules_finds_both_forms():
    text = ("import os.path\nfrom dataclasses import field\n"
            "from . import unify\nfrom .core import Var\n")
    assert imported_modules(text) == {"os", "dataclasses"}


def test_no_module_imports_dataclasses():
    # `@dataclass` generates and compiles each class's methods at import,
    # and `dataclasses` loads `inspect`: most of the package's import time
    src = Path(dlbound.__file__).parent
    assert not [path.name for path in sorted(src.glob("*.py"))
                if "dataclasses" in imported_modules(path.read_text())]


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


def calls_itself(fn) -> bool:
    """Does fn's body call fn's own name, bare or on self or cls?"""
    return any(
        isinstance(n, ast.Call) and (
            isinstance(n.func, ast.Name) and n.func.id == fn.name
            or isinstance(n.func, ast.Attribute) and n.func.attr == fn.name
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id in ("self", "cls"))
        for n in ast.walk(fn))


def self_calls(texts: dict) -> list:
    """(module, dotted name) of each function, nested ones and methods
    included, whose body calls itself.  Direct recursion only: a cycle
    through other functions goes unseen."""
    found = []
    for module, text in texts.items():
        stack = [(ast.parse(text), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if isinstance(child, ast.FunctionDef) and \
                            calls_itself(child):
                        found.append((module, name))
                    name += "."
                stack.append((child, name))
    return sorted(found)


def test_self_calls_finds_direct_recursion():
    texts = {"a.py": "def fact(n):\n"
                     "    return 1 if n < 2 else n * fact(n - 1)\n\n"
                     "def flat(xs):\n"
                     "    def walk(x):\n"
                     "        return [walk(y) for y in x]\n"
                     "    return walk(xs)\n\n"
                     "class Bag:\n"
                     "    def add(self, x):\n"
                     "        self.items.add(x)\n\n"
                     "    def drain(self, n):\n"
                     "        return self.drain(n - 1)\n",
             "b.py": "from a import fact\n\n"
                     "def fact2(n):\n"
                     "    return fact(n)\n"}
    assert self_calls(texts) == [
        ("a.py", "Bag.drain"), ("a.py", "fact"), ("a.py", "flat.walk")]


# Recursion kept on purpose, each with why its depth stays small.
SELF_CALLS_ALLOWED = {
    # as deep as the JSON payload nests, at most 3
    ("cli.py", "_json_text"),
}


def test_no_self_calls():
    # a call per element or tuple overflows Python's stack on wide inputs
    src = Path(dlbound.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert set(self_calls(texts)) == SELF_CALLS_ALLOWED


def argument(call, index, param):
    """What `call` passes for a parameter at position `index` (None if
    keyword-only) named `param`: None for nothing, the dump of a
    literal, or the call itself when that is no literal or cannot be
    told (`*args`, `**kwargs`)."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return call
    value = next((k.value for k in call.keywords if k.arg == param), None)
    if value is None and index is not None and index < len(call.args):
        value = call.args[index]
    if value is None:
        return None
    return ast.dump(value) if isinstance(value, ast.Constant) else call


def constant_private_parameters(texts: dict) -> list:
    """(module, function, parameter) of each defaulted parameter of a
    module-level `_function` that no call passes, or that every call
    passes as one and the same literal.  A function also referred to
    otherwise than by a call is skipped: it may be called out of sight."""
    trees = {module: ast.parse(text) for module, text in texts.items()}
    used = sum(map(references, trees.values()), Counter())
    calls: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                calls.setdefault(name, []).append(node)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            own = calls.get(node.name, [])
            if used[node.name] != len(own):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= first]
            defaulted += [(None, a.arg) for a, default in
                          zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for index, param in defaulted:
                passed = {argument(call, index, param) for call in own}
                if len(passed) == 1 and \
                        isinstance(passed.pop(), (str, type(None))):
                    found.append((module, node.name, param))
    return sorted(found)


def test_constant_private_parameters_finds_both_kinds():
    texts = {"a.py": "def _scale(x, factor=2, exact=False):\n"
                     "    return x * factor\n\n"
                     "def _clip(x, *, hi=None):\n"
                     "    return x\n",
             "b.py": "from a import _clip, _scale\n"
                     "y = _scale(1, exact=True) + _scale(2, 3, True)\n"
                     "z = _clip(y) + _clip(_scale(y, factor=y, exact=True))\n"}
    assert constant_private_parameters(texts) == [
        ("a.py", "_clip", "hi"), ("a.py", "_scale", "exact")]


def test_no_constant_private_parameters():
    src = Path(dlbound.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert not constant_private_parameters(texts)


def unbounded_cache(decorator) -> bool:
    """Is this `functools.cache`, or `lru_cache` with maxsize None?"""
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    if not isinstance(decorator, ast.Call):
        return name(decorator) == "cache"
    maxsize = decorator.args[0] if decorator.args else next(
        (k.value for k in decorator.keywords if k.arg == "maxsize"), None)
    return name(decorator.func) == "lru_cache" and \
        isinstance(maxsize, ast.Constant) and maxsize.value is None


def unbounded_caches(texts: dict) -> list:
    """(module, dotted name) of each module-level function, or method of
    a module-level class, that memoises without bound: its memo outlives
    the call that filled it.  A cache made inside a function and a
    `cached_property` last only as long as their call or instance."""
    found = []
    for module, text in texts.items():
        for node in ast.parse(text).body:
            inner = node.body if isinstance(node, ast.ClassDef) else ()
            for fn in (node, *inner):
                if isinstance(fn, ast.FunctionDef) and \
                        any(map(unbounded_cache, fn.decorator_list)):
                    found.append((module, fn.name if fn is node
                                  else f"{node.name}.{fn.name}"))
    return sorted(found)


def test_unbounded_caches_finds_module_and_class_level_memos():
    texts = {"a.py": "import functools\n"
                     "from functools import cache, lru_cache\n\n"
                     "@cache\ndef f(n):\n    return n\n\n"
                     "@functools.lru_cache(maxsize=None)\n"
                     "def g(n):\n    return n\n\n"
                     "@lru_cache(maxsize=64)\ndef small(n):\n    return n\n\n"
                     "@lru_cache\ndef default(n):\n    return n\n\n"
                     "def per_call(xs):\n"
                     "    @cache\n    def at(i):\n        return xs[i]\n"
                     "    return at(0)\n\n"
                     "class C:\n"
                     "    @lru_cache(None)\n    def m(self):\n        return 1\n\n"
                     "    @functools.cached_property\n"
                     "    def p(self):\n        return 2\n"}
    assert unbounded_caches(texts) == [
        ("a.py", "C.m"), ("a.py", "f"), ("a.py", "g")]


def test_no_unbounded_caches():
    # no state may carry over from one call of the package to the next
    src = Path(dlbound.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert not unbounded_caches(texts)


def test_bench_layers_resolve():
    # the traced bench patches each layer by name; a renamed function or
    # method would otherwise break only the traced runs
    path = Path(__file__).parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _ in tracing.LAYERS.values():
        owner = importlib.import_module(f"dlbound.{module}")
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if not callable(getattr(owner, "__dict__", {}).get(name)):
            missing.append(f"{module}.{attr}")
    assert not missing


GC_SWITCHES = {"disable", "freeze", "set_threshold"}


def gc_switches(texts: dict) -> list:
    """(module, line) of each use of gc.disable, gc.freeze or
    gc.set_threshold: read off the gc module, under any name, or
    imported from it."""
    found = []
    for module, text in texts.items():
        tree = ast.parse(text)
        names = {a.asname or a.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import)
                 for a in node.names if a.name == "gc"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    node.attr in GC_SWITCHES and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in names or \
                    isinstance(node, ast.ImportFrom) and \
                    node.module == "gc" and \
                    any(a.name in GC_SWITCHES for a in node.names):
                found.append((module, node.lineno))
    return sorted(found)


def test_gc_switches_finds_every_spelling():
    texts = {"a.py": "import gc\nimport gc as collector\n"
                     "gc.disable()\ncollector.freeze()\n"
                     "gc.collect()\nother.disable()\n",
             "b.py": "from gc import set_threshold\nset_threshold(0)\n"}
    assert gc_switches(texts) == [("a.py", 3), ("a.py", 4), ("b.py", 1)]


def test_no_gc_switches():
    # each is process-wide: a call that flips one changes every thread's
    # collector, which the README's thread-safety promise rules out
    src = Path(dlbound.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert not gc_switches(texts)
