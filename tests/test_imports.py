"""Rules over rootno's source: every name a module imports is used in
that module, every cache is bounded, and every public callable has a
docstring.

__init__.py is left out of the import rule: it imports names to re-export
them.
"""

import ast
from pathlib import Path

import pytest

import rootno

SRC = Path(__file__).resolve().parent.parent / "src" / "rootno"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_modules_are_found():
    assert {"arith.py", "local_signs.py", "root_number.py"} <= {
        p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_named():
    tree = ast.parse("import math\nimport os.path\n"
                     "from typing import Iterable, Optional\n"
                     "x: Optional[int] = math.pi\n")
    assert _unused_imports(tree) == ["line 2: os", "line 3: Iterable"]


def _unbounded_caches(tree: ast.Module) -> list[str]:
    """Functions decorated with an lru_cache that names no maxsize or
    maxsize None, or with functools.cache while taking parameters: a cache
    keyed by arguments must not grow without bound."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name == "lru_cache":
                sizes = [] if call is None else call.args[:1] + [
                    k.value for k in call.keywords if k.arg == "maxsize"]
                if not sizes or (isinstance(sizes[0], ast.Constant)
                                 and sizes[0].value is None):
                    found.append(f"line {dec.lineno}: {node.name}")
            elif name == "cache" and ast.unparse(node.args):
                found.append(f"line {dec.lineno}: {node.name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert _unbounded_caches(ast.parse(path.read_text())) == []


def test_an_unbounded_cache_is_named():
    tree = ast.parse("import functools\n"
                     "from functools import cache, lru_cache\n"
                     "@lru_cache(maxsize=None)\ndef a(x): pass\n"
                     "@functools.lru_cache(None)\ndef b(x): pass\n"
                     "@lru_cache\ndef c(x): pass\n"
                     "@cache\ndef d(x): pass\n"
                     "@functools.cache\ndef e(): pass\n"
                     "@lru_cache(maxsize=8, typed=True)\ndef f(x): pass\n"
                     "@lru_cache(len(__name__))\ndef g(x): pass\n")
    assert _unbounded_caches(tree) == [
        "line 3: a", "line 5: b", "line 7: c", "line 9: d"]


def test_every_public_callable_has_a_docstring():
    assert [name for name in rootno.__all__
            if callable(getattr(rootno, name))
            and not (getattr(rootno, name).__doc__ or "").strip()] == []
