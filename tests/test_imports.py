"""Every name a rootno module imports is used in that module.

__init__.py is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

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
