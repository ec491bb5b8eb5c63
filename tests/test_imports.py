"""Every name a package module imports is used in that module.

No linter ships with the toolchain, so this walks the syntax tree: a name
bound by an import statement must appear as a name or as the root of an
attribute chain somewhere else in the module.  `__init__.py` re-exports
names and `from __future__` imports are directives, so both are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "frequalize"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b` bind the alias
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = (
        "import math\n"
        "from typing import Callable, Sequence\n"
        "def f(x: Sequence):\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == ["Callable (line 2)"]


def test_checker_skips_future_imports():
    assert unused_imports("from __future__ import annotations\n") == []
