"""Every module-level name of the package is read somewhere besides its definition.

A name bound at module level in a package module (by def, class or
assignment; dunders excepted) must be read in src/, tests/ or perfbench/:
as a loaded name, as an attribute, or as a name imported from a module.
The definition itself does not count, and neither do mentions in strings,
comments or docstrings.  A re-export in `__init__.py` counts as a read, so
the public API passes as long as it is exported.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "frequalize").glob("*.py"))
READERS = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def module_names(source: str) -> list[str]:
    """Names bound by the top-level def, class and assignment statements, dunders excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def reads(source: str) -> Counter:
    """How often each identifier is read: loaded names, loaded attributes, imported names."""
    out: Counter = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced(modules: dict[str, str], readers: list[str]) -> list[str]:
    """'module: name' for each module-level name of modules that no source in readers reads."""
    read = sum((reads(source) for source in readers), Counter())
    return [f"{mod}: {name}" for mod, source in modules.items() for name in module_names(source)
            if not read[name]]


def test_every_module_level_name_is_read():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unreferenced(modules, [p.read_text() for p in READERS]) == []


def test_checker_flags_a_dead_constant():
    source = (
        "LIMIT = 2\n"
        "DEAD = 3\n"
        "__all__ = ['f']\n"
        "def f(x):\n"
        "    DEAD_LOCAL = 4\n"
        "    return min(x, LIMIT)\n"
        "class Box:\n"
        "    pass\n"
    )
    assert module_names(source) == ["LIMIT", "DEAD", "f", "Box"]
    user = "from m import f\nimport m\nprint(m.Box)\nm.DEAD = 5\n"  # a store is not a read
    assert unreferenced({"m.py": source}, [source, user]) == ["m.py: DEAD"]
