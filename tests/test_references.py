"""Every module-level name and every attribute of the package is read somewhere.

A name bound at module level in a package module (by def, class or
assignment; dunders excepted) must be read in src/, tests/ or perfbench/:
as a loaded name, as an attribute, or as a name imported from a module.
The definition itself does not count, and neither do mentions in strings,
comments or docstrings.  A re-export in `__init__.py` counts as a read, so
the public API passes as long as it is exported.

Likewise every instance attribute a package class stores (`self.x = ...`)
and every dataclass field must be read in src/, tests/ or perfbench/: as an
attribute load, or as a string constant passed to `getattr`.  Stores,
constructor keywords and `object.__setattr__` do not count.

Every module-level name must also be reached by a paper check: read in
`cli.py`, `tests/test_acceptance.py` or `perfbench/`, or in the definition
(def, class or assignment) of a name so reached.  `__init__.py` re-exports
and the other unit tests do not count, so a name only unit tests call is
flagged; the few kept for their tests alone are listed with their reasons.

Only `grid.py` calls an FFT (fftn, ifftn, rfftn or irfftn, under any
module): the grid decides the lattice, its calibration and its Nyquist
planes, and every other module reads them through its transforms.

A norm of a real field reads the field's half lattice and nothing else: no
package module but `grid.py` reads `forward_transform`, `__init__.py`
re-exports aside, and no module in src/, tests/ or perfbench/ reads a
`shell_spectrum`.  The producers of real fields (the random fields, the
solver's initial data and the lattice mode propagator with its evolution)
read no full-lattice transform, projection or mirror of their own.

The dyadic family is decided in `littlewood_paley.py` alone: no other
package module reads `ROUNDOFF_FLOOR` or `block_indices`; they ask it for
the family's (qs, profiles) and for the mask of its live blocks.

No package module uses `functools.lru_cache` or `functools.cache`: a
module-level cache keeps what it holds for the life of the process, so
the call that needs an object builds it and owns it.

No package module imports `concurrent.futures` or `threading`: the package
computes in the calling thread, and only `scipy.fft` splits a transform
over threads of its own.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "frequalize").glob("*.py"))
READERS = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def bound_names(node: ast.stmt) -> list[str]:
    """Names a top-level def, class or assignment statement binds, dunders excepted."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def module_names(source: str) -> list[str]:
    """Names bound by the top-level def, class and assignment statements, dunders excepted."""
    return [name for node in ast.parse(source).body for name in bound_names(node)]


def reads(source: str | ast.AST) -> Counter:
    """How often each identifier is read: loaded names, loaded attributes, imported names."""
    out: Counter = Counter()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreached(modules: dict[str, str], roots: list[str]) -> list[str]:
    """'module: name' for each module-level name of modules that roots do not reach.

    A name is reached when a source in roots reads it, or when the definition
    of a reached name does.  Names are matched by identifier, as in `reads`.
    """
    uses: dict[str, set[str]] = {}
    for source in modules.values():
        for node in ast.parse(source).body:
            for name in bound_names(node):
                uses.setdefault(name, set()).update(reads(node))
    frontier = set().union(*(reads(source) for source in roots)) & uses.keys()
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier |= (uses[name] & uses.keys()) - reached
    return [f"{mod}: {name}" for mod, source in modules.items() for name in module_names(source)
            if name not in reached]


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated with @dataclass or @dataclass(...)."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def attribute_names(source: str) -> list[str]:
    """'Class.attr' for each dataclass field and each attribute stored on self in a method."""
    names = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls):
            names += [f"{cls.name}.{node.target.id}" for node in cls.body
                      if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                targets = node.targets if isinstance(node, ast.Assign) else (
                    [node.target] if isinstance(node, ast.AnnAssign) else [])
                names += [f"{cls.name}.{t.attr}" for target in targets for t in ast.walk(target)
                          if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                          and t.value.id == "self"]
    return list(dict.fromkeys(names))


def attribute_reads(source: str) -> Counter:
    """How often each attribute is read: attribute loads and string constants passed to getattr."""
    out: Counter = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            out[node.args[1].value] += 1
    return out


def unread_attributes(modules: dict[str, str], readers: list[str]) -> list[str]:
    """'module: Class.attr' for each attribute of modules that no source in readers reads."""
    read = sum((attribute_reads(source) for source in readers), Counter())
    return [f"{mod}: {name}" for mod, source in modules.items() for name in attribute_names(source)
            if not read[name.split(".")[1]]]


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


PAPER_CHECKS = [ROOT / "src" / "frequalize" / "cli.py", ROOT / "tests" / "test_acceptance.py",
                *sorted((ROOT / "perfbench").rglob("*.py"))]
TEST_ONLY = {  # names that only unit tests reach, each kept for the check it serves
    "linear_modes.py: ModePropagator": "the single-mode propagator the structure tests drive "
                                       "against a per-mode ODE oracle and the A0-weighted norm",
    "linear_modes.py: system_matrices": "the A0 / A / L split of the generator that the structure "
                                        "tests check for symmetry, damping and the constraint",
}


def test_every_module_level_name_is_reached_by_a_paper_check():
    modules = {p.name: p.read_text() for p in MODULES if p.name != "__init__.py"}
    assert sorted(unreached(modules, [p.read_text() for p in PAPER_CHECKS])) == sorted(TEST_ONLY)


def test_checker_flags_an_unreached_name():
    source = (
        "LIMIT = 2\n"
        "SCALE = LIMIT * 3\n"
        "def helper(x):\n"
        "    return min(x, SCALE)\n"
        "def entry(x):\n"
        "    return helper(x)\n"
        "def tested_only(x):\n"
        "    return helper(x) + ORPHAN\n"
        "ORPHAN = 1\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return LIMIT\n"
    )
    init = "from .m import LIMIT, SCALE, helper, entry, tested_only, ORPHAN, Box\n"
    check = "from frequalize.m import entry\nimport frequalize.m as m\nprint(m.Box)\n"
    unit_test = "from frequalize.m import tested_only\n"  # reaches both names only if counted as a root
    assert unreached({"m.py": source, "__init__.py": init}, [check]) == [
        "m.py: tested_only", "m.py: ORPHAN"]
    assert unreached({"m.py": source}, [check, unit_test]) == []


def test_every_attribute_is_read():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unread_attributes(modules, [p.read_text() for p in READERS]) == []


def test_checker_flags_a_dead_attribute():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    value: float\n"
        "    unused: float\n"
        "    LIMIT = 3\n"
        "class Box:\n"
        "    def __init__(self, a):\n"
        "        self.a, self._b = a, 2 * a\n"
        "        self.dead = a\n"
        "        self.dead = 3 * a\n"
        "    def size(self):\n"
        "        local = Box(1)\n"
        "        local.dead = 4\n"  # a store through another name is not an attribute of self
        "        return self._b\n"
    )
    assert attribute_names(source) == ["Report.value", "Report.unused", "Box.a", "Box._b", "Box.dead"]
    user = "r = Report(value=1.0, unused=2.0)\nprint(r.value, getattr(Box(1), 'a'))\nBox(1).dead = 5\n"
    assert unread_attributes({"m.py": source}, [source, user]) == ["m.py: Report.unused", "m.py: Box.dead"]


FFT_CALLS = {"fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"}


def fft_calls(source: str) -> list[str]:
    """'line: name' for each call of an FFT in FFT_CALLS, by bare name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in FFT_CALLS:
                found.append(f"{node.lineno}: {name}")
    return found


def test_only_the_grid_calls_an_fft():
    calls = {p.name: fft_calls(p.read_text()) for p in MODULES if p.name != "grid.py"}
    assert {name: found for name, found in calls.items() if found} == {}


def test_checker_flags_an_fft_call():
    source = (
        "import numpy as np\n"
        "import scipy.fft\n"
        "from scipy.fft import irfftn\n"
        "def f(x):\n"
        "    \"\"\"rfftn in a docstring is no call.\"\"\"\n"
        "    y = np.fft.fftn(x) + scipy.fft.rfftn(x)\n"
        "    return irfftn(y), scipy.fft.irfft(y), np.fft.fftfreq(4), np.fft.ifftn\n"
    )
    assert fft_calls(source) == ["6: fftn", "6: rfftn", "7: irfftn", "7: irfft"]


def readers_of(sources: dict[str, str], name: str) -> list[str]:
    """The keys of sources whose code reads name, as `reads` counts reads."""
    return [key for key, source in sources.items() if reads(source)[name]]


def test_norms_read_the_half_lattice():
    package = {p.name: p.read_text() for p in MODULES}
    allowed = ("__init__.py", "grid.py")  # the re-export, the definition
    assert [name for name in readers_of(package, "forward_transform") if name not in allowed] == []
    everything = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    assert readers_of(everything, "shell_spectrum") == []


def test_checker_flags_a_reader():
    sources = {
        "a.py": "from .grid import forward_transform\n",
        "b.py": "import grid\nx = grid.forward_transform\n",
        "c.py": "def forward_transform():\n    \"\"\"forward_transform in a docstring is no read.\"\"\"\n",
        "d.py": "s = field.shell_spectrum()\n",
    }
    assert readers_of(sources, "forward_transform") == ["a.py", "b.py"]
    assert readers_of(sources, "shell_spectrum") == ["d.py"]


FAMILY = ("ROUNDOFF_FLOOR", "block_indices")


def family_readers(modules: dict[str, str]) -> dict[str, list[str]]:
    """For each of FAMILY, the modules other than littlewood_paley.py that read it, as `reads` counts."""
    return {name: [m for m in readers_of(modules, name) if m != "littlewood_paley.py"] for name in FAMILY}


def test_the_dyadic_family_is_decided_in_littlewood_paley():
    package = {p.name: p.read_text() for p in MODULES}
    assert family_readers(package) == {name: [] for name in FAMILY}


def test_checker_flags_a_family_reader():
    sources = {
        "littlewood_paley.py": "ROUNDOFF_FLOOR = 1e-13\ndef live_blocks(n):\n    return n > ROUNDOFF_FLOOR * n.max()\n",
        "besov.py": "from .littlewood_paley import ROUNDOFF_FLOOR\n",
        "decay_kernel.py": "from . import littlewood_paley as lp\nqs = lp.block_indices(grid)\n",
        "solver.py": "def f():\n    \"\"\"ROUNDOFF_FLOOR and block_indices in a docstring are no read.\"\"\"\n",
    }
    assert family_readers(sources) == {"ROUNDOFF_FLOOR": ["besov.py"], "block_indices": ["decay_kernel.py"]}


FULL_LATTICE = {"forward_transform", "inverse_transform", "solenoidal_projection", "_reflected", "fftn", "ifftn"}
HALF_LATTICE_PRODUCERS = ("initial_data_gen", "random_band_limited_field", "GridModePropagator",
                          "linear_evolve_grid", "block", "decompose")


def full_lattice_reads(modules: dict[str, str], names) -> dict[str, list[str]]:
    """For each of names, the FULL_LATTICE names its top-level definition in modules reads, as `reads` counts."""
    definitions = {name: node for source in modules.values() for node in ast.parse(source).body
                   for name in bound_names(node) if name in names}
    return {name: sorted(FULL_LATTICE & reads(definitions[name]).keys()) for name in names}


def test_real_field_producers_stay_on_the_half_lattice():
    modules = {p.name: p.read_text() for p in MODULES}
    assert full_lattice_reads(modules, HALF_LATTICE_PRODUCERS) == {name: [] for name in HALF_LATTICE_PRODUCERS}


def test_checker_flags_a_full_lattice_read():
    source = (
        "import numpy as np\n"
        "from .grid import _reflected, half_lattice_forward\n"
        "def half(x):\n"
        "    \"\"\"inverse_transform in a docstring is no read.\"\"\"\n"
        "    return half_lattice_forward(x)\n"
        "def full(x):\n"
        "    return np.fft.ifftn(_reflected(x))\n"
        "class Mirror:\n"
        "    def apply(self, x):\n"
        "        return grid.forward_transform(x)\n"
    )
    assert full_lattice_reads({"m.py": source}, ("half", "full", "Mirror")) == {
        "half": [], "full": ["_reflected", "ifftn"], "Mirror": ["forward_transform"]}


PROCESS_CACHES = {"lru_cache", "cache"}


def process_caches(source: str) -> list[str]:
    """'line: name' for each use of a PROCESS_CACHES decorator of functools: imported from it, or read as an
    attribute of a name that `import functools` bound."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{node.lineno}: {alias.name}" for alias in node.names if alias.name in PROCESS_CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in PROCESS_CACHES
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.lineno}: {node.attr}")
    return found


def test_no_module_keeps_a_process_wide_cache():
    found = {p.name: process_caches(p.read_text()) for p in MODULES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_checker_flags_a_process_wide_cache():
    source = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import cached_property, lru_cache, reduce\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def f(x):\n"
        "    \"\"\"functools.cache in a docstring is no use.\"\"\"\n"
        "    return reduce(max, x)\n"
        "g = ft.cache(f)\n"
        "h = other.cache(f)\n"
    )
    assert process_caches(source) == ["3: lru_cache", "4: lru_cache", "8: cache"]


THREAD_MODULES = {"concurrent.futures", "threading"}


def thread_imports(source: str) -> list[str]:
    """'line: module' for each import of a THREAD_MODULES module or of a name from one, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: {alias.name}" for alias in node.names if alias.name in THREAD_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            found += [f"{node.lineno}: {name}" for name in names if name in THREAD_MODULES]
    return found


def test_no_module_imports_a_thread_library():
    found = {p.name: thread_imports(p.read_text()) for p in MODULES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_checker_flags_a_thread_import():
    source = (
        "import threading\n"
        "import concurrent.futures as cf, os\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor, wait\n"
        "from threading import Lock\n"
        "from .threading import helper\n"
        "import threadpoolctl, concurrent\n"
        "def f():\n"
        "    \"\"\"import threading in a docstring is no import.\"\"\"\n"
        "    import threading as th\n"
        "    return th.Lock, 'concurrent.futures'\n"
    )
    assert thread_imports(source) == [
        "1: threading", "2: concurrent.futures", "3: concurrent.futures", "4: concurrent.futures", "5: threading",
        "10: threading",
    ]
