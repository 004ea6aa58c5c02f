"""Every imported name is used in the module that imports it, every
module-level name of the package is read somewhere, and the package
imports nothing outside the standard library.

A package `__init__.py` imports to re-export: a name listed in its
`__all__` counts as used there.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "roenum").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
BENCH = sorted((ROOT / "bench").glob("*.py"))  # import scan only


def exported(node) -> list[str]:
    """The entries of `node` when it assigns `__all__`, else none."""
    if (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
        return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        else:
            used.update(exported(node))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def defined_names(source: str) -> dict[str, int]:
    """Module-level names bound by def, class or assignment -> line;
    dunder names are left out."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        names[n.id] = node.lineno
    return {name: line for name, line in names.items()
            if not (name.startswith("__") and name.endswith("__"))}


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attribute names and the
    entries of its `__all__`."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        else:
            read.update(exported(node))
    return read


def unread_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """The module-level names of the `package` modules (path -> source)
    that none of the `readers` sources reads."""
    read = set().union(*map(read_names, readers))
    return [f"{path}: {name} (line {line})"
            for path, source in package.items()
            for name, line in defined_names(source).items()
            if name not in read]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\n" \
             "from a.b import c as d, e\nprint(sys, e)\n"
    assert unused_imports(source) == ["os (line 2)", "d (line 3)"]
    assert unused_imports("from .m import f\n__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", [*MODULES, *BENCH],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unread_name():
    module = ("A = 1\nB, C = 2, 3\n__version__ = '1'\n"
              "def f():\n    return B\nclass K:\n    pass\n"
              "__all__ = ['K']\n")
    assert unread_names({"m.py": module}, [module, "print(m.C)\n"]) == \
        ["m.py: A (line 1)", "m.py: f (line 4)"]


def test_every_module_level_name_is_read():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    readers = [p.read_text() for p in MODULES]
    assert unread_names(package, readers) == []


def foreign_imports(source: str) -> list[str]:
    """The absolute imports of `source`, lazy ones included, whose
    top-level module is neither in the standard library nor `roenum`."""
    heads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            heads += [(a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            heads.append((node.module.split(".")[0], node.lineno))
    return [f"{head} (line {line})" for head, line in heads
            if head not in sys.stdlib_module_names and head != "roenum"]


def test_scan_finds_a_foreign_import():
    source = ("from __future__ import annotations\nimport os.path, numpy\n"
              "from . import stats\nfrom roenum.trie import descend\n"
              "def f():\n    from scipy.stats import chi2\n")
    assert foreign_imports(source) == ["numpy (line 2)", "scipy (line 6)"]


def test_package_imports_only_the_standard_library():
    assert [f"{path.name}: {found}" for path in PACKAGE
            for found in foreign_imports(path.read_text())] == []
