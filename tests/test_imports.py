"""No module of the package or of the suite imports a name it never uses.

A name counts as used when it is read anywhere in the module, in an
annotation too (a quoted annotation is parsed for the names in it).
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "dgnerve").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value))
                         if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.path.join\n", []),
    ("from typing import Mapping\ndef f(x: 'Mapping[str, int]'): pass\n", []),
    ("from typing import Mapping\nx: Mapping = {}\n", []),
    ("from a import b as c\nb\n", ["line 1: c"]),
    ("from __future__ import annotations\n", []),
])
def test_unused_imports_scan(source, unused):
    assert unused_imports(source) == unused


def imported_modules(path) -> set[str]:
    """The modules ``path`` imports; a package sibling goes by its own name,
    so ``from . import jsonio`` and ``from .jsonio import _shown`` both give
    ``jsonio``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module} if node.module else \
                {alias.name for alias in node.names}
    return names


PACKAGE = [path for path in MODULES if path.parent.name == "dgnerve"]


def test_only_rings_and_glin_import_fractions():
    """Scalars are int layers: ``Fraction`` is read by the rational
    constructors and ``.body``/``.ideal`` of ``rings`` and by ``glin.rref``
    alone."""
    assert [path.name for path in PACKAGE
            if "fractions" in imported_modules(path)] == \
        ["glin.py", "rings.py"]


def test_only_the_cli_imports_jsonio():
    """The document layer sits on top: the command line reads and writes
    documents, and no module below it (``fixtures`` included) imports
    ``jsonio``."""
    assert [path.name for path in PACKAGE
            if "jsonio" in imported_modules(path)] == ["cli.py"]


def test_only_dgcat_imports_glin():
    """Exact solving sits behind the category: kernels and witness solves
    are reached through ``DgCategory.cycle_basis`` and
    ``find_equivalence_witness``, and no other module imports ``glin``."""
    assert [path.name for path in PACKAGE
            if "glin" in imported_modules(path)] == ["dgcat.py"]


@pytest.mark.parametrize("source, modules", [
    ("import os.path\n", {"os.path"}),
    ("from fractions import Fraction\n", {"fractions"}),
    ("from . import jsonio, laws\n", {"jsonio", "laws"}),
    ("from .jsonio import _shown\n", {"jsonio"}),
])
def test_imported_modules_scan(tmp_path, source, modules):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert imported_modules(path) == modules
