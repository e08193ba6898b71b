"""Standard-library guards on the imports of the package modules.

Each module under `src/hermops` is parsed with `ast`; a name it imports must
appear somewhere in it as a name (the package `__init__` only re-exports, so
it is exempt), and every module it imports absolutely must be part of the
standard library.
"""

import ast
import sys
from pathlib import Path

import pytest

import hermops

PACKAGE = sorted(Path(hermops.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """The names `source` imports and never reads, as (line, name) pairs in line order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_guard_flags_an_unused_import():
    source = "import os.path\nimport sys as system\nfrom math import comb, gcd\nprint(os, comb(2, 1))\n"
    assert unused_imports(source) == [(2, "system"), (3, "gcd")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def third_party_imports(source: str) -> list:
    """The top-level modules `source` imports absolutely that are not in the standard library, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.partition(".")[0]))
    return sorted((line, name) for line, name in found if name not in sys.stdlib_module_names)


def test_guard_flags_a_third_party_import():
    source = "import os.path, numpy.linalg\nfrom . import ratpoly\nfrom .jensen import GammaSeq\nfrom sympy import Poly\n"
    assert third_party_imports(source) == [(1, "numpy"), (4, "sympy")]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_module_imports_only_the_standard_library(path):
    assert third_party_imports(path.read_text()) == []
