"""A standard-library guard against unused imports in the package modules.

Each module under `src/hermops` is parsed with `ast`; a name it imports must
appear somewhere in it as a name.  The package `__init__` only re-exports, so
it is exempt.
"""

import ast
from pathlib import Path

import pytest

import hermops

MODULES = sorted(p for p in Path(hermops.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
