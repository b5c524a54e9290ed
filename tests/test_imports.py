"""Every name a module imports is used in that module.

Walks the syntax tree of each module of the package (but its
__init__.py, whose imports are re-exports), of the tests and of the
tools, with the standard library's ast alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "mrexplore").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "tools").glob("*.py")))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name the source imports and never reads. A
    name counts as read anywhere in the module, whatever the scope;
    `import a.b` binds and so imports `a`."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import numpy.linalg\n"
              "from math import hypot, pi as PI\n"
              "def f():\n"
              "    from json import loads\n"
              "    return os.sep + str(numpy.linalg)\n")
    assert unused_imports(source) == [(2, "osp"), (4, "PI"), (4, "hypot"), (6, "loads")]
