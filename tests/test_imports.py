"""Every module under `src/tempoframe` uses each name it imports.

Package `__init__` files are left out: their imports are the public names
they re-export. An import kept for its side effect says so with
`# noqa: F401` on its line, as for flake8.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tempoframe"
_MODULES = sorted(p for p in _SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name `source` imports but never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import tempoframe  # noqa: F401\n"
              "from tempoframe.data import Integer, MISSING\n"
              "def f(v) -> MISSING:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(2, "osp"), (4, "Integer")]


def test_modules_are_found():
    names = {p.relative_to(_SRC).as_posix() for p in _MODULES}
    assert {"data.py", "forecasting.py", "kernels/pure.py"} <= names


@pytest.mark.parametrize("path", _MODULES,
                         ids=[p.relative_to(_SRC).as_posix()
                              for p in _MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
