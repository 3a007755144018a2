"""Every module under `src/tempoframe` uses each name it imports, and
every private module-level name is used somewhere under `src/tempoframe`.
Every public module-level function and class, and every public method and
property of a class, is reached: a library module other than `__init__.py`
or a file in `perfbench/` reads it (as a name, an attribute or an import),
or README names it as a word. Tests are not callers, so a name only they
use goes; `_KEEP_PUBLIC` lists each exception with its reason.
Every name the benchmark in `perfbench/` imports from the library exists.
No module imports another `tempoframe` module's private name, except the
few `_SHARED_PRIVATE` lists, each with its reason. A `tempoframe run`
loads no OpenSSL.

Package `__init__` files are left out of the import check: their imports
are the public names they re-export. An import kept for its side effect
says so with `# noqa: F401` on its line, as for flake8.

No module of the package calls `sum`, `math.fsum` or `math.sumprod`:
they round differently from the left-to-right loops that the kernels,
the metrics, the transforms and the estimators add floats with, so one
call in any module that feeds a golden report would move its bytes.

No module calls `json.loads` or `json.load` outside `data.load_json`: a
plain parse keeps the last of a repeated key and raises a raw
`RecursionError` on deep nesting, so every document goes through the one
reader that refuses both with the document's own error.

No module but `bench.py` imports `csv`: a bundle keeps its ids in the
JSON manifest, so every table field is an integer or a packed number
field and a row is a line split at its commas; only `truth.csv`, which
names samples by id, is written and read through the csv module.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tempoframe"
_MODULES = sorted(p for p in _SRC.rglob("*.py") if p.name != "__init__.py")
_PERFBENCH = _SRC.parent.parent / "perfbench"


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
    assert {"data.py", "forecasting.py", "kernels.py"} <= names


@pytest.mark.parametrize("path", _MODULES,
                         ids=[p.relative_to(_SRC).as_posix()
                              for p in _MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_read(tree) -> set:
    """Every name the module `tree` reads: each name it does not assign,
    each attribute, and each imported name (its last dotted part)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.split(".")[-1] for alias in node.names)
    return used


def unused_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level function, class
    or constant of `sources` (module name -> source) that no name,
    attribute or import of any of them reads; a docstring is no use."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            defined += [(module, node.lineno, name) for name in targets
                        if name.startswith("_") and not name.endswith("__")]
        used |= names_read(tree)
    return sorted(d for d in defined if d[2] not in used)


def test_unused_private_names_are_found():
    sources = {
        "a": ("\"\"\"_dead and _Gone are named only here.\"\"\"\n"
              "_LIMIT = 3\n"
              "_dead_total: int = 0\n"
              "__version__ = '1'\n"
              "def _dead(x):\n"
              "    return _LIMIT\n"
              "class _Gone:\n"
              "    pass\n"
              "def _imported():\n"
              "    pass\n"
              "def _read_as_attribute():\n"
              "    pass\n"
              "def public():\n"
              "    _local = 1\n"
              "    return _local\n"),
        "b": ("from a import _imported\n"
              "import a\n"
              "a._read_as_attribute()\n"),
    }
    assert unused_private_names(sources) == [
        ("a", 3, "_dead_total"), ("a", 5, "_dead"), ("a", 7, "_Gone")]


def test_every_private_name_is_used():
    sources = {p.relative_to(_SRC).as_posix(): p.read_text(encoding="utf-8")
               for p in sorted(_SRC.rglob("*.py"))}
    assert len(sources) > len(_MODULES)
    assert unused_private_names(sources) == []


def unreached_public_names(sources: dict, used: set) -> list:
    """(module, line, name) of each public module-level function or class
    of `sources` (module name -> source), and of each public method or
    property of their classes (named `Class.name`), whose own name is not
    in `used`."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            names = [(node.lineno, node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                names += [(m.lineno, m.name, f"{node.name}.{m.name}")
                          for m in node.body
                          if isinstance(m, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
            found += [(module, line, qualname)
                      for line, name, qualname in names
                      if not name.startswith("_") and name not in used]
    return sorted(found)


def test_unreached_public_names_are_found():
    sources = {"a": ("def gone():\n"
                     "    pass\n"
                     "def called():\n"
                     "    pass\n"
                     "def _private():\n"
                     "    return called()\n"
                     "class Box:\n"
                     "    def __len__(self):\n"
                     "        return 0\n"
                     "    def unread(self):\n"
                     "        pass\n"
                     "    @property\n"
                     "    def size(self):\n"
                     "        return 1\n"
                     "class _Base:\n"
                     "    def read(self):\n"
                     "        pass\n"
                     "    def lost(self):\n"
                     "        pass\n")}
    used = names_read(ast.parse(sources["a"])) | names_read(
        ast.parse("from a import Box\nBox().size.read()\n"))
    assert unreached_public_names(sources, used) == [
        ("a", 1, "gone"), ("a", 10, "Box.unread"), ("a", 18, "_Base.lost")]


# Public names with no caller yet that stay, each with its reason.
_KEEP_PUBLIC = {
    "kaplan_meier": "estimates the censoring survival G of the "
                    "censoring-weighted Brier score on the ROADMAP",
    "SurvivalCurve.value_at": "reads G at each event time and at the "
                              "horizon for the same Brier score",
}


def test_every_public_name_is_reached():
    # A public name counts as reached when a library module other than
    # `__init__.py` or a benchmark file reads it, or README names it;
    # tests do not count as callers.
    sources = {p.relative_to(_SRC).as_posix(): p.read_text(encoding="utf-8")
               for p in _MODULES}
    used = set(re.findall(r"\w+", (_SRC.parent.parent / "README.md")
                          .read_text(encoding="utf-8")))
    for source in [*sources.values(),
                   *(p.read_text(encoding="utf-8")
                     for p in sorted(_PERFBENCH.glob("*.py")))]:
        used |= names_read(ast.parse(source))
    unreached = unreached_public_names(sources, used)
    assert [u for u in unreached if u[2] not in _KEEP_PUBLIC] == []
    # a kept name that gained a caller leaves the keep-list
    assert sorted(name for *_, name in unreached) == sorted(_KEEP_PUBLIC)


def private_imports(source: str) -> list:
    """(line, module, name) of each private name `source` imports from a
    `tempoframe` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "tempoframe"):
            found += [(node.lineno, node.module, alias.name)
                      for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    return sorted(found)


def test_private_imports_are_found():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from tempoframe.data import MISSING, _EMPTY as empty\n"
              "from tempoframe import __version__\n"
              "def f():\n"
              "    from tempoframe.kernels import _exp\n")
    assert private_imports(source) == [
        (3, "tempoframe.data", "_EMPTY"), (6, "tempoframe.kernels", "_exp")]


# Importing module -> the private names it may import from another
# module, each with its reason.
_SHARED_PRIVATE = {
    "bundle": {
        "_check_id": "the id rule the builders apply; the writer and the "
                     "manifest check apply the same one",
        "_float_of": "the integer range rule of `check_value`, for "
                     "Integer fields read from text",
    },
    "forecasting": {
        "_sigmoid": "the classifier predicts with the kernel's own "
                    "overflow-safe sigmoid, so fit and predict agree",
    },
    "metrics": {
        "_check_lengths": "the kernels' length check, for the Brier "
                          "score's survival column",
        "_temporal_targets": "the forecast metrics score the targets the "
                             "forecaster chose, by its own rule",
    },
    "survival": {
        "_exp": "the Cox kernel's clamped exp, so risks in the curves "
                "match the fit",
    },
}


def test_no_private_name_crosses_a_module():
    # A private name is one module's own; another module that imports it
    # couples to an implementation detail, unless it is listed above.
    found = [(path.relative_to(_SRC).with_suffix("").as_posix(), *imported)
             for path in _MODULES
             for imported in private_imports(path.read_text(encoding="utf-8"))]
    assert [f for f in found
            if f[3] not in _SHARED_PRIVATE.get(f[0], {})] == []
    # a listed name that is no longer imported leaves the list
    assert {(m, name) for m, names in _SHARED_PRIVATE.items()
            for name in names} <= {(f[0], f[3]) for f in found}


def reassociating_sums(source: str) -> list:
    """(line, name) of each call in `source` to `sum`, `fsum` or `sumprod`,
    by bare name or as `math.fsum` / `math.sumprod`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in ("sum", "fsum", "sumprod"):
            found.append((node.lineno, f.id))
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and f.value.id == "math" and f.attr in ("fsum", "sumprod")):
            found.append((node.lineno, f"math.{f.attr}"))
    return sorted(found)


def test_reassociating_sums_are_found():
    source = ("import math\n"
              "from math import fsum, sumprod\n"
              "def f(a, b):\n"
              "    s = 0.0\n"
              "    for x, y in zip(a, b):\n"
              "        s += x * y\n"
              "    return (sum(a), math.fsum(a), math.sumprod(a, b),\n"
              "            fsum(b), sumprod(a, b), a.sum(), s)\n")
    assert reassociating_sums(source) == [
        (7, "math.fsum"), (7, "math.sumprod"), (7, "sum"), (8, "fsum"),
        (8, "sumprod")]


def test_no_module_calls_a_reassociating_sum():
    found = [(path.relative_to(_SRC).as_posix(), *call)
             for path in sorted(_SRC.rglob("*.py"))
             for call in reassociating_sums(path.read_text(encoding="utf-8"))]
    assert found == []


def json_parses(source: str) -> list:
    """(line, enclosing top-level function or None, name) of each call in
    `source` to `json.load` or `json.loads`, by attribute or by a name
    imported from `json`."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"
                for alias in node.names}
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == "json" and f.attr in ("load", "loads")):
                found.append((node.lineno, owner, f"json.{f.attr}"))
            elif isinstance(f, ast.Name) and imported.get(f.id) in (
                    "load", "loads"):
                found.append((node.lineno, owner, f"json.{imported[f.id]}"))
    return sorted(found)


def test_json_parses_are_found():
    source = ("import json\n"
              "from json import loads as parse\n"
              "DOC = json.loads('{}')\n"
              "def read(f, text):\n"
              "    return json.load(f), parse(text), json.dumps(text)\n"
              "class Box:\n"
              "    def get(self, text):\n"
              "        return json.loads(text)\n")
    assert json_parses(source) == [
        (3, None, "json.loads"), (5, "read", "json.load"),
        (5, "read", "json.loads"), (8, None, "json.loads")]


def test_every_json_document_is_read_by_load_json():
    found = [(path.relative_to(_SRC).as_posix(), owner, name)
             for path in sorted(_SRC.rglob("*.py"))
             for _, owner, name in json_parses(
                 path.read_text(encoding="utf-8"))]
    assert found == [("data.py", "load_json", "json.loads")]


def module_imports(source: str, module: str) -> list:
    """The line of each import of `module` (or of a name from it) in
    `source`, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(f"{module}.")
               for name in names):
            found.append(node.lineno)
    return found


def test_module_imports_are_found():
    source = ("import csv\n"
              "import os, csv as c\n"
              "from csv import reader\n"
              "import csvkit\n"
              "from . import csv\n"
              "def f():\n"
              "    import csv.x\n")
    assert module_imports(source, "csv") == [1, 2, 3, 7]


def test_only_bench_imports_csv():
    found = [path.relative_to(_SRC).as_posix()
             for path in sorted(_SRC.rglob("*.py"))
             if module_imports(path.read_text(encoding="utf-8"), "csv")]
    assert found == ["bench.py"]


def test_benchmark_imports_from_the_library_resolve():
    # A name the benchmark imports and the library no longer has fails
    # every benchmark run, so a refactor that drops one fails here first.
    imports = []
    for path in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "tempoframe"):
                imports += [(path.name, node.lineno, node.module, alias.name)
                            for alias in node.names]
    assert {"backend_name", "strip_timing", "cli", "Lcg"} <= {
        name for *_, name in imports}
    assert [i for i in imports
            if not hasattr(importlib.import_module(i[2]), i[3])] == []


def test_the_metric_dispatch_holds_the_scoring_functions():
    # one module scores every task: `resolve_metric` binds the functions
    # of `tempoframe.metrics` themselves, and the package exports them
    import tempoframe
    from tempoframe import metrics
    for name in ("rmse", "pehe"):
        assert metrics.resolve_metric(name).score is metrics.rmse
    assert metrics.resolve_metric("accuracy").score is metrics.accuracy
    for name in ("rmse", "accuracy", "concordance_index", "brier_score"):
        assert getattr(tempoframe, name) is getattr(metrics, name)


def test_a_run_loads_no_openssl(tmp_path):
    # `hashlib` loads OpenSSL, which costs a process ~3.6 MB of resident
    # memory and ~3.5 ms of start-up; neither the CLI nor a benchmark run
    # needs it
    golden = _SRC.parent.parent / "tests" / "golden"
    doc = json.loads((golden / "config.json").read_text(encoding="utf-8"))
    doc.update(bundle=str(golden / "bundle"),
               output=str(tmp_path / "report.json"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    script = ("import sys\n"
              "from tempoframe.cli import cli\n"
              "code = cli(['run', sys.argv[1]])\n"
              "print(code, sorted({'hashlib', '_hashlib', 'ssl'} & "
              "set(sys.modules)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(config)], capture_output=True,
        text=True, timeout=60, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(_SRC.parent)})
    assert (proc.stdout, proc.stderr) == ("0 []\n", "")
    assert (tmp_path / "report.json").exists()
