"""Every public name resolves: each name in a module's ``__all__``.  The
package binds its seven library modules and none of their names, so each
public name has one home, its module's ``__all__``.  No package module
imports scipy or the test helpers."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ruelle

MODULES = sorted(info.name for info in pkgutil.iter_modules(ruelle.__path__))
LIBRARY = ["julia", "lifts", "maps", "numerics", "operators", "spectra", "traces"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ruelle.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_binds_only_its_modules():
    # a fresh interpreter, since an earlier test's import of ruelle.cli binds
    # it here: the package loads and binds the seven library modules and no
    # function, class or constant from them
    code = (
        "import sys, ruelle; "
        "print(sorted(m for m in sys.modules if m.startswith('ruelle.'))); "
        "print(sorted(n for n in vars(ruelle) if not n.startswith('_')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ruelle.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    loaded, names = (ast.literal_eval(line) for line in res.stdout.splitlines())
    assert loaded == [f"ruelle.{name}" for name in LIBRARY]
    assert names == LIBRARY


@pytest.mark.parametrize("path", sorted(Path(ruelle.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_test_only_imports(path):
    # scipy is a test dependency only, and the oracles in tests/helpers.py
    # must stay independent of the package: neither may be imported from
    # src, at top level or inside a function
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots.isdisjoint({"scipy", "tests", "helpers"})
