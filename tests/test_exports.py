"""Every public name resolves: each name in a module's ``__all__`` and each
name that ``ruelle/__init__.py`` imports.  A name removed from a module but
left in an export list fails here.  No package module imports scipy or the
test helpers."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ruelle

MODULES = sorted(info.name for info in pkgutil.iter_modules(ruelle.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ruelle.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(ruelle.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ruelle.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"ruelle.{node.module}.{alias.name}"
            assert hasattr(ruelle, alias.asname or alias.name)


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
