"""Every public name resolves: each name in a zenosim module's ``__all__``,
and each name the package's ``__init__`` imports, which must also be in
its module's ``__all__``. A public name removed from its module but still
listed fails here, by name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zenosim

MODULES = sorted(info.name for info in pkgutil.iter_modules(zenosim.__path__))


def package_imports():
    """(module, name) of every ``from .module import name`` in __init__."""
    tree = ast.parse(Path(zenosim.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(f"zenosim.{module_name}")
    names = getattr(module, "__all__", ())
    assert len(set(names)) == len(names), f"zenosim.{module_name}.__all__ repeats a name"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"zenosim.{module_name}.__all__ lists missing {missing}"


@pytest.mark.parametrize("module_name,name", package_imports())
def test_every_name_the_package_imports_resolves(module_name, name):
    module = importlib.import_module(f"zenosim.{module_name}")
    assert name in module.__all__, f"zenosim.{module_name} does not export {name}"
    assert getattr(zenosim, name) is getattr(module, name)
