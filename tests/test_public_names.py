"""Every public name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import raylien

MODULES = [importlib.import_module(f"raylien.{m.name}") for m in pkgutil.iter_modules(raylien.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    # a stale entry would break `from raylien.<module> import *`
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(raylien.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"raylien.{module}"), name), (module, name)
        assert hasattr(raylien, name), name
