"""The package surface: every exported name resolves, and the package root
imports only names that their modules export."""

import ast
import importlib
from pathlib import Path

import pytest

import slepbeam

PACKAGE = Path(slepbeam.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))


def _root_imports() -> dict[str, list[str]]:
    """Module name -> names that slepbeam/__init__.py imports from it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"slepbeam.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"slepbeam.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", sorted(_root_imports()))
def test_root_imports_are_module_exports(name):
    imported = _root_imports()[name]
    module = importlib.import_module(f"slepbeam.{name}")
    unexported = [n for n in imported if n not in module.__all__]
    assert not unexported, f"slepbeam imports {unexported} outside slepbeam.{name}.__all__"
    assert all(getattr(slepbeam, n) is getattr(module, n) for n in imported)
