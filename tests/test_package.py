"""The package surface: every exported name resolves, the package root
imports only names that their modules export, every function the benchmark
tracer times exists, and nothing imports the undeclared scipy or mpmath."""

import ast
import importlib
from pathlib import Path

import pytest

import slepbeam

PACKAGE = Path(slepbeam.__file__).parent
REPO = Path(__file__).resolve().parents[1]
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


def _tracer_targets() -> list[tuple[str, str]]:
    """TARGETS of perfbench/tracer.py, read without importing the benchmark."""
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module, name", _tracer_targets())
def test_tracer_targets_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"slepbeam.{module}"), name, None))


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_undeclared_numeric_dependencies():
    files = [p for top in ("src", "tests", "perfbench") for p in sorted((REPO / top).rglob("*.py"))]
    offending = {
        str(p.relative_to(REPO)): sorted(roots)
        for p in files
        if (roots := _imported_roots(p) & {"scipy", "mpmath"})
    }
    assert files and not offending
