"""Checks on the package source that need only the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tifsem"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads and
    does not list in ``__all__``."""
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def imported_packages(source: str) -> set[str]:
    """The top-level package of every import, module-level or not; a
    relative import names the package itself."""
    packages: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            packages.add("tifsem" if node.level else node.module.split(".")[0])
    return packages


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nimport re as regex\nfrom x import y, z\n"
    assert unused_imports(source + "__all__ = ['z']\nprint(y)\n") == ["os", "regex"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_imports_inside_functions_are_found():
    source = "import os.path\nfrom . import graph\ndef f():\n    from numpy.linalg import norm\n"
    assert imported_packages(source) == {"os", "tifsem", "numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_runtime_needs_only_the_standard_library_and_click(path):
    allowed = sys.stdlib_module_names | {"click", "tifsem"}
    assert imported_packages(path.read_text(encoding="utf-8")) - allowed == set()


def test_every_exported_name_exists_once():
    import tifsem

    assert [name for name in tifsem.__all__ if not hasattr(tifsem, name)] == []
    assert len(set(tifsem.__all__)) == len(tifsem.__all__)
