"""Checks on the package source that need only the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tifsem"


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


def _is_click_command(node: ast.FunctionDef | ast.ClassDef) -> bool:
    """Whether a ``@<group>.command(...)`` or ``@<group>.group(...)``
    decorator registers the definition with click."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def unused_definitions(modules: list[str], readers: list[str], exported: set[str]) -> list[str]:
    """Module-level functions and classes of ``modules`` whose names no
    source in ``modules`` or ``readers`` reads (as a name or an attribute),
    that ``exported`` does not list and that are no click commands."""
    defined = {node.name for source in modules for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_click_command(node)}
    read: set[str] = set()
    for source in modules + readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read - exported)


def test_unused_definition_is_found():
    module = ("def helper(): pass\ndef dead(): pass\nclass Dead: pass\ndef api(): pass\n"
              "def by_attribute(): pass\n@main.command()\ndef cmd(): pass\nhelper()\n")
    assert unused_definitions([module], ["mod.by_attribute()\n"], {"api"}) == ["Dead", "dead"]


def test_every_module_level_definition_is_used():
    import tifsem

    def sources(folder: Path) -> list[str]:
        return [path.read_text(encoding="utf-8") for path in sorted(folder.glob("*.py"))]

    readers = sources(ROOT / "scripts") + sources(ROOT / "perfbench")
    assert unused_definitions(sources(SRC), readers, set(tifsem.__all__)) == []


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
