"""The package imports only what pyproject.toml declares.

Every top-level module that a file under src/sevpredict imports must be in
the standard library, be a declared runtime dependency, or be the package
itself. A module that is merely installed here, such as scipy, fails.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sevpredict"


def declared_dependencies() -> set[str]:
    """Import names of pyproject.toml's [project] dependencies."""
    text = (ROOT / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    return {name.lower().replace("-", "_") for name in re.findall(r'"([A-Za-z0-9_.-]+)', listed)}


def imported_modules(path: pathlib.Path) -> set[str]:
    """Top-level names of the absolute imports in one file; relative ones are the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_numpy():
    assert declared_dependencies() == {"numpy"}


def test_package_imports_only_the_standard_library_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | declared_dependencies() | {PACKAGE.name}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    undeclared = [f"{path.name}: {name}" for path in sources for name in sorted(imported_modules(path) - allowed)]
    assert undeclared == [], "imports outside the standard library and pyproject.toml's dependencies"
