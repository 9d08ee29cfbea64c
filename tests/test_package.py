"""The runtime package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import reprank

SOURCES = sorted(Path(reprank.__file__).parent.glob("*.py"))


def _imported_modules(tree: ast.AST) -> list[str]:
    """Top-level names of every absolute import; relative ones are in-package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return found


def test_every_module_is_scanned():
    assert {path.name for path in SOURCES} >= {"__init__.py", "dominance.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [m for m in _imported_modules(tree) if m not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports {outside}"
