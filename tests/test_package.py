"""The runtime package imports nothing outside the standard library and no
name that it never uses, and it exports exactly its pinned public names."""

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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads; a ``__future__``
    import is a compiler directive, not a name."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda path: path.name
)
def test_imports_only_names_it_uses(path):
    # __init__.py imports to re-export, so its names are read by the package's users.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == [], f"{path.name} imports names it never uses"


PUBLIC_API = [
    "AXIOMS_BY_MODE", "Axiom", "AxiomReport", "Certificate", "CertificateStatus",
    "DEFAULT_ENUMERATION_CAP", "EnumerationCapError", "Feedback", "InputError", "Mode",
    "ModeError", "NodeSetMismatchError", "ParseError", "Ranking", "RefinementTrace",
    "ReputationGraph", "TraceStep", "UnknownNodeError", "Witness", "at_least_as_strong",
    "certify", "certify_vwm_strongly_connected", "check", "check_all", "count_satisfying",
    "enumerate_preorders", "equally_strong", "more_important", "normalize",
    "pair_violates", "parse_graph", "parse_ranking", "rank_combined", "rank_graph",
    "rank_negative", "rank_positive", "socially_stronger",
]


def test_public_api_is_pinned():
    # __all__ is derived from the package's public globals, so an export that
    # vanishes, or a submodule or helper that leaks in, shows here.
    assert reprank.__all__ == PUBLIC_API
