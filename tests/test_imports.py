"""Every name a package module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule: ``__init__.py``
imports to re-export, so it is left out.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hammocknet"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_finds_an_unused_import():
    source = "import os, sys\nfrom math import pi as half_turn, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == ["half_turn", "os"]


@pytest.mark.parametrize("module", sorted(
    path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
