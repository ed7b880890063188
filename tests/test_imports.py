"""Every name a package module imports is used in that module, and no
route imports the log-domain helpers.

A stdlib stand-in for a linter's unused-import rule: ``__init__.py``
imports to re-export, so it is left out. ``hyperbolic`` stays only for
the benchmark tracer, which looks its names up; the package re-exports
it, but no route may import it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hammocknet"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def imports_hyperbolic(source: str) -> bool:
    """Whether ``source`` imports the ``hyperbolic`` module or a name from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any(module.rpartition(".")[2] == "hyperbolic" for module in modules):
            return True
    return False


def test_finds_a_hyperbolic_import():
    assert imports_hyperbolic("from .hyperbolic import log_cosh\n")
    assert imports_hyperbolic("from . import hyperbolic\n")
    assert imports_hyperbolic("import hammocknet.hyperbolic as h\n")
    assert not imports_hyperbolic("from .closed_form import _CLAMP\nhyperbolic = 1\n")


@pytest.mark.parametrize("module", MODULES)
def test_no_route_imports_hyperbolic(module):
    assert not imports_hyperbolic((PACKAGE / module).read_text())
