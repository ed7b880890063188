"""Every name a package module imports is used in that module, every
private module-level name is read somewhere in the package, no route
imports the log-domain helpers, and one function reads the live cut-off.

Stdlib stand-ins for a linter's unused-import and dead-code rules:
``__init__.py`` imports to re-export, so the first leaves it out. ``hyperbolic`` stays only for
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


def dead_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private function, class or constant defined at
    module level in ``sources`` (module name to text) and read nowhere in them.

    A read is a name loaded, an attribute, or a name another module imports
    (the unused-import check holds that one to a read of its own).
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_finds_a_dead_name():
    sources = {
        "a": "_LIMIT = 3\n_dead: int = 4\n__all__ = []\ndef _helper(): return _LIMIT\n"
             "class _Gone: pass\ndef public(): pass\n",
        "b": "from .a import _helper\nimport a\nprint(a._Gone)\n",
    }
    assert dead_names(sources) == ["a._dead"]


def test_no_dead_private_names():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert dead_names(sources) == []


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


def readers(source: str, name: str) -> list[str]:
    """The module-level statements of ``source`` that read ``name``: a
    function or class by its name, any other statement as ``line <n>``.

    A read is the name itself, an attribute of that name, or an import of it.
    """
    found = []
    for statement in ast.parse(source).body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and node.id == name \
                    or isinstance(node, ast.Attribute) and node.attr == name \
                    or isinstance(node, ast.ImportFrom) \
                    and any(alias.name == name for alias in node.names):
                found.append(getattr(statement, "name", f"line {statement.lineno}"))
                break
    return found


def test_finds_every_read_of_a_name():
    source = ("from .closed_form import _live_modes as cut\n"
              "from . import closed_form\n"
              "def route(coords, table):\n    return closed_form._live_modes(coords, table)\n"
              "def quoted():\n    return '_live_modes'\n"
              "class Holder:\n    count = staticmethod(_live_modes)\n")
    assert readers(source, "_live_modes") == ["line 1", "route", "Holder"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_only_the_pair_sum_reads_the_cut_off(module):
    # closed and rt cut their mode sums at the live cut-off; every other
    # table, solve_modes' included, covers every mode
    expected = ["_mode_sum"] if module == "closed_form.py" else []
    assert readers((PACKAGE / module).read_text(), "_live_modes") == expected
