"""The package's per-instance caches are exactly the five listed here.

A stdlib ``ast`` scan of every module for functions decorated with
``functools.lru_cache`` or ``functools.cache``, in any spelling. Each
cache holds tables that outlive a query, and the benchmark tracer counts
hits and misses by name, so adding one, or a second table per instance,
takes a deliberate edit of ``EXPECTED``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hammocknet"
EXPECTED = {
    "closed_form._decay_table",
    "recurrence.mode_transform",
    "spectral.eigen_system",
    "oracle._laplacian",
    "oracle._eigenpairs",
}
_CACHES = {"lru_cache", "cache"}


def _is_cache(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in _CACHES
    return isinstance(decorator, ast.Name) and decorator.id in _CACHES


def cached_functions(source: str, module: str) -> set[str]:
    """``module.name`` of every function in ``source`` with a cache decorator."""
    return {f"{module}.{node.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_is_cache(decorator) for decorator in node.decorator_list)}


def test_finds_every_spelling():
    source = "\n".join([
        "import functools",
        "from functools import cache, cached_property, lru_cache",
        "@lru_cache(maxsize=4)",
        "def a(): pass",
        "@functools.lru_cache",
        "def b(): pass",
        "@cache",
        "def c(): pass",
        "class K:",
        "    @functools.cache",
        "    def d(self): pass",
        "    @cached_property",
        "    def e(self): pass",
        "@staticmethod",
        "def f(): pass",
    ])
    assert cached_functions(source, "m") == {"m.a", "m.b", "m.c", "m.d"}


def test_exactly_the_per_instance_caches():
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= cached_functions(path.read_text(), path.stem)
    assert found == EXPECTED
