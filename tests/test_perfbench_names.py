"""Every name the benchmark tracer looks up still exists in the package,
and accepts the call the tracer's wrapper makes.

``perfbench/spans.py`` finds the functions it traces and the caches it
counts by name, with ``getattr``, and some of its wrappers forward a fixed
argument list. A renamed or deleted function, or a changed signature,
breaks the traced benchmark run, which the package suite would not
notice without this check.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import hammocknet
import hammocknet.cli  # noqa: F401  traced, but not imported by the package

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("layer,name", [
    (layer, name) for layer, names in spans.TRACED.items() for name in names])
def test_traced_function_resolves(layer, name):
    assert callable(getattr(getattr(hammocknet, layer), name))


@pytest.mark.parametrize("key", spans.CACHES)
def test_cache_resolves(key):
    layer, name = key.split(".")
    cached = getattr(getattr(hammocknet, layer), name)
    assert callable(cached.cache_info) and callable(cached.cache_clear)


def _wrapper_calls():
    """(layer, name, positional count) for each wrapper with a fixed call.

    A cache is wrapped, with one key, only if it is traced; the others are
    read through ``cache_info`` alone.
    """
    calls = [("oracle", "resistance_dense", 5)]
    calls += [("hyperbolic", name, 1) for name in spans.TRACED["hyperbolic"]]
    for key in spans.CACHES:
        layer, name = key.split(".")
        if name in spans.TRACED.get(layer, ()):
            calls.append((layer, name, 1))
    return calls


@pytest.mark.parametrize("layer,name,positionals", _wrapper_calls())
def test_traced_signature_accepts_wrapper_call(layer, name, positionals):
    func = getattr(getattr(hammocknet, layer), name)
    inspect.signature(func).bind(*[None] * positionals)
