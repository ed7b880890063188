"""Span tracing for the traced benchmark run, applied from outside ``src/``.

``Tracer.install`` replaces each traced hammocknet function with a timing
wrapper in every module namespace that looks the name up, so a call made
inside the package (``closed_form`` calling ``log_cosh``) is traced the
same as a call made by the benchmark. Each call records a span: name,
start, end, parent span and operation id. Spans stay in memory (up to
``SPAN_CAP``) and are written out when the run ends; per-name call
counts, self time and total time are kept for every call.

Besides timings the tracer keeps counters that are computed, not timed:
elements passed through the ``hyperbolic`` kernels, lru-cache hits and
misses, and the bytes held by cached eigensystems.
"""

from __future__ import annotations

import json
import weakref
from time import perf_counter

import numpy as np

LAYERS = ("lattice", "hyperbolic", "closed_form", "spectral",
          "recurrence", "oracle", "cli")

# Public functions traced per layer. resistance_dense is split by its
# ``arithmetic`` argument because float and rational solves differ by
# orders of magnitude.
TRACED = {
    "lattice": ("require_interior", "span_coords"),
    "hyperbolic": ("log_cosh", "log_sinh", "larger_root"),
    "closed_form": ("resistance_general",),
    "recurrence": ("resistance_rt", "mode_weights", "solve_modes",
                   "transformed_columns", "mode_transform",
                   "reconstruct_currents", "kirchhoff_residual",
                   "potential_path_check"),
    "spectral": ("eigen_system", "inverse_minor_element",
                 "resistance_spectral", "build_second_minor"),
    "oracle": ("build_full_laplacian", "resistance_matrix",
               "resistance_dense", "resistance_eigen_full"),
    "cli": ("cmd_verify",),
}

# lru caches whose hit/miss counts are reported. The traced ones are
# counted call by call, because the benchmark clears the eigensystem cache
# and cache_clear() also resets its statistics; the private decay table is
# not traced and is read from cache_info() around each traced round.
CACHES = ("closed_form._decay_table", "recurrence.mode_transform",
          "spectral.eigen_system")

SPAN_CAP = 200_000


def span_names() -> list[str]:
    names = []
    for layer, funcs in TRACED.items():
        for func in funcs:
            if (layer, func) == ("oracle", "resistance_dense"):
                names += [f"{layer}.{func}.float", f"{layer}.{func}.rational"]
            else:
                names.append(f"{layer}.{func}")
    return names


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s", f"{span}.total_s"]
    names += ["lattice.require_interior.self_us_per_call",
              "lattice.span_coords.self_us_per_call"]
    names += [f"hyperbolic.{f}.elements" for f in TRACED["hyperbolic"]]
    for key in CACHES:
        names += [f"{key}.hits", f"{key}.misses"]
    names += ["spectral.eigen_system.cold_s",
              "spectral.eigen_system.retained_bytes_peak"]
    names += [f"{layer}.runtime_warnings" for layer in LAYERS]
    names += ["trace.spans_per_op", "trace.op_ms_best",
              "trace.untraced_op_ms_best", "trace.overhead_share"]
    return names


class Tracer:
    """Span recorder and counters for the traced rounds of one run.

    ``install`` and ``uninstall`` switch tracing on and off around a
    round; spans and counters add up over the traced rounds.
    """

    def __init__(self, package) -> None:
        self.package = package
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in span_names()}
        self.elements = {f: 0 for f in TRACED["hyperbolic"]}
        self.eigen_cold_s = 0.0
        self.retained_peak = 0
        self._live_systems: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.total_spans = 0
        self.op_id = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self.cache_counts = {key: [0, 0] for key in CACHES}  # [hits, misses]
        self._decay_base = (0, 0)
        self._patches = self._find_patches()

    # -- spans -------------------------------------------------------------

    def _enter(self) -> tuple[int, int, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, 0.0])
        return span_id, parent, perf_counter()

    def _exit(self, name: str, span_id: int, parent: int, start: float) -> float:
        end = perf_counter()
        _, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        stat = self.stats.get(name)
        if stat is not None:
            stat[0] += 1
            stat[1] += duration - child
            stat[2] += duration
        self.total_spans += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        else:
            self.dropped += 1
        return duration

    def op(self, name: str, fn):
        """Run ``fn`` as the root span of a new operation."""
        self.op_id += 1
        span_id, parent, start = self._enter()
        try:
            return fn()
        finally:
            self._exit(name, span_id, parent, start)

    def _wrap(self, layer: str, func):
        name = f"{layer}.{func.__name__}"
        tracer = self

        if name == "oracle.resistance_dense":
            def wrapper(spec, a, b, arithmetic="float", cap=None):
                span_id, parent, start = tracer._enter()
                try:
                    return func(spec, a, b, arithmetic, cap)
                finally:
                    tracer._exit(f"{name}.{arithmetic}", span_id, parent, start)
        elif layer == "hyperbolic":
            counts = self.elements

            def wrapper(z):
                counts[func.__name__] += np.size(z)
                span_id, parent, start = tracer._enter()
                try:
                    return func(z)
                finally:
                    tracer._exit(name, span_id, parent, start)
        elif name in CACHES:
            counts = self.cache_counts[name]

            def wrapper(key):
                misses = func.cache_info().misses
                span_id, parent, start = tracer._enter()
                try:
                    value = func(key)
                finally:
                    duration = tracer._exit(name, span_id, parent, start)
                missed = func.cache_info().misses > misses
                counts[missed] += 1
                if missed and name == "spectral.eigen_system":
                    tracer.eigen_cold_s += duration
                    tracer._retain(value)
                return value
        else:
            def wrapper(*args, **kwargs):
                span_id, parent, start = tracer._enter()
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._exit(name, span_id, parent, start)

        wrapper.__name__ = func.__name__
        wrapper.__wrapped__ = func
        for attr in ("cache_info", "cache_clear"):
            if hasattr(func, attr):
                setattr(wrapper, attr, getattr(func, attr))
        return wrapper

    def _retain(self, system) -> None:
        """Track a freshly built eigensystem; update the peak retained bytes."""
        self._live_systems[id(system)] = system
        held = sum(array.nbytes for live in self._live_systems.values()
                   for array in vars(live).values() if isinstance(array, np.ndarray))
        self.retained_peak = max(self.retained_peak, held)

    # -- installation ------------------------------------------------------

    def _find_patches(self) -> list[tuple]:
        """(module, name, original, wrapper) for every place a hammocknet
        module names a traced function."""
        package = self.package
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        patches = []
        for layer, funcs in TRACED.items():
            for func_name in funcs:
                original = getattr(getattr(package, layer), func_name)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    patches += [(module, attr, original, wrapper)
                                for attr, value in vars(module).items() if value is original]
        return patches

    def _decay_info(self) -> tuple[int, int]:
        info = self.package.closed_form._decay_table.cache_info()
        return info.hits, info.misses

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._decay_base = self._decay_info()

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        counts = self.cache_counts["closed_form._decay_table"]
        for i, (now, before) in enumerate(zip(self._decay_info(), self._decay_base)):
            counts[i] += now - before

    # -- results -----------------------------------------------------------

    def metrics(self, runtime_warnings: dict[str, int]) -> dict:
        """Per-layer metrics as {name: (value, unit)} over the traced rounds."""
        out = {}
        for name, (calls, self_s, total_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.total_s"] = (total_s, "s")
        for func in TRACED["lattice"]:
            calls, self_s, _ = self.stats[f"lattice.{func}"]
            out[f"lattice.{func}.self_us_per_call"] = (
                1e6 * self_s / calls if calls else 0.0, "us")
        for func, count in self.elements.items():
            out[f"hyperbolic.{func}.elements"] = (count, "count")
        for key, (hits, misses) in self.cache_counts.items():
            out[f"{key}.hits"] = (hits, "count")
            out[f"{key}.misses"] = (misses, "count")
        out["spectral.eigen_system.cold_s"] = (self.eigen_cold_s, "s")
        out["spectral.eigen_system.retained_bytes_peak"] = (self.retained_peak, "B")
        for layer in LAYERS:
            out[f"{layer}.runtime_warnings"] = (runtime_warnings.get(layer, 0), "count")
        return out

    def write(self, path, header: dict) -> None:
        """Write the header line, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**header, "spans_recorded": len(self.spans),
                                  "spans_dropped": self.dropped,
                                  "fields": ["id", "name", "start", "end",
                                             "parent", "op"]}) + "\n")
            for span in sorted(self.spans):
                out.write(json.dumps(span) + "\n")
