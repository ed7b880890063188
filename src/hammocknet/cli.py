"""Command-line front end.

Subcommands:

* ``resist``   one node pair, any method or all of them side by side
* ``verify``   cross-method equivalence sweep over a size range
* ``currents`` full current-field dump with a conservation summary
* ``bench``    per-method timing table in CSV

Exit codes are a stable contract: 0 success within tolerance, 1 tolerance
breach, 2 usage error. Summation orders are fixed, so repeated runs print
identical digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from . import closed_form, oracle, recurrence, spectral
from .lattice import (
    GridNode,
    HammockSpec,
    LatticeError,
    Node,
    ResistanceResult,
    Terminal,
    node_code,
    node_index,
    parse_node,
)

METHODS = ("closed", "spectral", "rt", "oracle-float", "oracle-rational")
ALL_METHODS = METHODS + ("all",)
BENCH_METHODS = ("closed", "rt", "spectral-reduced", "spectral-double",
                 "oracle-float", "oracle-rational")

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; round-trips through a flat JSON object."""

    rows: int
    cols: int
    r: float = 1.0
    s: float = 1.0
    method: str = "all"
    source: str = ""
    sink: str = ""
    fmt: str = "human"
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerance < math.inf:
            raise LatticeError(
                f"tolerance must be positive and finite, got {self.tolerance!r}")

    _JSON_KEYS = {
        "rows": "M", "cols": "N", "r": "r", "s": "s", "method": "method",
        "source": "from", "sink": "to", "fmt": "format",
        "tolerance": "tolerance",
    }

    def to_dict(self) -> dict:
        return {self._JSON_KEYS[f.name]: getattr(self, f.name)
                for f in dataclass_fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        reverse = {v: k for k, v in cls._JSON_KEYS.items()}
        kwargs = {reverse[key]: value for key, value in data.items()
                  if key in reverse}
        return cls(**kwargs)

    def spec(self) -> HammockSpec:
        return HammockSpec(rows=self.rows, cols=self.cols, r=self.r, s=self.s)


def _method_runner(name: str) -> Callable[[HammockSpec, Node, Node], ResistanceResult]:
    if name == "closed":
        return closed_form.resistance_general
    if name == "spectral":
        return spectral.resistance_spectral
    if name == "rt":
        return recurrence.resistance_rt
    if name == "oracle-float":
        return lambda spec, a, b: oracle.resistance_dense(spec, a, b, "float")
    if name == "oracle-rational":
        return lambda spec, a, b: oracle.resistance_dense(spec, a, b, "rational")
    raise LatticeError(f"unknown method {name!r}")


def _max_relative_deviation(values: Sequence[float]) -> float:
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return (max(values) - min(values)) / scale


def _format_result(result: ResistanceResult) -> str:
    exact = result.meta.get("exact")
    suffix = f" ({exact})" if isinstance(exact, Fraction) else ""
    return f"{result.ohms!r}{suffix}"


def _emit_results(config: RunConfig, results: list[ResistanceResult],
                  deviation: float | None, warnings: list[str]) -> None:
    if config.fmt == "json":
        payload = {
            "config": config.to_dict(),
            "results": [
                {"method": res.method, "ohms": res.ohms,
                 **({"exact": str(res.meta["exact"])}
                    if isinstance(res.meta.get("exact"), Fraction) else {})}
                for res in results
            ],
            "warnings": warnings,
        }
        if deviation is not None:
            payload["max_relative_deviation"] = deviation
        print(json.dumps(payload))
        return
    if config.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method", "ohms", "exact"])
        for res in results:
            exact = res.meta.get("exact")
            writer.writerow([res.method, repr(res.ohms),
                             str(exact) if isinstance(exact, Fraction) else ""])
        sys.stdout.write(buf.getvalue())
        if deviation is not None:
            print(f"# max_relative_deviation,{deviation!r}")
        return
    width = max(len(res.method) for res in results)
    for res in results:
        print(f"{res.method:<{width}}  {_format_result(res)}")
    if deviation is not None:
        print(f"max relative deviation: {deviation:.3e} "
              f"(tolerance {config.tolerance:g})")


def cmd_resist(config: RunConfig) -> int:
    spec = config.spec()
    source = parse_node(config.source)
    sink = parse_node(config.sink)
    for node in (source, sink):
        if isinstance(node, GridNode) and not spec.contains(node):
            raise LatticeError(f"node {node_code(node)} outside the grid")

    has_terminal = isinstance(source, Terminal) or isinstance(sink, Terminal)
    warnings: list[str] = []
    if config.method == "all":
        if has_terminal:
            warnings.append(
                "terminal node: closed/spectral/rt do not apply, "
                "falling back to the dense oracle"
            )
            methods = ["oracle-float", "oracle-rational"]
        else:
            methods = ["closed", "spectral", "rt", "oracle-rational"]
        notes = {name: _skip_note(name, spec) for name in methods}
        if not all(notes.values()):
            # skip what is above its size cap; if nothing fits, the first
            # method raises its SizeCapError below
            warnings += [f"{name} {note}" for name, note in notes.items() if note]
            methods = [name for name in methods if not notes[name]]
    else:
        methods = [config.method]

    results = [_method_runner(name)(spec, source, sink) for name in methods]
    deviation = (_max_relative_deviation([res.ohms for res in results])
                 if len(results) > 1 else None)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    _emit_results(config, results, deviation, warnings)
    if deviation is not None and deviation > config.tolerance:
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Cross-method sweep; reports the worst pair over the whole range."""
    for axis, low, high in (("M", args.min_M, args.max_M), ("N", args.min_N, args.max_N)):
        if low > high:
            raise LatticeError(
                f"--min-{axis} {low} is above --max-{axis} {high}: empty size range")
    tolerance = args.tolerance
    rng = random.Random(args.seed)
    worst = 0.0
    worst_case = None
    failures = 0
    pairs_checked = 0
    for rows in range(args.min_M, args.max_M + 1):
        for cols in range(args.min_N, args.max_N + 1):
            spec = HammockSpec(rows=rows, cols=cols, r=args.r, s=args.s)
            table = oracle.resistance_matrix(spec, arithmetic="rational")
            nodes = list(spec.interior_nodes())
            pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
            if args.samples is not None and len(pairs) > args.samples:
                pairs = rng.sample(pairs, args.samples)
            for a, b in pairs:
                reference = float(table[node_index(spec, a)][node_index(spec, b)])
                values = [
                    closed_form.resistance_general(spec, a, b).ohms,
                    spectral.resistance_spectral(spec, a, b).ohms,
                    recurrence.resistance_rt(spec, a, b).ohms,
                    reference,
                ]
                deviation = _max_relative_deviation(values)
                pairs_checked += 1
                if deviation > worst:
                    worst = deviation
                    worst_case = (spec, a, b)
                if deviation > tolerance:
                    failures += 1
                    print(f"FAIL {rows}x{cols} {node_code(a)} -> {node_code(b)}: "
                          f"deviation {deviation:.3e}")
    status = "PASS" if failures == 0 else "FAIL"
    print(f"{status}: {pairs_checked} pairs, max deviation {worst:.3e} "
          f"(tolerance {tolerance:g})")
    if worst_case is not None:
        spec, a, b = worst_case
        print(f"worst pair: {spec.rows}x{spec.cols} r={spec.r} s={spec.s} "
              f"{node_code(a)} -> {node_code(b)}")
    return EXIT_OK if failures == 0 else EXIT_TOLERANCE


def cmd_currents(args: argparse.Namespace) -> int:
    spec = HammockSpec(rows=args.M, cols=args.N, r=args.r, s=args.s)
    source = parse_node(args.from_)
    sink = parse_node(args.to)
    field_ = recurrence.reconstruct_currents(spec, source, sink, injected=args.J)
    residual = recurrence.kirchhoff_residual(field_)
    if args.format == "json":
        payload = json.loads(field_.to_json())
        payload["kirchhoff_residual"] = residual
        print(json.dumps(payload))
    else:
        sys.stdout.write(field_.to_csv())
        print(f"# kirchhoff_residual,{residual!r}")
    return EXIT_OK


def _bench_pair(spec: HammockSpec) -> tuple[GridNode, GridNode]:
    return GridNode(1, 1), GridNode(spec.cols, spec.rows)


def cmd_bench(args: argparse.Namespace) -> int:
    methods = [token for token in args.methods.split(",") if token]
    for name in methods:
        if name not in BENCH_METHODS:
            raise LatticeError(
                f"unknown bench method {name!r}; expected one of {BENCH_METHODS}"
            )
    writer = csv.writer(sys.stdout)
    writer.writerow(["M", "N", "method", "seconds_per_pair", "ohms", "note"])
    for size in args.sizes:
        spec = HammockSpec(rows=size, cols=size, r=args.r, s=args.s)
        a, b = _bench_pair(spec)
        for name in methods:
            runner, note = _bench_runner(name, spec)
            if runner is None:
                writer.writerow([size, size, name, "", "", note])
                continue
            timings = []
            value = 0.0
            for _ in range(args.reps):
                start = time.perf_counter()
                value = runner(spec, a, b).ohms
                timings.append(time.perf_counter() - start)
            writer.writerow([size, size, name,
                             repr(statistics.median(timings)), repr(value), ""])
    return EXIT_OK


def _skip_note(name: str, spec: HammockSpec) -> str:
    """Why a size-capped method is skipped on ``spec``; empty if it fits."""
    if name == "spectral-double":
        nodes, label, cap = spec.interior_count, "double-sum", spectral.dense_cap()
    elif name == "oracle-float":
        nodes, label, cap = spec.node_count, "float", oracle.float_cap()
    elif name == "oracle-rational":
        nodes, label, cap = spec.node_count, "rational", oracle.rational_cap()
    else:
        return ""
    return f"skipped: {nodes} nodes above {label} cap {cap}" if nodes > cap else ""


def _bench_runner(name: str, spec: HammockSpec):
    """Resolve a validated bench contender, or explain why it is skipped."""
    note = _skip_note(name, spec)
    if note:
        return None, note
    if name == "spectral-reduced":
        return (lambda s, a, b: spectral.resistance_spectral(s, a, b, "reduced")), ""
    if name == "spectral-double":
        return (lambda s, a, b: spectral.resistance_spectral(s, a, b, "double_sum")), ""
    return _method_runner(name), ""


def _positive(convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """argparse ``type=``: ``convert(token)`` if positive and finite.

    Anything else raises ValueError, which argparse turns into a usage
    error (exit 2) that names the option.
    """
    def positive(token: str) -> Any:
        value = convert(token)
        if not 0 < value < math.inf:
            raise ValueError(token)
        return value
    positive.__name__ = f"positive {convert.__name__}"
    return positive


def _finite(token: str) -> float:
    """argparse ``type=``: a finite float; zero and negative values pass.

    nan and inf raise ValueError, which argparse turns into a usage error.
    """
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


_finite.__name__ = "finite float"


def _sizes(text: str) -> list[int]:
    return [_positive(int)(token) for token in text.split(",") if token]


_sizes.__name__ = "comma-separated positive int"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hammocknet",
        description="Two-point resistance engine for hammock resistor networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--M", type=int, required=True, help="interior rows")
        p.add_argument("--N", type=int, required=True, help="columns")
        p.add_argument("--r", type=float, default=1.0, help="row-link ohms")
        p.add_argument("--s", type=float, default=1.0,
                       help="column-link and hub-spoke ohms")

    resist = sub.add_parser("resist", help="resistance of one node pair")
    add_spec_args(resist)
    resist.add_argument("--from", required=True, dest="from_",
                        metavar="NODE", help="x,y or O/OP")
    resist.add_argument("--to", required=True, metavar="NODE")
    resist.add_argument("--method", default="all", choices=ALL_METHODS)
    resist.add_argument("--format", default="human",
                        choices=("human", "json", "csv"))
    resist.add_argument("--tolerance", type=_positive(float), default=1e-10)

    verify = sub.add_parser("verify", help="cross-method equivalence sweep")
    verify.add_argument("--min-M", type=int, default=1)
    verify.add_argument("--max-M", type=int, required=True)
    verify.add_argument("--min-N", type=int, default=1)
    verify.add_argument("--max-N", type=int, required=True)
    verify.add_argument("--r", type=float, default=1.0)
    verify.add_argument("--s", type=float, default=1.0)
    verify.add_argument("--samples", type=_positive(int), default=None,
                        help="random pairs per instance (default: all)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", type=_positive(float), default=1e-10)

    currents = sub.add_parser("currents", help="dump a full current field")
    add_spec_args(currents)
    currents.add_argument("--from", required=True, dest="from_", metavar="NODE")
    currents.add_argument("--to", required=True, metavar="NODE")
    currents.add_argument("--J", type=_finite, default=1.0,
                          help="injected current, amperes")
    currents.add_argument("--format", default="csv", choices=("csv", "json"))

    bench = sub.add_parser("bench", help="per-method timing table (CSV)")
    bench.add_argument("--sizes", required=True, type=_sizes,
                       help="comma-separated square sizes, e.g. 10,100,1000")
    bench.add_argument("--methods", default=",".join(BENCH_METHODS))
    bench.add_argument("--reps", type=_positive(int), default=5)
    bench.add_argument("--r", type=float, default=1.0)
    bench.add_argument("--s", type=float, default=1.0)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "resist":
            config = RunConfig(rows=args.M, cols=args.N, r=args.r, s=args.s,
                               method=args.method, source=args.from_,
                               sink=args.to, fmt=args.format,
                               tolerance=args.tolerance)
            return cmd_resist(config)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "currents":
            return cmd_currents(args)
        if args.command == "bench":
            return cmd_bench(args)
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, ArithmeticError) as exc:
        # an instance too large or too extreme to evaluate: report, no traceback
        detail = " ".join(str(exc).split()) or "no detail"
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
