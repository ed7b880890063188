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
from fractions import Fraction
from typing import Any, Callable, Sequence

from . import closed_form, oracle, recurrence, spectral
from .lattice import (
    GridNode,
    HammockSpec,
    LatticeError,
    Node,
    ResistanceResult,
    SizeCapError,
    Terminal,
    node_code,
    node_index,
    parse_node,
)

# Every route the CLI runs, by name. Each entry looks its function up on
# the module at call time, so a patched module attribute is honoured.
ROUTES: dict[str, Callable[[HammockSpec, Node, Node], ResistanceResult]] = {
    "closed": lambda spec, a, b: closed_form.resistance_general(spec, a, b),
    "spectral": lambda spec, a, b: spectral.resistance_spectral(spec, a, b),
    "rt": lambda spec, a, b: recurrence.resistance_rt(spec, a, b),
    "spectral-reduced":
        lambda spec, a, b: spectral.resistance_spectral(spec, a, b, "reduced"),
    "spectral-double":
        lambda spec, a, b: spectral.resistance_spectral(spec, a, b, "double_sum"),
    "oracle-float": lambda spec, a, b: oracle.resistance_dense(spec, a, b, "float"),
    "oracle-rational": lambda spec, a, b: oracle.resistance_dense(spec, a, b, "rational"),
}
# resist offers spectral in its default form; bench times both forms apart
METHODS = tuple(name for name in ROUTES if not name.startswith("spectral-"))
ALL_METHODS = METHODS + ("all",)
BENCH_METHODS = tuple(name for name in ROUTES if name != "spectral")

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2


def _max_relative_deviation(values: Sequence[float]) -> float:
    """Spread of ``values`` over their largest magnitude; inf if one is not finite."""
    if not all(map(math.isfinite, values)):
        return math.inf
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return (max(values) - min(values)) / scale


def _format_result(result: ResistanceResult) -> str:
    exact = result.meta.get("exact")
    suffix = f" ({exact})" if isinstance(exact, Fraction) else ""
    return f"{result.ohms!r}{suffix}"


def _emit_results(args: argparse.Namespace, results: list[ResistanceResult],
                  deviation: float | None, warnings: list[str]) -> None:
    if args.format == "json":
        payload = {
            "config": {"M": args.M, "N": args.N, "r": args.r, "s": args.s,
                       "method": args.method, "from": args.from_, "to": args.to,
                       "format": args.format, "tolerance": args.tolerance},
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
    if args.format == "csv":
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
              f"(tolerance {args.tolerance:g})")


def cmd_resist(args: argparse.Namespace) -> int:
    spec = HammockSpec(rows=args.M, cols=args.N, r=args.r, s=args.s)
    source = parse_node(args.from_)
    sink = parse_node(args.to)
    has_terminal = isinstance(source, Terminal) or isinstance(sink, Terminal)
    warnings: list[str] = []
    if args.method == "all":
        if has_terminal:
            warnings.append(
                "terminal node: closed/spectral/rt do not apply, "
                "falling back to the dense oracle"
            )
            methods = ["oracle-float", "oracle-rational"]
        else:
            methods = ["closed", "spectral", "rt", "oracle-rational"]
        # skip what is above its size cap; if nothing fits, raise the first
        results, refused = [], []
        for name in methods:
            try:
                results.append(ROUTES[name](spec, source, sink))
            except SizeCapError as exc:
                refused.append(exc)
                warnings.append(f"{name} {_skip_note(exc)}")
        if not results:
            raise refused[0]
    else:
        results = [ROUTES[args.method](spec, source, sink)]

    deviation = (_max_relative_deviation([res.ohms for res in results])
                 if len(results) > 1 else None)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    _emit_results(args, results, deviation, warnings)
    if deviation is not None and deviation > args.tolerance:
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
                values = [ROUTES[name](spec, a, b).ohms
                          for name in ("closed", "spectral", "rt")] + [reference]
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
    for name in args.methods:
        if name not in BENCH_METHODS:
            raise LatticeError(
                f"unknown bench method {name!r}; expected one of {BENCH_METHODS}"
            )
    writer = csv.writer(sys.stdout)
    writer.writerow(["M", "N", "method", "seconds_per_pair", "ohms", "note"])
    for size in args.sizes:
        spec = HammockSpec(rows=size, cols=size, r=args.r, s=args.s)
        a, b = _bench_pair(spec)
        for name in args.methods:
            timings = []
            value = 0.0
            try:
                for _ in range(args.reps):
                    start = time.perf_counter()
                    value = ROUTES[name](spec, a, b).ohms
                    timings.append(time.perf_counter() - start)
            except SizeCapError as exc:
                writer.writerow([size, size, name, "", "", _skip_note(exc)])
                continue
            writer.writerow([size, size, name,
                             repr(statistics.median(timings)), repr(value), ""])
    return EXIT_OK


def _skip_note(exc: SizeCapError) -> str:
    """Why a route refused an instance above its size cap."""
    return f"skipped: {exc.nodes} nodes above {exc.label} cap {exc.cap}"


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


def _listed(convert: Callable[[str], Any], label: str) -> Callable[[str], list]:
    """argparse ``type=``: a non-empty comma-separated list of ``convert(token)``.

    An empty list raises ValueError, which argparse turns into a usage
    error that names the option.
    """
    def listed(text: str) -> list:
        values = [convert(token) for token in text.split(",") if token]
        if not values:
            raise ValueError(text)
        return values
    listed.__name__ = f"comma-separated {label}"
    return listed


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
    bench.add_argument("--sizes", required=True,
                       type=_listed(_positive(int), "positive int"),
                       help="comma-separated square sizes, e.g. 10,100,1000")
    bench.add_argument("--methods", default=",".join(BENCH_METHODS),
                       type=_listed(str, "method name"))
    bench.add_argument("--reps", type=_positive(int), default=5)
    bench.add_argument("--r", type=float, default=1.0)
    bench.add_argument("--s", type=float, default=1.0)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "resist":
            return cmd_resist(args)
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
