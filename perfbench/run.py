"""Run one hammocknet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are listed in ``BENCHMARK.json`` and ``perfbench/README.md``.
One process runs a closed loop: the next operation starts when the
previous one ends. Every operation is checked; failures are counted
against attempts.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` traces every
other round and prints the per-layer metrics over the traced rounds and
the tracing overhead against the untraced ones; its spans go to
``perfbench/out/``. Either way the line before the last holds a
report with the metrics under their per-workload names, sample counts,
failure reasons and the environment; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from array import array
from pathlib import Path
from time import perf_counter

from checker import Checker
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END = ("setup_s", "op_ms_best", "peak_rss_mb")
SETUP_PROBES = 8  # extra clean-process set-ups; with this process's own, 9 samples
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import and set-up only, print it as JSON")
    return parser.parse_args(argv)


def load_package():
    """Import hammocknet from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "hammocknet" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; "
                         "run from the root of a hammocknet checkout")
    sys.path.insert(0, str(SRC))
    import hammocknet
    import hammocknet.cli  # not imported by the package itself
    if Path(hammocknet.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {hammocknet.__file__}, not {init}")
    return hammocknet


def set_up(name: str, seed: int):
    """Import the package and build the workload; return both and the time."""
    start = perf_counter()
    hn = load_package()
    workload = WORKLOADS[name](seed)
    workload.setup(hn)
    return hn, workload, perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a clean child process."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout)["setup_s"]


def environment() -> dict:
    import numpy as np  # imported by the package by now; kept off the probe's clock

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    lines = sum(1 for path in sorted(SRC.rglob("*.py"))
                for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "src_nonblank_lines": lines,
    }


def measure(workload, checker: Checker, seconds: float, tracer=None) -> dict:
    """Closed loop over whole rounds until ``seconds`` have passed.

    Keeps the time of every passed operation by kind, and for warm ones
    the fastest time per slot (position in the round): every round
    repeats the same slots, so repeats of a slot can be compared.

    With a tracer, rounds 0, 2, 4, ... are traced and the others are not,
    so both halves meet the machine in the same states; the timing
    samples then come from the untraced rounds only.
    """
    samples = {"cold": array("d"), "warm": array("d")}
    fastest: dict[bool, dict[int, float]] = {False: {}, True: {}}
    round_s = array("d")  # untraced rounds in which every operation passed
    warned = []  # RuntimeWarnings raised in traced rounds
    min_rounds = workload.min_rounds + (tracer is not None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        start = perf_counter()
        index = 0
        while index < min_rounds or perf_counter() - start < seconds:
            traced = tracer is not None and index % 2 == 0
            if traced:
                tracer.install()
            mark = len(caught)
            total, passed = 0.0, True
            for slot, (kind, fn) in enumerate(workload.round(index)):
                t0 = perf_counter()
                if traced:
                    ok = tracer.op(f"op.{workload.name}", lambda: checker.attempt(fn))
                else:
                    ok = checker.attempt(fn)
                elapsed = perf_counter() - t0
                total += elapsed
                passed = passed and ok
                if ok:
                    if not traced:
                        samples[kind].append(elapsed)
                    if kind == "warm":
                        best = fastest[traced]
                        best[slot] = min(elapsed, best.get(slot, elapsed))
            if traced:
                tracer.uninstall()
            elif passed:
                round_s.append(total)
            if traced:
                warned += caught[mark:]
            index += 1
        window = perf_counter() - start
    return {"samples": samples, "fastest": fastest[False], "traced_fastest": fastest[True],
            "round_s": round_s, "window_s": window, "rounds": index,
            "traced_warnings": _by_layer(warned)}


def _by_layer(records) -> dict[str, int]:
    """RuntimeWarnings per hammocknet module, from the file that raised them."""
    package_dir = SRC / "hammocknet"
    counts: dict[str, int] = {}
    for record in records:
        path = Path(record.filename)
        if issubclass(record.category, RuntimeWarning) and path.parent == package_dir:
            counts[path.stem] = counts.get(path.stem, 0) + 1
    return counts


def tail(values: list[float]) -> tuple[float, float]:
    """The p90, or the highest whole percentile with ten samples above it."""
    n = len(values)
    if n <= 10:
        return max(values), 1.0
    q = min(90, int(100 * (1 - 10 / n)))
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1], q / 100


def summarise(name: str, run: dict, checker: Checker) -> tuple[dict, dict]:
    """Return (gated end-to-end metrics, report metrics under workload names)."""
    warm = run["samples"]["warm"]
    cold = run["samples"]["cold"]
    if not warm:
        raise SystemExit("perfbench: no operation succeeded")
    # Geometric mean over slots of each slot's fastest repeat: the time
    # with the least interference from other load on the machine.
    best_ms = 1e3 * statistics.geometric_mean(run["fastest"].values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = {"op_ms_best": (best_ms, "ms"), "peak_rss_mb": (rss_mb, "MB")}
    report = {
        "op_ms_best": {"value": best_ms, "unit": "ms", "samples": len(warm)},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "failed_share": {"value": checker.failed / checker.attempted, "unit": "1",
                         "failed": checker.failed, "attempted": checker.attempted},
    }
    if name.startswith("pairs-"):
        tail_ms, tail_q = tail(warm)
        report["pair_ms_p50"] = {"value": 1e3 * statistics.median(warm), "unit": "ms",
                                 "samples": len(warm)}
        report["pair_ms_p90"] = {"value": 1e3 * tail_ms, "unit": "ms",
                                 "percentile": tail_q, "samples": len(warm)}
        report["pairs_per_s"] = {"value": (len(warm) + len(cold)) / run["window_s"],
                                 "unit": "1/s", "samples": len(warm) + len(cold)}
    if cold:
        report["pair_cold_ms_p50"] = {"value": 1e3 * statistics.median(cold),
                                      "unit": "ms", "samples": len(cold)}
    if name == "fields":
        report["field_s_p50"] = {"value": statistics.median(warm), "unit": "s",
                                 "samples": len(warm)}
        report["field_residual_max"] = {"value": checker.field_residual_max, "unit": "1"}
    else:
        report["max_rel_dev"] = {"value": checker.max_rel_dev, "unit": "1"}
    if name == "crosscheck":
        sweeps = run["round_s"]
        report["sweep_s"] = {"value": statistics.median(sweeps) if sweeps else None,
                             "unit": "s", "samples": len(sweeps)}
    return gated, report


def emit(report: dict, checker: Checker, metrics: dict) -> None:
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_untraced(args, hn, workload, own_setup_s: float) -> None:
    checker = Checker()
    run = measure(workload, checker, args.seconds)
    gated, report = summarise(args.workload, run, checker)
    setups = [own_setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
    # The fastest set-up, as for op_ms_best: the one least slowed by
    # other load, which still rises with any real cost added to set-up.
    setup_s = min(setups)
    gated["setup_s"] = (setup_s, "s")
    report["setup_s"] = {"value": setup_s, "unit": "s", "samples": len(setups)}
    emit({"workload": args.workload, "seed": args.seed, "trace": 0,
          "rounds": run["rounds"], "metrics": report,
          "failures": dict(checker.reasons), "environment": environment()},
         checker, {k: gated[k] for k in END_TO_END})


def run_traced(args, hn, workload) -> None:
    from spans import Tracer, per_layer_names

    tracer = Tracer(hn)
    checker = Checker()
    run = measure(workload, checker, args.seconds, tracer)
    _, report = summarise(args.workload, run, checker)
    layers = tracer.metrics(run["traced_warnings"])
    traced_best = 1e3 * statistics.geometric_mean(run["traced_fastest"].values())
    untraced_best = report["op_ms_best"]["value"]
    traced_ops = tracer.op_id + 1
    layers["trace.spans_per_op"] = (tracer.total_spans / traced_ops, "count")
    layers["trace.op_ms_best"] = (traced_best, "ms")
    layers["trace.untraced_op_ms_best"] = (untraced_best, "ms")
    layers["trace.overhead_share"] = (traced_best / untraced_best - 1.0, "1")
    header = {"workload": args.workload, "seed": args.seed,
              "environment": environment()}
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path, header)
    emit({**header, "trace": 1, "rounds": run["rounds"], "metrics": report,
          "failures": dict(checker.reasons),
          "spans_file": str(spans_path.relative_to(ROOT))},
         checker, {k: layers[k] for k in per_layer_names()})


def main(argv=None) -> int:
    args = parse_args(argv)
    hn, workload, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
    elif args.trace:
        run_traced(args, hn, workload)
    else:
        run_untraced(args, hn, workload, setup_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
