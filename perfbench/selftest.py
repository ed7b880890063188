"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/selftest.py -q

Each workload is run once, briefly, traced and untraced, and must print
every metric ``BENCHMARK.json`` names. The checker must count a
deliberately wrong answer, injected here rather than in ``src/``, as a
failed operation, and so must a cold-build operation whose cache cannot
be cleared. The file name keeps it out of the package test suite:
it takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from checker import Checker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


REPORT_NAMES = {
    "pairs-large": {"pair_ms_p50", "pair_ms_p90", "pair_cold_ms_p50", "pairs_per_s",
                    "max_rel_dev"},
    "pairs-batch": {"pair_ms_p50", "pair_ms_p90", "pairs_per_s", "max_rel_dev"},
    "fields": {"field_s_p50", "field_residual_max"},
    "crosscheck": {"sweep_s", "max_rel_dev"},
}


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, report_line, last_line = proc.stdout.strip().splitlines()
    result = json.loads(last_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and math.isfinite(got["value"])
    report = json.loads(report_line)["report"]
    assert report["environment"]["src_nonblank_lines"] > 0
    if trace == 0:
        named = REPORT_NAMES[workload] | {"peak_rss_mb", "failed_share"}
        assert named <= set(report["metrics"])
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert report["metrics"]["setup_s"]["samples"] == 1 + run.SETUP_PROBES
    else:
        assert result["metrics"]["trace.spans_per_op"]["value"] > 1


def test_wrong_answer_is_a_failure():
    hn = run.load_package()
    workload = WORKLOADS["pairs-batch"](3)
    workload.setup(hn)
    original = hn.closed_form.resistance_general

    def off_by_a_millionth(spec, a, b):
        result = original(spec, a, b)
        return type(result)(result.ohms * (1 + 1e-6), result.method, result.meta)

    checker = Checker()
    hn.closed_form.resistance_general = off_by_a_millionth
    try:
        ops = workload.round(0)
        passed = [checker.attempt(fn) for _, fn in ops]
    finally:
        hn.closed_form.resistance_general = original
    # identical-node pairs give zero ohms, which the scaling leaves exact
    assert checker.failed == passed.count(False) == len(ops) - len(ops) // 16
    assert any("disagree" in reason for reason in checker.reasons)


def test_cold_build_fails_without_cache_clear():
    """If the eigensystem cache loses ``cache_clear``, crosscheck must count
    a failure rather than go on timing warm builds as cold ones."""
    hn = run.load_package()
    workload = WORKLOADS["crosscheck"](3)
    workload.setup(hn)
    ops = workload.round(0)
    first_build = ops[len(ops) - len(workload.eigen_specs)][1]
    original = hn.spectral.eigen_system
    hn.spectral.eigen_system = original.__wrapped__  # the same builder, uncached
    try:
        checker = Checker()
        assert not checker.attempt(first_build)
    finally:
        hn.spectral.eigen_system = original
    assert any("cache_clear" in reason for reason in checker.reasons)


def test_checker_counts_each_failure_kind():
    checker = Checker()

    def raises(_):
        raise ArithmeticError("boom")

    assert not checker.attempt(raises)
    assert not checker.attempt(lambda c: c.routes("x", {"a": math.nan}, True, 1.0))
    assert not checker.attempt(lambda c: c.routes("x", {"a": -1.0, "b": -1.0}, True, 1.0))
    assert not checker.attempt(lambda c: c.routes("x", {"a": 1e-3, "b": 0.0}, False, 1.0))
    assert not checker.attempt(lambda c: c.exit_code("verify", 1))
    assert not checker.attempt(lambda c: c.field("f", 1e-6, 1.0, (2.0, 2.0), 2.0))
    assert not checker.attempt(lambda c: c.field("f", 0.0, 1.0, (2.0, 2.1), 2.0))
    assert checker.attempt(lambda c: c.routes("x", {"a": 2.0, "b": 2.0 + 1e-14}, True, 1.0))
    assert (checker.attempted, checker.failed) == (8, 7)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "pairs-batch", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
