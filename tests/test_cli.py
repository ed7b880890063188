"""CLI contract: subcommands, formats and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hammocknet
from hammocknet import ResistanceResult, cli, oracle, spectral
from hammocknet.cli import EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResist:
    def test_all_methods_parallel_paths(self, capsys):
        code, out, err = run(capsys, "resist", "--M", "1", "--N", "2",
                             "--r", "1", "--s", "1",
                             "--from", "1,1", "--to", "2,1", "--method", "all")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 5  # four methods + deviation summary
        for line in lines[:4]:
            assert float(line.split()[1]) == pytest.approx(0.5, abs=1e-12)
        assert "max relative deviation" in lines[-1]
        assert err == ""

    def test_single_method_chain(self, capsys):
        code, out, _ = run(capsys, "resist", "--M", "3", "--N", "1", "--s", "1",
                           "--from", "1,1", "--to", "1,3", "--method", "closed")
        assert code == EXIT_OK
        assert float(out.split()[1]) == pytest.approx(2.0, abs=1e-12)

    def test_terminal_falls_back_to_oracle(self, capsys):
        code, out, err = run(capsys, "resist", "--M", "4", "--N", "4",
                             "--from", "O", "--to", "2,2", "--method", "all")
        assert code == EXIT_OK
        assert "falling back" in err
        assert "oracle-rational" in out

    def test_all_skips_rational_above_cap(self, capsys):
        code, out, err = run(capsys, "resist", "--M", "30", "--N", "30",
                             "--from", "3,3", "--to", "20,20", "--method", "all")
        assert code == EXIT_OK
        assert [line.split()[0] for line in out.splitlines()[:-1]] == [
            "closed", "spectral", "rt"]
        assert err == ("warning: oracle-rational skipped: 902 nodes above "
                       "rational cap 400\n")

    def test_terminal_skips_capped_oracles(self, capsys, monkeypatch):
        monkeypatch.setenv(oracle.RATIONAL_CAP_ENV, "5")
        argv = ("resist", "--M", "3", "--N", "3", "--from", "O", "--to", "2,2",
                "--method", "all")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK
        assert out.split()[0] == "oracle-float" and "oracle-rational" not in out
        assert "oracle-rational skipped" in err
        monkeypatch.setenv(oracle.FLOAT_CAP_ENV, "5")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "float cap of 5" in err

    def test_tolerance_breach_exit_code(self, capsys):
        # last-ulp differences between methods exceed an absurd tolerance
        code, _, _ = run(capsys, "resist", "--M", "1", "--N", "2",
                         "--from", "1,1", "--to", "2,1", "--method", "all",
                         "--tolerance", "1e-300")
        assert code == EXIT_TOLERANCE

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_route_breaches_tolerance(self, capsys, monkeypatch, value):
        monkeypatch.setattr(spectral, "resistance_spectral",
                            lambda *args: ResistanceResult(value, "spectral"))
        code, out, _ = run(capsys, "resist", "--M", "3", "--N", "4",
                           "--from", "1,1", "--to", "4,3")
        assert code == EXIT_TOLERANCE
        assert "max relative deviation: inf" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "resist", "--M", "2", "--N", "2",
                           "--from", "1,1", "--to", "2,2", "--method", "all",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert {entry["method"] for entry in payload["results"]} == {
            "closed", "spectral", "rt", "oracle-rational"}
        rational = [entry for entry in payload["results"]
                    if entry["method"] == "oracle-rational"][0]
        assert rational["exact"] == "5/6"
        assert payload["max_relative_deviation"] < 1e-10
        # the resolved invocation, one key per option, in a fixed order
        assert list(payload["config"].items()) == [
            ("M", 2), ("N", 2), ("r", 1.0), ("s", 1.0), ("method", "all"),
            ("from", "1,1"), ("to", "2,2"), ("format", "json"), ("tolerance", 1e-10)]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "resist", "--M", "1", "--N", "2",
                           "--from", "1,1", "--to", "2,1", "--method", "rt",
                           "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "ohms", "exact"]
        assert rows[1][0] == "rt"

    def test_invalid_node_usage_error(self, capsys):
        # the route's own check refuses the node
        for method in ("closed", "all", "oracle-float"):
            code, out, err = run(capsys, "resist", "--M", "2", "--N", "2",
                                 "--from", "9,9", "--to", "1,1", "--method", method)
            assert code == EXIT_USAGE
            assert out == ""
            assert err == "error: column x=9 outside 1..2 for a 2x2 hammock\n"

    def test_identical_nodes_above_rational_cap(self, capsys):
        # the rational oracle answers identical nodes without a solve, so
        # nothing is skipped
        code, out, err = run(capsys, "resist", "--M", "30", "--N", "30",
                             "--from", "3,3", "--to", "3,3", "--method", "all")
        assert code == EXIT_OK
        assert err == ""
        assert out.splitlines()[3] == "oracle-rational  0.0 (0)"

    def test_routes_agree_at_1e5(self, capsys):
        # the slow modes' decay rates once put closed and spectral 1.9e-10
        # apart here, above the default tolerance
        code, out, _ = run(capsys, "resist", "--M", "100000", "--N", "100000",
                           "--from", "3802,61031", "--to", "32644,85063",
                           "--method", "all", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["results"]) == 3
        assert payload["max_relative_deviation"] <= 1e-11

    def test_terminal_with_explicit_closed_method(self, capsys):
        code, _, err = run(capsys, "resist", "--M", "2", "--N", "2",
                           "--from", "O", "--to", "1,1", "--method", "closed")
        assert code == EXIT_USAGE
        assert "oracle" in err


class TestVerify:
    def test_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-M", "3", "--max-N", "3")
        assert code == EXIT_OK
        assert out.startswith("PASS")
        assert "max deviation" in out

    def test_single_node_vacuous(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-M", "1", "--max-N", "1")
        assert code == EXIT_OK
        assert "0 pairs" in out

    @pytest.mark.parametrize("option, bound", [("--min-M", "--max-M"),
                                               ("--min-N", "--max-N")])
    def test_empty_range_is_usage_error(self, capsys, option, bound):
        code, out, err = run(capsys, "verify", "--max-M", "2", "--max-N", "2",
                             option, "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert option in err and bound in err
        assert "Traceback" not in err

    def test_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-M", "2", "--max-N", "2",
                           "--tolerance", "1e-300")
        assert code == EXIT_TOLERANCE
        assert "FAIL" in out

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_route_fails(self, capsys, monkeypatch, value):
        monkeypatch.setattr(spectral, "resistance_spectral",
                            lambda *args: ResistanceResult(value, "spectral"))
        code, out, _ = run(capsys, "verify", "--max-M", "2", "--max-N", "2")
        assert code == EXIT_TOLERANCE
        assert out.startswith("FAIL") and "FAIL: 8 pairs, max deviation inf" in out

    def test_sampled(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-M", "3", "--max-N", "3",
                           "--samples", "2", "--seed", "7")
        assert code == EXIT_OK


class TestCurrents:
    def test_csv_dump_with_residual_line(self, capsys):
        code, out, _ = run(capsys, "currents", "--M", "1", "--N", "2",
                           "--from", "1,1", "--to", "2,1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "k,i,current"
        values = [abs(float(line.split(",")[2])) for line in lines[1:-1]]
        assert values == pytest.approx([0.25] * 4, abs=1e-12)
        assert lines[-1].startswith("# kirchhoff_residual,")
        assert float(lines[-1].split(",")[1]) < 1e-10

    def test_injection_scales_linearly(self, capsys):
        _, out1, _ = run(capsys, "currents", "--M", "2", "--N", "3",
                         "--from", "1,1", "--to", "3,2")
        _, out2, _ = run(capsys, "currents", "--M", "2", "--N", "3",
                         "--from", "1,1", "--to", "3,2", "--J", "2.0")
        for l1, l2 in zip(out1.strip().splitlines()[1:-1],
                          out2.strip().splitlines()[1:-1]):
            assert float(l2.split(",")[2]) == pytest.approx(
                2.0 * float(l1.split(",")[2]), abs=1e-12)

    def test_json(self, capsys):
        code, out, _ = run(capsys, "currents", "--M", "2", "--N", "2",
                           "--from", "1,1", "--to", "2,2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["kirchhoff_residual"] < 1e-10
        assert payload["truncation_bound"] == sys.float_info.epsilon
        assert len(payload["columns"]) == 2

    @pytest.mark.parametrize("injected", ["0", "-2.5"])
    def test_zero_and_reversed_injection_accepted(self, capsys, injected):
        code, out, _ = run(capsys, "currents", "--M", "2", "--N", "2",
                           "--from", "1,1", "--to", "2,2", "--J", injected,
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["J"] == float(injected)

    def test_terminal_rejected(self, capsys):
        code, _, err = run(capsys, "currents", "--M", "2", "--N", "2",
                           "--from", "O", "--to", "1,1")
        assert code == EXIT_USAGE
        assert "error:" in err


class TestBench:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "2,3",
                           "--methods", "closed,rt,oracle-rational", "--reps", "2")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["M", "N", "method", "seconds_per_pair", "ohms", "note"]
        assert len(rows) == 1 + 2 * 3
        for row in rows[1:]:
            assert float(row[3]) >= 0.0
            assert float(row[4]) > 0.0

    def test_cap_skip_row(self, capsys, monkeypatch):
        monkeypatch.setenv(oracle.RATIONAL_CAP_ENV, "5")
        code, out, _ = run(capsys, "bench", "--sizes", "3",
                           "--methods", "closed,oracle-rational", "--reps", "1")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        skipped = [row for row in rows if row[2] == "oracle-rational"]
        assert len(skipped) == 1
        assert "skipped" in skipped[0][5]
        assert skipped[0][3] == ""

    def test_double_sum_skip_row(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "21",
                           "--methods", "closed,spectral-double", "--reps", "1")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[2] == ["21", "21", "spectral-double", "", "",
                           "skipped: 441 nodes above double-sum cap 400"]

    def test_double_sum_agrees_with_reduced(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "4",
                           "--methods", "spectral-reduced,spectral-double",
                           "--reps", "1")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        values = [float(row[4]) for row in rows]
        assert values[0] == pytest.approx(values[1], rel=1e-11)

    def test_unknown_method(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "2", "--methods", "magic")
        assert code == EXIT_USAGE


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["verify", "--max-M", "2", "--max-N", "2", "--samples", "-1"],
        ["verify", "--max-M", "2", "--max-N", "2", "--samples", "0"],
        ["verify", "--max-M", "2", "--max-N", "2", "--tolerance", "nan"],
        ["verify", "--max-M", "2", "--max-N", "2", "--tolerance", "-1"],
        ["resist", "--M", "2", "--N", "2", "--from", "1,1", "--to", "2,2",
         "--tolerance", "nan"],
        ["resist", "--M", "2", "--N", "2", "--from", "1,1", "--to", "2,2",
         "--tolerance", "inf"],
        ["bench", "--sizes", "3", "--reps", "0"],
        ["bench", "--sizes", "3,x"],
        ["bench", "--sizes", "3,0"],
        ["currents", "--M", "2", "--N", "2", "--from", "1,1", "--to", "2,2",
         "--J", "nan"],
        ["currents", "--M", "2", "--N", "2", "--from", "1,1", "--to", "2,2",
         "--J", "inf"],
        ["currents", "--M", "2", "--N", "2", "--from", "1,1", "--to", "2,2",
         "--J=-inf"],
        ["resist", "--M", "2", "--N", "2", "--from", "1,1", "--to", "2,2",
         "--tolerance", "0"],
        ["resist", "--M", "2", "--N", "2", "--from", "1,1", "--to", "2,2",
         "--tolerance", "-1"],
        ["bench", "--sizes="],
        ["bench", "--sizes", ","],
        ["bench", "--sizes", "3", "--methods", ","],
        ["bench", "--sizes", "3", "--methods="],
    ])
    def test_bad_value_exits_2_without_traceback(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert captured.out == ""
        assert "error: argument --" in captured.err
        assert "Traceback" not in captured.err


class TestRawFailures:
    @pytest.mark.parametrize("failure", [
        MemoryError(),
        MemoryError("Unable to allocate 74.5 GiB for an array\nwith shape (100000, 100000)"),
        OverflowError("math range error"),
    ])
    def test_usage_error_without_traceback(self, capsys, monkeypatch, failure):
        def command(*args):
            raise failure

        monkeypatch.setattr(cli, "cmd_resist", command)
        monkeypatch.setattr(cli, "cmd_currents", command)
        for argv in (["resist", "--M", "2", "--N", "2", "--from", "1,1", "--to", "2,2"],
                     ["currents", "--M", "2", "--N", "2", "--from", "1,1", "--to", "2,2"]):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE
            assert out == ""
            assert err.startswith(f"error: {type(failure).__name__}: ")
            assert err.count("\n") == 1 and "Traceback" not in err


def test_package_and_cli_import_numpy_alone():
    """The library and the CLI load without mpmath, a test-only dependency.

    Importing them adds no work beyond loading their own code: every module
    loaded after numpy is stdlib or hammocknet, no thread is started and
    the per-instance caches are empty.
    """
    source_root = str(Path(hammocknet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    probe = "\n".join([
        "import sys, threading, numpy",
        "before = set(sys.modules)",
        "import hammocknet, hammocknet.cli",
        "assert hammocknet.__file__.startswith(sys.argv[1]), hammocknet.__file__",
        "assert 'mpmath' not in sys.modules, 'mpmath imported'",
        "extra = sorted(name for name in set(sys.modules) - before",
        "               if name.split('.')[0] not in sys.stdlib_module_names | {'hammocknet'})",
        "assert not extra, f'non-stdlib modules loaded: {extra}'",
        "assert threading.active_count() == 1, threading.enumerate()",
        "from hammocknet import closed_form, recurrence, spectral",
        "for cache in (closed_form._decay_table, recurrence.mode_transform,",
        "              spectral.eigen_system):",
        "    assert cache.cache_info().currsize == 0, cache",
    ])
    done = subprocess.run([sys.executable, "-c", probe, source_root], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
