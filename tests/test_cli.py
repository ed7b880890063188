"""CLI contract: subcommands, formats and exit codes."""

import csv
import io
import json

import pytest

from hammocknet import LatticeError, cli, oracle
from hammocknet.cli import EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, RunConfig, main


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
        # config block round-trips through the schema
        assert RunConfig.from_dict(payload["config"]).to_dict() == payload["config"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "resist", "--M", "1", "--N", "2",
                           "--from", "1,1", "--to", "2,1", "--method", "rt",
                           "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "ohms", "exact"]
        assert rows[1][0] == "rt"

    def test_invalid_node_usage_error(self, capsys):
        code, _, err = run(capsys, "resist", "--M", "2", "--N", "2",
                           "--from", "9,9", "--to", "1,1", "--method", "closed")
        assert code == EXIT_USAGE
        assert "error:" in err

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

    def test_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-M", "2", "--max-N", "2",
                           "--tolerance", "1e-300")
        assert code == EXIT_TOLERANCE
        assert "FAIL" in out

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
        assert len(payload["columns"]) == 2

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


class TestRunConfig:
    def test_json_round_trip(self):
        config = RunConfig(rows=3, cols=4, r=2.0, s=0.5, method="rt",
                           source="1,1", sink="3,2", fmt="json",
                           tolerance=1e-9)
        through = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert through == config

    def test_tolerance_validated(self):
        for tolerance in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(LatticeError):
                RunConfig(rows=1, cols=1, tolerance=tolerance)
