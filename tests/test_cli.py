import itertools
import json
import math
import sys

import pytest

from zetalike import ZetalikeError, cli, rho_exact
from zetalike.tables import RHO_TABLE


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRhoCommand:
    def test_exact_value(self, capsys):
        code, out, _ = run_capture(capsys, ["rho", "2,1,3"])
        assert code == 0
        assert out == "1/72\n"

    def test_integer_value(self, capsys):
        code, out, _ = run_capture(capsys, ["rho", "1,1,2"])
        assert code == 0
        assert out == "1\n"

    def test_json_schema(self, capsys):
        code, out, _ = run_capture(capsys, ["rho", "2,3", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "index": [2, 3],
            "weight": 5,
            "depth": 2,
            "value": {"constant": "1/36", "zeta": {}},
        }

    def test_inadmissible_index_is_usage_error(self, capsys):
        code, _, err = run_capture(capsys, ["rho", "2,1"])
        assert code == 2
        assert "error" in err

    def test_malformed_index(self, capsys):
        code, _, err = run_capture(capsys, ["rho", "2,x"])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("index", ["1600", "2,100000"])
    def test_oversized_value_is_usage_error(self, capsys, index, fmt):
        code, out, err = run_capture(capsys, ["rho", index, "--format", fmt])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"rho({index.replace(',', ', ')})" in err

    def test_refusal_starts_where_printing_fails(self, capsys):
        limit = sys.get_int_max_str_digits()
        for index in [(1500,), *((n,) for n in range(1550, 1566)),
                      *((2, n) for n in range(1550, 1566))]:
            printable = rho_exact(index).denominator < 10**limit
            code, out, _ = run_capture(capsys, ["rho", ",".join(map(str, index))])
            assert code == (0 if printable else 2), index
            assert out == (f"{rho_exact(index)}\n" if printable else "")


class TestEtaCommand:
    @pytest.mark.parametrize("index", ["31,31", "32,32", "35,35"])
    def test_numeric_certifies_a_large_constant(self, capsys, index):
        code, out, err = run_capture(capsys, ["eta", index, "--mode", "numeric"])
        assert (code, err) == (0, "")
        assert float(out.split("(error <= ")[1].rstrip(")\n")) <= 1e-12

    def test_symbolic_pi_render(self, capsys):
        code, out, _ = run_capture(
            capsys, ["eta", "1,2", "--mode", "symbolic", "--render", "pi"]
        )
        assert code == 0
        assert out == "2 - pi^2/6\n"

    def test_symbolic_zeta_render(self, capsys):
        code, out, _ = run_capture(capsys, ["eta", "1,2"])
        assert code == 0
        assert out == "2 - zeta(2)\n"

    def test_numeric_mode(self, capsys):
        code, out, _ = run_capture(
            capsys, ["eta", "2", "--mode", "numeric", "--digits", "10"]
        )
        assert code == 0
        assert out.startswith("1.644934067")
        assert "error <=" in out

    def test_numeric_json(self, capsys):
        code, out, _ = run_capture(
            capsys, ["eta", "1,1,1", "--mode", "numeric", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["index"] == [1, 1, 1]
        assert "value" in obj["value"] and "error_bound" in obj["value"]

    @pytest.fixture
    def digit_limit_640(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oversized_value_is_usage_error(self, capsys, digit_limit_640, fmt):
        code, out, err = run_capture(capsys, ["eta", ",".join(["1"] * 400), "--format", fmt])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "more than 640 digits" in err

    def test_refusal_starts_where_printing_fails(self, capsys, digit_limit_640):
        # eta({1}^320) = 1/(319 * 319!), a denominator of `digits` digits: it
        # prints at that limit and is refused one digit below
        den = 319 * math.factorial(319)
        digits = next(n for n in itertools.count(1) if den < 10**n)
        sys.set_int_max_str_digits(digits - 1)
        code, out, _ = run_capture(capsys, ["eta", ",".join(["1"] * 320)])
        assert (code, out) == (2, "")
        sys.set_int_max_str_digits(digits)
        code, out, _ = run_capture(capsys, ["eta", ",".join(["1"] * 320)])
        assert (code, out) == (0, f"1/{den}\n")

    def test_pi_render_is_checked_as_printed(self, capsys, digit_limit_640):
        # zeta(400) prints, but its pi^400 coefficient has a 759-digit
        # denominator; that of pi^300 has 538 digits
        code, out, _ = run_capture(capsys, ["eta", "400"])
        assert (code, out) == (0, "zeta(400)\n")
        code, out, err = run_capture(capsys, ["eta", "400", "--render", "pi"])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        code, out, _ = run_capture(capsys, ["eta", "300", "--render", "pi"])
        assert code == 0 and "*pi^300/" in out
        # json prints the zeta basis whatever --render says, so it prints
        code, out, _ = run_capture(capsys, ["eta", "400", "--render", "pi", "--format", "json"])
        assert code == 0 and '"400": "1"' in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ["99999999999999999999"],
        ["1000000000000"],
        ["2,99999999999999999999"],
        ["5000000", "--mode", "numeric", "--digits", "5"],
        ["10001"],
    ])
    def test_oversized_weight_is_usage_error(self, capsys, argv, fmt):
        # these once ended in OverflowError or MemoryError or ran for minutes
        code, out, err = run_capture(capsys, ["eta", *argv, "--format", fmt])
        assert code == 2 and out == ""
        weight = sum(map(int, argv[0].split(",")))
        assert err == f"error: eta weight must be at most {cli.MAX_ETA_WEIGHT}, got {weight}\n"

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_weight_cap_is_inclusive(self, capsys, mode):
        cap = cli.MAX_ETA_WEIGHT
        code, out, _ = run_capture(capsys, ["eta", str(cap), "--mode", mode, "--digits", "5"])
        assert code == 0 and out
        code, out, _ = run_capture(capsys, ["eta", f"1,{cap}", "--mode", mode])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_work_cap_is_inclusive_and_refuses_before_evaluating(
        self, capsys, monkeypatch, mode
    ):
        # 2*3 + 2*1 + 3*1 = 11 pairwise products
        monkeypatch.setattr(cli, "MAX_ETA_WORK", 11)
        code, out, _ = run_capture(capsys, ["eta", "2,3,1", "--mode", mode, "--digits", "5"])
        assert code == 0 and out

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated an index over the work cap")

        monkeypatch.setattr(cli, "eta_symbolic", refuse)
        monkeypatch.setattr(cli, "eta_numeric", refuse)
        for fmt in ("text", "json"):
            code, out, err = run_capture(capsys, ["eta", "2,3,2", "--mode", mode, "--format", fmt])
            assert (code, out) == (2, "")
            assert err == "error: eta index needs sum of s_i*s_j over i < j at most 11, got 16\n"

    def test_zeta_work_cap_is_inclusive_and_refuses_before_evaluating(self, capsys, monkeypatch):
        # 2,3,1 evaluates zeta(2) and zeta(3), 2^2 + 3^2 = 13; a depth-1
        # index evaluates its one zeta(s), s^2
        monkeypatch.setattr(cli, "MAX_ZETA_WORK", 13)
        for argv in (["2,3,1", "--mode", "numeric"], ["3", "--mode", "numeric"],
                     ["2,4,1", "--mode", "symbolic"]):
            code, out, _ = run_capture(capsys, ["eta", *argv, "--digits", "5"])
            assert code == 0 and out, argv

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated an index over the zeta work cap")

        monkeypatch.setattr(cli, "eta_numeric", refuse)
        for index, work in (("2,4,1", 29), ("4", 16)):
            for fmt in ("text", "json"):
                code, out, err = run_capture(
                    capsys, ["eta", index, "--mode", "numeric", "--format", fmt])
                assert (code, out) == (2, "")
                assert err == ("error: numeric eta index needs sum of k^2 over its zeta(k) "
                               f"terms at most 13, got {work}\n")

    def test_zeta_work_cap_keeps_depth_one_and_refuses_many_large_zeta_terms(
        self, capsys, monkeypatch
    ):
        # eta 9999,1 --mode numeric ran for minutes; eta 2000,1 (about 4 s)
        # and depth 1 up to the weight cap stay accepted
        def reached(*args, **kwargs):
            raise ZetalikeError("reached")

        monkeypatch.setattr(cli, "eta_numeric", reached)
        for index in ("2000,1", "1,2000", str(cli.MAX_ETA_WEIGHT)):
            code, _, err = run_capture(capsys, ["eta", index, "--mode", "numeric"])
            assert (code, err) == (2, "error: reached\n"), index
        for index in ("2008,1", "9999,1", "1,1,3000"):
            code, _, err = run_capture(capsys, ["eta", index, "--mode", "numeric", "--digits", "5"])
            assert code == 2 and "zeta(k) terms at most" in err, index

    def test_numeric_refuses_an_index_needing_digits_past_the_cap(self, capsys):
        # passes every input guard; once asked zeta(k) for about 615 digits
        code, out, err = run_capture(capsys, ["eta", "1000,1000", "--mode", "numeric"])
        assert (code, out) == (2, "")
        assert err.startswith("error: could not certify (1000, 1000) to 1e-12: needs ")
        assert err.endswith(" digits (cap 300)\n") and err.count("\n") == 1

    def test_divergent_index(self, capsys):
        code, _, err = run_capture(capsys, ["eta", "1"])
        assert code == 2
        assert "diverges" in err


class TestTableCommand:
    def test_rho_weight_six_rows(self, capsys):
        code, out, _ = run_capture(capsys, ["table", "rho", "--weight", "6"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "| weight | depth | index | value |"
        assert len(lines) == 2 + 16  # header, separator, sixteen rows

    def test_rho_rows_match_reference(self, capsys):
        import csv as csv_mod
        import io as io_mod

        for weight in range(2, 7):
            code, out, _ = run_capture(
                capsys, ["table", "rho", "--weight", str(weight), "--format", "csv"]
            )
            assert code == 0
            for row in csv_mod.DictReader(io_mod.StringIO(out)):
                idx_tuple = tuple(int(x) for x in row["index"].split(","))
                assert str(RHO_TABLE[idx_tuple]) == row["value"]

    def test_eta_table_contains_known_row(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "eta", "--weight", "5", "--format", "csv", "--render", "zeta"]
        )
        assert code == 0
        assert '"2,1,2",1/16' in out

    def test_json_round_trip_byte_identical(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table", "eta", "--weight", "4", "--format", "json"]
        )
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_determinism(self, capsys):
        runs = [
            run_capture(capsys, ["table", "eta", "--weight", "5"])[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_weight_out_of_range(self, capsys):
        for weight in ("1", "40"):
            code, out, err = run_capture(capsys, ["table", "rho", "--weight", weight])
            assert code == 2 and out == ""
            assert err == f"error: table weight must be in 2..12, got {weight}\n"
        code, out, _ = run_capture(capsys, ["table", "rho", "--weight", "12", "--format", "csv"])
        assert code == 0 and out.count("\n") == 1 + 1024


class TestVerifyCommand:
    def test_balance_suite_passes(self, capsys):
        code, out, _ = run_capture(
            capsys, ["verify", "--suite", "balance", "--max-weight", "10"]
        )
        assert code == 0
        assert "all" in out and "passed" in out

    def test_tables_suite_json(self, capsys):
        code, out, _ = run_capture(
            capsys, ["verify", "--suite", "tables", "--format", "json"]
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 93
        assert all(r["passed"] for r in reports)

    def test_failure_exit_code(self, capsys, monkeypatch):
        from zetalike import tables
        from fractions import Fraction

        broken = dict(tables.RHO_TABLE)
        broken[(2,)] = Fraction(7)
        monkeypatch.setitem(tables.RHO_TABLE, (2,), Fraction(7))
        code, out, _ = run_capture(
            capsys, ["verify", "--suite", "tables", "--max-weight", "2"]
        )
        assert code == 1
        assert "FAILED" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_capture(
            capsys, ["verify", "--suite", "balance", "--max-weight", "2", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == "identity,parameters,passed,lhs,rhs,discrepancy"


class TestUsageErrors:
    def test_empty_verify_selection(self, capsys):
        for suite, cap in (("balance", "-5"), ("weighted", "2")):
            code, out, err = run_capture(capsys, ["verify", "--suite", suite, "--max-weight", cap])
            assert code == 2 and out == ""
            assert suite in err and cap in err
        # a suite of --suite all may be empty as long as another one is not
        code, out, _ = run_capture(capsys, ["verify", "--suite", "all", "--max-weight", "2"])
        assert code == 0 and "all 30 checks passed" in out

    def test_fixture_error_is_printed_without_quotes(self, capsys):
        for argv in (["verify", "--max-weight", "1"], ["verify", "--suite", "tables", "--max-weight", "1"]):
            code, _, err = run_capture(capsys, argv)
            assert code == 2
            assert err == "error: table fixtures start at weight 2, got cap 1\n"

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert cli.run([]) == 2

    def test_bad_digits(self, capsys):
        code, out, err = run_capture(capsys, ["eta", "2", "--mode", "numeric", "--digits", "0"])
        assert code == 2 and out == ""
        assert err == "error: --digits must be in 1..300, got 0\n"
        code, out, _ = run_capture(capsys, ["eta", "2", "--mode", "numeric", "--digits", "1"])
        assert code == 0 and out.startswith("2.0 (error <= ")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_capture(capsys, ["--help"])
        assert code == 0 and out.startswith("usage: zetalike")

    def test_parser_keeps_no_state_between_runs(self, capsys):
        # the parser is built once; a second run must see the default 12 digits
        _, short, _ = run_capture(capsys, ["eta", "2", "--mode", "numeric", "--digits", "7"])
        code, out, _ = run_capture(capsys, ["eta", "2", "--mode", "numeric"])
        assert short.startswith("1.644934 ")
        assert code == 0 and out.startswith("1.64493406685 ")

    def test_digits_above_limit(self, capsys):
        # 3000 once underflowed 10.0**-digits to 0.0 and ended in a traceback
        for digits in ("301", "3000"):
            for fmt in ("text", "json"):
                argv = ["eta", "2", "--mode", "numeric", "--digits", digits, "--format", fmt]
                code, out, err = run_capture(capsys, argv)
                assert code == 2 and out == ""
                assert err.startswith("error:") and "Traceback" not in err
        code, _, _ = run_capture(capsys, ["eta", "2", "--mode", "numeric", "--digits", "300"])
        assert code == 0
